// Tests for the iterator command set (§II-A, §VI) and the compound
// (batch) command extension.
#include <gtest/gtest.h>

#include <set>
#include <string>

#include "hash/murmur.hpp"
#include "kvssd/device.hpp"

namespace rhik::kvssd {
namespace {

DeviceConfig iter_config() {
  DeviceConfig cfg;
  cfg.geometry = flash::Geometry::tiny(64);
  cfg.prefix_signatures = true;  // §VI signature scheme
  return cfg;
}

ByteSpan key(const std::string& s) { return as_bytes(s); }

class IteratorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    for (int i = 0; i < 25; ++i) {
      ASSERT_EQ(dev_.put(key("user:" + std::to_string(i)),
                         key("u" + std::to_string(i))),
                Status::kOk);
      ASSERT_EQ(dev_.put(key("item:" + std::to_string(i)), key("i")), Status::kOk);
    }
  }
  KvssdDevice dev_{iter_config()};
};

TEST_F(IteratorTest, EnumeratesPrefixInBatches) {
  auto handle = dev_.open_iterator(key("user"));
  ASSERT_TRUE(handle);
  std::set<std::string> seen;
  std::vector<IteratorEntry> batch;
  Status s;
  while ((s = dev_.iterator_next(*handle, 7, &batch)) == Status::kOk) {
    EXPECT_LE(batch.size(), 7u);
    for (const auto& e : batch) seen.insert(rhik::to_string(ByteSpan{e.key}));
  }
  EXPECT_EQ(s, Status::kNotFound);  // iterator end
  EXPECT_EQ(seen.size(), 25u);
  for (const auto& k : seen) EXPECT_EQ(k.substr(0, 5), "user:");
  EXPECT_EQ(dev_.close_iterator(*handle), Status::kOk);
}

TEST_F(IteratorTest, KeyValueIteratorReturnsValues) {
  auto handle = dev_.open_iterator(key("user"), {.include_values = true});
  ASSERT_TRUE(handle);
  std::vector<IteratorEntry> batch;
  std::size_t total = 0;
  while (dev_.iterator_next(*handle, 10, &batch) == Status::kOk) {
    for (const auto& e : batch) {
      const std::string k = rhik::to_string(ByteSpan{e.key});
      EXPECT_EQ(rhik::to_string(ByteSpan{e.value}), "u" + k.substr(5));
      ++total;
    }
  }
  EXPECT_EQ(total, 25u);
  dev_.close_iterator(*handle);
}

TEST_F(IteratorTest, KeyValueIteratorHandlesMultiPageValues) {
  // Values spanning several flash pages (extents) come back whole.
  const std::string big(15000, 'X');
  ASSERT_EQ(dev_.put(key("user:big"), key(big)), Status::kOk);
  auto handle = dev_.open_iterator(key("user:big"), {.include_values = true});
  ASSERT_TRUE(handle);
  std::vector<IteratorEntry> batch;
  ASSERT_EQ(dev_.iterator_next(*handle, 10, &batch), Status::kOk);
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_EQ(rhik::to_string(ByteSpan{batch[0].value}), big);
  dev_.close_iterator(*handle);
}

TEST_F(IteratorTest, EmptyPrefixClassYieldsEnd) {
  auto handle = dev_.open_iterator(key("nothing-matches"));
  ASSERT_TRUE(handle);
  std::vector<IteratorEntry> batch;
  EXPECT_EQ(dev_.iterator_next(*handle, 10, &batch), Status::kNotFound);
  dev_.close_iterator(*handle);
}

TEST_F(IteratorTest, HandleLimitEnforced) {
  std::vector<std::uint32_t> handles;
  for (std::uint32_t i = 0; i < IteratorManager::kMaxOpenIterators; ++i) {
    auto h = dev_.open_iterator(key("user"));
    ASSERT_TRUE(h) << i;
    handles.push_back(*h);
  }
  EXPECT_EQ(dev_.open_iterator(key("user")).status(), Status::kIteratorMax);
  ASSERT_EQ(dev_.close_iterator(handles[0]), Status::kOk);
  EXPECT_TRUE(dev_.open_iterator(key("user")).has_value());
}

TEST_F(IteratorTest, InvalidHandlesRejected) {
  std::vector<IteratorEntry> batch;
  EXPECT_EQ(dev_.iterator_next(999, 10, &batch), Status::kInvalidArgument);
  EXPECT_EQ(dev_.close_iterator(999), Status::kInvalidArgument);
  EXPECT_EQ(dev_.open_iterator(key("")).status(), Status::kInvalidArgument);
  auto handle = dev_.open_iterator(key("user"));
  ASSERT_TRUE(handle);
  EXPECT_EQ(dev_.iterator_next(*handle, 0, &batch), Status::kInvalidArgument);
  EXPECT_EQ(dev_.iterator_next(*handle, 5, nullptr), Status::kInvalidArgument);
}

TEST_F(IteratorTest, SnapshotDoesNotSeeLaterInserts) {
  auto handle = dev_.open_iterator(key("user"));
  ASSERT_TRUE(handle);
  ASSERT_EQ(dev_.put(key("user:new"), key("x")), Status::kOk);
  std::set<std::string> seen;
  std::vector<IteratorEntry> batch;
  while (dev_.iterator_next(*handle, 10, &batch) == Status::kOk) {
    for (const auto& e : batch) seen.insert(rhik::to_string(ByteSpan{e.key}));
  }
  EXPECT_EQ(seen.count("user:new"), 0u);
  EXPECT_EQ(seen.size(), 25u);
  dev_.close_iterator(*handle);
}

TEST_F(IteratorTest, KeysDeletedBeforeOpenAreAbsent) {
  ASSERT_EQ(dev_.del(key("user:3")), Status::kOk);
  std::vector<Bytes> keys;
  ASSERT_EQ(dev_.iterate_prefix(key("user"), &keys), Status::kOk);
  EXPECT_EQ(keys.size(), 24u);
  for (const auto& k : keys) {
    EXPECT_NE(rhik::to_string(ByteSpan{k}), "user:3");
  }
}

TEST_F(IteratorTest, PinnedScanOpenedAfterChurnSeesSnapshotKeys) {
  auto snap = dev_.open_snapshot();
  ASSERT_TRUE(snap);
  // Churn between the pin and the open: the deleted keys are gone from
  // the index and reach the iterator only through retained versions.
  ASSERT_EQ(dev_.del(key("user:3")), Status::kOk);
  ASSERT_EQ(dev_.del(key("user:4")), Status::kOk);
  ASSERT_EQ(dev_.put(key("user:5"), key("newer")), Status::kOk);
  ASSERT_EQ(dev_.put(key("user:late"), key("x")), Status::kOk);

  // The class-filtered index scan is the full scan, then filtered.
  const std::uint64_t tag = hash::class_tag(hash::prefix_signature(key("user")));
  std::set<std::uint64_t> full, filtered;
  ASSERT_EQ(dev_.index().scan([&](std::uint64_t sig, flash::Ppa) {
    if (hash::class_tag(sig) == tag) full.insert(sig);
  }), Status::kOk);
  ASSERT_EQ(dev_.index().scan([&](std::uint64_t sig, flash::Ppa) { filtered.insert(sig); },
                              tag),
            Status::kOk);
  EXPECT_EQ(filtered, full);
  EXPECT_EQ(filtered.size(), 24u);  // 25 - 2 deleted + user:late

  auto handle = dev_.kvs_open_iterator(key("user"), &*snap);
  ASSERT_TRUE(handle);
  std::set<std::string> seen;
  std::vector<Bytes> keys;
  while (dev_.kvs_iterator_next(*handle, 6, &keys) == Status::kOk) {
    for (const auto& k : keys) seen.insert(rhik::to_string(ByteSpan{k}));
  }
  std::set<std::string> want;
  for (int i = 0; i < 25; ++i) want.insert("user:" + std::to_string(i));
  EXPECT_EQ(seen, want);
  EXPECT_EQ(dev_.kvs_close_iterator(*handle), Status::kOk);
  EXPECT_EQ(dev_.release_snapshot(*snap), Status::kOk);
}

TEST(Iterator, UnsupportedWithoutPrefixSignatures) {
  DeviceConfig cfg;
  cfg.geometry = flash::Geometry::tiny(32);
  KvssdDevice dev(cfg);
  EXPECT_EQ(dev.open_iterator(as_bytes(std::string("a"))).status(),
            Status::kUnsupported);
  std::vector<IteratorEntry> batch;
  EXPECT_EQ(dev.iterator_next(1, 5, &batch), Status::kUnsupported);
  EXPECT_EQ(dev.close_iterator(1), Status::kUnsupported);
}

TEST(Batch, CompoundCommandExecutesGroup) {
  DeviceConfig cfg;
  cfg.geometry = flash::Geometry::tiny(64);
  KvssdDevice dev(cfg);
  ASSERT_EQ(dev.put(key("pre"), key("existing")), Status::kOk);

  using Op = KvssdDevice::BatchOp;
  std::vector<Op> ops(5);
  ops[0] = {Op::Kind::kPut, Bytes{'a'}, Bytes{'1'}, Status::kOk};
  ops[1] = {Op::Kind::kGet, Bytes{'a'}, {}, Status::kOk};
  ops[2] = {Op::Kind::kExist, Bytes{'p', 'r', 'e'}, {}, Status::kOk};
  ops[3] = {Op::Kind::kDel, Bytes{'a'}, {}, Status::kOk};
  ops[4] = {Op::Kind::kGet, Bytes{'a'}, {}, Status::kOk};

  ASSERT_EQ(dev.execute_batch(ops), Status::kOk);
  EXPECT_EQ(ops[0].status, Status::kOk);
  EXPECT_EQ(ops[1].status, Status::kOk);
  EXPECT_EQ(rhik::to_string(ByteSpan{ops[1].value}), "1");
  EXPECT_EQ(ops[2].status, Status::kOk);
  EXPECT_EQ(ops[3].status, Status::kOk);
  EXPECT_EQ(ops[4].status, Status::kNotFound);
  EXPECT_EQ(dev.stats().batches, 1u);
}

TEST(Batch, AmortizesCommandOverhead) {
  // The compound-command motivation ([8]): N ops in one NVMe round trip
  // cost one fixed overhead instead of N.
  DeviceConfig cfg;
  cfg.geometry = flash::Geometry::tiny(64);
  cfg.cmd_overhead_ns = 50 * kMicrosecond;

  KvssdDevice singles(cfg);
  for (int i = 0; i < 50; ++i) {
    ASSERT_EQ(singles.put(key("k" + std::to_string(i)), key("v")), Status::kOk);
  }

  KvssdDevice batched(cfg);
  std::vector<KvssdDevice::BatchOp> ops;
  for (int i = 0; i < 50; ++i) {
    const std::string k = "k" + std::to_string(i);
    ops.push_back({KvssdDevice::BatchOp::Kind::kPut, Bytes(k.begin(), k.end()),
                   Bytes{'v'}, Status::kOk});
  }
  ASSERT_EQ(batched.execute_batch(ops), Status::kOk);
  for (const auto& op : ops) EXPECT_EQ(op.status, Status::kOk);

  EXPECT_LT(batched.clock().now(), singles.clock().now());
  // Specifically: ~49 fewer command overheads.
  EXPECT_LT(batched.clock().now() + 45 * cfg.cmd_overhead_ns,
            singles.clock().now());
}

}  // namespace
}  // namespace rhik::kvssd
