// Tests for the iterator command set (§II-A, §VI): the device's
// streaming kvs_* key iterators, the key+value mode of the iterator
// manager underneath them, and batched drains amortizing the command
// overhead.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "hash/murmur.hpp"
#include "kvssd/device.hpp"
#include "test_keys.hpp"

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
      ASSERT_EQ(dev_.put(key(test::numbered("user:", i)),
                         key(test::numbered("u", i))),
                Status::kOk);
      ASSERT_EQ(dev_.put(key(test::numbered("item:", i)), key("i")), Status::kOk);
    }
  }
  /// Drains a fresh key iterator over `prefix`.
  std::set<std::string> scan(const std::string& prefix) {
    std::set<std::string> seen;
    auto handle = dev_.kvs_open_iterator(key(prefix), nullptr);
    EXPECT_TRUE(handle);
    if (!handle) return seen;
    std::vector<Bytes> keys;
    Status s;
    while ((s = dev_.kvs_iterator_next(*handle, 10, &keys)) == Status::kOk) {
      for (const auto& k : keys) seen.insert(rhik::to_string(ByteSpan{k}));
    }
    EXPECT_EQ(s, Status::kNotFound);
    EXPECT_EQ(dev_.kvs_close_iterator(*handle), Status::kOk);
    return seen;
  }
  /// An iterator manager over the device's own index, data log, pin
  /// registry and version retainer: the key+value mode (§VI) lives here.
  IteratorManager value_iterators() {
    return IteratorManager(&dev_.index(), &dev_.store(),
                           &dev_.snapshots().registry, &dev_.version_retainer());
  }
  KvssdDevice dev_{iter_config()};
};

TEST_F(IteratorTest, EnumeratesPrefixInBatches) {
  auto handle = dev_.kvs_open_iterator(key("user"), nullptr);
  ASSERT_TRUE(handle);
  std::set<std::string> seen;
  std::vector<Bytes> keys;
  Status s;
  while ((s = dev_.kvs_iterator_next(*handle, 7, &keys)) == Status::kOk) {
    EXPECT_LE(keys.size(), 7u);
    for (const auto& k : keys) seen.insert(rhik::to_string(ByteSpan{k}));
  }
  EXPECT_EQ(s, Status::kNotFound);  // iterator end
  EXPECT_EQ(seen.size(), 25u);
  for (const auto& k : seen) EXPECT_EQ(k.substr(0, 5), "user:");
  EXPECT_EQ(dev_.kvs_close_iterator(*handle), Status::kOk);
}

TEST_F(IteratorTest, KeyValueIteratorReturnsValues) {
  IteratorManager mgr = value_iterators();
  auto handle = mgr.open(key("user"), {.include_values = true});
  ASSERT_TRUE(handle);
  std::vector<IteratorEntry> batch;
  std::size_t total = 0;
  while (mgr.next(*handle, 10, &batch) == Status::kOk) {
    for (const auto& e : batch) {
      const std::string k = rhik::to_string(ByteSpan{e.key});
      EXPECT_EQ(rhik::to_string(ByteSpan{e.value}), std::string("u").append(k, 5));
      ++total;
    }
  }
  EXPECT_EQ(total, 25u);
  EXPECT_EQ(mgr.close(*handle), Status::kOk);
}

TEST_F(IteratorTest, KeyValueIteratorHandlesMultiPageValues) {
  // Values spanning several flash pages (extents) come back whole.
  const std::string big(15000, 'X');
  ASSERT_EQ(dev_.put(key("user:big"), key(big)), Status::kOk);
  IteratorManager mgr = value_iterators();
  auto handle = mgr.open(key("user:big"), {.include_values = true});
  ASSERT_TRUE(handle);
  std::vector<IteratorEntry> batch;
  ASSERT_EQ(mgr.next(*handle, 10, &batch), Status::kOk);
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_EQ(rhik::to_string(ByteSpan{batch[0].value}), big);
  EXPECT_EQ(mgr.close(*handle), Status::kOk);
}

TEST_F(IteratorTest, EmptyPrefixClassYieldsEnd) {
  auto handle = dev_.kvs_open_iterator(key("nothing-matches"), nullptr);
  ASSERT_TRUE(handle);
  std::vector<Bytes> keys;
  EXPECT_EQ(dev_.kvs_iterator_next(*handle, 10, &keys), Status::kNotFound);
  EXPECT_EQ(dev_.kvs_close_iterator(*handle), Status::kOk);
}

TEST_F(IteratorTest, HandleLimitEnforced) {
  std::vector<std::uint64_t> handles;
  for (std::uint32_t i = 0; i < IteratorManager::kMaxOpenIterators; ++i) {
    auto h = dev_.kvs_open_iterator(key("user"), nullptr);
    ASSERT_TRUE(h) << i;
    handles.push_back(*h);
  }
  EXPECT_EQ(dev_.kvs_open_iterator(key("user"), nullptr).status(),
            Status::kIteratorMax);
  ASSERT_EQ(dev_.kvs_close_iterator(handles[0]), Status::kOk);
  EXPECT_TRUE(dev_.kvs_open_iterator(key("user"), nullptr).has_value());
}

TEST_F(IteratorTest, InvalidHandlesRejected) {
  std::vector<Bytes> keys;
  EXPECT_EQ(dev_.kvs_iterator_next(999, 10, &keys), Status::kInvalidArgument);
  EXPECT_EQ(dev_.kvs_close_iterator(999), Status::kInvalidArgument);
  EXPECT_EQ(dev_.kvs_open_iterator(key(""), nullptr).status(),
            Status::kInvalidArgument);
  auto handle = dev_.kvs_open_iterator(key("user"), nullptr);
  ASSERT_TRUE(handle);
  EXPECT_EQ(dev_.kvs_iterator_next(*handle, 0, &keys), Status::kInvalidArgument);
  EXPECT_EQ(dev_.kvs_iterator_next(*handle, 5, nullptr), Status::kInvalidArgument);
}

TEST_F(IteratorTest, SnapshotDoesNotSeeLaterInserts) {
  auto handle = dev_.kvs_open_iterator(key("user"), nullptr);
  ASSERT_TRUE(handle);
  ASSERT_EQ(dev_.put(key("user:new"), key("x")), Status::kOk);
  std::set<std::string> seen;
  std::vector<Bytes> keys;
  while (dev_.kvs_iterator_next(*handle, 10, &keys) == Status::kOk) {
    for (const auto& k : keys) seen.insert(rhik::to_string(ByteSpan{k}));
  }
  EXPECT_EQ(seen.count("user:new"), 0u);
  EXPECT_EQ(seen.size(), 25u);
  EXPECT_EQ(dev_.kvs_close_iterator(*handle), Status::kOk);
}

TEST_F(IteratorTest, KeysDeletedBeforeOpenAreAbsent) {
  ASSERT_EQ(dev_.del(key("user:3")), Status::kOk);
  const std::set<std::string> keys = scan("user");
  EXPECT_EQ(keys.size(), 24u);
  EXPECT_EQ(keys.count("user:3"), 0u);
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
  for (int i = 0; i < 25; ++i) want.insert(test::numbered("user:", i));
  EXPECT_EQ(seen, want);
  EXPECT_EQ(dev_.kvs_close_iterator(*handle), Status::kOk);
  EXPECT_EQ(dev_.release_snapshot(*snap), Status::kOk);
}

TEST(Iterator, UnsupportedWithoutPrefixSignatures) {
  DeviceConfig cfg;
  cfg.geometry = flash::Geometry::tiny(32);
  KvssdDevice dev(cfg);
  EXPECT_EQ(dev.kvs_open_iterator(as_bytes(std::string("a")), nullptr).status(),
            Status::kUnsupported);
  std::vector<Bytes> keys;
  EXPECT_EQ(dev.kvs_iterator_next(1, 5, &keys), Status::kUnsupported);
  EXPECT_EQ(dev.kvs_close_iterator(1), Status::kUnsupported);
}

TEST(Batch, CompoundCommandExecutesGroup) {
  // A group of queued commands drains as one batch, in submission order
  // per key, each completion carrying its own status (and a get's value).
  DeviceConfig cfg;
  cfg.geometry = flash::Geometry::tiny(64);
  KvssdDevice dev(cfg);
  ASSERT_EQ(dev.put(key("pre"), key("existing")), Status::kOk);

  std::vector<api::TaggedCompletion> done;
  dev.set_completion_sink([&](std::vector<api::TaggedCompletion>&& batch) {
    EXPECT_TRUE(done.empty()) << "one batch expected";
    done = std::move(batch);
  });
  dev.submit_put_tagged(0, Bytes{'a'}, Bytes{'1'});
  dev.submit_get_tagged(1, Bytes{'a'});
  dev.submit_get_tagged(2, Bytes{'p', 'r', 'e'});
  dev.submit_del_tagged(3, Bytes{'a'});
  dev.submit_get_tagged(4, Bytes{'a'});
  const std::uint64_t epoch = dev.snapshots().epochs.current();
  ASSERT_EQ(dev.drain(), 5u);
  EXPECT_EQ(dev.snapshots().epochs.current(), epoch + 1);  // one batch, one epoch

  ASSERT_EQ(done.size(), 5u);
  Status by_tag[5] = {};
  std::string values[5];
  for (const auto& c : done) {
    by_tag[c.tag] = c.status;
    values[c.tag] = rhik::to_string(ByteSpan{c.value});
  }
  EXPECT_EQ(by_tag[0], Status::kOk);
  EXPECT_EQ(by_tag[1], Status::kOk);
  EXPECT_EQ(values[1], "1");
  EXPECT_EQ(by_tag[2], Status::kOk);
  EXPECT_EQ(values[2], "existing");
  EXPECT_EQ(by_tag[3], Status::kOk);
  EXPECT_EQ(by_tag[4], Status::kNotFound);
}

TEST(Batch, AmortizesCommandOverhead) {
  // N queued commands drained together cost N / queue_depth fixed
  // overheads instead of N.
  DeviceConfig cfg;
  cfg.geometry = flash::Geometry::tiny(64);
  cfg.cmd_overhead_ns = 50 * kMicrosecond;

  KvssdDevice singles(cfg);
  for (int i = 0; i < 50; ++i) {
    ASSERT_EQ(singles.put(key(test::numbered("k", i)), key("v")), Status::kOk);
  }

  KvssdDevice batched(cfg);
  int acked = 0;
  batched.set_completion_sink([&](std::vector<api::TaggedCompletion>&& done) {
    for (const auto& c : done) {
      EXPECT_EQ(c.status, Status::kOk);
      ++acked;
    }
  });
  for (int i = 0; i < 50; ++i) {
    const std::string k = test::numbered("k", i);
    batched.submit_put_tagged(i, Bytes(k.begin(), k.end()), Bytes{'v'});
  }
  ASSERT_EQ(batched.drain(), 50u);
  EXPECT_EQ(acked, 50);

  EXPECT_LT(batched.clock().now(), singles.clock().now());
  // Specifically: ~49 fewer command overheads.
  EXPECT_LT(batched.clock().now() + 45 * cfg.cmd_overhead_ns,
            singles.clock().now());
}

}  // namespace
}  // namespace rhik::kvssd
