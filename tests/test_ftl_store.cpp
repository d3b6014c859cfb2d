// Unit tests for the log-structured KV data path (small pairs packed into
// shared pages, large pairs as multi-page extents, Fig. 4).
#include <gtest/gtest.h>

#include <string>

#include "common/rng.hpp"
#include "common/sim_clock.hpp"
#include "ftl/kv_store.hpp"
#include "test_keys.hpp"

namespace rhik::ftl {
namespace {

using flash::Geometry;
using flash::NandLatency;

class StoreTest : public ::testing::Test {
 protected:
  StoreTest()
      : nand_(Geometry::tiny(32), NandLatency::kvemu_defaults(), &clock_),
        alloc_(&nand_, 2),
        store_(&nand_, &alloc_) {}

  Result<flash::Ppa> put(std::uint64_t sig, const std::string& key,
                         const std::string& value) {
    return store_.write_pair(sig, as_bytes(key), as_bytes(value));
  }

  SimClock clock_;
  flash::NandDevice nand_;
  PageAllocator alloc_;
  FlashKvStore store_;
};

TEST_F(StoreTest, WriteThenReadSmallPair) {
  auto ppa = put(42, "hello", "world");
  ASSERT_TRUE(ppa);
  Bytes key, value;
  ASSERT_EQ(store_.read_pair(*ppa, 42, &key, &value), Status::kOk);
  EXPECT_EQ(rhik::to_string(key), "hello");
  EXPECT_EQ(rhik::to_string(value), "world");
}

TEST_F(StoreTest, SmallPairsShareAPage) {
  auto p1 = put(1, "key-a", "vvv");
  auto p2 = put(2, "key-b", "www");
  ASSERT_TRUE(p1 && p2);
  EXPECT_EQ(*p1, *p2);  // both buffered into the same open head page
  // Both readable from the open buffer (not yet programmed).
  Bytes k, v;
  ASSERT_EQ(store_.read_pair(*p1, 1, &k, &v), Status::kOk);
  EXPECT_EQ(rhik::to_string(v), "vvv");
  ASSERT_EQ(store_.read_pair(*p2, 2, &k, &v), Status::kOk);
  EXPECT_EQ(rhik::to_string(v), "www");
}

TEST_F(StoreTest, ReadAfterFlushHitsFlash) {
  auto ppa = put(7, "kk", "flushed-value");
  ASSERT_TRUE(ppa);
  ASSERT_EQ(store_.flush(), Status::kOk);
  EXPECT_FALSE(store_.open_page().has_value());
  Bytes k, v;
  const auto reads_before = nand_.stats().page_reads;
  ASSERT_EQ(store_.read_pair(*ppa, 7, &k, &v), Status::kOk);
  EXPECT_EQ(rhik::to_string(v), "flushed-value");
  EXPECT_GT(nand_.stats().page_reads, reads_before);
}

TEST_F(StoreTest, PageRollsOverWhenFull) {
  // 4 KiB pages; ~36 pairs of ~110 B fill a page.
  flash::Ppa first = 0;
  flash::Ppa last = 0;
  for (int i = 0; i < 80; ++i) {
    auto ppa = put(1000 + i, test::numbered("key-", i), std::string(90, 'x'));
    ASSERT_TRUE(ppa);
    if (i == 0) first = *ppa;
    last = *ppa;
  }
  EXPECT_NE(first, last);
  // Early pairs are on flash now; still readable.
  Bytes k, v;
  ASSERT_EQ(store_.read_pair(first, 1000, &k, &v), Status::kOk);
  EXPECT_EQ(rhik::to_string(k), "key-0");
}

TEST_F(StoreTest, LargeValueExtentRoundTrip) {
  // 4 KiB pages, value spanning ~5 pages.
  std::string value(18000, '\0');
  Rng rng(1);
  for (auto& c : value) c = static_cast<char>('a' + rng.next_below(26));
  auto ppa = put(77, "big-key", value);
  ASSERT_TRUE(ppa);
  Bytes k, v;
  ASSERT_EQ(store_.read_pair(*ppa, 77, &k, &v), Status::kOk);
  EXPECT_EQ(rhik::to_string(k), "big-key");
  EXPECT_EQ(rhik::to_string(v), value);
  EXPECT_EQ(store_.stats().extents_written, 1u);
}

TEST_F(StoreTest, ExtentFlushesOpenPageFirst) {
  auto small = put(1, "small", "s");
  ASSERT_TRUE(small);
  auto big = put(2, "big", std::string(10000, 'B'));
  ASSERT_TRUE(big);
  // The small pair's page was programmed before the extent.
  Bytes k, v;
  ASSERT_EQ(store_.read_pair(*small, 1, &k, &v), Status::kOk);
  EXPECT_EQ(rhik::to_string(v), "s");
  ASSERT_EQ(store_.read_pair(*big, 2, &k, &v), Status::kOk);
  EXPECT_EQ(v.size(), 10000u);
}

TEST_F(StoreTest, ReadPairMetaSkipsValue) {
  const std::string value(12000, 'M');
  auto ppa = put(5, "meta-key", value);
  ASSERT_TRUE(ppa);
  const auto reads_before = nand_.stats().page_reads;
  auto meta = store_.read_pair_meta(*ppa, 5);
  ASSERT_TRUE(meta);
  EXPECT_EQ(rhik::to_string(ByteSpan{meta->key}), "meta-key");
  EXPECT_EQ(meta->value_len, 12000u);
  EXPECT_EQ(meta->total_bytes, PairHeader::kSize + 8 + 12000);
  // Only the head page was read (continuation pages skipped).
  EXPECT_LE(nand_.stats().page_reads - reads_before, 1u);
}

TEST_F(StoreTest, MissingSignatureIsNotFound) {
  auto ppa = put(10, "aa", "bb");
  ASSERT_TRUE(ppa);
  Bytes k, v;
  EXPECT_EQ(store_.read_pair(*ppa, 999, &k, &v), Status::kNotFound);
  EXPECT_EQ(store_.read_pair_meta(*ppa, 999).status(), Status::kNotFound);
}

TEST_F(StoreTest, DuplicateSigInPageReturnsNewest) {
  // An update that lands in the same open page: the parser must prefer
  // the most recently appended version.
  auto p1 = put(33, "dup", "old");
  auto p2 = put(33, "dup", "new!");
  ASSERT_TRUE(p1 && p2);
  ASSERT_EQ(*p1, *p2);
  Bytes k, v;
  ASSERT_EQ(store_.read_pair(*p2, 33, &k, &v), Status::kOk);
  EXPECT_EQ(rhik::to_string(v), "new!");
}

TEST_F(StoreTest, NullOutputsSkipCopies) {
  auto ppa = put(21, "null-out", std::string(6000, 'n'));
  ASSERT_TRUE(ppa);
  // Key-only verification path: no value output requested.
  Bytes k;
  ASSERT_EQ(store_.read_pair(*ppa, 21, &k, nullptr), Status::kOk);
  EXPECT_EQ(rhik::to_string(k), "null-out");
  // Neither output requested: pure existence probe of the pair.
  ASSERT_EQ(store_.read_pair(*ppa, 21, nullptr, nullptr), Status::kOk);
}

TEST_F(StoreTest, InvalidInputsRejected) {
  EXPECT_EQ(put(1, "", "v").status(), Status::kInvalidArgument);
  const std::string huge(store_.max_value_size(3) + 1, 'x');
  EXPECT_EQ(put(1, "key", huge).status(), Status::kInvalidArgument);
}

TEST_F(StoreTest, MaxValueSizeFitsOneBlock) {
  const auto& g = nand_.geometry();
  const std::uint64_t max = store_.max_value_size(8);
  const std::uint64_t pair = FlashKvStore::pair_bytes(8, max);
  EXPECT_LE(extent_pages(g, pair), g.pages_per_block);
  // One byte more would exceed the single-block extent cap.
  EXPECT_GT(extent_pages(g, pair + 1), g.pages_per_block);
}

TEST_F(StoreTest, LiveBytesAccountedOnWriteAndStale) {
  auto ppa = put(9, "acct", "0123456789");
  ASSERT_TRUE(ppa);
  const std::uint32_t blk = flash::ppa_block(nand_.geometry(), *ppa);
  const std::uint64_t pair = FlashKvStore::pair_bytes(4, 10);
  EXPECT_EQ(alloc_.block_live_bytes(blk), pair);
  store_.note_stale(*ppa, pair);
  EXPECT_EQ(alloc_.block_live_bytes(blk), 0u);
}

TEST_F(StoreTest, ManyPairsSurviveChurn) {
  Rng rng(4);
  std::vector<std::pair<std::uint64_t, flash::Ppa>> live;
  for (int i = 0; i < 500; ++i) {
    const std::string key = test::numbered("churn-", i);
    const std::string value(rng.next_range(1, 300), 'c');
    auto ppa = put(5000 + i, key, value);
    ASSERT_TRUE(ppa);
    live.emplace_back(5000 + i, *ppa);
  }
  Rng check(7);
  for (int i = 0; i < 100; ++i) {
    const auto& [sig, ppa] = live[check.next_below(live.size())];
    Bytes k, v;
    ASSERT_EQ(store_.read_pair(ppa, sig, &k, &v), Status::kOk);
    EXPECT_EQ(rhik::to_string(k), test::numbered("churn-", sig - 5000));
  }
}

// Parameterized sweep across the value sizes the paper benchmarks.
class StoreValueSizeTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(StoreValueSizeTest, RoundTripAtSize) {
  SimClock clock;
  flash::NandDevice nand(Geometry::tiny(64), NandLatency::kvemu_defaults(), &clock);
  PageAllocator alloc(&nand, 2);
  FlashKvStore store(&nand, &alloc);

  const std::size_t size = GetParam();
  std::string value(size, '\0');
  for (std::size_t i = 0; i < size; ++i) value[i] = static_cast<char>('A' + i % 23);

  auto ppa = store.write_pair(123, as_bytes(std::string("szkey")), as_bytes(value));
  ASSERT_TRUE(ppa);
  Bytes k, v;
  ASSERT_EQ(store.read_pair(*ppa, 123, &k, &v), Status::kOk);
  EXPECT_EQ(rhik::to_string(v), value);
}

INSTANTIATE_TEST_SUITE_P(Sizes, StoreValueSizeTest,
                         ::testing::Values(1, 11, 100, 1000, 4000, 4086, 4087,
                                           8192, 20000, 60000));

}  // namespace
}  // namespace rhik::ftl
