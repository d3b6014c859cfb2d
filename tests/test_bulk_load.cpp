// Tests for IIndex::bulk_load, the full-scan restart's index rebuild:
// every non-empty record page is built in DRAM and programmed once, at
// any cache size; RHIK sizes its directory up front and grows (or spills
// to an overflow page) instead of aborting; kIndexFull only at the cap.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <optional>
#include <set>
#include <vector>

#include "common/rng.hpp"
#include "index/mlhash/mlhash_index.hpp"
#include "index/rhik/rhik_index.hpp"
#include "index_test_rig.hpp"

namespace rhik::index {
namespace {

using flash::Ppa;

/// `n` records with distinct signatures drawn by `make_sig`, sorted in
/// bulk install order. The PPA is the record's draw index (index-only
/// rigs never dereference it).
template <typename MakeSig>
std::vector<hash::Record> sorted_records(std::size_t n, MakeSig make_sig) {
  std::set<std::uint64_t> sigs;
  while (sigs.size() < n) sigs.insert(make_sig());
  std::vector<hash::Record> recs;
  for (const std::uint64_t sig : sigs) recs.push_back({sig, recs.size() + 1});
  std::sort(recs.begin(), recs.end(), [](const hash::Record& a, const hash::Record& b) {
    return bulk_order_key(a.sig) < bulk_order_key(b.sig);
  });
  return recs;
}

std::vector<hash::Record> random_records(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  return sorted_records(n, [&] { return rng.next(); });
}

template <typename Rig>
void expect_all_found(Rig& rig, const std::vector<hash::Record>& recs) {
  EXPECT_EQ(rig.index.size(), recs.size());
  for (const hash::Record& r : recs) {
    const auto got = rig.index.get(r.sig);
    ASSERT_TRUE(got.has_value()) << r.sig;
    EXPECT_EQ(*got, r.ppa) << r.sig;
  }
}

/// Every page programmed so far is still a live index page: no record
/// page was written twice (a rewrite stales the older copy), and an empty
/// table is never programmed at all.
template <typename Rig>
void expect_every_program_live(Rig& rig) {
  const auto& g = rig.nand.geometry();
  std::uint64_t programmed = 0;
  for (std::uint32_t b = 0; b < g.num_blocks; ++b) {
    for (std::uint32_t p = 0; p < rig.nand.pages_programmed(b); ++p) {
      ++programmed;
      EXPECT_TRUE(rig.index.gc_is_live_index_page(flash::make_ppa(g, b, p)))
          << "block " << b << " page " << p;
    }
  }
  EXPECT_EQ(programmed, rig.index.op_stats().flash_writes);
}

struct RhikKind {
  using Index = RhikIndex;
  using Config = RhikConfig;
  static Config config() { return {}; }
};
struct MlHashKind {
  using Index = MlHashIndex;
  using Config = MlHashConfig;
  // Level 0 holds about a quarter of the keys, so loads spill down levels.
  static Config config() { return MlHashConfig::for_keys(2'000, 4096, 4); }
};

template <typename Kind>
class BulkLoad : public ::testing::Test {
 protected:
  using Rig = testutil::IndexRig<typename Kind::Index, typename Kind::Config>;
};
using Kinds = ::testing::Types<RhikKind, MlHashKind>;
TYPED_TEST_SUITE(BulkLoad, Kinds);

TYPED_TEST(BulkLoad, ProgramsEachNonEmptyPageOnceAtAnyCacheSize) {
  const auto recs = random_records(1'500, 11);
  std::optional<std::uint64_t> first_writes;
  for (const std::uint64_t cache : {std::uint64_t{8} << 10, std::uint64_t{1} << 20}) {
    typename TestFixture::Rig rig(TypeParam::config(), cache);
    ASSERT_EQ(rig.index.bulk_load(recs), Status::kOk);
    EXPECT_EQ(rig.index.op_stats().flash_reads, 0u);
    EXPECT_EQ(rig.nand.stats().page_reads, 0u);
    expect_every_program_live(rig);
    expect_all_found(rig, recs);
    const std::uint64_t writes = rig.index.op_stats().flash_writes;
    EXPECT_EQ(writes, first_writes.value_or(writes)) << "cache " << cache;
    first_writes = writes;
  }
}

TYPED_TEST(BulkLoad, LoadedIndexKeepsServingMutations) {
  const auto recs = random_records(1'000, 12);
  typename TestFixture::Rig rig(TypeParam::config());
  ASSERT_EQ(rig.index.bulk_load(recs), Status::kOk);
  ASSERT_EQ(rig.index.put(recs[0].sig, 99'999), Status::kOk);
  EXPECT_EQ(*rig.index.get(recs[0].sig), 99'999u);
  ASSERT_EQ(rig.index.erase(recs[1].sig), Status::kOk);
  EXPECT_FALSE(rig.index.get(recs[1].sig).has_value());
  EXPECT_EQ(rig.index.size(), recs.size() - 1);
  std::uint64_t visited = 0;
  ASSERT_EQ(rig.index.scan([&](std::uint64_t, Ppa) { ++visited; }), Status::kOk);
  EXPECT_EQ(visited, recs.size() - 1);
}

TYPED_TEST(BulkLoad, RejectsUnsortedInputAndNonEmptyIndex) {
  auto recs = random_records(100, 13);
  {
    typename TestFixture::Rig rig(TypeParam::config());
    auto unsorted = recs;
    std::swap(unsorted[3], unsorted[70]);
    EXPECT_EQ(rig.index.bulk_load(unsorted), Status::kInvalidArgument);
    auto duplicated = recs;
    duplicated[4] = duplicated[3];
    EXPECT_EQ(rig.index.bulk_load(duplicated), Status::kInvalidArgument);
    EXPECT_EQ(rig.index.op_stats().flash_writes, 0u);
  }
  typename TestFixture::Rig rig(TypeParam::config());
  ASSERT_EQ(rig.index.put(recs[0].sig, 1), Status::kOk);
  EXPECT_EQ(rig.index.bulk_load(recs), Status::kBusy);
}

// -- RHIK: directory sizing, growth, overflow, the cap -------------------------

using RhikRig = testutil::IndexRig<RhikIndex, RhikConfig>;

/// Records whose signatures all share their low `fixed_bits` bits (zero):
/// at any directory size up to that many bits they land in one bucket.
std::vector<hash::Record> one_bucket_records(std::size_t n, std::uint32_t fixed_bits,
                                             std::uint64_t seed) {
  Rng rng(seed);
  return sorted_records(n, [&] { return rng.next() << fixed_bits; });
}

std::uint64_t distinct_buckets(const std::vector<hash::Record>& recs,
                               std::uint32_t bits) {
  std::set<std::uint64_t> buckets;
  for (const hash::Record& r : recs) buckets.insert(r.sig & ((1ull << bits) - 1));
  return buckets.size();
}

TEST(RhikBulkLoad, SizesDirectoryOnceByEq2AtTheResizeThreshold) {
  // tiny pages: R = 240; at the 0.8 threshold a bucket takes 192 keys.
  for (const auto& [keys, bits] : std::vector<std::pair<std::size_t, std::uint32_t>>{
           {150, 0}, {192, 0}, {193, 1}, {1'500, 3}, {1'537, 4}}) {
    RhikRig rig;
    const auto recs = random_records(keys, 14 + keys);
    ASSERT_EQ(rig.index.bulk_load(recs), Status::kOk) << keys;
    EXPECT_EQ(rig.index.dir_bits(), bits) << keys;
    EXPECT_EQ(rig.index.op_stats().resizes, 0u);
    EXPECT_EQ(rig.index.op_stats().flash_writes, distinct_buckets(recs, bits));
    expect_all_found(rig, recs);
  }
  // A larger anticipated_keys wins over the recovered count.
  RhikConfig cfg;
  cfg.anticipated_keys = 240 * 16;
  RhikRig rig(cfg);
  ASSERT_EQ(rig.index.bulk_load(random_records(100, 15)), Status::kOk);
  EXPECT_EQ(rig.index.dir_bits(), 4u);
}

TEST(RhikBulkLoad, OverfilledBucketGrowsTheDirectoryInsteadOfAborting) {
  // 1 000 keys size the directory at 3 bits, but all of them share their
  // low 5 bits: one bucket would hold them all until 8 bits split them
  // into 8 buckets of ~125.
  const auto recs = one_bucket_records(1'000, 5, 16);
  RhikRig rig;
  ASSERT_EQ(rig.index.bulk_load(recs), Status::kOk);
  EXPECT_GT(rig.index.dir_bits(), 5u);
  EXPECT_EQ(rig.index.op_stats().collision_aborts, 0u);
  EXPECT_EQ(rig.index.op_stats().flash_writes,
            distinct_buckets(recs, rig.index.dir_bits()));
  expect_every_program_live(rig);
  expect_all_found(rig, recs);
}

TEST(RhikBulkLoad, OverfilledBucketSpillsToItsOverflowPage) {
  // 300 keys size the directory at 1 bit; all share bit 0, so bucket 0
  // gets all 300 against R = 240 and its overflow page takes the rest.
  RhikConfig cfg;
  cfg.local_overflow = true;
  const auto recs = one_bucket_records(300, 1, 17);
  RhikRig rig(cfg);
  ASSERT_EQ(rig.index.bulk_load(recs), Status::kOk);
  EXPECT_EQ(rig.index.dir_bits(), 1u);
  EXPECT_EQ(rig.index.overflow_pages(), 1u);
  EXPECT_GE(rig.index.op_stats().overflow_inserts, 300u - 240u);
  EXPECT_EQ(rig.index.op_stats().collision_aborts, 0u);
  EXPECT_EQ(rig.index.op_stats().flash_writes, 2u);  // primary + overflow
  expect_every_program_live(rig);
  expect_all_found(rig, recs);
}

TEST(RhikBulkLoad, IndexFullOnlyAtMaxDirBits) {
  // Every record shares its low 4 bits: up to 4 directory bits they all
  // crowd one 240-slot bucket.
  const auto recs = one_bucket_records(400, 4, 18);
  for (const std::uint32_t cap : {2u, 4u}) {
    RhikConfig cfg;
    cfg.max_dir_bits = cap;
    RhikRig rig(cfg);
    EXPECT_EQ(rig.index.bulk_load(recs), Status::kIndexFull) << cap;
    EXPECT_EQ(rig.index.op_stats().index_full, 1u);
    EXPECT_EQ(rig.index.op_stats().collision_aborts, 0u);
    EXPECT_EQ(rig.index.op_stats().flash_writes, 0u);  // refused before any program
  }
  RhikConfig cfg;
  cfg.max_dir_bits = 6;
  RhikRig rig(cfg);
  ASSERT_EQ(rig.index.bulk_load(recs), Status::kOk);
  EXPECT_GT(rig.index.dir_bits(), 4u);
  expect_all_found(rig, recs);
}

// -- Multi-level hash: same tables as a sorted put() replay --------------------

using MlRig = testutil::IndexRig<MlHashIndex, MlHashConfig>;

TEST(MlHashBulkLoad, BuildsTheTablesASortedPutReplayWould) {
  const auto recs = random_records(1'800, 19);
  MlRig bulk(MlHashKind::config());
  ASSERT_EQ(bulk.index.bulk_load(recs), Status::kOk);
  MlRig replay(MlHashKind::config(), /*cache_bytes=*/64 << 20);
  for (const hash::Record& r : recs) ASSERT_EQ(replay.index.put(r.sig, r.ppa), Status::kOk);
  ASSERT_EQ(replay.index.flush(), Status::kOk);  // each dirty page once

  EXPECT_EQ(bulk.index.op_stats().flash_writes, replay.index.op_stats().flash_writes);
  // Same record at the same slot of the same page: the page images match.
  const auto& g = bulk.nand.geometry();
  std::map<std::uint64_t, Bytes> bulk_pages, replay_pages;
  for (auto* rig : {&bulk, &replay}) {
    auto& pages = rig == &bulk ? bulk_pages : replay_pages;
    for (std::uint32_t b = 0; b < g.num_blocks; ++b) {
      for (std::uint32_t p = 0; p < rig->nand.pages_programmed(b); ++p) {
        ByteSpan page, spare;
        ASSERT_EQ(rig->nand.read_page_view(flash::make_ppa(g, b, p), &page, &spare),
                  Status::kOk);
        const IndexPageSpare meta = IndexPageSpare::decode(spare);
        pages[(std::uint64_t{meta.generation} << 40) | meta.bucket].assign(page.begin(),
                                                                          page.end());
      }
    }
  }
  EXPECT_EQ(bulk_pages, replay_pages);
}

TEST(MlHashBulkLoad, FullPyramidIsIndexFull) {
  MlHashConfig cfg;
  cfg.levels = 2;
  cfg.level0_pages = 1;  // 3 pages of R = 240
  MlRig rig(cfg);
  EXPECT_EQ(rig.index.bulk_load(random_records(800, 20)), Status::kIndexFull);
  EXPECT_EQ(rig.index.op_stats().collision_aborts, 1u);
}

}  // namespace
}  // namespace rhik::index
