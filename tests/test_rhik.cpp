// Unit tests for the RHIK index: lookup cost, caching, membership,
// collision aborts, GC hooks, scan, and directory persistence.
#include <gtest/gtest.h>

#include <unordered_map>
#include <vector>

#include "common/rng.hpp"
#include "common/sim_clock.hpp"
#include "index/rhik/rhik_index.hpp"
#include "index_test_rig.hpp"

namespace rhik::index {
namespace {

using flash::Geometry;
using flash::NandLatency;
using flash::Ppa;
using Rig = testutil::IndexRig<RhikIndex, RhikConfig>;

TEST(Rhik, PutGetErase) {
  Rig rig;
  EXPECT_EQ(rig.index.put(0xABC, 5), Status::kOk);
  EXPECT_EQ(rig.index.size(), 1u);
  ASSERT_TRUE(rig.index.get(0xABC).has_value());
  EXPECT_EQ(*rig.index.get(0xABC), 5u);
  EXPECT_FALSE(rig.index.get(0xDEF).has_value());
  EXPECT_EQ(rig.index.erase(0xABC), Status::kOk);
  EXPECT_EQ(rig.index.erase(0xABC), Status::kNotFound);
  EXPECT_EQ(rig.index.size(), 0u);
}

TEST(Rhik, PutUpdatesInPlace) {
  Rig rig;
  EXPECT_EQ(rig.index.put(7, 100), Status::kOk);
  EXPECT_EQ(rig.index.put(7, 200), Status::kOk);
  EXPECT_EQ(rig.index.size(), 1u);
  EXPECT_EQ(*rig.index.get(7), 200u);
}

TEST(Rhik, ExistsIsSignatureMembership) {
  Rig rig;
  ASSERT_EQ(rig.index.put(123, 9), Status::kOk);
  EXPECT_TRUE(rig.index.exists(123));
  EXPECT_FALSE(rig.index.exists(321));
}

TEST(Rhik, InitialSizingFollowsEq2) {
  RhikConfig cfg;
  cfg.anticipated_keys = 10000;  // tiny() pages: 4096/17 = 240 records
  Rig rig(cfg);
  // ceil(10000/240) = 42 -> 64 entries (6 bits).
  EXPECT_EQ(rig.index.dir_bits(), 6u);
  EXPECT_EQ(rig.index.capacity(), 64u * 240);
}

TEST(Rhik, AtMostOneFlashReadPerLookup) {
  // The headline property (§IV-A4): any record lookup costs <= 1 flash
  // read, even with a cache far smaller than the index.
  RhikConfig cfg;
  cfg.anticipated_keys = 20000;
  Rig rig(cfg, /*cache_bytes=*/4 * 4096);  // 4 cached pages only
  Rng rng(3);
  std::vector<std::uint64_t> sigs;
  for (int i = 0; i < 15000; ++i) {
    const std::uint64_t sig = rng.next();
    if (ok(rig.index.put(sig, i))) sigs.push_back(sig);
    rig.maybe_gc();
  }
  rig.index.reset_op_stats();
  Rng pick(5);
  for (int i = 0; i < 2000; ++i) {
    rig.index.get(sigs[pick.next_below(sigs.size())]);
  }
  rig.expect_no_lost_writebacks();
  const auto& h = rig.index.op_stats().reads_per_lookup;
  EXPECT_EQ(h.max(), 1u);               // never more than one flash read
  EXPECT_GT(rig.index.op_stats().flash_reads, 0u);  // cache was too small
}

TEST(Rhik, WarmCacheLookupsAreFree) {
  Rig rig({}, /*cache_bytes=*/1 << 20);  // whole index fits
  for (std::uint64_t i = 1; i <= 100; ++i) {
    ASSERT_EQ(rig.index.put(i * 77, i), Status::kOk);
  }
  rig.index.reset_op_stats();
  for (std::uint64_t i = 1; i <= 100; ++i) {
    ASSERT_TRUE(rig.index.get(i * 77).has_value());
  }
  EXPECT_EQ(rig.index.op_stats().flash_reads, 0u);
  EXPECT_EQ(rig.index.op_stats().reads_per_lookup.max(), 0u);
}

TEST(Rhik, DirtyTablesSurviveEviction) {
  // Cache of one page: every bucket switch evicts (write-back).
  RhikConfig cfg;
  cfg.anticipated_keys = 240 * 8;  // 8 buckets
  Rig rig(cfg, /*cache_bytes=*/4096);
  std::unordered_map<std::uint64_t, std::uint64_t> ref;
  Rng rng(11);
  for (int i = 0; i < 800; ++i) {
    const std::uint64_t sig = rng.next();
    if (ok(rig.index.put(sig, i))) ref[sig] = i;
  }
  EXPECT_GT(rig.index.op_stats().flash_writes, 0u);
  for (const auto& [sig, ppa] : ref) {
    ASSERT_TRUE(rig.index.get(sig).has_value()) << sig;
    EXPECT_EQ(*rig.index.get(sig), ppa);
  }
}

TEST(Rhik, EraseToEmptyReleasesPages) {
  RhikConfig cfg;
  cfg.anticipated_keys = 240 * 4;
  Rig rig(cfg, 4096);
  std::vector<std::uint64_t> sigs;
  Rng rng(2);
  for (int i = 0; i < 500; ++i) {
    const std::uint64_t sig = rng.next();
    if (ok(rig.index.put(sig, i))) sigs.push_back(sig);
  }
  for (const auto sig : sigs) ASSERT_EQ(rig.index.erase(sig), Status::kOk);
  EXPECT_EQ(rig.index.size(), 0u);
  ASSERT_EQ(rig.index.flush(), Status::kOk);
  // All directory entries are back to "no page".
  for (const auto sig : sigs) EXPECT_FALSE(rig.index.get(sig).has_value());
}

TEST(Rhik, CollisionAbortSurfacesAndCounts) {
  RhikConfig cfg;
  cfg.hop_range = 2;  // pathologically small neighbourhood
  cfg.resize_threshold = 1.1;  // never resize: force local collisions
  Rig rig(cfg);
  Rng rng(4);
  int aborts = 0;
  for (int i = 0; i < 2000; ++i) {
    if (rig.index.put(rng.next(), i) == Status::kCollisionAbort) ++aborts;
  }
  EXPECT_GT(aborts, 0);
  EXPECT_EQ(rig.index.op_stats().collision_aborts,
            static_cast<std::uint64_t>(aborts));
}

TEST(Rhik, ScanVisitsEveryRecordOnce) {
  Rig rig;
  std::unordered_map<std::uint64_t, std::uint64_t> ref;
  Rng rng(6);
  for (int i = 0; i < 400; ++i) {
    const std::uint64_t sig = rng.next();
    if (ok(rig.index.put(sig, i))) ref[sig] = i;
  }
  std::unordered_map<std::uint64_t, std::uint64_t> seen;
  ASSERT_EQ(rig.index.scan([&](std::uint64_t sig, Ppa ppa) { seen[sig] = ppa; }),
            Status::kOk);
  EXPECT_EQ(seen, ref);
}

TEST(Rhik, ClassScanMatchesFullScanThenFilter) {
  Rig rig;
  Rng rng(16);
  std::uint64_t stored = 0;
  for (int i = 0; i < 600; ++i) {
    if (ok(rig.index.put(testutil::sig_in_class(i % 5, rng), i))) ++stored;
  }
  ASSERT_EQ(rig.index.size(), stored);
  testutil::expect_class_scans_match_full_scan(rig.index, 5);  // class 5 empty
}

TEST(Rhik, GcHooksLookupAndUpdate) {
  Rig rig;
  ASSERT_EQ(rig.index.put(55, 1000), Status::kOk);
  ASSERT_TRUE(rig.index.gc_lookup(55).has_value());
  EXPECT_EQ(*rig.index.gc_lookup(55), 1000u);
  EXPECT_FALSE(rig.index.gc_lookup(56).has_value());

  EXPECT_EQ(rig.index.gc_update_location(55, 2000), Status::kOk);
  EXPECT_EQ(*rig.index.get(55), 2000u);
  EXPECT_EQ(rig.index.gc_update_location(999, 1), Status::kNotFound);
}

TEST(Rhik, GcIndexPageLivenessAndRelocation) {
  RhikConfig cfg;
  Rig rig(cfg, /*cache_bytes=*/4096);
  Rng rng(8);
  for (int i = 0; i < 400; ++i) rig.index.put(rng.next(), i);
  ASSERT_EQ(rig.index.flush(), Status::kOk);

  // Find a live record page via the spare areas.
  const auto& g = rig.nand.geometry();
  Ppa live_page = flash::kInvalidPpa;
  Bytes spare(g.spare_size());
  for (Ppa p = 0; p < g.pages_total(); ++p) {
    if (!rig.nand.is_programmed(p)) continue;
    if (!ok(rig.nand.read_page(p, {}, spare))) continue;
    if (ftl::SpareTag::decode(spare).kind == ftl::PageKind::kIndexRecord &&
        rig.index.gc_is_live_index_page(p)) {
      live_page = p;
      break;
    }
  }
  ASSERT_NE(live_page, flash::kInvalidPpa);
  ASSERT_EQ(rig.index.gc_relocate_index_page(live_page), Status::kOk);
  EXPECT_FALSE(rig.index.gc_is_live_index_page(live_page));  // now stale
}

TEST(Rhik, DirectorySerializationRestoresIndex) {
  // Clean-shutdown persistence: flush, serialize the directory, build a
  // fresh in-DRAM index over the same flash state, restore.
  RhikConfig cfg;
  SimClock clock;
  flash::NandDevice nand(Geometry::tiny(128), NandLatency::kvemu_defaults(), &clock);
  ftl::PageAllocator alloc(&nand, 2);

  std::unordered_map<std::uint64_t, std::uint64_t> ref;
  Bytes image;
  {
    RhikIndex index(&nand, &alloc, cfg, 1 << 20);
    Rng rng(12);
    for (int i = 0; i < 1000; ++i) {
      const std::uint64_t sig = rng.next();
      if (ok(index.put(sig, i))) ref[sig] = i;
    }
    ASSERT_EQ(index.flush(), Status::kOk);
    ASSERT_EQ(index.serialize_image(image), Status::kOk);
  }
  RhikIndex restored(&nand, &alloc, cfg, 1 << 20);
  ASSERT_EQ(restored.load_image(image), Status::kOk);
  EXPECT_EQ(restored.size(), ref.size());
  for (const auto& [sig, ppa] : ref) {
    ASSERT_TRUE(restored.get(sig).has_value()) << sig;
    EXPECT_EQ(*restored.get(sig), ppa);
  }
}

TEST(Rhik, ProgramsOnlyRecordPages) {
  // The directory is persisted only as serialize_image's payload (the
  // device checkpoint writes it): past a thousand write-backs and a
  // flush(), every page the index programmed is a record page.
  RhikConfig cfg;
  cfg.anticipated_keys = 240 * 8;  // 8 buckets, no resize at 600 keys
  Rig rig(cfg, /*cache_bytes=*/4096);  // one page: bucket switches write back
  Rng rng(5);
  std::vector<std::uint64_t> sigs;
  for (int i = 0; i < 600; ++i) {
    sigs.push_back(rng.next());
    ASSERT_EQ(rig.index.put(sigs.back(), i), Status::kOk);
  }
  for (std::uint64_t i = 0; rig.index.op_stats().flash_writes <= 1100; ++i) {
    rig.maybe_gc();
    ASSERT_EQ(rig.index.put(sigs[i % sigs.size()], i), Status::kOk);
  }
  ASSERT_EQ(rig.index.flush(), Status::kOk);
  rig.expect_no_lost_writebacks();
  EXPECT_EQ(rig.index.resize_history().size(), 0u);

  const auto& g = rig.nand.geometry();
  Bytes spare(g.spare_size());
  std::uint64_t programmed = 0;
  for (Ppa p = 0; p < g.pages_total(); ++p) {
    if (!rig.nand.is_programmed(p)) continue;
    ++programmed;
    ASSERT_EQ(rig.nand.read_page(p, {}, spare), Status::kOk);
    EXPECT_EQ(ftl::SpareTag::decode(spare).kind, ftl::PageKind::kIndexRecord)
        << "page " << p;
  }
  EXPECT_GT(programmed, 0u);
  EXPECT_EQ(rig.nand.stats().page_programs, rig.index.op_stats().flash_writes);
}

TEST(Rhik, LoadDirectoryRejectsGarbage) {
  Rig rig;
  Bytes garbage(100, 0x7);
  EXPECT_EQ(rig.index.load_image(garbage), Status::kCorruption);
  Bytes tiny_buf(4, 0);
  EXPECT_EQ(rig.index.load_image(tiny_buf), Status::kCorruption);
}

TEST(Rhik, DramBytesTracksDirectory) {
  RhikConfig cfg;
  cfg.anticipated_keys = 240 * 16;  // 16 buckets
  Rig rig(cfg);
  // Primary + overflow directory entries, 5 B each.
  EXPECT_EQ(rig.index.dram_bytes(), 2u * 16 * cfg.ppa_bytes);
}

TEST(Rhik, RandomOpsAgreeWithReference) {
  RhikConfig cfg;
  Rig rig(cfg, /*cache_bytes=*/8 * 4096);
  std::unordered_map<std::uint64_t, std::uint64_t> ref;
  Rng rng(99);
  for (int step = 0; step < 30000; ++step) {
    rig.maybe_gc();
    const std::uint64_t sig = rng.next_below(5000) * 0x9E3779B9u + 1;
    const int action = static_cast<int>(rng.next_below(10));
    if (action < 5) {
      const std::uint64_t ppa = rng.next_below(1 << 20);
      if (ok(rig.index.put(sig, ppa))) ref[sig] = ppa;
    } else if (action < 8) {
      const auto got = rig.index.get(sig);
      const auto it = ref.find(sig);
      if (it == ref.end()) {
        EXPECT_FALSE(got.has_value()) << "step " << step;
      } else {
        ASSERT_TRUE(got.has_value()) << "step " << step;
        EXPECT_EQ(*got, it->second);
      }
    } else {
      const bool had = ref.erase(sig) > 0;
      EXPECT_EQ(rig.index.erase(sig), had ? Status::kOk : Status::kNotFound);
    }
  }
  EXPECT_EQ(rig.index.size(), ref.size());
  rig.expect_no_lost_writebacks();
}

}  // namespace
}  // namespace rhik::index
