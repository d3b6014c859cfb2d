// Shared test fixture: an index over a tiny NAND device with a working
// garbage collector. Index-only workloads continuously retire record
// pages (every dirty write-back programs a new page and stales the old
// one), so long-running tests must reclaim — exactly as the device does.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <map>

#include "common/rng.hpp"
#include "common/sim_clock.hpp"
#include "flash/nand.hpp"
#include "ftl/gc.hpp"
#include "ftl/kv_store.hpp"
#include "ftl/page_allocator.hpp"
#include "hash/murmur.hpp"
#include "index/index.hpp"

namespace rhik::testutil {

template <typename IndexT, typename ConfigT>
struct IndexRig {
  explicit IndexRig(ConfigT cfg = {}, std::uint64_t cache_bytes = 1 << 20,
                    std::uint32_t blocks = 128)
      : nand(flash::Geometry::tiny(blocks), flash::NandLatency::kvemu_defaults(),
             &clock),
        alloc(&nand, 2),
        store(&nand, &alloc),
        index(&nand, &alloc, cfg, cache_bytes),
        gc(&nand, &alloc, &store, &index) {}

  /// Foreground GC, as the device layer would run it before writes.
  void maybe_gc() {
    if (alloc.needs_gc()) gc.collect(alloc.gc_reserve() + 2);
  }

  /// No dirty table may ever be dropped: a healthy rig keeps this at 0.
  void expect_no_lost_writebacks() const {
    EXPECT_EQ(index.op_stats().writeback_failures, 0u);
  }

  SimClock clock;
  flash::NandDevice nand;
  ftl::PageAllocator alloc;
  ftl::FlashKvStore store;
  IndexT index;
  ftl::GarbageCollector gc;
};

/// A signature in prefix class `tag` (hash::class_tag) with a random suffix.
inline std::uint64_t sig_in_class(std::uint64_t tag, Rng& rng) {
  return (tag << hash::kClassTagShift) |
         (rng.next() & ((std::uint64_t{1} << hash::kClassTagShift) - 1));
}

/// IIndex::scan's class-tag contract: for every tag in [0, tags], the
/// filtered scan returns exactly the full scan's records in that class
/// (nothing for a class with no keys).
inline void expect_class_scans_match_full_scan(index::IIndex& index,
                                               std::uint64_t tags) {
  std::map<std::uint64_t, std::uint64_t> full;
  ASSERT_EQ(index.scan([&](std::uint64_t sig, flash::Ppa ppa) {
    EXPECT_TRUE(full.emplace(sig, ppa).second) << "visited twice: " << sig;
  }), Status::kOk);
  for (std::uint64_t tag = 0; tag <= tags; ++tag) {
    std::map<std::uint64_t, std::uint64_t> want, got;
    for (const auto& [sig, ppa] : full) {
      if (hash::class_tag(sig) == tag) want.emplace(sig, ppa);
    }
    ASSERT_EQ(index.scan([&](std::uint64_t sig, flash::Ppa ppa) {
      EXPECT_TRUE(got.emplace(sig, ppa).second) << "visited twice: " << sig;
    }, tag), Status::kOk);
    EXPECT_EQ(got, want) << "class " << tag;
  }
}

}  // namespace rhik::testutil
