// Journal replay over an index image, for both index schemes. When the
// durability vet rejects a slot's repoint, replay keeps the image's slot
// only while the image's page still holds that slot's table. If GC has
// erased that page and another slot's table now sits in it, replay
// returns kCorruption so the restart falls back to the full scan.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <vector>

#include "common/rng.hpp"
#include "index/mlhash/mlhash_index.hpp"
#include "index/rhik/record_page.hpp"
#include "index/rhik/rhik_index.hpp"
#include "index_test_rig.hpp"

namespace rhik::index {
namespace {

using flash::Ppa;

struct RhikKind {
  using Index = RhikIndex;
  using Config = RhikConfig;
  static Config config() {
    Config c;
    c.anticipated_keys = 240 * 8;  // 8 buckets, no resize at kKeys
    return c;
  }
};
struct MlHashKind {
  using Index = MlHashIndex;
  using Config = MlHashConfig;
  static Config config() { return MlHashConfig::for_keys(2'000, 4096, 4); }
};

constexpr int kKeys = 600;

template <typename Kind>
class IndexReplay : public ::testing::Test {
 protected:
  using Rig = testutil::IndexRig<typename Kind::Index, typename Kind::Config>;

  /// A record page the image points at, and the slot it held then.
  struct ImagePage {
    Ppa ppa;
    std::uint64_t slot;
  };

  void SetUp() override {
    Rng rng(7);
    for (int i = 0; i < kKeys; ++i) {
      sigs_.push_back(rng.next());
      ASSERT_EQ(rig_.index.put(sigs_.back(), i), Status::kOk);
    }
    ASSERT_EQ(rig_.index.flush(), Status::kOk);
    ASSERT_EQ(rig_.index.serialize_image(image_), Status::kOk);
    for (const Ppa p : live_pages()) image_pages_.push_back({p, *record_slot(p)});
    ASSERT_FALSE(image_pages_.empty());
  }

  /// Journal slot key of the table a record page holds (nullopt if the
  /// page is not a programmed record page). Both schemes key a slot as
  /// (generation or level) << 40 | bucket or page, as in the spare.
  std::optional<std::uint64_t> record_slot(Ppa p) {
    if (!rig_.nand.is_programmed(p)) return std::nullopt;
    Bytes spare(rig_.nand.geometry().spare_size());
    if (!ok(rig_.nand.read_page(p, {}, spare))) return std::nullopt;
    if (ftl::SpareTag::decode(spare).kind != ftl::PageKind::kIndexRecord) {
      return std::nullopt;
    }
    const IndexPageSpare meta = IndexPageSpare::decode(spare);
    return (std::uint64_t{meta.generation} << 40) | meta.bucket;
  }

  std::vector<Ppa> live_pages() {
    std::vector<Ppa> out;
    for (Ppa p = 0; p < rig_.nand.geometry().pages_total(); ++p) {
      if (rig_.nand.is_programmed(p) && rig_.index.gc_is_live_index_page(p)) {
        out.push_back(p);
      }
    }
    return out;
  }

  /// The slot's current record page, after a flush.
  Ppa live_page_of(std::uint64_t slot) {
    EXPECT_EQ(rig_.index.flush(), Status::kOk);
    for (const Ppa p : live_pages()) {
      if (record_slot(p) == slot) return p;
    }
    return flash::kInvalidPpa;
  }

  /// Overwrites random keys, running GC as the device would, until some
  /// image page satisfies `pred`; returns it (nullopt if none did).
  /// Random order keeps write-backs from landing on fixed page offsets.
  template <typename Pred>
  std::optional<ImagePage> churn_until(Pred pred) {
    Rng rng(11);
    for (std::uint64_t i = 0; i < 200'000; ++i) {
      if (rig_.alloc.needs_gc()) gc_.collect(rig_.alloc.gc_reserve() + 2);
      EXPECT_EQ(rig_.index.put(sigs_[rng.next_below(sigs_.size())], kKeys + i),
                Status::kOk);
      for (const ImagePage& ip : image_pages_) {
        if (pred(ip)) return ip;
      }
    }
    return std::nullopt;
  }

  // Two-page cache: switching pages writes dirty tables back, so
  // overwrites keep retiring record pages for GC to reclaim.
  Rig rig_{Kind::config(), /*cache_bytes=*/8192, /*blocks=*/64};
  // Cost-benefit victims age the image's blocks into collection; greedy
  // ties would keep recycling the lowest-numbered empty blocks instead.
  ftl::GarbageCollector gc_{&rig_.nand, &rig_.alloc, &rig_.store, &rig_.index,
                            ftl::GcTuning{ftl::GcPolicy::kCostBenefit}};
  std::vector<std::uint64_t> sigs_;
  Bytes image_;
  std::vector<ImagePage> image_pages_;
};

using Kinds = ::testing::Types<RhikKind, MlHashKind>;
TYPED_TEST_SUITE(IndexReplay, Kinds);

const auto never_durable = [](Ppa) { return false; };

TYPED_TEST(IndexReplay, RejectedRepointKeepsAnIntactImageSlot) {
  // A slot written back since the image: its image page went stale but
  // still holds its table, which image + tail replay reconstructs.
  const auto stale = this->churn_until([&](const auto& ip) {
    return !this->rig_.index.gc_is_live_index_page(ip.ppa) &&
           this->record_slot(ip.ppa) == ip.slot;
  });
  ASSERT_TRUE(stale.has_value());
  const Ppa rejected = this->live_page_of(stale->slot);
  ASSERT_NE(rejected, flash::kInvalidPpa);

  ASSERT_EQ(this->rig_.index.load_image(this->image_), Status::kOk);
  EXPECT_EQ(this->rig_.index.apply_journal_repoint(stale->slot, rejected,
                                                   never_durable),
            Status::kOk);
}

TYPED_TEST(IndexReplay, RejectedRepointOverAReusedImagePageFallsBack) {
  // GC erased an image page and another slot's table took its place.
  const auto reused = this->churn_until([&](const auto& ip) {
    const auto owner = this->record_slot(ip.ppa);
    return owner && *owner != ip.slot;
  });
  ASSERT_TRUE(reused.has_value());
  const Ppa rejected = this->live_page_of(reused->slot);
  ASSERT_NE(rejected, flash::kInvalidPpa);

  // Keeping the image's slot would serve the other slot's table.
  ASSERT_EQ(this->rig_.index.load_image(this->image_), Status::kOk);
  EXPECT_EQ(this->rig_.index.apply_journal_repoint(reused->slot, rejected,
                                                   never_durable),
            Status::kCorruption);
}

}  // namespace
}  // namespace rhik::index
