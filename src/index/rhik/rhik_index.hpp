// RHIK — Re-configurable Hash-based Indexing for KVSSD (paper §IV).
//
// Two-level hash index:
//   * Directory layer: 2^D physical page addresses kept in SSD DRAM
//     (persisted as the device checkpoint's image, serialize_image). The
//     D least-significant bits of the 64-bit key signature select the
//     directory entry.
//   * Record layer: one fixed-size hopscotch table per flash page (R
//     records, Eq. 1), served from flash through a byte-budgeted DRAM
//     cache. Dirty tables are written back on eviction (log-style: a new
//     page is programmed, the directory entry is repointed, the old page
//     goes stale for GC).
//
// Any record lookup therefore costs at most ONE flash read — the record
// page — which is the paper's headline property.
//
// Resizing (§IV-A2): when global occupancy crosses the threshold the
// index doubles. Legacy stop-the-world mode migrates everything at once
// while the submission queue is held (the stall is measured for Fig. 7);
// incremental mode (§VI "real-time index scaling", the default) opens a
// migration window instead: foreground ops are routed to whichever
// generation still owns their bucket, and the window drains in bounded
// background quanta via pump_maintenance() (DESIGN.md §11).
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "cache/lru_cache.hpp"
#include "flash/nand.hpp"
#include "ftl/page_allocator.hpp"
#include "index/index.hpp"
#include "index/rhik/config.hpp"
#include "index/rhik/record_page.hpp"

namespace rhik::index {

class RhikIndex final : public IIndex {
 public:
  RhikIndex(flash::NandDevice* nand, ftl::PageAllocator* alloc, RhikConfig cfg,
            std::uint64_t cache_budget_bytes);

  // -- IIndex ---------------------------------------------------------------
  Status put(std::uint64_t sig, flash::Ppa ppa) override;
  std::optional<flash::Ppa> get(std::uint64_t sig) override;
  Result<std::optional<flash::Ppa>> lookup(std::uint64_t sig) override;
  Status erase(std::uint64_t sig) override;
  /// Sizes the directory once (Eq. 2 at the resize threshold, or the
  /// configured anticipated_keys if larger), then builds every bucket's
  /// table in DRAM and programs it once. A bucket whose table rejects a
  /// record spills it to the bucket's overflow page (local_overflow) or
  /// grows the directory by one bit before anything is programmed;
  /// kIndexFull only past max_dir_bits.
  Status bulk_load(std::span<const hash::Record> records) override;
  [[nodiscard]] std::uint64_t size() const override { return num_keys_; }
  [[nodiscard]] std::uint64_t capacity() const override {
    return dir_size() * codec_.records_per_page();
  }
  [[nodiscard]] std::uint64_t dram_bytes() const override;
  Status flush() override;
  Status scan(const ScanFn& fn,
              std::optional<std::uint64_t> class_tag = std::nullopt) override;
  /// Directory bucket: ops on the same bucket share one record page.
  [[nodiscard]] std::uint64_t locality_group(
      std::uint64_t sig) const noexcept override {
    return sig & dir_mask();
  }
  [[nodiscard]] const IndexOpStats& op_stats() const override { return stats_; }
  void reset_op_stats() override {
    stats_ = {};
    cache_.reset_stats();
  }

  // -- GcIndexHooks -----------------------------------------------------------
  std::optional<flash::Ppa> gc_lookup(std::uint64_t sig) override;
  Status gc_update_location(std::uint64_t sig, flash::Ppa new_ppa) override;
  bool gc_is_live_index_page(flash::Ppa ppa) const override;
  Status gc_relocate_index_page(flash::Ppa ppa) override;

  // -- Introspection ----------------------------------------------------------
  [[nodiscard]] std::uint32_t dir_bits() const noexcept { return dir_bits_; }
  [[nodiscard]] std::uint64_t dir_size() const noexcept {
    return std::uint64_t{1} << dir_bits_;
  }
  [[nodiscard]] std::uint32_t records_per_page() const noexcept {
    return codec_.records_per_page();
  }
  [[nodiscard]] const RhikConfig& config() const noexcept { return cfg_; }
  [[nodiscard]] const std::vector<ResizeEvent>& resize_history() const noexcept {
    return resize_history_;
  }
  [[nodiscard]] bool migration_active() const noexcept { return mig_.has_value(); }
  /// Buckets currently carrying an overflow page (§VI extension).
  /// Maintained as a counter on overflow create/drop so callers can poll
  /// it per-op without an O(dir_size) scan.
  [[nodiscard]] std::uint64_t overflow_pages() const noexcept {
#ifndef NDEBUG
    std::uint64_t n = 0;
    for (const auto p : ov_dir_) n += (p != flash::kInvalidPpa);
    assert(n == ov_pages_);
#endif
    return ov_pages_;
  }
  [[nodiscard]] const cache::CacheStats& cache_stats() const noexcept override {
    return cache_.stats();
  }

  // -- Checkpointing hooks (IIndex) ------------------------------------------
  void set_journal(IndexJournal* journal) override { journal_ = journal; }
  /// Serializes the directory of the current generation only: callers
  /// flush() first, which closes any migration window.
  Status serialize_image(Bytes& out) override;
  Status load_image(ByteSpan image) override;
  Status apply_journal_repoint(
      std::uint64_t slot_key, flash::Ppa ppa,
      const std::function<bool(flash::Ppa)>& data_durable = {}) override;
  Status apply_journal_resize(std::uint32_t new_gen,
                              std::uint32_t new_bits) override;
  Status apply_journal_migrate(std::uint64_t old_slot_key) override;
  Status apply_journal_put(std::uint64_t sig, flash::Ppa ppa) override;
  Status apply_journal_erase(std::uint64_t sig) override;
  Status recount_keys() override;
  [[nodiscard]] bool maintenance_active() const override {
    return migration_active();
  }
  bool pump_maintenance(std::uint32_t budget) override;

 private:
  /// Cache/owner key: generation in the top bits, bucket below. PPAs are
  /// 40-bit, so buckets are comfortably below 2^40. Bit 39 of the bucket
  /// field marks a per-bucket overflow table (hyper-local scaling, §VI).
  static constexpr std::uint64_t kOvBit = std::uint64_t{1} << 39;
  static constexpr std::uint64_t make_key(std::uint32_t gen, std::uint64_t bucket) {
    return (std::uint64_t{gen} << 40) | bucket;
  }
  static constexpr std::uint32_t key_gen(std::uint64_t key) {
    return static_cast<std::uint32_t>(key >> 40);
  }
  static constexpr std::uint64_t key_bucket(std::uint64_t key) {
    return key & ((std::uint64_t{1} << 40) - 1);
  }

  [[nodiscard]] std::uint64_t dir_mask() const noexcept { return dir_size() - 1; }

  /// Directory slot for a keyed bucket (primary or overflow) of the
  /// current generation or the migration source.
  flash::Ppa& dir_slot(std::uint32_t gen, std::uint64_t keyed_bucket);

  /// True if the bucket has an overflow table (persisted or cached).
  [[nodiscard]] bool has_overflow(std::uint32_t gen, std::uint64_t bucket);

  /// Loads (or materializes empty) the table for a bucket; counts flash
  /// reads into *reads.
  Result<hash::HopscotchTable*> load_table(std::uint32_t gen, std::uint64_t bucket,
                                           std::uint64_t* reads);

  /// Programs a table to a fresh index-zone page and repoints the
  /// directory entry; marks the previous page stale.
  Status write_table(std::uint32_t gen, std::uint64_t bucket,
                     const hash::HopscotchTable& table, bool for_gc);

  /// Which generation/bucket currently owns a signature: the migration
  /// source while its old bucket is unmigrated, else the current
  /// generation. Foreground ops target this home so a doubling charges
  /// them no migration work.
  struct Home {
    std::uint32_t gen;
    std::uint64_t bucket;
  };
  [[nodiscard]] Home window_home(std::uint64_t sig) const noexcept;

  /// Insert/update of sig->ppa in its home (primary or bucket-private
  /// overflow table); sets *existed to whether the signature was already
  /// mapped. No resize, no migration work.
  Status insert_at(const Home& home, std::uint64_t sig, flash::Ppa ppa,
                   bool* existed, std::uint64_t* reads);
  /// Removes sig from its home; sets *had.
  Status erase_at(const Home& home, std::uint64_t sig, bool* had,
                  std::uint64_t* reads);

  /// Splits one source bucket of a doubling into its two target buckets
  /// and persists them. Shared by both resize modes.
  Status migrate_bucket(std::uint64_t old_bucket);

  /// Moves the live directory into the migration snapshot and opens the
  /// doubled, empty new generation. Shared by maybe_resize and replay.
  void open_migration_window();
  /// Migrates up to `budget` pending source buckets.
  Status pump_migration(std::uint32_t budget);
  Status ensure_bucket_migrated(std::uint64_t old_bucket);
  void finish_migration();

  Status maybe_resize();
  /// True once the next doubling would exceed min(max_dir_bits, 38): the
  /// index can no longer grow, so a failed insert of a NEW key is
  /// kIndexFull (updates and fitting inserts still succeed).
  [[nodiscard]] bool growth_capped() const noexcept {
    return dir_bits_ + 1 > std::min(cfg_.max_dir_bits, 38u);
  }

  /// get() without op accounting, for GC and internal exist checks.
  Result<std::optional<flash::Ppa>> lookup_internal(std::uint64_t sig,
                                                    std::uint64_t* reads);

  flash::NandDevice* nand_;
  ftl::PageAllocator* alloc_;
  RhikConfig cfg_;
  RecordPageCodec codec_;

  std::uint32_t dir_bits_ = 0;
  std::uint32_t gen_ = 0;
  std::vector<flash::Ppa> dir_;
  /// Per-bucket overflow record pages (all kInvalidPpa unless the
  /// local_overflow extension engages).
  std::vector<flash::Ppa> ov_dir_;
  /// Count of non-invalid ov_dir_ entries (== overflow_pages()).
  std::uint64_t ov_pages_ = 0;

  struct CachedTable {
    hash::HopscotchTable table;
  };
  cache::LruCache<std::uint64_t, CachedTable> cache_;

  /// Live index-zone record pages -> owning (gen, bucket) key.
  std::unordered_map<flash::Ppa, std::uint64_t> page_owner_;

  std::uint64_t num_keys_ = 0;
  IndexOpStats stats_;
  std::vector<ResizeEvent> resize_history_;

  struct Migration {
    std::uint32_t old_bits = 0;
    std::uint32_t old_gen = 0;
    std::vector<flash::Ppa> old_dir;
    std::vector<flash::Ppa> old_ov;
    std::vector<bool> migrated;
    std::uint64_t next_bucket = 0;   ///< scan cursor over old buckets
    std::uint64_t pending = 0;       ///< old buckets not yet migrated
    // Snapshot for the ResizeEvent recorded at completion (Fig. 7).
    std::uint64_t keys_before = 0;
    std::uint64_t capacity_before = 0;
    SimTime start_time = 0;
  };
  std::optional<Migration> mig_;
  bool in_maintenance_ = false;  ///< guards reentrant resize/migration
  /// A kRecResize replayed since load_image(): journal repoints rejected
  /// by the durability vet must fall back to the full scan, because
  /// last-repoint-wins may have skipped a migration-target repoint whose
  /// source bucket a migrate record in the same tail retires — keeping
  /// the image's (empty) slot would lose pre-checkpoint mappings.
  bool replay_saw_resize_ = false;
  /// Delta-record sink for device-level checkpointing (may be null).
  IndexJournal* journal_ = nullptr;
};

}  // namespace rhik::index
