// Common interface for KVSSD key-to-physical-location index schemes.
//
// Both RHIK (the paper's contribution) and the baseline multi-level hash
// index implement this interface, so the device, GC, benches and tests
// are index-agnostic. All methods operate on fixed-size key signatures:
// the device layer hashes application keys (§IV-A) before touching the
// index, and performs the full-key recheck that defeats signature
// collisions (§IV-A3).
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <span>

#include "cache/lru_cache.hpp"
#include "common/bytes.hpp"
#include "common/histogram.hpp"
#include "common/status.hpp"
#include "flash/address.hpp"
#include "ftl/gc.hpp"
#include "hash/hopscotch.hpp"
#include "hash/murmur.hpp"
#include "obs/metrics.hpp"

namespace rhik::index {

struct IndexOpStats {
  std::uint64_t puts = 0;
  std::uint64_t gets = 0;
  std::uint64_t erases = 0;
  std::uint64_t flash_reads = 0;        ///< metadata flash reads
  std::uint64_t flash_writes = 0;       ///< metadata flash programs
  std::uint64_t collision_aborts = 0;   ///< uncorrectable hopscotch aborts
  std::uint64_t resizes = 0;
  /// Dirty-table write-backs that failed (device wedged full). Always 0
  /// in a healthy device; tests assert on it.
  std::uint64_t writeback_failures = 0;
  /// Records placed in per-bucket overflow pages (hyper-local scaling,
  /// §VI) instead of being rejected.
  std::uint64_t overflow_inserts = 0;
  /// Puts rejected because the directory reached its addressing limit
  /// (2^38 entries) and cannot double again.
  std::uint64_t index_full = 0;
  /// Flash reads needed per individual index lookup (paper Fig. 5b).
  Histogram reads_per_lookup;

  /// Registers these counters into a metrics snapshot (`index.*`).
  void publish(obs::MetricsSnapshot& snap) const {
    snap.add_counter("index.puts", puts);
    snap.add_counter("index.gets", gets);
    snap.add_counter("index.erases", erases);
    snap.add_counter("index.flash_reads", flash_reads);
    snap.add_counter("index.flash_writes", flash_writes);
    snap.add_counter("index.collision_aborts", collision_aborts);
    snap.add_counter("index.resizes", resizes);
    snap.add_counter("index.writeback_failures", writeback_failures);
    snap.add_counter("index.overflow_inserts", overflow_inserts);
    snap.add_counter("index.index_full", index_full);
    snap.add_timer("index.reads_per_lookup", reads_per_lookup);
  }
};

/// One completed resize, for the Fig. 7 analysis.
struct ResizeEvent {
  std::uint64_t keys_before = 0;       ///< records migrated
  std::uint64_t capacity_before = 0;   ///< record capacity before doubling
  std::uint64_t duration_ns = 0;       ///< submission-queue stall time
};

/// Sink for index-delta records emitted on the write path (checkpoint
/// journaling, DESIGN.md §8). The index reports every durable mapping
/// change so that `checkpoint image + journal tail` reconstructs its
/// state without a device scan:
///  - journal_put / journal_erase: a signature's mapping changed;
///  - journal_repoint: a metadata-page slot moved to a new PPA (record
///    table write-back, GC relocation), keyed by the index's own slot id;
///  - journal_resize: a directory doubling began (new generation opened);
///    replay re-opens the same migration window before applying later
///    records;
///  - journal_migrated: one old-generation bucket finished migrating into
///    the new generation (its new-generation repoints precede this
///    record), so replay retires the old bucket exactly where the live
///    index did.
class IndexJournal {
 public:
  virtual ~IndexJournal() = default;
  virtual void journal_put(std::uint64_t sig, flash::Ppa ppa) = 0;
  virtual void journal_erase(std::uint64_t sig) = 0;
  virtual void journal_repoint(std::uint64_t slot_key, flash::Ppa ppa) = 0;
  virtual void journal_resize(std::uint32_t new_gen, std::uint32_t new_bits) {
    (void)new_gen;
    (void)new_bits;
  }
  virtual void journal_migrated(std::uint64_t old_slot_key) {
    (void)old_slot_key;
  }
};

/// Per-record visitor of IIndex::scan.
using ScanFn = std::function<void(std::uint64_t sig, flash::Ppa ppa)>;

/// Feeds one table's records to a scan visitor, testing the optional
/// class tag inside the table's templated walk.
template <typename Table>
void scan_table(const Table& table, const ScanFn& fn,
                std::optional<std::uint64_t> class_tag) {
  table.for_each([&](const auto& r) {
    if (!class_tag || hash::class_tag(r.sig) == *class_tag) fn(r.sig, r.ppa);
  });
}

/// Sort key of the bulk install order: the bit-reversed signature. RHIK
/// buckets are the signature's low bits, so ascending keys group every
/// bucket's records into one contiguous run at ANY directory size, and
/// order the records of a run by signature (compared from the low bit
/// up). Restart installs records in this order, so no hash-map iteration
/// decides hopscotch placement or the device clock.
[[nodiscard]] constexpr std::uint64_t bulk_order_key(std::uint64_t sig) noexcept {
  sig = ((sig >> 1) & 0x5555555555555555ULL) | ((sig & 0x5555555555555555ULL) << 1);
  sig = ((sig >> 2) & 0x3333333333333333ULL) | ((sig & 0x3333333333333333ULL) << 2);
  sig = ((sig >> 4) & 0x0F0F0F0F0F0F0F0FULL) | ((sig & 0x0F0F0F0F0F0F0F0FULL) << 4);
  return __builtin_bswap64(sig);
}

/// True if `records` is strictly ascending in bulk_order_key — sorted,
/// with unique signatures — as IIndex::bulk_load requires.
[[nodiscard]] inline bool bulk_ordered(std::span<const hash::Record> records) noexcept {
  for (std::size_t i = 1; i < records.size(); ++i) {
    if (bulk_order_key(records[i - 1].sig) >= bulk_order_key(records[i].sig)) {
      return false;
    }
  }
  return true;
}

class IIndex : public ftl::GcIndexHooks {
 public:
  ~IIndex() override = default;

  /// Maps `sig` to the pair's starting PPA (insert or update).
  virtual Status put(std::uint64_t sig, flash::Ppa ppa) = 0;

  /// Current mapping for `sig`, if any.
  virtual std::optional<flash::Ppa> get(std::uint64_t sig) = 0;

  /// Status-carrying lookup: distinguishes "no mapping" (kOk + nullopt)
  /// from a metadata I/O failure (non-kOk). The device layer uses this on
  /// every data-path probe so a torn metadata page surfaces as kIoError
  /// instead of a phantom miss that could overwrite live data.
  virtual Result<std::optional<flash::Ppa>> lookup(std::uint64_t sig) {
    return get(sig);
  }

  /// Removes the mapping. kNotFound if absent.
  virtual Status erase(std::uint64_t sig) = 0;

  /// Installs `records` into an EMPTY index — the full-scan restart's
  /// rebuild. `records` holds unique signatures sorted by bulk_order_key
  /// (kInvalidArgument otherwise). Each non-empty record page is built in
  /// DRAM and programmed exactly once, bypassing the page cache, so the
  /// install costs the same flash traffic at any cache size.
  virtual Status bulk_load(std::span<const hash::Record> records) = 0;

  /// Probabilistic membership check by signature only (§IV-A3).
  virtual bool exists(std::uint64_t sig) { return get(sig).has_value(); }

  /// Locality group of a signature: operations in the same group hit the
  /// same flash-resident metadata page(s), so executing a batch grouped
  /// by this value loads each page once per group instead of once per
  /// op. Schemes without such locality return a constant (grouping then
  /// degenerates to submission order).
  [[nodiscard]] virtual std::uint64_t locality_group(
      std::uint64_t sig) const noexcept {
    (void)sig;
    return 0;
  }

  [[nodiscard]] virtual std::uint64_t size() const = 0;
  /// Total record capacity at the current configuration.
  [[nodiscard]] virtual std::uint64_t capacity() const = 0;
  [[nodiscard]] double occupancy() const {
    const std::uint64_t cap = capacity();
    return cap == 0 ? 0.0 : static_cast<double>(size()) / static_cast<double>(cap);
  }

  /// DRAM-resident footprint of the scheme's always-in-memory structures
  /// (directories), excluding the shared page cache.
  [[nodiscard]] virtual std::uint64_t dram_bytes() const = 0;

  /// Persists all dirty state: writes back cached tables (and closes any
  /// structural change serialize_image cannot describe).
  virtual Status flush() = 0;

  /// Full scan over every (signature, PPA) record, or — given
  /// `class_tag` — over those whose signature carries that prefix-class
  /// tag (hash::class_tag). Every record page is loaded either way (flash
  /// reads are charged as needed), so the device clock does not depend on
  /// the filter; the tag test runs inside the table walk, so `fn` is
  /// called only for matches. Used by the iterator extension (§VI) and by
  /// consistency checks.
  virtual Status scan(const ScanFn& fn,
                      std::optional<std::uint64_t> class_tag = std::nullopt) = 0;

  [[nodiscard]] virtual const IndexOpStats& op_stats() const = 0;
  virtual void reset_op_stats() = 0;

  /// Statistics of the scheme's DRAM page cache (the paper's "FTL cache").
  [[nodiscard]] virtual const cache::CacheStats& cache_stats() const = 0;

  // -- Checkpointing hooks (DESIGN.md §8) ----------------------------------
  /// Installs (or clears, with nullptr) the delta-record sink. Schemes
  /// that support checkpointing report every durable mapping change.
  virtual void set_journal(IndexJournal* journal) { (void)journal; }

  /// Serializes the scheme's DRAM-resident state (directories, metadata
  /// page PPAs) into `out`. Empty result = not supported.
  virtual Status serialize_image(Bytes& out) {
    (void)out;
    return Status::kUnsupported;
  }

  /// Restores state produced by serialize_image(). The caller owns
  /// allocator liveness accounting; this only rebuilds DRAM structures.
  virtual Status load_image(ByteSpan image) {
    (void)image;
    return Status::kUnsupported;
  }

  /// Replays a journal_repoint record: rewrites the slot's PPA
  /// (last-writer-wins, idempotent). No allocator liveness side effects.
  /// When `data_durable` is provided, the repointed record page is decoded
  /// and the repoint is silently rejected (slot left unchanged, kOk) if
  /// any entry references a non-durable data location: a page written
  /// back under cache pressure may map signatures to extents that were
  /// still in the store's RAM buffer at a power cut. The rejected page's
  /// durable content is reconstructible — every mapping in it is either
  /// pre-checkpoint (in the image's page) or in the journal tail.
  virtual Status apply_journal_repoint(
      std::uint64_t slot_key, flash::Ppa ppa,
      const std::function<bool(flash::Ppa)>& data_durable = {}) {
    (void)slot_key;
    (void)ppa;
    (void)data_durable;
    return Status::kUnsupported;
  }

  /// True while a structural maintenance operation (incremental resize)
  /// is in flight; checkpoints are deferred until it completes.
  [[nodiscard]] virtual bool maintenance_active() const { return false; }

  /// Advances in-flight structural maintenance (incremental migration) by
  /// up to `budget` work units; 0 means the scheme's default quantum.
  /// Called from the device background pump (gc_tick / idle loop), so a
  /// quiescent device still drains a doubling. Returns true iff progress
  /// was made — callers stop pumping when it returns false, so a wedged
  /// migration (e.g. device full) must not report progress forever.
  virtual bool pump_maintenance(std::uint32_t budget = 0) {
    (void)budget;
    return false;
  }

  /// Replays a journal_resize record: re-opens the same migration window
  /// (old generation -> new generation with `new_bits` directory bits)
  /// the live index had when it journaled the doubling. kCorruption if
  /// the record is inconsistent with the restored image (caller falls
  /// back to the full scan).
  virtual Status apply_journal_resize(std::uint32_t new_gen,
                                      std::uint32_t new_bits) {
    (void)new_gen;
    (void)new_bits;
    return Status::kUnsupported;
  }

  /// Replays a journal_migrated record: retires one old-generation bucket
  /// whose new-generation repoints were already applied from earlier
  /// records in the same journal prefix.
  virtual Status apply_journal_migrate(std::uint64_t old_slot_key) {
    (void)old_slot_key;
    return Status::kUnsupported;
  }

  /// Replays a journal_put record. Unlike put(), replay must never
  /// trigger structural changes (resize, bucket migration): structural
  /// transitions replay only from explicit resize/migrate records, so a
  /// restored index matches the crashed one bucket for bucket. A scheme
  /// that cannot place the record without structural work returns non-kOk
  /// and the caller falls back to the full scan.
  virtual Status apply_journal_put(std::uint64_t sig, flash::Ppa ppa) {
    return put(sig, ppa);
  }

  /// Replays a journal_erase record (idempotent: kNotFound is success).
  virtual Status apply_journal_erase(std::uint64_t sig) {
    const Status s = erase(sig);
    return s == Status::kNotFound ? Status::kOk : s;
  }

  /// Recomputes the live key count from actual table occupancy. Called
  /// once at the end of a checkpoint fast-restore: journal repoints can
  /// fast-forward directory slots to pages that already hold keys the
  /// put/erase overlay then re-applies as no-ops, so the incrementally
  /// maintained count drifts from the tables it summarizes. For a
  /// growing index the drift is load-bearing — a low count starves the
  /// resize trigger until inserts physically fail with collision aborts
  /// on a table the threshold said had headroom.
  virtual Status recount_keys() { return Status::kOk; }
};

}  // namespace rhik::index
