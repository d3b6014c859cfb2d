// NAND flash array model.
//
// Models the SSD hardware primitives the paper's extended KV emulator
// imitates (§IV-C): erase blocks of program-once pages with a main data
// area and a spare (out-of-band) area, erase-before-program discipline,
// in-order page programming within a block, and per-operation latency
// charged to a simulated clock. Block storage is allocated lazily on the
// block's first program, so host memory tracks *written* emulated data,
// not raw device capacity. An erase parks the block's buffer on a small
// fixed-size free list that the next first program reuses, so a GC cycle
// costs no allocation or page faults; bytes at or past a block's write
// point are never readable, so a recycled buffer's stale contents are
// never observed (program_page writes a page's whole image).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/bytes.hpp"
#include "common/sim_clock.hpp"
#include "common/status.hpp"
#include "flash/address.hpp"
#include "flash/fault_injector.hpp"
#include "flash/geometry.hpp"
#include "flash/latency.hpp"
#include "obs/metrics.hpp"

namespace rhik::flash {

/// Last bytes of every spare area are controller-owned: the block's
/// erase count at program time (u32) followed by a CRC-32 (u32) over the
/// stored data area plus the spare area up to the CRC slot. Caller spare
/// bytes that reach into this tail are overwritten by `program_page`.
constexpr std::uint32_t kSpareReservedTail = 8;

/// Validates the controller CRC of a page image already read from the
/// device. Both spans must cover the full data / spare areas.
[[nodiscard]] bool page_crc_ok(const Geometry& g, ByteSpan data, ByteSpan spare) noexcept;

/// The block erase count stamped into a full-size spare image.
[[nodiscard]] std::uint32_t spare_wear_stamp(const Geometry& g, ByteSpan spare) noexcept;

struct NandStats {
  std::uint64_t page_reads = 0;
  std::uint64_t page_programs = 0;
  std::uint64_t block_erases = 0;
  std::uint64_t bytes_read = 0;
  std::uint64_t bytes_programmed = 0;

  /// Registers these counters into a metrics snapshot (`nand.*`).
  void publish(obs::MetricsSnapshot& snap) const {
    snap.add_counter("nand.page_reads", page_reads);
    snap.add_counter("nand.page_programs", page_programs);
    snap.add_counter("nand.block_erases", block_erases);
    snap.add_counter("nand.bytes_read", bytes_read);
    snap.add_counter("nand.bytes_programmed", bytes_programmed);
  }
};

class NandDevice {
 public:
  NandDevice(Geometry geometry, NandLatency latency, SimClock* clock);

  NandDevice(const NandDevice&) = delete;
  NandDevice& operator=(const NandDevice&) = delete;

  /// Reads the main area (and optionally the spare area) of a page.
  /// Output spans may be shorter than the areas; reads are prefix reads.
  /// Reading an unwritten page returns kIoError.
  Status read_page(Ppa ppa, MutByteSpan data_out, MutByteSpan spare_out = {});

  /// Zero-copy read: points `data_out`/`spare_out` (either may be null)
  /// at the stored page image instead of copying it out. `data_len` /
  /// `spare_len` choose prefix views (kFullArea = the whole area), and
  /// latency, stats and fault-injection are charged exactly as a
  /// read_page of the same lengths. The views are valid until the page's
  /// block is erased (or the device destroyed); callers that need the
  /// bytes past the next erase must copy. An erased block's buffer may be
  /// recycled for another block, so a stale view would read another
  /// block's bytes; AddressSanitizer builds poison parked buffers so such
  /// a read traps.
  static constexpr std::uint32_t kFullArea = UINT32_MAX;
  Status read_page_view(Ppa ppa, ByteSpan* data_out, ByteSpan* spare_out = nullptr,
                        std::uint32_t data_len = kFullArea,
                        std::uint32_t spare_len = kFullArea);

  /// Programs a page. Enforces NAND discipline:
  ///  - the page must be in the erased state (program-once),
  ///  - pages within a block must be programmed in order.
  /// Inputs may be shorter than the areas; the rest stays 0xFF, except
  /// the reserved spare tail, which the controller stamps with the
  /// block's erase count and the page CRC (see kSpareReservedTail).
  Status program_page(Ppa ppa, ByteSpan data, ByteSpan spare = {});

  /// Erases a whole block; its storage goes to the free list (or is
  /// released when the list is full).
  Status erase_block(std::uint32_t block);

  /// True if the page has been programmed since its block's last erase.
  [[nodiscard]] bool is_programmed(Ppa ppa) const;

  [[nodiscard]] const Geometry& geometry() const noexcept { return geometry_; }
  [[nodiscard]] const NandLatency& latency() const noexcept { return latency_; }
  [[nodiscard]] const NandStats& stats() const noexcept { return stats_; }
  [[nodiscard]] SimClock& clock() noexcept { return *clock_; }

  /// Per-block erase counts (wear), for endurance-oriented tests/benches.
  [[nodiscard]] std::uint32_t erase_count(std::uint32_t block) const {
    return blocks_[block].erase_count;
  }

  /// Pages programmed in `block` since its last erase (recovery scans).
  [[nodiscard]] std::uint32_t pages_programmed(std::uint32_t block) const {
    return blocks_[block].write_point;
  }

  /// Re-points the latency clock; used when a recovered device adopts a
  /// NAND array from a previous instance.
  void rebind_clock(SimClock* clock) noexcept { clock_ = clock; }

  void reset_stats() noexcept { stats_ = {}; }

  /// Erased block buffers parked for reuse (at most kMaxFreeStores).
  static constexpr std::size_t kMaxFreeStores = 4;
  [[nodiscard]] std::size_t free_stores() const noexcept { return free_stores_.size(); }

  /// Installs (or removes, with nullptr) a power-cut fault injector. Not
  /// owned; must outlive the device or be detached first.
  void set_fault_injector(FaultInjector* injector) noexcept { injector_ = injector; }
  [[nodiscard]] FaultInjector* fault_injector() const noexcept { return injector_; }

  /// Simulates the power-on after a power loss: volatile controller
  /// state — the per-block wear RAM and the transfer counters — is
  /// gone; cell contents and programmed-page counts survive. Re-powers
  /// an attached fault injector. Recovery re-derives wear from the
  /// spare stamps via `restore_erase_count`.
  void power_cycle() noexcept;

  /// Reinstates a block's erase count from a persisted wear stamp.
  void restore_erase_count(std::uint32_t block, std::uint32_t count) noexcept {
    if (block < blocks_.size()) blocks_[block].erase_count = count;
  }

 private:
  struct Block {
    /// Pages programmed so far since last erase (pages must be written
    /// in order, so this doubles as the programmed-page count).
    std::uint32_t write_point = 0;
    std::uint32_t erase_count = 0;
    /// Lazily allocated page storage: [page][data..spare] contiguous.
    /// Only pages below write_point hold defined bytes.
    std::unique_ptr<std::uint8_t[]> store;
  };

  /// Returns an erased block's storage to the free list.
  void release_store(Block& b) noexcept;

  [[nodiscard]] std::size_t page_stride() const noexcept {
    return geometry_.page_size + geometry_.spare_size();
  }
  std::uint8_t* page_ptr(Block& b, std::uint32_t page) noexcept {
    return b.store.get() + std::size_t{page} * page_stride();
  }
  const std::uint8_t* page_ptr(const Block& b, std::uint32_t page) const noexcept {
    return b.store.get() + std::size_t{page} * page_stride();
  }

  Geometry geometry_;
  NandLatency latency_;
  SimClock* clock_;
  std::vector<Block> blocks_;
  /// Erased block buffers kept for reuse. A GC cycle erases one victim
  /// and opens one block at a time, so a handful covers bursts.
  std::vector<std::unique_ptr<std::uint8_t[]>> free_stores_;
  NandStats stats_;
  FaultInjector* injector_ = nullptr;
};

}  // namespace rhik::flash
