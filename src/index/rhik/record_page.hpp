// Serialization of record-layer hash tables to/from flash pages.
//
// A record-layer page is one independent hopscotch table (§IV-A): R slots
// of [key signature | PPA] followed by R hopinfo bitmaps. R follows Eq. 1
// exactly because the table header lives in the page's spare area, not in
// the main area. Empty slots are reconstructed from the hopinfo bitmaps,
// so their main-area bytes are irrelevant (left zeroed).
#pragma once

#include <cstdint>

#include "common/bytes.hpp"
#include "common/status.hpp"
#include "flash/nand.hpp"
#include "ftl/layout.hpp"
#include "hash/hopscotch.hpp"
#include "index/rhik/config.hpp"

namespace rhik::index {

/// Spare-area metadata of a record page, after the generic SpareTag: the
/// owning directory slot (index generation + bucket) and the record count,
/// so a journal replay can tell whether a page still holds a slot's table.
struct IndexPageSpare {
  std::uint32_t generation = 0;
  std::uint64_t bucket = 0;      ///< directory bucket (RHIK: with its overflow bit)
  std::uint32_t record_count = 0;

  static constexpr std::size_t kEncodedSize = ftl::SpareTag::kEncodedSize + 4 + 8 + 4;

  void encode(MutByteSpan spare) const noexcept;
  static IndexPageSpare decode(ByteSpan spare) noexcept;
};

/// True if `ppa` is a programmed record page whose spare names the
/// directory slot (generation, bucket). Charges one spare read. A page
/// that fails this was erased (and maybe reused by another slot) since
/// the slot last pointed at it.
bool page_holds_slot(flash::NandDevice& nand, flash::Ppa ppa,
                     std::uint32_t generation, std::uint64_t bucket);

class RecordPageCodec {
 public:
  explicit RecordPageCodec(const RhikConfig& cfg, std::uint32_t page_size);

  [[nodiscard]] std::uint32_t records_per_page() const noexcept { return r_; }

  /// Serializes a table into a page-size buffer. The table's capacity
  /// must equal records_per_page().
  void encode(const hash::HopscotchTable& table, MutByteSpan page) const;

  /// Rebuilds the table from a page image. Returns kCorruption on
  /// structurally invalid hopinfo.
  Status decode(ByteSpan page, hash::HopscotchTable* out) const;

  /// Fresh empty table with this codec's geometry.
  [[nodiscard]] hash::HopscotchTable make_table() const {
    return hash::HopscotchTable(r_, cfg_.hop_range);
  }

 private:
  [[nodiscard]] std::size_t slot_off(std::uint32_t i) const noexcept {
    return std::size_t{i} * (cfg_.sig_bytes + cfg_.ppa_bytes);
  }
  [[nodiscard]] std::size_t hop_off(std::uint32_t i) const noexcept {
    return std::size_t{r_} * (cfg_.sig_bytes + cfg_.ppa_bytes) +
           std::size_t{i} * cfg_.hopinfo_bytes();
  }

  RhikConfig cfg_;
  std::uint32_t page_size_;
  std::uint32_t r_;
};

}  // namespace rhik::index
