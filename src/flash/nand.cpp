#include "flash/nand.hpp"

#include <cassert>
#include <cstring>

#include <sanitizer/asan_interface.h>  // (un)poison macros; no-ops without ASan

#include "common/crc32.hpp"

namespace rhik::flash {

bool page_crc_ok(const Geometry& g, ByteSpan data, ByteSpan spare) noexcept {
  if (data.size() < g.page_size || spare.size() < g.spare_size()) return false;
  const std::uint32_t covered = g.spare_size() - 4;
  std::uint32_t state = crc32_init();
  state = crc32_update(state, data.subspan(0, g.page_size));
  state = crc32_update(state, spare.subspan(0, covered));
  return crc32_final(state) == get_u32(spare, covered);
}

std::uint32_t spare_wear_stamp(const Geometry& g, ByteSpan spare) noexcept {
  if (spare.size() < g.spare_size()) return 0;
  return get_u32(spare, g.spare_size() - kSpareReservedTail);
}

NandDevice::NandDevice(Geometry geometry, NandLatency latency, SimClock* clock)
    : geometry_(geometry), latency_(latency), clock_(clock), blocks_(geometry.num_blocks) {
  assert(geometry_.valid());
  assert(geometry_.spare_size() >= kSpareReservedTail + 2);  // room for tag + tail
  assert(clock_ != nullptr);
  free_stores_.reserve(kMaxFreeStores);
}

void NandDevice::power_cycle() noexcept {
  for (auto& b : blocks_) b.erase_count = 0;
  stats_ = {};
  if (injector_) injector_->power_on();
}

Status NandDevice::read_page(Ppa ppa, MutByteSpan data_out, MutByteSpan spare_out) {
  if (injector_ && injector_->reject_op()) return Status::kIoError;
  if (!ppa_in_range(geometry_, ppa)) return Status::kInvalidArgument;
  if (data_out.size() > geometry_.page_size || spare_out.size() > geometry_.spare_size()) {
    return Status::kInvalidArgument;
  }
  const std::uint32_t blk = ppa_block(geometry_, ppa);
  const std::uint32_t pg = ppa_page(geometry_, ppa);
  const Block& b = blocks_[blk];
  if (pg >= b.write_point || !b.store) return Status::kIoError;  // unwritten page

  const std::uint8_t* src = page_ptr(b, pg);
  if (!data_out.empty()) std::memcpy(data_out.data(), src, data_out.size());
  if (!spare_out.empty()) {
    std::memcpy(spare_out.data(), src + geometry_.page_size, spare_out.size());
  }

  stats_.page_reads++;
  stats_.bytes_read += data_out.size() + spare_out.size();
  clock_->advance(latency_.read_cost(
      static_cast<std::uint32_t>(data_out.size() + spare_out.size())));
  return Status::kOk;
}

Status NandDevice::read_page_view(Ppa ppa, ByteSpan* data_out, ByteSpan* spare_out,
                                  std::uint32_t data_len, std::uint32_t spare_len) {
  if (injector_ && injector_->reject_op()) return Status::kIoError;
  if (!ppa_in_range(geometry_, ppa)) return Status::kInvalidArgument;
  if (data_len == kFullArea) data_len = geometry_.page_size;
  if (spare_len == kFullArea) spare_len = geometry_.spare_size();
  if (data_len > geometry_.page_size || spare_len > geometry_.spare_size()) {
    return Status::kInvalidArgument;
  }
  const std::uint32_t blk = ppa_block(geometry_, ppa);
  const std::uint32_t pg = ppa_page(geometry_, ppa);
  const Block& b = blocks_[blk];
  if (pg >= b.write_point || !b.store) return Status::kIoError;  // unwritten page

  const std::uint8_t* src = page_ptr(b, pg);
#if defined(__GNUC__) || defined(__clang__)
  // The views point at cold storage and callers touch the spare tag and
  // the page tail (footer) first; start those lines now so their misses
  // overlap the bookkeeping below instead of serializing after return.
  if (spare_out != nullptr) __builtin_prefetch(src + geometry_.page_size);
  if (data_out != nullptr && data_len >= 64) {
    __builtin_prefetch(src + data_len - 64);
  }
#endif
  std::uint32_t bytes = 0;
  if (data_out) {
    *data_out = ByteSpan{src, data_len};
    bytes += data_len;
  }
  if (spare_out) {
    *spare_out = ByteSpan{src + geometry_.page_size, spare_len};
    bytes += spare_len;
  }

  stats_.page_reads++;
  stats_.bytes_read += bytes;
  clock_->advance(latency_.read_cost(bytes));
  return Status::kOk;
}

Status NandDevice::program_page(Ppa ppa, ByteSpan data, ByteSpan spare) {
  if (injector_ && injector_->reject_op()) return Status::kIoError;
  if (!ppa_in_range(geometry_, ppa)) return Status::kInvalidArgument;
  if (data.size() > geometry_.page_size || spare.size() > geometry_.spare_size()) {
    return Status::kInvalidArgument;
  }
  const std::uint32_t blk = ppa_block(geometry_, ppa);
  const std::uint32_t pg = ppa_page(geometry_, ppa);
  Block& b = blocks_[blk];
  // NAND discipline: in-order programming of erased pages only.
  if (pg != b.write_point) return Status::kIoError;

  if (!b.store) {
    const std::size_t bytes = page_stride() * geometry_.pages_per_block;
    if (free_stores_.empty()) {
      b.store = std::make_unique_for_overwrite<std::uint8_t[]>(bytes);
    } else {
      b.store = std::move(free_stores_.back());
      free_stores_.pop_back();
      ASAN_UNPOISON_MEMORY_REGION(b.store.get(), bytes);
    }
  }
  // The whole page image is written here — input, then the erased (0xFF)
  // tail of each area — so neither an uninitialised nor a recycled
  // buffer leaks into what a read or the CRC sees.
  std::uint8_t* dst = page_ptr(b, pg);
  std::uint8_t* sp = dst + geometry_.page_size;
  if (!data.empty()) std::memcpy(dst, data.data(), data.size());
  std::memset(dst + data.size(), 0xFF, geometry_.page_size - data.size());
  if (!spare.empty()) std::memcpy(sp, spare.data(), spare.size());
  std::memset(sp + spare.size(), 0xFF, geometry_.spare_size() - spare.size());

  // Controller stamp in the reserved spare tail: wear (for recovery of
  // the volatile wear RAM) and a CRC over the stored page image, the
  // only thing that can tell a torn page from a complete one.
  const std::uint32_t ssz = geometry_.spare_size();
  MutByteSpan sps{sp, ssz};
  put_u32(sps, ssz - kSpareReservedTail, b.erase_count);
  std::uint32_t state = crc32_init();
  state = crc32_update(state, ByteSpan{dst, geometry_.page_size});
  state = crc32_update(state, ByteSpan{sp, ssz - 4});
  put_u32(sps, ssz - 4, crc32_final(state));

  if (injector_ && injector_->cut_now()) {
    // Power died mid-program: the intended image may be partially or
    // garbage-latched (policy), the op is never acknowledged, and no
    // latency/stat accrues — the controller that would report it is off.
    // A page left erased stays past write_point, where it is never read.
    if (injector_->tear_page(MutByteSpan{dst, geometry_.page_size}, sps)) {
      b.write_point = pg + 1;
    }
    return Status::kIoError;
  }
  b.write_point = pg + 1;

  stats_.page_programs++;
  stats_.bytes_programmed += data.size() + spare.size();
  clock_->advance(latency_.program_cost(
      static_cast<std::uint32_t>(data.size() + spare.size())));
  return Status::kOk;
}

Status NandDevice::erase_block(std::uint32_t block) {
  if (injector_ && injector_->reject_op()) return Status::kIoError;
  if (block >= geometry_.num_blocks) return Status::kInvalidArgument;
  Block& b = blocks_[block];

  if (injector_ && injector_->cut_now()) {
    // Partial-erase states are not modelled: the pulse either finished
    // (block reads erased) or never started. Either way the host never
    // saw an acknowledgement.
    if (injector_->erase_completed()) {
      release_store(b);
      b.write_point = 0;
      b.erase_count++;
    }
    return Status::kIoError;
  }

  release_store(b);
  b.write_point = 0;
  b.erase_count++;

  stats_.block_erases++;
  clock_->advance(latency_.erase_cost());
  return Status::kOk;
}

void NandDevice::release_store(Block& b) noexcept {
  if (!b.store) return;
  if (free_stores_.size() >= kMaxFreeStores) {
    b.store.reset();
    return;
  }
  // A read_page_view held across the erase must trap, as it did when
  // erase freed the buffer.
  ASAN_POISON_MEMORY_REGION(b.store.get(), page_stride() * geometry_.pages_per_block);
  free_stores_.push_back(std::move(b.store));
}

bool NandDevice::is_programmed(Ppa ppa) const {
  if (!ppa_in_range(geometry_, ppa)) return false;
  const Block& b = blocks_[ppa_block(geometry_, ppa)];
  return ppa_page(geometry_, ppa) < b.write_point;
}

}  // namespace rhik::flash
