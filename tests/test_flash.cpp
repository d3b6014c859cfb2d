// Unit tests for the NAND flash model: geometry, addressing, program/
// erase discipline, latency accounting, wear tracking.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>

#include <string>

#include "common/crc32.hpp"
#include "common/sim_clock.hpp"
#include "flash/address.hpp"
#include "flash/fault_injector.hpp"
#include "flash/geometry.hpp"
#include "flash/latency.hpp"
#include "flash/nand.hpp"

namespace rhik::flash {
namespace {

Geometry tiny() { return Geometry::tiny(8); }  // 4 KiB pages, 16/block, 8 blocks

class NandTest : public ::testing::Test {
 protected:
  SimClock clock_;
  NandDevice nand_{tiny(), NandLatency::kvemu_defaults(), &clock_};
};

TEST(Geometry, PaperDefaults) {
  Geometry g;
  EXPECT_EQ(g.page_size, 32u * 1024);      // §V-A: 32 KB pages
  EXPECT_EQ(g.pages_per_block, 256u);      // §V-A: 256 pages per erase block
  EXPECT_EQ(g.spare_size(), 1024u);        // 1/32 of the main area (§I fn 1)
  EXPECT_TRUE(g.valid());
}

TEST(Geometry, CapacityMath) {
  Geometry g = tiny();
  EXPECT_EQ(g.pages_total(), 8u * 16);
  EXPECT_EQ(g.block_bytes(), 16u * 4096);
  EXPECT_EQ(g.capacity_bytes(), 8u * 16 * 4096);
}

TEST(Geometry, WithCapacityRounds) {
  const Geometry g = Geometry::with_capacity(1ull << 30);
  EXPECT_EQ(std::uint64_t{g.num_blocks} * g.block_bytes(), 1ull << 30);
}

TEST(Address, PackUnpackRoundTrip) {
  const Geometry g = tiny();
  for (std::uint32_t b = 0; b < g.num_blocks; ++b) {
    for (std::uint32_t p = 0; p < g.pages_per_block; ++p) {
      const Ppa ppa = make_ppa(g, b, p);
      EXPECT_EQ(ppa_block(g, ppa), b);
      EXPECT_EQ(ppa_page(g, ppa), p);
      EXPECT_TRUE(ppa_in_range(g, ppa));
    }
  }
  EXPECT_FALSE(ppa_in_range(g, g.pages_total()));
}

TEST(Address, InvalidPpaIs40Bit) {
  EXPECT_EQ(kInvalidPpa, (std::uint64_t{1} << 40) - 1);
}

TEST_F(NandTest, ProgramThenRead) {
  Bytes data(4096, 0x5A);
  Bytes spare(128, 0x7B);
  ASSERT_EQ(nand_.program_page(0, data, spare), Status::kOk);

  Bytes rdata(4096), rspare(128);
  ASSERT_EQ(nand_.read_page(0, rdata, rspare), Status::kOk);
  EXPECT_EQ(rdata, data);
  // Caller spare bytes round-trip except the controller-reserved tail,
  // which is stamped with the wear count and page CRC.
  for (std::size_t i = 0; i < rspare.size() - kSpareReservedTail; ++i) {
    EXPECT_EQ(rspare[i], 0x7B) << "spare byte " << i;
  }
  EXPECT_TRUE(page_crc_ok(tiny(), rdata, rspare));
  EXPECT_EQ(spare_wear_stamp(tiny(), rspare), 0u);  // block never erased yet
}

TEST_F(NandTest, PartialWriteLeavesErasedBytes) {
  Bytes data(100, 0x11);
  ASSERT_EQ(nand_.program_page(0, data), Status::kOk);
  Bytes rdata(4096);
  ASSERT_EQ(nand_.read_page(0, rdata), Status::kOk);
  EXPECT_EQ(rdata[0], 0x11);
  EXPECT_EQ(rdata[99], 0x11);
  EXPECT_EQ(rdata[100], 0xFF);  // erased state
  EXPECT_EQ(rdata[4095], 0xFF);
}

TEST_F(NandTest, ReadUnwrittenPageFails) {
  Bytes buf(16);
  EXPECT_EQ(nand_.read_page(0, buf), Status::kIoError);
  ASSERT_EQ(nand_.program_page(0, buf), Status::kOk);
  EXPECT_EQ(nand_.read_page(1, buf), Status::kIoError);  // next page still blank
}

TEST_F(NandTest, OutOfOrderProgramRejected) {
  Bytes buf(16, 1);
  // Pages within a block must be programmed in order (NAND discipline).
  EXPECT_EQ(nand_.program_page(1, buf), Status::kIoError);
  ASSERT_EQ(nand_.program_page(0, buf), Status::kOk);
  EXPECT_EQ(nand_.program_page(0, buf), Status::kIoError);  // program-once
  EXPECT_EQ(nand_.program_page(1, buf), Status::kOk);
}

TEST_F(NandTest, EraseResetsBlock) {
  Bytes buf(16, 2);
  const Geometry g = tiny();
  for (std::uint32_t p = 0; p < 3; ++p) {
    ASSERT_EQ(nand_.program_page(make_ppa(g, 1, p), buf), Status::kOk);
  }
  EXPECT_TRUE(nand_.is_programmed(make_ppa(g, 1, 0)));
  ASSERT_EQ(nand_.erase_block(1), Status::kOk);
  EXPECT_FALSE(nand_.is_programmed(make_ppa(g, 1, 0)));
  Bytes rbuf(16);
  EXPECT_EQ(nand_.read_page(make_ppa(g, 1, 0), rbuf), Status::kIoError);
  // After erase, programming restarts from page 0.
  EXPECT_EQ(nand_.program_page(make_ppa(g, 1, 0), buf), Status::kOk);
}

TEST_F(NandTest, EraseCountsTrackWear) {
  EXPECT_EQ(nand_.erase_count(3), 0u);
  ASSERT_EQ(nand_.erase_block(3), Status::kOk);
  ASSERT_EQ(nand_.erase_block(3), Status::kOk);
  EXPECT_EQ(nand_.erase_count(3), 2u);
  EXPECT_EQ(nand_.erase_count(2), 0u);
}

TEST_F(NandTest, BoundsChecked) {
  Bytes buf(16);
  EXPECT_EQ(nand_.read_page(tiny().pages_total(), buf), Status::kInvalidArgument);
  EXPECT_EQ(nand_.erase_block(tiny().num_blocks), Status::kInvalidArgument);
  Bytes too_big(4097);
  EXPECT_EQ(nand_.program_page(0, too_big), Status::kInvalidArgument);
  Bytes spare_too_big(200);
  EXPECT_EQ(nand_.program_page(0, Bytes(16), spare_too_big),
            Status::kInvalidArgument);
}

TEST_F(NandTest, StatsAndClockAdvance) {
  const NandLatency lat = NandLatency::kvemu_defaults();
  Bytes buf(4096, 3);
  ASSERT_EQ(nand_.program_page(0, buf), Status::kOk);
  EXPECT_EQ(nand_.stats().page_programs, 1u);
  EXPECT_EQ(nand_.stats().bytes_programmed, 4096u);
  EXPECT_EQ(clock_.now(), lat.program_cost(4096));

  Bytes rbuf(4096);
  ASSERT_EQ(nand_.read_page(0, rbuf), Status::kOk);
  EXPECT_EQ(nand_.stats().page_reads, 1u);
  EXPECT_EQ(clock_.now(), lat.program_cost(4096) + lat.read_cost(4096));

  ASSERT_EQ(nand_.erase_block(0), Status::kOk);
  EXPECT_EQ(nand_.stats().block_erases, 1u);
}

TEST(NandLatency, CostModel) {
  const NandLatency lat = NandLatency::nand_defaults();
  EXPECT_EQ(lat.read_cost(0), lat.read_ns);
  EXPECT_EQ(lat.read_cost(1024), lat.read_ns + 1024 * lat.transfer_ns_per_byte);
  EXPECT_GT(lat.program_cost(0), lat.read_cost(0));
  EXPECT_GT(lat.erase_cost(), lat.program_cost(0));
}

/// Fills every page of `block` with `fill` bytes in both areas, then
/// erases it, leaving a dirty buffer on the device's free list.
void dirty_and_erase(NandDevice& nand, std::uint32_t block, std::uint8_t fill) {
  const Geometry g = nand.geometry();
  const Bytes data(g.page_size, fill);
  const Bytes spare(g.spare_size(), fill);
  for (std::uint32_t p = 0; p < g.pages_per_block; ++p) {
    ASSERT_EQ(nand.program_page(make_ppa(g, block, p), data, spare), Status::kOk);
  }
  ASSERT_EQ(nand.erase_block(block), Status::kOk);
}

TEST(Nand, ShortProgramIntoRecycledBufferReadsErasedTail) {
  SimClock clock, fresh_clock;
  NandDevice nand(tiny(), NandLatency::kvemu_defaults(), &clock);
  NandDevice fresh(tiny(), NandLatency::kvemu_defaults(), &fresh_clock);
  dirty_and_erase(nand, 0, 0xAB);
  ASSERT_EQ(nand.free_stores(), 1u);

  // Block 1's first program takes block 0's dirty buffer.
  const Ppa ppa = make_ppa(tiny(), 1, 0);
  const Bytes data(100, 0x11), spare(8, 0x22);
  ASSERT_EQ(nand.program_page(ppa, data, spare), Status::kOk);
  EXPECT_EQ(nand.free_stores(), 0u);
  ASSERT_EQ(fresh.program_page(ppa, data, spare), Status::kOk);

  Bytes rdata(4096), rspare(128), fdata(4096), fspare(128);
  ASSERT_EQ(nand.read_page(ppa, rdata, rspare), Status::kOk);
  ASSERT_EQ(fresh.read_page(ppa, fdata, fspare), Status::kOk);
  EXPECT_EQ(rdata[99], 0x11);
  EXPECT_EQ(rdata[100], 0xFF);
  EXPECT_EQ(rdata[4095], 0xFF);
  EXPECT_EQ(rspare[8], 0xFF);
  // Byte-identical to a fresh device, CRC included.
  EXPECT_EQ(rdata, fdata);
  EXPECT_EQ(rspare, fspare);
  EXPECT_TRUE(page_crc_ok(tiny(), rdata, rspare));

  // The zero-copy view sees the same image.
  ByteSpan vdata, vspare;
  ASSERT_EQ(nand.read_page_view(ppa, &vdata, &vspare), Status::kOk);
  EXPECT_TRUE(std::equal(vdata.begin(), vdata.end(), fdata.begin()));
  EXPECT_TRUE(std::equal(vspare.begin(), vspare.end(), fspare.begin()));
}

TEST(Nand, TornProgramIntoRecycledBufferFailsCrc) {
  for (const TornWritePolicy policy : {TornWritePolicy::kPartial, TornWritePolicy::kGarbage}) {
    SimClock clock;
    NandDevice nand(tiny(), NandLatency::kvemu_defaults(), &clock);
    dirty_and_erase(nand, 0, 0x5C);
    FaultInjector fi(77);
    nand.set_fault_injector(&fi);
    fi.arm_after(1, policy);
    const Ppa ppa = make_ppa(tiny(), 1, 0);
    EXPECT_EQ(nand.program_page(ppa, Bytes(4096, 0xA5), Bytes(32, 0x7B)),
              Status::kIoError);
    ASSERT_EQ(nand.pages_programmed(1), 1u);
    nand.power_cycle();
    Bytes data(4096), spare(128);
    ASSERT_EQ(nand.read_page(ppa, data, spare), Status::kOk);
    EXPECT_FALSE(page_crc_ok(tiny(), data, spare)) << static_cast<int>(policy);
  }
}

TEST(Nand, FreeListStaysBoundedOverEraseCycles) {
  SimClock clock;
  NandDevice nand(tiny(), NandLatency::kvemu_defaults(), &clock);
  const Geometry g = tiny();
  for (int cycle = 0; cycle < 50; ++cycle) {
    for (std::uint32_t b = 0; b < g.num_blocks; ++b) {
      ASSERT_EQ(nand.program_page(make_ppa(g, b, 0), Bytes(64, cycle & 0xFF)),
                Status::kOk);
    }
    for (std::uint32_t b = 0; b < g.num_blocks; ++b) {
      ASSERT_EQ(nand.erase_block(b), Status::kOk);
      EXPECT_LE(nand.free_stores(), NandDevice::kMaxFreeStores);
    }
    EXPECT_EQ(nand.free_stores(), NandDevice::kMaxFreeStores);
  }
  // Re-programming after the cycles still reads back the new content.
  ASSERT_EQ(nand.program_page(make_ppa(g, 0, 0), Bytes(4096, 9)), Status::kOk);
  Bytes r(4096);
  ASSERT_EQ(nand.read_page(make_ppa(g, 0, 0), r), Status::kOk);
  EXPECT_EQ(r, Bytes(4096, 9));
}

#if defined(__SANITIZE_ADDRESS__)
// A zero-copy view must not outlive its block's erase. The erased buffer
// is parked for reuse rather than freed, so the address sanitizer build
// poisons it to keep such a read trapping.
TEST(NandDeathTest, ViewHeldAcrossEraseTraps) {
  EXPECT_DEATH(
      {
        SimClock clock;
        NandDevice nand(tiny(), NandLatency::kvemu_defaults(), &clock);
        (void)nand.program_page(0, Bytes(64, 1));
        ByteSpan view;
        (void)nand.read_page_view(0, &view);
        (void)nand.erase_block(0);
        volatile std::uint8_t b = view[0];
        (void)b;
      },
      "use-after-poison");
}
#endif

// --- CRC stamp and power-cut fault injection ---------------------------------

TEST(Crc32, KnownAnswer) {
  const std::string s = "123456789";
  EXPECT_EQ(crc32(as_bytes(s)), 0xCBF43926u);  // the standard check value
  // Streaming over split buffers matches the one-shot result.
  std::uint32_t st = crc32_init();
  st = crc32_update(st, as_bytes(s).subspan(0, 4));
  st = crc32_update(st, as_bytes(s).subspan(4));
  EXPECT_EQ(crc32_final(st), 0xCBF43926u);
}

// The folded (PCLMUL) path only engages on inputs >= 64 bytes; feeding
// the same data through sub-64-byte updates pins it against the pure
// table path, bit for bit, across lengths, alignments and split points.
TEST(Crc32, FoldedPathMatchesTablePath) {
  std::mt19937_64 rng(0x5EEDu);
  Bytes buf(4096 + 3);
  for (auto& b : buf) b = static_cast<std::uint8_t>(rng());

  const auto table_only = [&](ByteSpan data) {
    std::uint32_t st = crc32_init();
    for (std::size_t off = 0; off < data.size(); off += 48) {
      st = crc32_update(st, data.subspan(off, std::min<std::size_t>(48, data.size() - off)));
    }
    return crc32_final(st);
  };

  for (const std::size_t len :
       {std::size_t{64}, std::size_t{65}, std::size_t{79}, std::size_t{80},
        std::size_t{127}, std::size_t{128}, std::size_t{129}, std::size_t{1024},
        std::size_t{4096}, buf.size()}) {
    for (const std::size_t shift : {std::size_t{0}, std::size_t{1}, std::size_t{3}}) {
      const ByteSpan data = ByteSpan{buf}.subspan(shift, len - shift);
      EXPECT_EQ(crc32(data), table_only(data)) << len << "+" << shift;
    }
  }

  // A non-zero incoming state must seed the folded path the same way.
  const ByteSpan all{buf};
  std::uint32_t split = crc32_update(crc32_init(), all.subspan(0, 37));
  split = crc32_update(split, all.subspan(37));  // >= 64 bytes: folded
  EXPECT_EQ(crc32_final(split), table_only(all));
}

TEST_F(NandTest, WearStampFollowsEraseCount) {
  ASSERT_EQ(nand_.erase_block(0), Status::kOk);
  ASSERT_EQ(nand_.erase_block(0), Status::kOk);
  ASSERT_EQ(nand_.program_page(0, Bytes(64, 0x21)), Status::kOk);
  Bytes data(4096), spare(128);
  ASSERT_EQ(nand_.read_page(0, data, spare), Status::kOk);
  EXPECT_EQ(spare_wear_stamp(tiny(), spare), 2u);
  EXPECT_TRUE(page_crc_ok(tiny(), data, spare));
}

TEST_F(NandTest, PowerCycleClearsVolatileWearAndRestoreReinstates) {
  ASSERT_EQ(nand_.erase_block(5), Status::kOk);
  ASSERT_EQ(nand_.erase_block(5), Status::kOk);
  ASSERT_EQ(nand_.erase_block(5), Status::kOk);
  nand_.power_cycle();
  EXPECT_EQ(nand_.erase_count(5), 0u);  // wear RAM is volatile
  EXPECT_EQ(nand_.stats().block_erases, 0u);
  nand_.restore_erase_count(5, 3);
  EXPECT_EQ(nand_.erase_count(5), 3u);
}

TEST_F(NandTest, CutProgramPowersDeviceOff) {
  FaultInjector fi(42);
  nand_.set_fault_injector(&fi);
  fi.arm_after(1, TornWritePolicy::kNone);

  EXPECT_EQ(nand_.program_page(0, Bytes(4096, 0xA5)), Status::kIoError);
  EXPECT_TRUE(fi.powered_off());
  EXPECT_EQ(fi.stats().power_cuts, 1u);
  EXPECT_EQ(nand_.pages_programmed(0), 0u);  // kNone: no cell changed

  // Everything — reads included — fails until the next power-on.
  Bytes buf(16);
  EXPECT_EQ(nand_.read_page(0, buf), Status::kIoError);
  EXPECT_EQ(nand_.program_page(0, Bytes(16, 1)), Status::kIoError);
  EXPECT_EQ(nand_.erase_block(0), Status::kIoError);
  EXPECT_GE(fi.stats().ops_rejected, 3u);

  nand_.power_cycle();
  EXPECT_FALSE(fi.powered_off());
  EXPECT_EQ(nand_.program_page(0, Bytes(16, 1)), Status::kOk);
}

TEST_F(NandTest, CountdownSparesEarlierPrograms) {
  FaultInjector fi(7);
  nand_.set_fault_injector(&fi);
  fi.arm_after(3, TornWritePolicy::kNone);
  ASSERT_EQ(nand_.program_page(0, Bytes(64, 1)), Status::kOk);
  ASSERT_EQ(nand_.program_page(1, Bytes(64, 2)), Status::kOk);
  EXPECT_EQ(nand_.program_page(2, Bytes(64, 3)), Status::kIoError);
  EXPECT_TRUE(fi.powered_off());
  EXPECT_EQ(nand_.pages_programmed(0), 2u);
}

TEST_F(NandTest, PartialTearKeepsSpareButFailsCrc) {
  FaultInjector fi(1234);
  nand_.set_fault_injector(&fi);
  fi.arm_after(1, TornWritePolicy::kPartial);

  Bytes spare_in(32, 0x7B);
  EXPECT_EQ(nand_.program_page(0, Bytes(4096, 0xA5), spare_in), Status::kIoError);
  ASSERT_EQ(nand_.pages_programmed(0), 1u);  // torn cells latched
  EXPECT_EQ(fi.stats().torn_pages, 1u);

  nand_.power_cycle();
  Bytes data(4096), spare(128);
  ASSERT_EQ(nand_.read_page(0, data, spare), Status::kOk);
  // The spare landed exactly as intended — superficially valid...
  EXPECT_EQ(spare[0], 0x7B);
  // ...but the data area is cut short, and only the CRC can tell.
  EXPECT_EQ(data[4095], 0xFF);
  EXPECT_FALSE(page_crc_ok(tiny(), data, spare));
}

TEST_F(NandTest, GarbageTearFailsCrc) {
  FaultInjector fi(99);
  nand_.set_fault_injector(&fi);
  fi.arm_after(1, TornWritePolicy::kGarbage);
  EXPECT_EQ(nand_.program_page(0, Bytes(4096, 0x33)), Status::kIoError);
  ASSERT_EQ(nand_.pages_programmed(0), 1u);

  nand_.power_cycle();
  Bytes data(4096), spare(128);
  ASSERT_EQ(nand_.read_page(0, data, spare), Status::kOk);
  EXPECT_FALSE(page_crc_ok(tiny(), data, spare));
}

TEST_F(NandTest, CutEraseEitherCompletesOrLeavesBlockIntact) {
  ASSERT_EQ(nand_.program_page(0, Bytes(64, 0xEE)), Status::kOk);
  FaultInjector fi(5);
  nand_.set_fault_injector(&fi);
  fi.arm_after(1);
  EXPECT_EQ(nand_.erase_block(0), Status::kIoError);
  EXPECT_EQ(fi.stats().interrupted_erases, 1u);
  // Atomic outcome: all pages gone or all still there.
  const std::uint32_t left = nand_.pages_programmed(0);
  EXPECT_TRUE(left == 0u || left == 1u);
  if (left == 1u) {
    nand_.power_cycle();
    Bytes data(4096), spare(128);
    ASSERT_EQ(nand_.read_page(0, data, spare), Status::kOk);
    EXPECT_EQ(data[0], 0xEE);
    EXPECT_TRUE(page_crc_ok(tiny(), data, spare));
  }
}

}  // namespace
}  // namespace rhik::flash
