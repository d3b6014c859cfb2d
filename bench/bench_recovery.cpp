// Crash-recovery cost model: how long a full-device log scan takes, what
// the per-page CRC verification adds, what a torn log costs in dropped
// pages — and how index checkpointing (DESIGN.md §8) collapses restart
// cost from O(device) to O(dirty).
//
// Without a checkpoint the whole data zone is scanned and the hash index
// rebuilt (the price of the paper's index-in-flash design). With the
// two-slot checkpoint + journal ring enabled, recovery reads the newest
// slot, replays the journal tail, and probes one spare per block for
// ghost pairs. The bench prints three acceptance guards: the checkpointed
// restart must read <= 10% of the pages a full scan reads on the
// standard 4 GiB device, steady-state journaling must cost < 5% of
// device clock, and recovery must fall back to the full scan when both
// checkpoint slots are corrupted. A sharded array's restart is timed
// twice on identical images — shards one after another, then rebuilt
// concurrently — with a guard that pages read and the array clock match.
#include <algorithm>
#include <chrono>
#include <cstdarg>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/crc32.hpp"
#include "common/rng.hpp"
#include "flash/fault_injector.hpp"
#include "kvssd/checkpoint.hpp"
#include "kvssd/recovery.hpp"
#include "shard/sharded_kvssd.hpp"
#include "workload/keygen.hpp"

using namespace rhik;

namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

void crc_rate() {
  bench::heading("CRC32 verification rate (slicing-by-8)",
                 "recovery cost model — CRC bound");
  Bytes buf(1u << 20);
  Rng rng(42);
  for (auto& b : buf) b = static_cast<Bytes::value_type>(rng.next());
  // Warm up, then time enough passes to dominate clock noise.
  std::uint32_t sink = crc32(buf);
  const auto t0 = std::chrono::steady_clock::now();
  constexpr int kPasses = 2048;
  for (int i = 0; i < kPasses; ++i) sink ^= crc32(buf);
  const double secs = seconds_since(t0);
  std::printf("  %8.2f MB/s  (sink %08x)\n",
              static_cast<double>(kPasses) / secs, sink);
  bench::note("every recovered page is CRC-checked; this rate is the "
              "upper bound on scan throughput");
}

void scan_throughput(std::uint32_t value_size) {
  kvssd::DeviceConfig cfg;
  cfg.geometry = bench::scaled_geometry(64ull << 20);
  cfg.dram_cache_bytes = 8ull << 20;

  // Fill ~50% of the device, then a clean flush: the recovery scan walks
  // every programmed page.
  const std::uint64_t target =
      (cfg.geometry.capacity_bytes() / 2) /
      ftl::FlashKvStore::pair_bytes(16, value_size);
  cfg.rhik.anticipated_keys = target;  // index sized for the load phase
  auto dev = std::make_unique<kvssd::KvssdDevice>(cfg);
  if (!bench::load_keys(*dev, target, value_size)) {
    std::printf("  %-8s load failed (device full)\n",
                bench::size_label(value_size).c_str());
    return;
  }
  if (!ok(dev->flush())) return;

  auto nand = dev->release_nand();
  dev.reset();
  const auto t0 = std::chrono::steady_clock::now();
  kvssd::RecoveryStats stats;
  auto recovered =
      kvssd::KvssdDevice::recover(cfg, std::move(nand), &stats);
  const double secs = seconds_since(t0);
  if (!recovered.has_value()) return;

  const double scanned_mib =
      static_cast<double>(stats.blocks_adopted) *
      cfg.geometry.block_bytes() / (1u << 20);
  std::printf(
      "  %-8s %8.1f MB/s scan   %9.0f keys/s   %6llu keys  %4llu blocks\n",
      bench::size_label(value_size).c_str(), scanned_mib / secs,
      static_cast<double>(stats.keys_recovered) / secs,
      static_cast<unsigned long long>(stats.keys_recovered),
      static_cast<unsigned long long>(stats.blocks_adopted));
}

void torn_log() {
  bench::heading("Torn-log truncation after a mid-flush power cut",
                 "recovery correctness — CRC-guided truncation");
  kvssd::DeviceConfig cfg;
  cfg.geometry = bench::scaled_geometry(64ull << 20);
  cfg.dram_cache_bytes = 8ull << 20;
  auto dev = std::make_unique<kvssd::KvssdDevice>(cfg);
  if (!bench::load_keys(*dev, 20000, 512)) return;
  if (!ok(dev->flush())) return;

  // More writes, then tear the log tail mid-program.
  flash::FaultInjector fi(7);
  dev->nand().set_fault_injector(&fi);
  Bytes value(512);
  for (std::uint64_t id = 0; id < 4000; ++id) {
    workload::fill_value(id, value);
    (void)dev->put(workload::key_for_id(20000 + id, 16), value);
  }
  fi.arm_after(3, flash::TornWritePolicy::kGarbage);
  (void)dev->flush();  // dies at the cut

  auto nand = dev->release_nand();
  dev.reset();
  const auto t0 = std::chrono::steady_clock::now();
  kvssd::RecoveryStats stats;
  auto recovered =
      kvssd::KvssdDevice::recover(cfg, std::move(nand), &stats);
  const double secs = seconds_since(t0);
  if (!recovered.has_value()) return;
  std::printf(
      "  recovered in %.3fs: %llu keys, %llu torn pages dropped, "
      "%llu incomplete extents, %llu dead blocks swept\n",
      secs, static_cast<unsigned long long>(stats.keys_recovered),
      static_cast<unsigned long long>(stats.torn_pages_dropped),
      static_cast<unsigned long long>(stats.incomplete_extents_dropped),
      static_cast<unsigned long long>(stats.dead_blocks_reclaimed));
  bench::note("torn pages are detected by the device-stamped spare CRC and "
              "truncated from the per-block log, never parsed");

  // The recovered device's unified snapshot carries the scan's
  // `recovery.*` counters alongside the post-recovery device state.
  const obs::MetricsSnapshot snap = (*recovered)->metrics_snapshot();
  std::printf(
      "  snapshot: recovery.keys_recovered=%llu recovery.torn_pages_dropped="
      "%llu device.key_count=%lld\n",
      static_cast<unsigned long long>(snap.counter("recovery.keys_recovered")),
      static_cast<unsigned long long>(
          snap.counter("recovery.torn_pages_dropped")),
      static_cast<long long>(snap.gauge("device.key_count")));
  bench::maybe_export_json(snap);
}

void guard(bool pass, const char* fmt, ...) {
  std::va_list args;
  va_start(args, fmt);
  std::printf("  guard: ");
  std::vprintf(fmt, args);
  std::printf(" — %s\n", pass ? "PASS" : "FAIL");
  va_end(args);
}

// What a full-scan restart costs at two index-cache sizes: the device is
// loaded and restarted with the same cache. The scan reads the data log
// once; the bulk install builds each record page in DRAM and programs it
// once, so neither column may grow as the cache shrinks.
void full_scan_cost() {
  bench::heading(
      "Full-scan restart cost vs index cache (1 GiB device, 100k x 64 B)",
      "DESIGN.md §6 — one bulk index install per restart");
  std::printf("  %-8s %11s %9s %13s %9s\n", "cache", "pages read", "programs",
              "index pages", "wall");
  for (const std::uint64_t cache : {1ull << 20, 10ull << 20}) {
    kvssd::DeviceConfig cfg;
    cfg.geometry = flash::Geometry::with_capacity(1ull << 30);
    cfg.dram_cache_bytes = cache;
    auto dev = std::make_unique<kvssd::KvssdDevice>(cfg);
    if (!bench::load_keys(*dev, 100'000, 64) || !ok(dev->flush())) {
      std::printf("  %-8s load failed\n", bench::size_label(cache).c_str());
      continue;
    }
    auto nand = dev->release_nand();
    dev.reset();
    const auto t0 = std::chrono::steady_clock::now();
    kvssd::RecoveryStats stats;
    auto recovered = kvssd::KvssdDevice::recover(cfg, std::move(nand), &stats);
    const double secs = seconds_since(t0);
    if (!recovered.has_value()) {
      std::printf("  %-8s restart failed\n", bench::size_label(cache).c_str());
      continue;
    }
    const std::uint64_t programs = (*recovered)->nand().stats().page_programs;
    const std::uint64_t index_pages = (*recovered)->index().op_stats().flash_writes;
    std::printf("  %-8s %11llu %9llu %13llu %8.3fs\n", bench::size_label(cache).c_str(),
                static_cast<unsigned long long>(stats.pages_read),
                static_cast<unsigned long long>(programs),
                static_cast<unsigned long long>(index_pages), secs);
    guard(stats.keys_recovered == 100'000 && programs == index_pages &&
              stats.pages_read <= stats.data_pages_scanned + 2 * stats.blocks_adopted,
          "%s: every key back, one program per record page, %llu data pages "
          "read plus at most 2 per adopted block",
          bench::size_label(cache).c_str(),
          static_cast<unsigned long long>(stats.data_pages_scanned));
  }
  bench::note("the put() replay this replaced read 47,542 pages and "
              "programmed 21,006 at 1 MiB (1.68 s); 855 and 132 at 10 MiB");
}

// O(dirty) restart on the standard 4 GiB device: load 50% full (the
// same fill level as the scan-throughput rows above), take a checkpoint,
// dirty a few thousand pairs past it, power-cut, and compare the pages
// recovery reads on the fast path against the full-scan rebuild of the
// very same array (forced by erasing both checkpoint slots — which
// doubles as the fallback demonstration).
void checkpointed_restart() {
  bench::heading(
      "Checkpointed restart vs full-scan rebuild (4 GiB device, 50% full)",
      "DESIGN.md §8 — O(dirty) restart acceptance guards");
  kvssd::DeviceConfig cfg;
  cfg.geometry = flash::Geometry::with_capacity(4ull << 30);
  cfg.dram_cache_bytes = 32ull << 20;
  cfg.checkpoint.enabled = true;

  constexpr std::uint32_t kValueSize = 4096;
  const std::uint64_t target =
      (cfg.geometry.capacity_bytes() / 2) /
      ftl::FlashKvStore::pair_bytes(16, kValueSize);
  cfg.rhik.anticipated_keys = target;
  auto dev = std::make_unique<kvssd::KvssdDevice>(cfg);
  if (!bench::load_keys(*dev, target, kValueSize)) {
    std::printf("  load failed (device full)\n");
    return;
  }
  if (!ok(dev->checkpoint_now())) return;
  // Dirty delta past the checkpoint: overwrites that only the journal
  // tail covers.
  Bytes value(kValueSize);
  for (std::uint64_t id = 0; id < 4000; ++id) {
    workload::fill_value(id + 1, value);
    (void)dev->put(workload::key_for_id(id, 16), value);
  }
  if (!ok(dev->flush())) return;

  auto nand = dev->release_nand();
  dev.reset();
  auto t0 = std::chrono::steady_clock::now();
  kvssd::RecoveryStats fast;
  auto recovered = kvssd::KvssdDevice::recover(cfg, std::move(nand), &fast);
  const double fast_secs = seconds_since(t0);
  if (!recovered.has_value()) return;
  std::printf(
      "  fast restart:  %8llu pages read  %6.3fs  (checkpoint v%llu, "
      "%llu journal records replayed, %llu keys)\n",
      static_cast<unsigned long long>(fast.pages_read), fast_secs,
      static_cast<unsigned long long>(fast.checkpoint_version),
      static_cast<unsigned long long>(fast.journal_records_replayed),
      static_cast<unsigned long long>(fast.keys_recovered));
  guard(fast.checkpoint_restored == 1 && fast.full_scan_fallback == 0,
        "restart restored from checkpoint + journal tail");

  // Corrupt BOTH checkpoint slots on the same array; recovery must fall
  // back to the full-device scan and still rebuild every key.
  nand = (*recovered)->release_nand();
  recovered->reset();
  const std::uint32_t reserved =
      kvssd::CheckpointManager::reserved_blocks(cfg.checkpoint);
  const std::uint32_t first_slot = cfg.geometry.num_blocks - reserved;
  for (std::uint32_t b = 0; b < 2 * cfg.checkpoint.slot_blocks; ++b) {
    (void)nand->erase_block(first_slot + b);
  }
  t0 = std::chrono::steady_clock::now();
  kvssd::RecoveryStats full;
  auto rescanned = kvssd::KvssdDevice::recover(cfg, std::move(nand), &full);
  const double full_secs = seconds_since(t0);
  if (!rescanned.has_value()) return;
  std::printf(
      "  full rebuild:  %8llu pages read  %6.3fs  (%llu data pages "
      "scanned, %llu keys)\n",
      static_cast<unsigned long long>(full.pages_read), full_secs,
      static_cast<unsigned long long>(full.data_pages_scanned),
      static_cast<unsigned long long>(full.keys_recovered));
  guard(full.full_scan_fallback == 1 && full.checkpoint_restored == 0,
        "both slots corrupted -> recovery fell back to the full scan");
  guard(full.keys_recovered == fast.keys_recovered,
        "fallback rebuilt the same %llu keys the fast path restored",
        static_cast<unsigned long long>(full.keys_recovered));

  const double ratio = full.pages_read == 0
                           ? 1.0
                           : static_cast<double>(fast.pages_read) /
                                 static_cast<double>(full.pages_read);
  guard(ratio <= 0.10,
        "checkpointed restart read %.1f%% of the full-scan pages (<= 10%%)",
        100.0 * ratio);
  bench::note("fast-path reads = checkpoint payload + journal tail + one "
              "spare probe per block for ghost pairs above the journal "
              "horizon");
}

// Steady-state cost of the always-on journal: the same load + overwrite
// workload with checkpointing off vs on, compared on the *device* clock
// (simulated NAND + firmware time), so the guard measures the extra
// programs the journal and incremental checkpoint pumps issue, not host
// CPU noise.
std::uint64_t steady_state_device_ns(bool checkpoints,
                                     kvssd::CheckpointStats* ckpt_stats) {
  kvssd::DeviceConfig cfg;
  cfg.geometry = flash::Geometry::with_capacity(512ull << 20);
  cfg.dram_cache_bytes = 16ull << 20;
  cfg.checkpoint.enabled = checkpoints;

  constexpr std::uint32_t kValueSize = 4096;
  constexpr std::uint64_t kKeys = 20000;
  constexpr std::uint64_t kUpdates = 40000;
  cfg.rhik.anticipated_keys = kKeys;
  kvssd::KvssdDevice dev(cfg);
  if (!bench::load_keys(dev, kKeys, kValueSize)) return 0;
  Rng rng(11);
  Bytes value(kValueSize);
  for (std::uint64_t u = 0; u < kUpdates; ++u) {
    const std::uint64_t id = rng.next() % kKeys;
    workload::fill_value(id ^ u, value);
    if (!ok(dev.put(workload::key_for_id(id, 16), value))) return 0;
    if ((u + 1) % 512 == 0 && !ok(dev.flush())) return 0;
  }
  if (!ok(dev.flush())) return 0;
  if (checkpoints && ckpt_stats != nullptr && dev.checkpoint_manager()) {
    *ckpt_stats = dev.checkpoint_manager()->stats();
  }
  return dev.nand().clock().now();
}

void journaling_overhead() {
  bench::heading(
      "Steady-state journaling overhead (device clock, 512 MiB, 60k ops)",
      "DESIGN.md §8 — < 5% device-clock overhead guard");
  const std::uint64_t base_ns = steady_state_device_ns(false, nullptr);
  kvssd::CheckpointStats cs;
  const std::uint64_t ckpt_ns = steady_state_device_ns(true, &cs);
  if (base_ns == 0 || ckpt_ns == 0) {
    std::printf("  workload failed\n");
    return;
  }
  const double overhead =
      100.0 * (static_cast<double>(ckpt_ns) - static_cast<double>(base_ns)) /
      static_cast<double>(base_ns);
  std::printf(
      "  baseline %.3f ms   checkpointed %.3f ms   (+%llu journal pages, "
      "%llu records, %llu checkpoints)\n",
      static_cast<double>(base_ns) / 1e6, static_cast<double>(ckpt_ns) / 1e6,
      static_cast<unsigned long long>(cs.journal_pages_written),
      static_cast<unsigned long long>(cs.journal_records),
      static_cast<unsigned long long>(cs.checkpoints_completed));
  guard(overhead < 5.0,
        "journaling + checkpoint pumps cost %.2f%% device clock (< 5%%)",
        overhead);
  bench::note("journal records are 14 bytes, buffered in RAM and flushed "
              "one page per device flush / page-fill — the delta is a few "
              "page programs per thousand ops");
}

// Array restart (DESIGN.md §6, §8): a sharded array rebuilds its shards
// concurrently, one thread each. The same per-shard NAND images are
// restarted twice: shard after shard on one thread (the serial
// reference), then through ShardedKvssd::recover. The rows show the
// wall-time speed-up next to the pages each shard read and the array
// clock, both of which must not move.
constexpr std::uint64_t kArrayKeys = 200000;
constexpr std::uint32_t kArrayValue = 1024;
constexpr std::uint64_t kArrayUpdates = 4000;

shard::ShardedConfig array_config(std::uint32_t shards, bool checkpoints) {
  shard::ShardedConfig sc;
  sc.num_shards = shards;
  sc.device.geometry = bench::scaled_geometry((1ull << 30) / shards);
  sc.device.dram_cache_bytes = (16ull << 20) / shards;
  sc.device.checkpoint.enabled = checkpoints;
  // Sized so no index doubling is left for the workers to migrate after
  // the restart: the array clock read below is then the restart's alone.
  sc.device.rhik.anticipated_keys = 2 * kArrayKeys / shards;
  return sc;
}

/// Per-shard NAND images of a loaded array. Built on one thread, with
/// keys routed as the array routes them, so two calls yield identical
/// images. With checkpoints, every shard checkpoints after the load and
/// the updates after it form the journal tail the restart replays.
std::vector<std::unique_ptr<flash::NandDevice>> array_images(
    const shard::ShardedConfig& sc) {
  const shard::ShardedKvssd router(sc);
  std::vector<std::unique_ptr<kvssd::KvssdDevice>> devs;
  for (std::uint32_t i = 0; i < sc.num_shards; ++i) {
    devs.push_back(std::make_unique<kvssd::KvssdDevice>(sc.device));
  }
  Bytes value(kArrayValue);
  const auto put = [&](std::uint64_t id, std::uint64_t version) {
    const Bytes key = workload::key_for_id(id, 16);
    workload::fill_value(version, value);
    return devs[router.shard_of(key)]->put(key, value);
  };
  for (std::uint64_t id = 0; id < kArrayKeys; ++id) {
    if (!ok(put(id, id))) return {};
  }
  if (sc.device.checkpoint.enabled) {
    for (auto& dev : devs) {
      if (!ok(dev->checkpoint_now())) return {};
    }
  }
  Rng rng(5);
  for (std::uint64_t u = 0; u < kArrayUpdates; ++u) {
    if (!ok(put(rng.next() % kArrayKeys, kArrayKeys + u))) return {};
  }
  std::vector<std::unique_ptr<flash::NandDevice>> nands;
  for (auto& dev : devs) {
    if (!ok(dev->flush())) return {};
    nands.push_back(dev->release_nand());
  }
  return nands;
}

struct RestartRow {
  bool ok = false;
  double secs = 0;
  std::vector<std::uint64_t> pages_read;  ///< per shard
  SimTime clock = 0;                      ///< array clock after the restart
};

/// The serial reference: each shard recovered in turn on this thread,
/// sharing one epoch source, clocks re-seeded to the slowest shard.
RestartRow serial_restart(const shard::ShardedConfig& sc,
                          std::vector<std::unique_ptr<flash::NandDevice>> nands) {
  ftl::SnapshotContext ctx;
  kvssd::DeviceConfig cfg = sc.device;
  cfg.snapshots = &ctx;
  std::vector<std::unique_ptr<kvssd::KvssdDevice>> devs;
  RestartRow row;
  const auto t0 = std::chrono::steady_clock::now();
  for (auto& nand : nands) {
    kvssd::RecoveryStats stats;
    auto dev = kvssd::KvssdDevice::recover(cfg, std::move(nand), &stats);
    if (!dev.has_value()) return row;
    row.pages_read.push_back(stats.pages_read);
    devs.push_back(std::move(dev).value());
  }
  row.secs = seconds_since(t0);
  for (const auto& dev : devs) row.clock = std::max(row.clock, dev->clock().now());
  row.ok = !devs.empty();
  return row;
}

RestartRow concurrent_restart(const shard::ShardedConfig& sc,
                              std::vector<std::unique_ptr<flash::NandDevice>> nands) {
  RestartRow row;
  const auto t0 = std::chrono::steady_clock::now();
  auto arr = shard::ShardedKvssd::recover(sc, std::move(nands));
  row.secs = seconds_since(t0);
  if (!arr.has_value()) return row;
  for (const obs::MetricsSnapshot& snap : (*arr)->shard_metrics_snapshots()) {
    row.pages_read.push_back(snap.counter("recovery.pages_read"));
  }
  row.clock = (*arr)->sim_time();
  row.ok = true;
  return row;
}

std::string join(const std::vector<std::uint64_t>& v) {
  std::string s;
  for (const std::uint64_t x : v) {
    if (!s.empty()) s += ' ';
    s += std::to_string(x);
  }
  return s;
}

void array_restart() {
  bench::heading(
      "Array restart: shards rebuilt concurrently vs one after another "
      "(1 GiB array, 200k x 1 KiB)",
      "DESIGN.md §6/§8 — concurrent shard restart, unchanged device clock");
  std::printf("  %-6s %-10s %9s %11s %8s  %-24s %s\n", "shards", "restart",
              "serial", "concurrent", "speed-up", "pages read per shard",
              "array clock");
  for (const bool checkpoints : {false, true}) {
    for (const std::uint32_t shards : {2u, 4u}) {
      const shard::ShardedConfig sc = array_config(shards, checkpoints);
      auto images = array_images(sc);
      const RestartRow serial = serial_restart(sc, std::move(images));
      images = array_images(sc);
      const RestartRow conc = concurrent_restart(sc, std::move(images));
      if (!serial.ok || !conc.ok) {
        std::printf("  %u shards: load or restart failed\n", shards);
        continue;
      }
      std::printf("  %-6u %-10s %8.3fs %10.3fs %7.2fx  %-24s %.3f ms\n", shards,
                  checkpoints ? "checkpoint" : "full scan", serial.secs, conc.secs,
                  serial.secs / conc.secs, join(conc.pages_read).c_str(),
                  static_cast<double>(conc.clock) / 1e6);
      guard(serial.pages_read == conc.pages_read && serial.clock == conc.clock,
            "%u shards, %s: pages read and array clock match the serial "
            "restart",
            shards, checkpoints ? "checkpoint" : "full scan");
    }
  }
  bench::note("the speed-up needs one free core per shard; the device clock "
              "and pages read do not depend on it");
}

}  // namespace

int main() {
  crc_rate();

  bench::heading("Recovery scan throughput vs value size (64 MB device, 50% full)",
                 "recovery cost model — full-log scan + index rebuild");
  std::printf("  %-8s %14s %15s %12s %10s\n", "value", "scan", "rebuild",
              "keys", "blocks");
  for (const std::uint32_t vs : {64u, 512u, 4096u, 8192u}) {
    scan_throughput(vs);
  }
  bench::note("small values stress the index rebuild (more keys per page); "
              "large values approach the raw CRC bound");

  torn_log();
  full_scan_cost();
  checkpointed_restart();
  array_restart();
  journaling_overhead();
  return 0;
}
