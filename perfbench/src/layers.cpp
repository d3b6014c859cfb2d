#include "layers.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <vector>

#include "cache/lru_cache.hpp"
#include "common/sim_clock.hpp"
#include "drivers.hpp"
#include "flash/nand.hpp"
#include "hash/hopscotch.hpp"
#include "hash/murmur.hpp"
#include "index/rhik/record_page.hpp"
#include "spans.hpp"

namespace perfbench {

namespace {

/// Keeps a computed value observable so timed loops are not elided.
volatile std::uint64_t g_sink = 0;

template <typename Fn>
double ns_per_call(std::size_t calls, Fn&& fn) {
  const std::uint64_t t0 = wall_ns();
  std::uint64_t acc = 0;
  for (std::size_t i = 0; i < calls; ++i) acc += fn(i);
  const std::uint64_t t1 = wall_ns();
  g_sink = g_sink + acc;
  return static_cast<double>(t1 - t0) / static_cast<double>(calls);
}

}  // namespace

CallCosts measure_call_costs(const WorkloadSpec& w, std::span<const Op> ops, double occupancy) {
  CallCosts c;
  // The workload's own keys, in op-stream order (distinct ids first seen).
  std::vector<rhik::Bytes> keys;
  std::vector<bool> seen(w.keys, false);
  for (const Op& op : ops) {
    if (op.kind == OpKind::kScan || seen[op.id]) continue;
    seen[op.id] = true;
    keys.push_back(device_key(w, op.id));
    if (keys.size() == 8192) break;
  }
  for (std::uint64_t id = 0; keys.size() < 8192 && id < w.keys; ++id) {
    if (!seen[id]) keys.push_back(device_key(w, id));
  }
  const bool prefix = w.device.enable_iterator;
  const auto signature = [&](const rhik::Bytes& k) {
    return prefix ? rhik::hash::prefix_signature(k) : rhik::hash::murmur2_64(k);
  };
  constexpr std::size_t kReps = 200'000;
  c.signature_ns =
      ns_per_call(kReps, [&](std::size_t i) { return signature(keys[i % keys.size()]); });

  // One record page filled to the index's occupancy with the workload's
  // signatures; the rest of the keys are misses.
  const rhik::index::RecordPageCodec codec(rhik::index::RhikConfig{}, 32 * 1024);
  rhik::hash::HopscotchTable table = codec.make_table();
  const auto target = static_cast<std::uint32_t>(
      std::clamp(occupancy, 0.05, 0.95) * static_cast<double>(table.capacity()));
  std::vector<std::uint64_t> present, absent;
  for (const rhik::Bytes& k : keys) {
    const std::uint64_t sig = signature(k);
    if (table.size() < target && rhik::ok(table.insert(sig, present.size()))) {
      present.push_back(sig);
    } else if (!table.find(sig)) {
      absent.push_back(sig);
    }
  }
  if (present.empty() || absent.empty()) return c;
  c.probe_hit_ns = ns_per_call(kReps, [&](std::size_t i) {
    return table.find(present[i % present.size()]).value_or(0);
  });
  c.probe_miss_ns = ns_per_call(kReps, [&](std::size_t i) {
    return table.find(absent[i % absent.size()]).value_or(1);
  });
  double len = 0;
  for (std::uint64_t sig : present) len += table.probe_length(sig);
  c.probe_len_mean = len / static_cast<double>(present.size());

  rhik::Bytes page(32 * 1024);
  constexpr std::size_t kPageReps = 2'000;
  c.encode_ns = ns_per_call(kPageReps, [&](std::size_t) {
    codec.encode(table, page);
    return page[0];
  });
  rhik::hash::HopscotchTable decoded = codec.make_table();
  c.decode_ns = ns_per_call(kPageReps, [&](std::size_t) {
    return static_cast<std::uint64_t>(codec.decode(page, &decoded));
  });

  // Record-table cache at the workload's budget, keyed by bucket ids
  // derived from the workload's signatures.
  rhik::cache::LruCache<std::uint64_t, std::uint64_t> cache(w.device.dram_cache_bytes, 32 * 1024);
  std::vector<std::uint64_t> buckets;
  for (std::uint64_t sig : present) buckets.push_back(sig >> 50);
  for (std::uint64_t b : buckets) cache.insert(b, b);
  c.cache_lookup_ns = ns_per_call(kReps, [&](std::size_t i) {
    const std::uint64_t* v = cache.get(buckets[i % buckets.size()]);
    return v == nullptr ? 0 : *v;
  });

  // NAND model: program then read back the encoded page.
  rhik::SimClock clock;
  rhik::flash::Geometry g;
  g.pages_per_block = 64;
  g.num_blocks = 8;
  rhik::flash::NandDevice nand(g, rhik::flash::NandLatency{}, &clock);
  const std::uint32_t pages = g.pages_per_block * g.num_blocks;
  c.nand_program_ns = ns_per_call(pages, [&](std::size_t i) {
    return static_cast<std::uint64_t>(nand.program_page(i, page));
  });
  rhik::Bytes out(page.size());
  c.nand_read_ns = ns_per_call(kPageReps, [&](std::size_t i) {
    return static_cast<std::uint64_t>(nand.read_page(i % pages, out));
  });
  return c;
}

std::uint64_t count_lines(const std::string& dir) {
  namespace fs = std::filesystem;
  std::error_code ec;
  if (!fs::is_directory(dir, ec)) return 0;
  std::uint64_t lines = 0;
  for (const auto& e : fs::recursive_directory_iterator(dir, ec)) {
    if (!e.is_regular_file()) continue;
    std::ifstream in(e.path(), std::ios::binary);
    lines += static_cast<std::uint64_t>(
        std::count(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>(), '\n'));
  }
  return lines;
}

}  // namespace perfbench
