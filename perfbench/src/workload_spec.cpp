#include "workload_spec.hpp"

#include <cstring>
#include <numeric>
#include <optional>
#include <stdexcept>

#include "common/rng.hpp"
#include "hash/murmur.hpp"
#include "workload/keygen.hpp"

namespace perfbench {

namespace {

/// Multiplier of the rank → key-id permutation: the first odd value from a
/// large prime upward that is coprime with the keyspace, so popular ranks
/// scatter over shards and index buckets as in scrambled-zipf YCSB.
std::uint64_t permutation_multiplier(std::uint64_t n) {
  std::uint64_t a = 2654435761ULL;
  while (std::gcd(a, n) != 1) a += 2;
  return a;
}

}  // namespace

WorkloadSpec workload_by_name(std::string_view name) {
  WorkloadSpec w;
  w.name = std::string(name);
  w.device.pages_per_block = 64;
  if (name == "serve_read_mostly") {
    // YCSB-B served over loopback: the host hot path does the work; the
    // whole record layer fits the 16 MiB cache.
    w.entry = Entry::kNet;
    w.keys = 200'000;
    w.key_bytes = 16;
    w.value_bytes = 1024;
    w.put_pct = 5;
    w.zipf = true;
    w.device.capacity_bytes = 1ull << 30;
    w.device.dram_cache_bytes = 16ull << 20;
    w.device.num_shards = 2;
    w.depth = 16;
    w.connections = 4;
    w.ops_per_second = 230'000;
    w.warmup_ops = 20'000;
  } else if (name == "starved_update") {
    // YCSB-A in the paper's DRAM-starved regime: 256 KiB of index cache
    // for 100 k keys, so gets decode record pages and updates evict
    // dirty tables. Single-threaded, so the device clock is bit-exact.
    w.entry = Entry::kApi;
    w.keys = 100'000;
    w.key_bytes = 20;
    w.value_bytes = 64;
    w.put_pct = 50;
    w.device.capacity_bytes = 512ull << 20;
    w.device.dram_cache_bytes = 256ull << 10;
    w.depth = 64;
    w.ops_per_second = 18'000;
    w.warmup_ops = 5'000;
  } else if (name == "churn_gc_scan") {
    // Hot/cold overwrite churn at ~75 % live fill: GC, allocator, MVCC
    // retention under open scans and the checkpoint journal do the work.
    w.entry = Entry::kApi;
    w.keys = 47'000;
    w.key_bytes = 16;
    w.value_bytes = 4096;
    w.put_pct = 85;
    w.del_pct = 5;
    w.scan_pct = 1;
    w.hot_pct = 90;
    w.hot_keys_pct = 10;
    w.device.capacity_bytes = 256ull << 20;
    w.device.dram_cache_bytes = 10ull << 20;
    w.device.enable_iterator = true;
    w.device.enable_checkpoints = true;
    w.depth = 64;
    w.ops_per_second = 70'000;
    w.warmup_ops = 5'000;
  } else {
    throw std::invalid_argument("unknown workload: " + std::string(name));
  }
  return w;
}

std::vector<Op> generate_ops(const WorkloadSpec& w, std::uint64_t seed, std::size_t n) {
  rhik::Rng rng(seed * 0x9e3779b97f4a7c15ULL + 0x7065726662ULL);
  const std::uint64_t mult = permutation_multiplier(w.keys);
  const auto scramble = [&](std::uint64_t rank) {
    return static_cast<std::uint32_t>(
        static_cast<unsigned __int128>(rank) * mult % w.keys);
  };
  std::optional<rhik::Zipfian> zipf;
  if (w.zipf) zipf.emplace(w.keys, 0.99);
  const auto hot_keys = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(static_cast<double>(w.keys) * w.hot_keys_pct / 100));
  const std::uint64_t groups = (w.keys + (1u << kGroupShift) - 1) >> kGroupShift;

  const auto pick = [&](bool skewed) -> std::uint32_t {
    if (zipf) return scramble(zipf->next(rng));
    if (skewed && w.hot_pct > 0) {
      if (rng.next_double() * 100 < w.hot_pct) return scramble(rng.next_below(hot_keys));
      return scramble(hot_keys + rng.next_below(w.keys - hot_keys));
    }
    return static_cast<std::uint32_t>(rng.next_below(w.keys));
  };

  std::vector<Op> ops(n);
  std::uint32_t version = 1;
  for (Op& op : ops) {
    const double u = rng.next_double() * 100;
    if (u < w.put_pct) {
      op = {OpKind::kPut, pick(true), version++};
    } else if (u < w.put_pct + w.del_pct) {
      op = {OpKind::kDel, pick(false), version++};
    } else if (u < w.put_pct + w.del_pct + w.scan_pct) {
      op = {OpKind::kScan, static_cast<std::uint32_t>(rng.next_below(groups)), 0};
    } else {
      op = {OpKind::kGet, pick(false), 0};
    }
  }
  return ops;
}

std::string user_key(std::uint64_t id, std::uint32_t key_bytes) {
  static constexpr char kHex[] = "0123456789abcdef";
  std::string k(key_bytes, '0');
  const std::uint64_t group = (id >> kGroupShift) & 0xfff;
  k[0] = 'g';
  for (int i = 0; i < 3; ++i) k[1 + i] = kHex[(group >> (4 * (2 - i))) & 0xf];
  std::uint64_t v = id;
  for (std::size_t i = key_bytes; i > kGroupPrefixLen && v != 0; --i, v >>= 4) {
    k[i - 1] = kHex[v & 0xf];
  }
  return k;
}

std::string group_prefix(std::uint64_t group) {
  return user_key(group << kGroupShift, kGroupPrefixLen + 1).substr(0, kGroupPrefixLen);
}

bool parse_user_key(std::string_view key, std::uint64_t* id) {
  if (key.size() <= kGroupPrefixLen || key[0] != 'g') return false;
  std::uint64_t v = 0;
  for (std::size_t i = kGroupPrefixLen; i < key.size(); ++i) {
    const char c = key[i];
    const int d = c >= '0' && c <= '9' ? c - '0' : c >= 'a' && c <= 'f' ? c - 'a' + 10 : -1;
    if (d < 0) return false;
    v = (v << 4) | static_cast<std::uint64_t>(d);
  }
  *id = v;
  return true;
}

void fill_versioned(std::uint64_t id, std::uint32_t version, rhik::MutByteSpan out) {
  std::uint8_t header[16] = {};
  std::memcpy(header, &id, 8);
  const std::uint64_t v64 = version;
  std::memcpy(header + 8, &v64, 8);
  const std::size_t h = std::min<std::size_t>(out.size(), sizeof(header));
  std::memcpy(out.data(), header, h);
  rhik::workload::fill_value(rhik::hash::mix64((id << 32) ^ version), out.subspan(h));
}

Oracle::Verdict Oracle::check(std::uint64_t id, rhik::api::KvsResult r,
                              rhik::ByteSpan value, std::uint32_t value_bytes) const {
  using rhik::api::KvsResult;
  const KeyState& k = state_[id];
  if (r == KvsResult::KVS_ERR_KEY_NOT_EXIST) {
    return k.live && !k.tainted ? Verdict::kLost : Verdict::kOk;
  }
  if (r != KvsResult::KVS_SUCCESS) return Verdict::kIoError;
  if (value.size() != value_bytes || value.size() < 16) return Verdict::kCorrupt;
  std::uint64_t got_id = 0;
  std::uint64_t got_version = 0;
  std::memcpy(&got_id, value.data(), 8);
  std::memcpy(&got_version, value.data() + 8, 8);
  if (got_id != id || got_version > UINT32_MAX) return Verdict::kCorrupt;
  rhik::Bytes expect(value.size());
  fill_versioned(id, static_cast<std::uint32_t>(got_version), expect);
  if (std::memcmp(expect.data(), value.data(), value.size()) != 0) return Verdict::kCorrupt;
  if (k.tainted) return Verdict::kOk;
  if (!k.live) return Verdict::kResurrected;
  return got_version == k.version ? Verdict::kOk : Verdict::kStale;
}

}  // namespace perfbench
