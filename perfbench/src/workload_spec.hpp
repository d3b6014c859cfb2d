// Workload definitions, the seeded op stream, key/value material and the
// durable read-back oracle.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "api/kvs.hpp"
#include "common/bytes.hpp"

namespace perfbench {

enum class Entry : std::uint8_t {
  kNet,  ///< net::KvClient → net::KvServer over loopback
  kApi,  ///< api::KvsDevice async verbs in-process
};

struct WorkloadSpec {
  std::string name;
  Entry entry = Entry::kApi;
  std::uint64_t keys = 0;
  std::uint32_t key_bytes = 16;
  std::uint32_t value_bytes = 64;
  // Op mix in percent; the remainder is gets.
  double put_pct = 0;
  double del_pct = 0;
  double scan_pct = 0;
  /// Key choice: zipf (0.99, scrambled) when true, else `hot_pct` of
  /// the ops go to the first `hot_keys_pct` of the scrambled keyspace
  /// (uniform when hot_pct is 0).
  bool zipf = false;
  double hot_pct = 0;
  double hot_keys_pct = 0;
  std::uint32_t scan_keys = 64;
  rhik::api::KvsDeviceOptions device;
  /// Closed-loop depth: commands in flight per connection (net) or in
  /// total (api), and connections for the net entry.
  std::uint32_t depth = 64;
  std::uint32_t connections = 1;
  /// Timed ops per requested second. The op count is fixed from the
  /// seconds argument, never from elapsed time, so device-clock metrics
  /// are a pure function of (workload, seed, seconds).
  std::uint64_t ops_per_second = 0;
  /// Ops run (and checked) during set-up to warm caches and connections.
  std::uint64_t warmup_ops = 0;
};

/// The three named workloads; throws std::invalid_argument on an unknown name.
WorkloadSpec workload_by_name(std::string_view name);

enum class OpKind : std::uint8_t { kGet, kPut, kDel, kScan };

/// One generated command. `version` is unique per write across a run
/// (preload writes version 0); for scans `id` is the key group.
struct Op {
  OpKind kind = OpKind::kGet;
  std::uint32_t id = 0;
  std::uint32_t version = 0;
};

/// Generates `n` ops from `seed`; write versions count up from 1.
std::vector<Op> generate_ops(const WorkloadSpec& w, std::uint64_t seed, std::size_t n);

/// Keys carry their 64-key group in the first four bytes ("g" + 3 hex
/// digits), so a scan over one group's prefix is served by one prefix
/// class, then the id in hex right-aligned.
inline constexpr std::uint32_t kGroupShift = 6;
inline constexpr std::size_t kGroupPrefixLen = 4;
std::string user_key(std::uint64_t id, std::uint32_t key_bytes);
std::string group_prefix(std::uint64_t group);
/// Parses a key produced by user_key; false when it is not one.
bool parse_user_key(std::string_view key, std::uint64_t* id);

/// Value of `version` of key `id`: a 16-byte header (id, version) and a
/// body from workload::fill_value seeded by both, so a read-back can tell
/// the latest version from a stale one and from foreign bytes.
void fill_versioned(std::uint64_t id, std::uint32_t version, rhik::MutByteSpan out);

/// Durable read-back oracle: the last acknowledged state of every key.
class Oracle {
 public:
  enum class Verdict : std::uint8_t {
    kOk,
    kIoError,      ///< the device returned an error code
    kLost,         ///< acknowledged value reads as absent
    kStale,        ///< an older acknowledged version came back
    kResurrected,  ///< an acknowledged delete reads as present
    kCorrupt,      ///< bytes that no acknowledged write of this key produced
  };

  explicit Oracle(std::uint64_t keys) : state_(keys) {}

  void ack_put(std::uint64_t id, std::uint32_t version) {
    state_[id] = {version, true, false};
  }
  void ack_del(std::uint64_t id, std::uint32_t version) {
    state_[id] = {version, false, false};
  }
  /// A write that returned an error may or may not have applied; until
  /// the next ack the key accepts absence or any intact value of its own,
  /// but an error code or foreign bytes still fail.
  void taint(std::uint64_t id) { state_[id].tainted = true; }

  /// Judges a get of key `id` that returned `r` (and `value` on success).
  [[nodiscard]] Verdict check(std::uint64_t id, rhik::api::KvsResult r,
                              rhik::ByteSpan value, std::uint32_t value_bytes) const;
  [[nodiscard]] bool live(std::uint64_t id) const { return state_[id].live; }
  [[nodiscard]] std::uint64_t keys() const noexcept { return state_.size(); }

 private:
  struct KeyState {
    std::uint32_t version = 0;
    bool live = false;
    bool tainted = false;
  };
  std::vector<KeyState> state_;
};

/// Per-verdict tallies.
struct Tally {
  std::uint64_t checked = 0;
  std::uint64_t io_error = 0, lost = 0, stale = 0, resurrected = 0, corrupt = 0;

  void add(Oracle::Verdict v) {
    ++checked;
    switch (v) {
      case Oracle::Verdict::kOk: break;
      case Oracle::Verdict::kIoError: ++io_error; break;
      case Oracle::Verdict::kLost: ++lost; break;
      case Oracle::Verdict::kStale: ++stale; break;
      case Oracle::Verdict::kResurrected: ++resurrected; break;
      case Oracle::Verdict::kCorrupt: ++corrupt; break;
    }
  }
  [[nodiscard]] std::uint64_t failed() const {
    return io_error + lost + stale + resurrected + corrupt;
  }
};

}  // namespace perfbench
