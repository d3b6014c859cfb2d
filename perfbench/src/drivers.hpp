// Closed-loop drivers: one per entry depth (net client, api async verbs,
// the backend's tagged submission), plus preload and read-back.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <vector>

#include "api/kvs.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "spans.hpp"
#include "stats.hpp"
#include "workload_spec.hpp"

namespace perfbench {

/// What one pass over an op stream did.
struct PhaseStats {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Key + value bytes of acknowledged puts (device keys).
  std::uint64_t user_bytes_put = 0;
  /// Every completed point op, in the order the caller saw it.
  std::vector<Completion> done;
  Tally gets;
  std::uint64_t scan_keys = 0;
  std::uint64_t scan_mismatches = 0;
  double wall_s = 0;
  std::uint64_t start_ns = 0;  ///< wall time the first pass started
  /// Max of the device's snapshot.retained_bytes, sampled while scans
  /// hold their snapshot (traced run only).
  std::int64_t retained_bytes_peak = 0;
  /// api entry: poll calls, completions they returned, and completions
  /// returned by polls inside traced chunks.
  std::uint64_t api_polls = 0, api_completions = 0, api_traced_poll_completions = 0;
  /// Failed point ops by the result code they returned.
  std::map<rhik::api::KvsResult, std::uint64_t> errors;
};

/// One opened system under test: the device, and for the net entry the
/// server and the client connections.
struct Rig {
  std::unique_ptr<rhik::api::KvsDevice> dev;
  std::unique_ptr<rhik::net::KvServer> server;
  std::vector<rhik::net::KvClient> clients;

  /// Stops the clients and the server (the device stays open).
  void stop_net();
};

/// Ops in traced chunks record spans; chunks alternate traced/untraced so
/// the trace overhead is measured inside one run.
inline constexpr std::size_t kTraceChunk = 1024;

struct DriveContext {
  const WorkloadSpec& w;
  Oracle& oracle;
  SpanRecorder& spans;  ///< disabled outside the traced run
  /// Added to every op's version, so a replay writes fresh versions.
  std::uint32_t version_offset = 0;
};

/// Device key of `id` (the net entry stores keys under tenant 0's prefix).
rhik::Bytes device_key(const WorkloadSpec& w, std::uint64_t id);

/// Opens the device; start_net() adds the server and connections.
Rig open_rig(const WorkloadSpec& w);
/// Starts the server over the rig's device and connects the clients.
void start_net(Rig& rig, const WorkloadSpec& w);
/// Loads every key at version 0 through the api async verbs.
void preload(Rig& rig, DriveContext& ctx, PhaseStats& st);

/// Runs `ops` through the workload's own entry.
void drive(Rig& rig, DriveContext& ctx, std::span<const Op> ops, PhaseStats& st);
/// Runs `ops` through api::KvsDevice async verbs (the device key space).
void drive_api(rhik::api::KvsDevice& dev, DriveContext& ctx, std::span<const Op> ops,
               PhaseStats& st);
/// Runs the point ops of `ops` through the tagged submission + drain of
/// `dev.backend()`, the layer under the api::KvsDevice verbs.
void drive_backend(rhik::api::KvsDevice& dev, DriveContext& ctx, std::span<const Op> ops,
                   PhaseStats& st);

/// Reads every key back through the api async verbs and judges it.
void verify_all(rhik::api::KvsDevice& dev, const WorkloadSpec& w, const Oracle& oracle,
                Tally& out);

}  // namespace perfbench
