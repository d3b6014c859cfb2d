// Repository benchmark: runs one named workload through the public paths,
// checks every acknowledged write after a power cycle, and prints the
// end-to-end metrics (untraced run) or the per-layer metrics (traced run).
// The last line of standard output is one JSON object:
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--spans-out FILE]
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "drivers.hpp"
#include "layers.hpp"
#include "spans.hpp"
#include "stats.hpp"
#include "workload_spec.hpp"

namespace perfbench {
namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  std::uint64_t seconds = 10;
  bool trace = false;
  std::string spans_out;
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const char* v = argv[i + 1];
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v, nullptr, 10);
    } else if (k == "--seconds") {
      a.seconds = std::strtoull(v, nullptr, 10);
    } else if (k == "--trace") {
      a.trace = std::strcmp(v, "0") != 0;
    } else if (k == "--spans-out") {
      a.spans_out = v;
    } else {
      throw std::invalid_argument("unknown argument " + k);
    }
  }
  if (a.workload.empty() || a.seconds == 0) {
    throw std::invalid_argument("usage: --workload NAME --seed N --seconds S --trace 0|1");
  }
  return a;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
  std::string note;  ///< sample count or base, printed beside the value
};

class Report {
 public:
  void add(std::string name, double v, std::string unit, std::string note = {}) {
    metrics_.push_back({std::move(name), v, std::move(unit), std::move(note)});
  }
  /// A percentile of ns samples, reported in us with its sample count.
  void add_us(const std::string& name, Percentile p) {
    add(name, p.value / 1e3, "us", "n=" + std::to_string(p.samples));
  }
  void add_ratio(const std::string& name, Ratio r, const std::string& unit) {
    char base[64];
    std::snprintf(base, sizeof base, "base=%.0f", r.base);
    add(name, r.value, unit, base);
  }

  void print(bool correct, std::uint64_t attempted, std::uint64_t failed) const {
    for (const Metric& m : metrics_) {
      std::printf("  %-36s %16.6f %-8s %s\n", m.name.c_str(), m.value, m.unit.c_str(),
                  m.note.c_str());
    }
    std::string json = "{\"correct\": ";
    json += correct ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(attempted);
    json += ", \"failed\": " + std::to_string(failed);
    json += ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      char num[64];
      std::snprintf(num, sizeof num, "%.17g", metrics_[i].value);
      json += (i ? ", \"" : "\"") + metrics_[i].name + "\": {\"value\": " + num +
              ", \"unit\": \"" + metrics_[i].unit + "\"}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
  }

 private:
  std::vector<Metric> metrics_;
};

/// CPU placement. The client (the main thread) runs on one CPU and the
/// threads of the system under test (server worker, shard workers) on a
/// disjoint set of up to two more, so the serving pipeline keeps its
/// cross-thread hand-offs and shard parallelism, while client and server
/// never preempt each other. A thread inherits the mask of the thread that
/// starts it, so the main thread moves to the server set around every call
/// that starts threads (opening the device or server, recover()). A
/// workload without such threads keeps everything on the client CPU.
class Placement {
 public:
  explicit Placement(bool server_threads) {
    CPU_ZERO(&client_);
    CPU_ZERO(&server_);
    cpu_set_t allowed;
    if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) return;
    std::vector<int> cpus;
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &allowed)) cpus.push_back(c);
    }
    if (cpus.empty()) return;
    CPU_SET(cpus[0], &client_);
    const std::size_t server_cpus = server_threads ? 2 : 0;
    for (std::size_t i = 1; i < std::min(cpus.size(), 1 + server_cpus); ++i) {
      CPU_SET(cpus[i], &server_);
    }
    if (CPU_COUNT(&server_) == 0) CPU_SET(cpus[0], &server_);
    ok_ = true;
  }

  void describe() const {
    std::printf("  client cpus %s, server cpus %s\n", list(client_).c_str(),
                list(server_).c_str());
  }
  void client() const { pin(client_); }
  /// Runs `f` with the main thread on the server set; threads it starts stay there.
  template <class F>
  decltype(auto) on_server(F&& f) const {
    pin(server_);
    struct Back {
      const Placement& p;
      ~Back() { p.client(); }
    } back{*this};
    return std::forward<F>(f)();
  }

 private:
  void pin(const cpu_set_t& set) const {
    if (ok_) sched_setaffinity(0, sizeof set, &set);
  }
  static std::string list(const cpu_set_t& set) {
    std::string s;
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &set)) s += (s.empty() ? "" : ",") + std::to_string(c);
    }
    return s.empty() ? "-" : s;
  }

  cpu_set_t client_;
  cpu_set_t server_;
  bool ok_ = false;
};

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::uint64_t delta(const rhik::obs::MetricsSnapshot& a, const rhik::obs::MetricsSnapshot& b,
                    const char* counter) {
  return a.counter(counter) - b.counter(counter);
}

rhik::Histogram timer_delta(const rhik::obs::MetricsSnapshot& a,
                            const rhik::obs::MetricsSnapshot& b, const char* name) {
  const rhik::Histogram* x = a.timer(name);
  const rhik::Histogram* y = b.timer(name);
  if (x == nullptr) return {};
  return y == nullptr ? *x : histogram_delta(*x, *y);
}

constexpr int kSetups = 5;
constexpr int kRestarts = 8;
/// Ops between a checkpoint and the restart after it: under half of
/// churn_gc_scan's checkpoint interval (about 13 k ops), so no automatic
/// checkpoint falls in between, yet enough journal that the restart is not
/// lost in host noise.
constexpr std::size_t kRestartSliceOps = 6'000;
constexpr std::size_t kWallWindows = 100;

/// Per-op wall ns of one replay pass.
double ns_per_op(const PhaseStats& st) {
  return st.attempted == 0 ? 0 : st.wall_s * 1e9 / static_cast<double>(st.attempted);
}

int run(const Args& args) {
  const WorkloadSpec w = workload_by_name(args.workload);
  const Placement cpus(w.entry == Entry::kNet || w.device.num_shards > 1);
  cpus.describe();
  cpus.client();
  // Wall time of each phase, printed so a slow run shows where it went.
  std::uint64_t phase_t0 = wall_ns();
  const auto phase = [&phase_t0](const char* name) {
    const std::uint64_t now = wall_ns();
    std::printf("  phase %-16s %8.3f s\n", name, static_cast<double>(now - phase_t0) / 1e9);
    phase_t0 = now;
  };
  const std::size_t timed_n = static_cast<std::size_t>(w.ops_per_second * args.seconds);

  const std::uint64_t g0 = wall_ns();
  const std::vector<Op> ops = generate_ops(w, args.seed, w.warmup_ops + timed_n);
  const double gen_ns_per_op =
      static_cast<double>(wall_ns() - g0) / static_cast<double>(ops.size());
  const std::span<const Op> warmup(ops.data(), w.warmup_ops);
  const std::span<const Op> timed(ops.data() + w.warmup_ops, timed_n);

  // Set-up (open, preload, warm up) is repeated and its median reported,
  // so work moved into set-up shows; the last rig is the one measured.
  SpanRecorder no_spans(false);
  SpanRecorder spans(args.trace);
  std::vector<double> setup_s;
  Rig rig;
  std::unique_ptr<Oracle> oracle;
  PhaseStats setup;
  for (int rep = 0; rep < (args.trace ? 1 : kSetups); ++rep) {
    rig.stop_net();
    rig.dev.reset();
    const std::uint64_t t0 = wall_ns();
    rig = cpus.on_server([&w] { return open_rig(w); });
    oracle = std::make_unique<Oracle>(w.keys);
    DriveContext ctx{w, *oracle, no_spans};
    setup = PhaseStats{};
    preload(rig, ctx, setup);
    if (w.entry == Entry::kNet) cpus.on_server([&] { start_net(rig, w); });
    drive(rig, ctx, warmup, setup);
    setup_s.push_back(static_cast<double>(wall_ns() - t0) / 1e9);
  }
  phase("set-up");

  const auto device_metrics = [&] {
    return rig.server ? rig.server->device_metrics() : rig.dev->metrics_snapshot();
  };
  const rhik::obs::MetricsSnapshot before = device_metrics();
  const rhik::obs::MetricsSnapshot net_before =
      rig.server ? rig.server->metrics_snapshot() : rhik::obs::MetricsSnapshot{};

  DriveContext ctx{w, *oracle, spans};
  PhaseStats st;
  drive(rig, ctx, timed, st);
  phase("timed");

  const rhik::obs::MetricsSnapshot after = device_metrics();
  const rhik::obs::MetricsSnapshot net_after =
      rig.server ? rig.server->metrics_snapshot() : rhik::obs::MetricsSnapshot{};

  // Traced run: replay the point ops of a prefix of the same stream at
  // each entry depth, untraced, so depth differences give each layer's
  // self time. Scans are left out: the backend has no iterator verb.
  PhaseStats rep_net, rep_api, rep_backend, rep_replica, rep_api_traced;
  if (args.trace) {
    std::vector<Op> prefix;
    for (const Op& op : timed.first(std::max<std::size_t>(timed_n / 4, 1))) {
      if (op.kind != OpKind::kScan) prefix.push_back(op);
    }
    const auto stride = static_cast<std::uint32_t>(ops.size() + 1);
    std::uint32_t offset = 0;
    const auto replay_ctx = [&](Oracle& o, const WorkloadSpec& spec, SpanRecorder& rec) {
      offset += stride;
      return DriveContext{spec, o, rec, offset};
    };
    if (w.entry == Entry::kNet) {
      DriveContext c = replay_ctx(*oracle, w, no_spans);
      drive(rig, c, prefix, rep_net);
      phase("replay net");
    }
    rig.stop_net();
    {
      DriveContext c = replay_ctx(*oracle, w, no_spans);
      drive_api(*rig.dev, c, prefix, rep_api);
      phase("replay api");
    }
    if (w.entry == Entry::kNet) {
      // The timed phase entered through the client, so the api spans come
      // from one more api pass, traced.
      DriveContext c = replay_ctx(*oracle, w, spans);
      drive_api(*rig.dev, c, prefix, rep_api_traced);
      phase("traced api");
    }
    {
      DriveContext c = replay_ctx(*oracle, w, no_spans);
      drive_backend(*rig.dev, c, prefix, rep_backend);
      phase("replay backend");
    }
    if (w.device.num_shards > 1) {
      // A single-device replica of one shard (half the keyspace, half the
      // device) gives the backend cost without the shard front-end.
      WorkloadSpec one = w;
      one.entry = Entry::kApi;
      one.keys = w.keys / w.device.num_shards;
      one.device.num_shards = 1;
      one.device.capacity_bytes /= w.device.num_shards;
      one.device.dram_cache_bytes /= w.device.num_shards;
      std::vector<Op> mapped(prefix.begin(), prefix.end());
      for (Op& op : mapped) op.id %= one.keys;
      Rig replica = open_rig(one);
      Oracle ro(one.keys);
      DriveContext c = replay_ctx(ro, one, no_spans);
      PhaseStats load;
      preload(replica, c, load);
      drive_backend(*replica.dev, c, mapped, rep_replica);
      phase("replay replica");
    }
  } else {
    rig.stop_net();
  }

  // Power cycles: flush, tear down, rebuild from flash. Every key is read
  // back after the first restart; the later ones only time restarts. A
  // checkpointing device's restart cost grows with the journal written
  // since its last checkpoint, so every restart comes the same distance
  // after one: checkpoint (a no-op without checkpointing), a slice of
  // further ops, restart. The median successful restart is reported.
  bool flushed = true;
  bool recovered = true;
  std::uint64_t failed_restarts = 0;
  double failed_restart_s = 0;
  rhik::obs::MetricsSnapshot post;
  std::vector<double> recover_times;
  Tally verify;
  const int restarts = args.trace ? 1 : kRestarts;
  const std::vector<Op> slices =
      generate_ops(w, ~args.seed, static_cast<std::size_t>(restarts) * kRestartSliceOps);
  PhaseStats slice_st;
  for (int cycle = 0; cycle < restarts && recovered; ++cycle) {
    (void)rig.dev->checkpoint();
    // Versions beyond every replay's range.
    DriveContext c{w, *oracle, no_spans, 8 * static_cast<std::uint32_t>(ops.size() + 1)};
    drive_api(*rig.dev, c,
              std::span<const Op>(slices).subspan(cycle * kRestartSliceOps, kRestartSliceOps),
              slice_st);
    rhik::kvssd::RecoveryStats rs;
    const std::uint64_t r0 = wall_ns();
    flushed = flushed && rig.dev->flush() == rhik::api::KvsResult::KVS_SUCCESS;
    const rhik::api::KvsResult rr = cpus.on_server([&] { return rig.dev->recover(&rs); });
    const double took = static_cast<double>(wall_ns() - r0) / 1e9;
    recovered = rr == rhik::api::KvsResult::KVS_SUCCESS;
    if (!recovered) {
      // The device is gone; after the first restart that means every
      // acknowledged key is unreadable.
      std::printf("  restart %d failed after %.4f s: %s\n", cycle, took,
                  rhik::api::to_string(rr));
      ++failed_restarts;
      failed_restart_s = took;
      if (cycle == 0) {
        for (std::uint64_t id = 0; id < w.keys; ++id) verify.add(Oracle::Verdict::kIoError);
      }
      break;
    }
    recover_times.push_back(took);
    std::printf("  restart %d: %.4f s, %s, %llu pages read\n", cycle, took,
                rs.full_scan_fallback ? "full scan" : "checkpoint",
                static_cast<unsigned long long>(rs.pages_read));
    if (cycle == 0) {
      // The recovery counters describe this restart.
      post = rig.dev->metrics_snapshot();
      verify_all(*rig.dev, w, *oracle, verify);
    }
  }
  // With no successful restart, the failed attempt's time stands in.
  const double recover_s = recover_times.empty() ? failed_restart_s : median(recover_times);
  phase("restarts, read-back");

  // Every op of every pass counts; so does each key read back.
  std::uint64_t attempted = verify.checked + recover_times.size() + failed_restarts;
  std::uint64_t failed = verify.failed() + failed_restarts + (flushed ? 0 : 1);
  std::uint64_t wrong = verify.corrupt;
  for (const PhaseStats* p :
       {&setup, &st, &rep_net, &rep_api, &rep_api_traced, &rep_backend, &rep_replica,
        &slice_st}) {
    attempted += p->attempted;
    failed += p->failed;
    wrong += p->gets.corrupt + p->scan_mismatches;
  }
  // Errors the device reports count as failures; `correct` is about data
  // it returned as good that the oracle says is wrong.
  const bool correct = wrong == 0;

  std::printf("workload %s seed %llu: %zu timed ops (%llu failed), %llu keys verified "
              "(lost %llu, stale %llu, resurrected %llu, io errors %llu, corrupt %llu)\n",
              w.name.c_str(), static_cast<unsigned long long>(args.seed), timed_n,
              static_cast<unsigned long long>(st.failed),
              static_cast<unsigned long long>(verify.checked),
              static_cast<unsigned long long>(verify.lost),
              static_cast<unsigned long long>(verify.stale),
              static_cast<unsigned long long>(verify.resurrected),
              static_cast<unsigned long long>(verify.io_error),
              static_cast<unsigned long long>(verify.corrupt));

  for (const auto& [code, n] : st.errors) {
    std::printf("  timed ops failed with %s: %llu\n", rhik::api::to_string(code),
                static_cast<unsigned long long>(n));
  }

  Report rep;
  const double sim_s =
      static_cast<double>(after.gauge("clock.now_ns") - before.gauge("clock.now_ns")) / 1e9;
  const std::uint64_t puts = delta(after, before, "device.puts");
  const std::uint64_t gets = delta(after, before, "device.gets");
  const std::uint64_t dev_ops = puts + gets + delta(after, before, "device.deletes");
  const double kputs = static_cast<double>(puts) / 1e3;
  const auto per_kput = [&](const char* counter) {
    return ratio(static_cast<double>(delta(after, before, counter)), kputs);
  };

  if (!args.trace) {
    const rhik::Histogram get_sim = timer_delta(after, before, "device.get_latency_ns");
    const rhik::Histogram put_sim = timer_delta(after, before, "device.put_latency_ns");
    // Pages programmed and not yet erased, outside the checkpoint reserve:
    // GC erases only sealed (fully programmed) blocks, so each reclaimed
    // block returns exactly pages_per_block pages.
    const double page_bytes =
        static_cast<double>(after.counter("nand.bytes_programmed")) /
        std::max<double>(1, static_cast<double>(after.counter("nand.page_programs")));
    const double held_pages =
        static_cast<double>(after.counter("nand.page_programs")) -
        static_cast<double>(after.counter("checkpoint.payload_pages_written")) -
        static_cast<double>(after.counter("checkpoint.journal_pages_written")) -
        static_cast<double>(after.counter("gc.blocks_reclaimed")) * w.device.pages_per_block;
    // Over everything the run attempted, as the result line counts it.
    const Ratio err = error_rate(failed - verify.failed(), verify.failed(),
                                 attempted - verify.checked, verify.checked);

    rep.add("setup_s", median(setup_s), "s", "median of " + std::to_string(setup_s.size()));
    const WallFigures wall = windowed_wall(st.done, kWallWindows, st.start_ns);
    std::printf("  wall windows (goodput kops/s, get p99 us):");
    for (std::size_t i = 0; i < wall.window_goodput.size(); ++i) {
      std::printf(" %.1f/%.0f", wall.window_goodput[i], wall.window_get_p99[i] / 1e3);
    }
    std::printf("\n");
    rep.add("throughput_wall_kops", wall.goodput_kops, "kops/s",
            "median of " + std::to_string(kWallWindows) + " windows, ops=" +
                std::to_string(st.attempted));
    rep.add("throughput_sim_kops", goodput_kops(st.attempted, st.failed, sim_s), "kops/s",
            "ops=" + std::to_string(st.attempted));
    rep.add_us("get_p50_wall_us", wall.get_p50);
    rep.add_us("get_p99_wall_us", wall.get_p99);
    rep.add_us("put_p50_wall_us", wall.put_p50);
    rep.add_us("put_p99_wall_us", wall.put_p99);
    rep.add_us("get_p50_sim_us", percentile(get_sim, 50));
    rep.add_us("get_p999_sim_us", percentile(get_sim, 99.9));
    rep.add_us("put_p50_sim_us", percentile(put_sim, 50));
    rep.add_us("put_p999_sim_us", percentile(put_sim, 99.9));
    rep.add_ratio("write_amp",
                  ratio(static_cast<double>(delta(after, before, "nand.bytes_programmed")),
                        static_cast<double>(st.user_bytes_put)), "ratio");
    rep.add_ratio("space_amp",
                  ratio(held_pages * page_bytes,
                        static_cast<double>(after.gauge("device.live_bytes"))),
                  "ratio");
    rep.add("recover_s", recover_s, "s",
            recover_times.empty()
                ? std::string("first restart failed")
                : "median of " + std::to_string(recover_times.size()) +
                      (post.counter("recovery.full_scan_fallback") ? ", full scan"
                                                                   : ", checkpoint"));
    rep.add("peak_rss_mib", peak_rss_mib(), "MiB");
    // 1 - error_rate: kept non-zero so its spread is a share of a median.
    rep.add("success_ratio", 1 - err.value, "ratio",
            "error_rate=" + std::to_string(err.value) + " base=" + std::to_string(err.base));
  } else {
    const auto span_ns = [&](const char* name) {
      return static_cast<double>(spans.total(name).ns);
    };
    const CallCosts cc = measure_call_costs(
        w, timed,
        static_cast<double>(after.gauge("index.size")) /
            std::max<double>(1, static_cast<double>(after.gauge("index.capacity"))));
    phase("call costs");
    const rhik::Histogram get_index = timer_delta(after, before, "op.get.index_ns");
    const rhik::Histogram get_flash = timer_delta(after, before, "op.get.flash_ns");
    const rhik::Histogram put_index = timer_delta(after, before, "op.put.index_ns");
    const rhik::Histogram put_gc = timer_delta(after, before, "op.put.gc_ns");
    const rhik::Histogram get_index_reads = timer_delta(after, before, "op.get.index_flash_reads");
    const double hits = static_cast<double>(delta(after, before, "cache.hits"));
    const double misses = static_cast<double>(delta(after, before, "cache.misses"));
    const double wall_ns_total = st.wall_s * 1e9;
    const bool net = w.entry == Entry::kNet;
    const auto net_ratio = [&](const char* num, const char* den) {
      return ratio(static_cast<double>(delta(net_after, net_before, num)),
                   static_cast<double>(delta(net_after, net_before, den)));
    };
    const SpanRecorder::Total submits = spans.total("net.client.submit");

    // api
    rep.add("api.submit_host_ns", spans.mean_ns("api.submit"), "ns",
            "n=" + std::to_string(spans.total("api.submit").count));
    const PhaseStats& api_pass = w.entry == Entry::kNet ? rep_api_traced : st;
    rep.add_ratio("api.poll_host_ns_per_completion",
                  ratio(span_ns("api.poll"),
                        static_cast<double>(api_pass.api_traced_poll_completions)), "ns");
    rep.add_ratio("api.completions_per_poll",
                  ratio(static_cast<double>(api_pass.api_completions),
                        static_cast<double>(api_pass.api_polls)), "count");
    rep.add("api.self_host_ns_per_op", ns_per_op(rep_api) - ns_per_op(rep_backend), "ns",
            "api replay minus backend replay, same point ops");
    // net
    rep.add_ratio("net.client_host_ns_per_request",
                  ratio(span_ns("net.client.submit") + span_ns("net.client.flush"),
                        static_cast<double>(submits.count)), "ns");
    rep.add_ratio("net.requests_per_recv", net_ratio("net.requests", "net.recv_calls"), "count");
    rep.add_ratio("net.responses_per_send", net_ratio("net.responses", "net.send_calls"), "count");
    rep.add_ratio("net.completions_per_harvest",
                  net_ratio("net.responses", "net.harvest_batches"), "count");
    rep.add("net.admission_rejects",
            static_cast<double>(delta(net_after, net_before, "net.admission_rejects")), "count");
    rep.add("net.self_host_ns_per_op", net ? ns_per_op(rep_net) - ns_per_op(rep_api) : 0, "ns",
            "net replay minus api replay");
    // shard
    rep.add_ratio("shard.barriers_per_kop",
                  ratio(static_cast<double>(delta(after, before, "frontend.barriers")),
                        static_cast<double>(dev_ops) / 1e3), "count/kop");
    rep.add("shard.frontend_host_ns_per_op",
            w.device.num_shards > 1 ? ns_per_op(rep_backend) - ns_per_op(rep_replica) : 0, "ns",
            "array backend replay minus one-shard replica");
    // kvssd
    rep.add("kvssd.backend_host_ns_per_op",
            ns_per_op(w.device.num_shards > 1 ? rep_replica : rep_backend), "ns");
    rep.add_us("kvssd.get_index_sim_p50_us", percentile(get_index, 50));
    rep.add_us("kvssd.get_flash_sim_p50_us", percentile(get_flash, 50));
    rep.add_us("kvssd.put_index_sim_p99_us", percentile(put_index, 99));
    rep.add_us("kvssd.put_gc_sim_p99_us", percentile(put_gc, 99));
    rep.add("kvssd.stall_sim_ms",
            static_cast<double>(after.gauge("clock.stall_ns") - before.gauge("clock.stall_ns")) /
                1e6,
            "ms");
    // index, codec
    rep.add("index.reads_per_get", get_index_reads.mean(), "count",
            "n=" + std::to_string(get_index_reads.count()));
    rep.add_ratio("index.writes_per_put",
                  ratio(static_cast<double>(delta(after, before, "index.flash_writes")),
                        static_cast<double>(puts)), "count");
    rep.add("index.writeback_failures",
            static_cast<double>(delta(after, before, "index.writeback_failures")), "count");
    rep.add("index.resizes", static_cast<double>(delta(after, before, "index.resizes")), "count");
    rep.add_ratio("index.overflow_inserts_per_kput", per_kput("index.overflow_inserts"),
                  "count/kop");
    rep.add("codec.encode_host_ns", cc.encode_ns, "ns");
    rep.add("codec.decode_host_ns", cc.decode_ns, "ns");
    rep.add_ratio("codec.decode_host_share", ratio(cc.decode_ns * misses, wall_ns_total), "ratio");
    // hash
    rep.add("hash.signature_host_ns", cc.signature_ns, "ns");
    rep.add("hash.probe_hit_host_ns", cc.probe_hit_ns, "ns");
    rep.add("hash.probe_miss_host_ns", cc.probe_miss_ns, "ns");
    rep.add("hash.probe_len_mean", cc.probe_len_mean, "count");
    // cache
    rep.add_ratio("cache.hit_ratio", ratio(hits, hits + misses), "ratio");
    rep.add_ratio("cache.dirty_writebacks_per_put",
                  ratio(static_cast<double>(delta(after, before, "cache.dirty_writebacks")),
                        static_cast<double>(puts)), "count");
    rep.add("cache.lookup_host_ns", cc.cache_lookup_ns, "ns");
    // ftl: data log, GC, MVCC, iterator
    rep.add_ratio("store.pairs_read_per_get",
                  ratio(static_cast<double>(delta(after, before, "store.pairs_read")),
                        static_cast<double>(gets)), "count");
    rep.add_ratio("gc.relocated_bytes_per_user_byte",
                  ratio(static_cast<double>(delta(after, before, "gc.bytes_relocated")),
                        static_cast<double>(st.user_bytes_put)), "ratio");
    rep.add_ratio("gc.foreground_runs_per_kput", per_kput("gc.runs"), "count/kop");
    rep.add_ratio("gc.background_quanta_per_kput", per_kput("gc.background_quanta"), "count/kop");
    rep.add_ratio("gc.index_pages_relocated_per_kput", per_kput("gc.index_pages_relocated"),
                  "count/kop");
    rep.add("mvcc.retained_bytes_peak", static_cast<double>(st.retained_bytes_peak), "bytes");
    rep.add_ratio("iterator.next_host_ns_per_key",
                  ratio(span_ns("iterator.next"), static_cast<double>(st.scan_keys)), "ns");
    // flash
    rep.add_ratio("nand.reads_per_op",
                  ratio(static_cast<double>(delta(after, before, "nand.page_reads")),
                        static_cast<double>(dev_ops)), "count");
    rep.add_ratio("nand.programs_per_kput", per_kput("nand.page_programs"), "count/kop");
    rep.add_ratio("nand.erases_per_kput", per_kput("nand.block_erases"), "count/kop");
    rep.add("nand.erase_spread", static_cast<double>(after.gauge("nand.erase_spread")) / 1e3,
            "ratio");
    rep.add("nand.read_host_ns", cc.nand_read_ns, "ns");
    rep.add("nand.program_host_ns", cc.nand_program_ns, "ns");
    // recovery, checkpoint
    rep.add("recovery.pages_read", static_cast<double>(post.counter("recovery.pages_read")),
            "count");
    rep.add("recovery.full_scan_fallback",
            static_cast<double>(post.counter("recovery.full_scan_fallback")), "count");
    rep.add_ratio("checkpoint.journal_records_per_kput", per_kput("checkpoint.journal_records"),
                  "count/kop");
    // obs, workload, repo
    std::vector<std::uint64_t> traced_lat, untraced_lat;
    for (const Completion& c : st.done) (c.traced ? traced_lat : untraced_lat).push_back(c.lat_ns);
    const double traced = percentile(traced_lat, 50).value;
    const double untraced = percentile(untraced_lat, 50).value;
    rep.add("obs.trace_overhead_frac", untraced > 0 ? traced / untraced - 1 : 0, "ratio",
            "median op latency, traced vs untraced chunks of the timed phase");
    rep.add("workload.gen_host_ns_per_op", gen_ns_per_op, "ns");
    rep.add("repo.src_lines", static_cast<double>(count_lines("src")), "count");
    if (!args.spans_out.empty() && !spans.write_csv(args.spans_out)) {
      std::fprintf(stderr, "could not write spans to %s\n", args.spans_out.c_str());
    }
  }
  rep.print(correct, attempted, failed);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  std::setvbuf(stdout, nullptr, _IOLBF, 0);  // phase lines show up as they happen
  try {
    return perfbench::run(perfbench::parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
