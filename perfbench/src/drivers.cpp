#include "drivers.hpp"

#include <stdexcept>
#include <string>
#include <unordered_map>

#include "net/tenant.hpp"

namespace perfbench {

using rhik::Bytes;
using rhik::ByteSpan;
using rhik::api::KvsResult;

namespace {

const char* op_span_name(OpKind k) {
  switch (k) {
    case OpKind::kGet: return "op.get";
    case OpKind::kPut: return "op.put";
    case OpKind::kDel: return "op.del";
    case OpKind::kScan: return "op.scan";
  }
  return "op";
}

bool traced_chunk(const DriveContext& ctx, std::size_t i) {
  return ctx.spans.enabled() && (i / kTraceChunk) % 2 == 1;
}

Bytes versioned_value(const DriveContext& ctx, const Op& op) {
  Bytes v(ctx.w.value_bytes);
  fill_versioned(op.id, op.version + ctx.version_offset, v);
  return v;
}

std::uint64_t device_key_bytes(const WorkloadSpec& w) {
  return w.key_bytes + (w.entry == Entry::kNet ? rhik::net::kTenantPrefixLen : 0);
}

/// Applies one completed point op to the oracle and the tallies.
void complete(DriveContext& ctx, PhaseStats& st, const Op& op, KvsResult r,
              ByteSpan value, std::uint64_t done_ns, std::uint64_t lat_ns, bool traced) {
  Oracle& o = ctx.oracle;
  bool ok = false;
  switch (op.kind) {
    case OpKind::kPut:
      ok = r == KvsResult::KVS_SUCCESS;
      if (ok) {
        o.ack_put(op.id, op.version + ctx.version_offset);
        st.user_bytes_put += device_key_bytes(ctx.w) + ctx.w.value_bytes;
      } else {
        o.taint(op.id);
      }
      break;
    case OpKind::kDel:
      if (r == KvsResult::KVS_SUCCESS || r == KvsResult::KVS_ERR_KEY_NOT_EXIST) {
        // Deleting an absent key is fine; reporting a live one absent is a loss.
        ok = r == KvsResult::KVS_SUCCESS || !o.live(op.id);
        o.ack_del(op.id, op.version + ctx.version_offset);
      } else {
        o.taint(op.id);
      }
      break;
    case OpKind::kGet: {
      const Oracle::Verdict v = o.check(op.id, r, value, ctx.w.value_bytes);
      st.gets.add(v);
      ok = v == Oracle::Verdict::kOk;
      break;
    }
    case OpKind::kScan: break;
  }
  ++st.attempted;
  if (!ok) {
    ++st.failed;
    ++st.errors[r];
  }
  const Completion::Kind kind = op.kind == OpKind::kGet   ? Completion::Kind::kGet
                                : op.kind == OpKind::kPut ? Completion::Kind::kPut
                                                          : Completion::Kind::kOther;
  st.done.push_back({done_ns, lat_ns, kind, ok, traced});
}

struct Inflight {
  std::size_t op = 0;
  std::uint64_t t0 = 0;
  std::uint32_t span = 0;
  bool traced = false;
};

/// A prefix scan through the handle iterator. It is opened at a barrier
/// (nothing in flight), reads half its keys, stays open over the next
/// `kScanHoldOps` ops so churn runs against its pinned snapshot, then reads
/// the rest. The keys must be exactly the group's live keys at open time.
class ScanRunner {
 public:
  static constexpr std::size_t kScanHoldOps = 64;

  ScanRunner(rhik::api::KvsDevice& dev, DriveContext& ctx, PhaseStats& st)
      : dev_(dev), ctx_(ctx), st_(st) {}

  [[nodiscard]] bool due(std::size_t i) const { return open_ && i >= close_at_; }

  void start(const Op& op, std::size_t i) {
    finish();
    group_ = op.id;
    expected_ = 0;
    const std::uint64_t base = group_ << kGroupShift;
    for (std::uint64_t b = 0; b < (1u << kGroupShift) && base + b < ctx_.oracle.keys(); ++b) {
      if (ctx_.oracle.live(base + b)) expected_ |= 1ull << b;
    }
    got_ = 0;
    bad_ = false;
    op_index_ = i;
    ++st_.attempted;
    const KvsResult r = dev_.kvs_open_iterator(group_prefix(group_), &handle_);
    if (r != KvsResult::KVS_SUCCESS) {
      ++st_.failed;
      return;
    }
    open_ = true;
    close_at_ = i + kScanHoldOps;
    read(ctx_.w.scan_keys / 2);
  }

  void finish() {
    if (!open_) return;
    while (read(ctx_.w.scan_keys / 2)) {
    }
    if (ctx_.spans.enabled()) {
      st_.retained_bytes_peak = std::max(
          st_.retained_bytes_peak, dev_.metrics_snapshot().gauge("snapshot.retained_bytes"));
    }
    dev_.kvs_close_iterator(handle_);
    open_ = false;
    if (bad_ || got_ != expected_) ++st_.scan_mismatches;
  }

 private:
  /// Reads one batch; false once the iterator is exhausted or failed.
  bool read(std::size_t n) {
    std::vector<std::string> keys;
    KvsResult r;
    {
      Scoped s(ctx_.spans, "iterator.next", op_index_);
      r = dev_.kvs_iterator_next(handle_, n, &keys);
    }
    if (r == KvsResult::KVS_ERR_KEY_NOT_EXIST) return false;
    if (r != KvsResult::KVS_SUCCESS) {
      bad_ = true;
      return false;
    }
    for (const std::string& k : keys) {
      std::uint64_t id = 0;
      if (!parse_user_key(k, &id) || (id >> kGroupShift) != group_) {
        bad_ = true;
        continue;
      }
      const std::uint64_t bit = 1ull << (id & ((1u << kGroupShift) - 1));
      if (got_ & bit) bad_ = true;
      got_ |= bit;
    }
    st_.scan_keys += keys.size();
    return !keys.empty();
  }

  rhik::api::KvsDevice& dev_;
  DriveContext& ctx_;
  PhaseStats& st_;
  bool open_ = false;
  bool bad_ = false;
  std::uint64_t handle_ = 0;
  std::uint64_t group_ = 0;
  std::uint64_t expected_ = 0;
  std::uint64_t got_ = 0;
  std::size_t close_at_ = 0;
  std::size_t op_index_ = 0;
};

void api_loop(rhik::api::KvsDevice& dev, DriveContext& ctx, std::span<const Op> ops,
              PhaseStats& st, std::size_t depth) {
  std::unordered_map<std::uint64_t, Inflight> inflight;
  inflight.reserve(depth * 2);
  std::vector<rhik::api::KvsCompletion> comps;
  ScanRunner scan(dev, ctx, st);
  const std::uint64_t start = wall_ns();
  if (st.start_ns == 0) st.start_ns = start;
  std::size_t i = 0;
  while (i < ops.size() || !inflight.empty()) {
    while (inflight.size() < depth && i < ops.size()) {
      const Op& op = ops[i];
      if (scan.due(i)) scan.finish();
      if (op.kind == OpKind::kScan) {
        if (!inflight.empty()) break;  // scans open at a barrier
        scan.start(op, i++);
        continue;
      }
      const bool traced = traced_chunk(ctx, i);
      const std::uint32_t root = traced ? ctx.spans.begin(op_span_name(op.kind), i) : 0;
      const std::uint32_t sub = traced ? ctx.spans.begin("api.submit", i, root) : 0;
      const std::uint64_t t0 = wall_ns();
      Bytes key = device_key(ctx.w, op.id);
      std::uint64_t id = 0;
      switch (op.kind) {
        case OpKind::kPut: id = dev.store_async(std::move(key), versioned_value(ctx, op)); break;
        case OpKind::kGet: id = dev.retrieve_async(std::move(key)); break;
        case OpKind::kDel: id = dev.remove_async(std::move(key)); break;
        case OpKind::kScan: break;
      }
      ctx.spans.end(sub);
      inflight.emplace(id, Inflight{i, t0, root, traced});
      ++i;
    }
    if (inflight.empty()) continue;
    comps.clear();
    const bool traced = traced_chunk(ctx, i);
    std::size_t n = 0;
    {
      const std::uint32_t ps = traced ? ctx.spans.begin("api.poll") : 0;
      n = dev.poll_completions(&comps);
      ctx.spans.end(ps);
    }
    ++st.api_polls;
    st.api_completions += n;
    if (traced) st.api_traced_poll_completions += n;
    const std::uint64_t t1 = wall_ns();
    for (rhik::api::KvsCompletion& c : comps) {
      auto it = inflight.find(c.id);
      if (it == inflight.end()) throw std::runtime_error("completion for an unknown id");
      const Inflight f = it->second;
      inflight.erase(it);
      complete(ctx, st, ops[f.op], c.result, c.value, t1, t1 - f.t0, f.traced);
      ctx.spans.end(f.span);
    }
  }
  scan.finish();
  st.wall_s += static_cast<double>(wall_ns() - start) / 1e9;
}

void net_loop(Rig& rig, DriveContext& ctx, std::span<const Op> ops, PhaseStats& st) {
  const std::size_t conns = rig.clients.size();
  // Per-key affinity to one connection keeps each key's ops in stream
  // order end to end (one connection → one worker → one shard ring).
  std::vector<std::vector<std::size_t>> queue(conns);
  for (std::size_t i = 0; i < ops.size(); ++i) queue[ops[i].id % conns].push_back(i);
  std::vector<std::size_t> next(conns, 0);
  std::vector<std::unordered_map<std::uint64_t, Inflight>> inflight(conns);
  std::size_t remaining = ops.size();
  rhik::net::ResponseFrame frame;
  const std::uint64_t start = wall_ns();
  if (st.start_ns == 0) st.start_ns = start;
  while (remaining > 0) {
    for (std::size_t c = 0; c < conns; ++c) {
      rhik::net::KvClient& cli = rig.clients[c];
      bool sent = false;
      while (inflight[c].size() < ctx.w.depth && next[c] < queue[c].size()) {
        const std::size_t i = queue[c][next[c]++];
        const Op& op = ops[i];
        const bool traced = traced_chunk(ctx, i);
        const std::uint32_t root = traced ? ctx.spans.begin(op_span_name(op.kind), i) : 0;
        const std::uint32_t sub = traced ? ctx.spans.begin("net.client.submit", i, root) : 0;
        const std::uint64_t t0 = wall_ns();
        const std::string key = user_key(op.id, ctx.w.key_bytes);
        std::uint64_t id = 0;
        if (op.kind == OpKind::kPut) {
          const Bytes v = versioned_value(ctx, op);
          id = cli.submit_put(
              key, std::string_view(reinterpret_cast<const char*>(v.data()), v.size()));
        } else if (op.kind == OpKind::kGet) {
          id = cli.submit_get(key);
        } else {
          id = cli.submit_del(key);
        }
        ctx.spans.end(sub);
        if (id == 0) throw std::runtime_error("request could not be framed");
        inflight[c].emplace(id, Inflight{i, t0, root, traced});
        sent = true;
      }
      if (sent) {
        const std::uint32_t fs =
            traced_chunk(ctx, ops.size() - remaining) ? ctx.spans.begin("net.client.flush") : 0;
        if (!rhik::ok(cli.flush())) throw std::runtime_error("client flush failed");
        ctx.spans.end(fs);
      }
    }
    // A connection is refilled once half its window has completed, so each
    // send carries a batch of requests rather than one.
    for (std::size_t c = 0; c < conns; ++c) {
      while (!inflight[c].empty()) {
        const std::uint32_t rs =
            traced_chunk(ctx, ops.size() - remaining) ? ctx.spans.begin("net.client.recv") : 0;
        if (!rhik::ok(rig.clients[c].recv_response(&frame))) {
          throw std::runtime_error("connection lost");
        }
        ctx.spans.end(rs);
        const std::uint64_t t1 = wall_ns();
        auto it = inflight[c].find(frame.request_id);
        if (it == inflight[c].end()) throw std::runtime_error("response for an unknown id");
        const Inflight f = it->second;
        inflight[c].erase(it);
        --remaining;
        complete(ctx, st, ops[f.op], frame.status, frame.value, t1, t1 - f.t0, f.traced);
        ctx.spans.end(f.span);
        if (inflight[c].size() <= ctx.w.depth / 2) break;
      }
    }
  }
  st.wall_s += static_cast<double>(wall_ns() - start) / 1e9;
}

}  // namespace

Bytes device_key(const WorkloadSpec& w, std::uint64_t id) {
  const std::string k = user_key(id, w.key_bytes);
  const ByteSpan span(reinterpret_cast<const std::uint8_t*>(k.data()), k.size());
  if (w.entry == Entry::kNet) return rhik::net::namespaced_key(0, span);
  return Bytes(span.begin(), span.end());
}

void Rig::stop_net() {
  clients.clear();
  if (server) server->stop();
  server.reset();
}

Rig open_rig(const WorkloadSpec& w) {
  Rig rig;
  rig.dev = std::make_unique<rhik::api::KvsDevice>(w.device);
  return rig;
}

void start_net(Rig& rig, const WorkloadSpec& w) {
  rhik::net::ServerConfig cfg;
  cfg.num_workers = 1;
  rig.server = std::make_unique<rhik::net::KvServer>(*rig.dev, cfg);
  if (!rhik::ok(rig.server->start())) throw std::runtime_error("server start failed");
  for (std::uint32_t c = 0; c < w.connections; ++c) {
    rhik::net::KvClient cli;
    if (!rhik::ok(cli.connect("127.0.0.1", rig.server->port()))) {
      throw std::runtime_error("client connect failed");
    }
    rig.clients.push_back(std::move(cli));
  }
}

void preload(Rig& rig, DriveContext& ctx, PhaseStats& st) {
  std::vector<Op> ops(ctx.w.keys);
  for (std::uint64_t id = 0; id < ctx.w.keys; ++id) {
    ops[id] = {OpKind::kPut, static_cast<std::uint32_t>(id), 0};
  }
  api_loop(*rig.dev, ctx, ops, st, 256);
}

void drive(Rig& rig, DriveContext& ctx, std::span<const Op> ops, PhaseStats& st) {
  if (ctx.w.entry == Entry::kNet) {
    net_loop(rig, ctx, ops, st);
  } else {
    api_loop(*rig.dev, ctx, ops, st, ctx.w.depth);
  }
}

void drive_api(rhik::api::KvsDevice& dev, DriveContext& ctx, std::span<const Op> ops,
               PhaseStats& st) {
  api_loop(dev, ctx, ops, st, ctx.w.depth * ctx.w.connections);
}

void drive_backend(rhik::api::KvsDevice& dev, DriveContext& ctx, std::span<const Op> ops,
                   PhaseStats& st) {
  // Tagged completions land in the facade's ring through the sink it
  // installed; tags with the top bit set never collide with its ids.
  constexpr std::uint64_t kTagBit = 1ull << 63;
  rhik::api::IKvsBackend& be = dev.backend();
  std::vector<std::uint64_t> t0(ops.size(), 0);
  std::vector<rhik::api::KvsCompletion> comps;
  const std::size_t depth = ctx.w.depth * ctx.w.connections;
  const std::uint64_t start = wall_ns();
  if (st.start_ns == 0) st.start_ns = start;
  std::size_t i = 0;
  std::size_t submitted = 0;
  std::size_t completed = 0;
  while (i < ops.size() || completed < submitted) {
    for (std::size_t queued = 0; queued < depth && i < ops.size(); ++i) {
      const Op& op = ops[i];
      if (op.kind == OpKind::kScan) continue;
      t0[i] = wall_ns();
      Bytes key = device_key(ctx.w, op.id);
      switch (op.kind) {
        case OpKind::kPut:
          be.submit_put_tagged(kTagBit | i, std::move(key), versioned_value(ctx, op));
          break;
        case OpKind::kGet: be.submit_get_tagged(kTagBit | i, std::move(key)); break;
        case OpKind::kDel: be.submit_del_tagged(kTagBit | i, std::move(key)); break;
        case OpKind::kScan: break;
      }
      ++queued;
      ++submitted;
    }
    be.drain();
    comps.clear();
    dev.try_poll_completions(&comps);
    const std::uint64_t t1 = wall_ns();
    for (rhik::api::KvsCompletion& c : comps) {
      if ((c.id & kTagBit) == 0) throw std::runtime_error("untagged completion in a replay");
      const std::size_t k = c.id & ~kTagBit;
      complete(ctx, st, ops[k], c.result, c.value, t1, t1 - t0[k], false);
    }
    completed += comps.size();
  }
  st.wall_s += static_cast<double>(wall_ns() - start) / 1e9;
}

void verify_all(rhik::api::KvsDevice& dev, const WorkloadSpec& w, const Oracle& oracle,
                Tally& out) {
  std::vector<Op> ops(w.keys);
  for (std::uint64_t id = 0; id < w.keys; ++id) {
    ops[id] = {OpKind::kGet, static_cast<std::uint32_t>(id), 0};
  }
  // Reads never touch the oracle, so a private copy keeps this const.
  Oracle copy = oracle;
  SpanRecorder off(false);
  DriveContext ctx{w, copy, off};
  PhaseStats st;
  api_loop(dev, ctx, ops, st, 256);
  out = st.gets;
}

}  // namespace perfbench
