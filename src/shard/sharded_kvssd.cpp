#include "shard/sharded_kvssd.hpp"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <condition_variable>
#include <exception>
#include <mutex>
#include <numeric>
#include <utility>

namespace rhik::shard {

namespace {

/// One-shot completion gate for sync verbs and cross-shard barriers.
class Gate {
 public:
  void open() {
    // Notify under the lock: the gate lives on the waiter's stack and is
    // destroyed the moment wait() returns, so the waiter must not be able
    // to re-acquire the mutex (and return) until we are done with cv_.
    std::lock_guard lk(mu_);
    open_ = true;
    cv_.notify_all();
  }
  void wait() {
    std::unique_lock lk(mu_);
    cv_.wait(lk, [&] { return open_; });
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool open_ = false;
};

Bytes owned(ByteSpan span) { return Bytes(span.begin(), span.end()); }

/// Runs fn(i) for every shard index at once — shard 0 on the calling
/// thread, every other shard on a thread of its own — and returns when
/// all have finished. An exception is rethrown only after every thread
/// has joined (the first, in shard order).
template <class Fn>
void run_per_shard(std::uint32_t n, const Fn& fn) {
  std::vector<std::exception_ptr> errors(n);
  const auto run = [&](std::uint32_t i) {
    try {
      fn(i);
    } catch (...) {
      errors[i] = std::current_exception();
    }
  };
  std::vector<std::thread> threads;
  threads.reserve(n - 1);
  for (std::uint32_t i = 1; i < n; ++i) threads.emplace_back(run, i);
  run(0);
  for (auto& t : threads) t.join();
  for (const std::exception_ptr& e : errors) {
    if (e) std::rethrow_exception(e);
  }
}

std::vector<std::unique_ptr<kvssd::KvssdDevice>> build_devices(
    const ShardedConfig& cfg) {
  const std::uint32_t n = std::max<std::uint32_t>(1, cfg.num_shards);
  std::vector<std::unique_ptr<kvssd::KvssdDevice>> devs;
  devs.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    devs.push_back(std::make_unique<kvssd::KvssdDevice>(cfg.device));
  }
  return devs;
}

/// Ensures every shard device shares ONE snapshot context (so a snapshot
/// pins a single device-global epoch): honors a caller-installed context
/// on cfg.device.snapshots, else creates one the array will own.
std::unique_ptr<ftl::SnapshotContext> adopt_context(ShardedConfig& cfg) {
  if (cfg.device.snapshots != nullptr) return nullptr;  // caller-owned
  auto ctx = std::make_unique<ftl::SnapshotContext>();
  cfg.device.snapshots = ctx.get();
  return ctx;
}

}  // namespace

ShardedKvssd::ShardedKvssd(ShardedConfig cfg)
    : ShardedKvssd(std::move(cfg), nullptr, {}) {}

ShardedKvssd::ShardedKvssd(
    ShardedConfig cfg, std::unique_ptr<ftl::SnapshotContext> ctx,
    std::vector<std::unique_ptr<kvssd::KvssdDevice>> devices)
    : cfg_(std::move(cfg)), owned_snaps_(std::move(ctx)) {
  if (devices.empty()) {
    // Fresh array (public constructor): share one context, then build.
    if (owned_snaps_ == nullptr) owned_snaps_ = adopt_context(cfg_);
    devices = build_devices(cfg_);
  }
  snaps_ = cfg_.device.snapshots != nullptr ? cfg_.device.snapshots
                                            : owned_snaps_.get();
  assert(snaps_ != nullptr);
  cfg_.num_shards = static_cast<std::uint32_t>(devices.size());
  fe_puts_ = &front_metrics_.counter("frontend.puts");
  fe_gets_ = &front_metrics_.counter("frontend.gets");
  fe_dels_ = &front_metrics_.counter("frontend.dels");
  fe_exists_ = &front_metrics_.counter("frontend.exists");
  fe_barriers_ = &front_metrics_.counter("frontend.barriers");
  shards_.reserve(devices.size());
  for (auto& dev : devices) {
    auto s = std::make_unique<Shard>();
    s->dev = std::move(dev);
    s->ring = std::make_unique<SubmissionRing<ShardOp>>(cfg_.ring_capacity);
    shards_.push_back(std::move(s));
  }
  // Workers start after every shard exists, so a fast worker can never
  // observe a partially built array.
  for (auto& s : shards_) {
    s->worker = std::thread([this, sp = s.get()] { worker_loop(*sp); });
  }
}

ShardedKvssd::~ShardedKvssd() {
  for (auto& s : shards_) s->ring->close();
  for (auto& s : shards_) {
    if (s->worker.joinable()) s->worker.join();
  }
}

Result<std::unique_ptr<ShardedKvssd>> ShardedKvssd::recover(
    ShardedConfig cfg, std::vector<std::unique_ptr<flash::NandDevice>> nands,
    kvssd::RecoveryStats* stats_out) {
  const std::uint32_t n = std::max<std::uint32_t>(1, cfg.num_shards);
  if (nands.size() != n) return Status::kInvalidArgument;

  // One shared snapshot context across the recovered shards.
  std::unique_ptr<ftl::SnapshotContext> ctx = adopt_context(cfg);

  // Each shard rebuilds from its own NAND into its own device, so the
  // shards scan concurrently, one thread each.
  std::vector<std::unique_ptr<kvssd::KvssdDevice>> devices(n);
  std::vector<kvssd::RecoveryStats> shard_stats(n);
  std::vector<Status> status(n, Status::kOk);
  run_per_shard(n, [&](std::uint32_t i) {
    auto dev = kvssd::KvssdDevice::rebuild_from_flash(
        cfg.device, std::move(nands[i]), &shard_stats[i]);
    if (dev) {
      devices[i] = std::move(dev).value();
    } else {
      status[i] = dev.status();
    }
  });
  kvssd::RecoveryStats merged;
  for (std::uint32_t i = 0; i < n; ++i) {
    if (!ok(status[i])) return status[i];
    merged.merge_from(shard_stats[i]);
  }

  // Raise the shared epoch source past every stamp found on any shard
  // BEFORE any shard finishes: a full-scan shard's finish writes a
  // checkpoint recording the source's epoch, which must not depend on
  // which sibling finished first.
  cfg.device.snapshots->epochs.raise_to(merged.max_epoch);
  run_per_shard(n, [&](std::uint32_t i) { devices[i]->finish_recovery(); });

  // Shards advance their clocks concurrently and array time is their
  // max; re-seed every clock to the slowest recovery scan so per-shard
  // deltas stay comparable after the restart.
  SimTime max_clock = 0;
  for (auto& dev : devices) max_clock = std::max(max_clock, dev->clock().now());
  for (auto& dev : devices) dev->clock().advance(max_clock - dev->clock().now());

  if (stats_out) *stats_out = merged;
  return std::unique_ptr<ShardedKvssd>(new ShardedKvssd(
      std::move(cfg), std::move(ctx), std::move(devices)));
}

std::vector<std::unique_ptr<flash::NandDevice>> ShardedKvssd::release_nands() {
  // Stop the workers (each drains its remaining queue on close, exactly
  // as the destructor does), then strip each shard's NAND array. An
  // *abrupt* cut is modeled by arming a FaultInjector on a shard's NAND
  // instead — once power dies, drained commands fail like real
  // in-flight ones.
  for (auto& s : shards_) s->ring->close();
  for (auto& s : shards_) {
    if (s->worker.joinable()) s->worker.join();
  }
  std::vector<std::unique_ptr<flash::NandDevice>> nands;
  nands.reserve(shards_.size());
  for (auto& s : shards_) nands.push_back(s->dev->release_nand());
  return nands;
}

void ShardedKvssd::worker_loop(Shard& s) {
  std::vector<ShardOp> batch;
  bool open = true;
  while (open) {
    batch.clear();
    if (!s.ring->try_pop_all(batch)) {
      // Ring idle: fold background GC and index-migration quanta into
      // the window — one bounded quantum per ring re-check, so a
      // submitter never waits behind more than quantum_pages of
      // relocation (or incremental_batch buckets of migration). Block
      // for new work only once the device has nothing pending.
      if (s.dev->pump_background()) continue;
      open = s.ring->pop_all(batch);
    }
    for (ShardOp& op : batch) {
      if (!op.fn) {
        s.dev->submit(std::move(op.cmd));
        continue;
      }
      // A closure sees the device with every command ahead of it done.
      s.completed += s.dev->drain();
      op.fn(*s.dev);
    }
    // One ring batch ingested: drain the device queue. This is the
    // window the index-aware grouped drain amortizes record-page loads
    // over — the deeper the ring backlog, the better the grouping.
    s.completed += s.dev->drain();
  }
  s.completed += s.dev->drain();
}

void ShardedKvssd::submit_to(std::uint32_t shard, ShardOp op) {
  const bool pushed = shards_[shard]->ring->push(std::move(op));
  assert(pushed && "submission after shutdown");
  (void)pushed;
}

std::uint64_t ShardedKvssd::signature(ByteSpan key) const {
  return kvssd::KvssdDevice::signature_for(cfg_.device, key);
}

std::uint32_t ShardedKvssd::shard_of_sig(std::uint64_t sig) const {
  if (shards_.size() == 1) return 0;
  // Fibonacci remix so the shard choice uses different bits than the
  // per-shard index directory (which partitions on sig & dir_mask).
  const std::uint64_t h = sig * 0x9E3779B97F4A7C15ull;
  return static_cast<std::uint32_t>((h >> 32) % shards_.size());
}

std::uint32_t ShardedKvssd::shard_of(ByteSpan key) const {
  return shard_of_sig(signature(key));
}

kvssd::KvssdDevice& ShardedKvssd::shard_device(std::uint32_t shard) {
  return *shards_[shard]->dev;
}

void ShardedKvssd::submit_cmd(api::TaggedCompletion cmd) {
  const std::uint32_t sh = shard_of(cmd.key);
  ShardOp op;
  op.cmd = std::move(cmd);
  submit_to(sh, std::move(op));
}

void ShardedKvssd::on_shard(
    std::uint32_t shard, const std::function<void(kvssd::KvssdDevice&)>& fn) {
  Gate gate;
  ShardOp op;
  op.fn = [&](kvssd::KvssdDevice& dev) {
    fn(dev);
    gate.open();
  };
  submit_to(shard, std::move(op));
  gate.wait();
}

void ShardedKvssd::on_all(
    const std::function<void(std::uint32_t, kvssd::KvssdDevice&)>& fn) {
  fe_barriers_->inc();
  Gate gate;
  std::atomic<std::uint32_t> remaining{
      static_cast<std::uint32_t>(shards_.size())};
  for (std::uint32_t sh = 0; sh < shards_.size(); ++sh) {
    ShardOp op;
    op.fn = [&, sh](kvssd::KvssdDevice& dev) {
      fn(sh, dev);
      if (remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) gate.open();
    };
    submit_to(sh, std::move(op));
  }
  gate.wait();
}

Status ShardedKvssd::all_ok(
    const std::function<Status(kvssd::KvssdDevice&)>& fn) {
  std::vector<Status> statuses(shards_.size(), Status::kOk);
  on_all([&](std::uint32_t sh, kvssd::KvssdDevice& dev) {
    statuses[sh] = fn(dev);
  });
  for (const Status s : statuses) {
    if (!ok(s)) return s;
  }
  return Status::kOk;
}

// -- Synchronous verbs ---------------------------------------------------------

api::TaggedCompletion ShardedKvssd::run_command(api::TaggedCompletion cmd) {
  // The worker drains the shard's queue before running the closure, so
  // this command drains alone: a batch of one behind earlier commands.
  const std::uint32_t sh = shard_of(cmd.key);
  on_shard(sh, [&](kvssd::KvssdDevice& dev) {
    dev.submit(std::move(cmd));
    dev.drain_to([&](std::vector<api::TaggedCompletion>&& done) {
      cmd = std::move(done.front());
    });
  });
  return cmd;
}

Status ShardedKvssd::put(ByteSpan key, ByteSpan value) {
  fe_puts_->inc();
  return run_command({0, api::TaggedCompletion::Op::kPut, Status::kOk,
                      owned(key), owned(value)})
      .status;
}

Status ShardedKvssd::get(ByteSpan key, Bytes* value_out) {
  fe_gets_->inc();
  api::TaggedCompletion done = run_command(
      {0, api::TaggedCompletion::Op::kGet, Status::kOk, owned(key), {}});
  if (value_out) *value_out = std::move(done.value);
  return done.status;
}

Status ShardedKvssd::del(ByteSpan key) {
  fe_dels_->inc();
  return run_command(
             {0, api::TaggedCompletion::Op::kDel, Status::kOk, owned(key), {}})
      .status;
}

Status ShardedKvssd::exist(ByteSpan key) {
  fe_exists_->inc();
  Status st = Status::kIoError;
  on_shard(shard_of(key), [&](kvssd::KvssdDevice& dev) { st = dev.exist(key); });
  return st;
}

// -- MVCC snapshots and array iterators ----------------------------------------

Result<api::SnapshotHandle> ShardedKvssd::open_snapshot() {
  // The registry is shared and internally synchronized; no worker round
  // trip. Pinning is linearizable against every shard's stamps through
  // the shared EpochSource (see ftl/mvcc.hpp's ordering argument).
  const ftl::SnapshotRegistry::Pin pin = snaps_->registry.open();
  return api::SnapshotHandle{pin.id, pin.epoch};
}

Status ShardedKvssd::release_snapshot(const api::SnapshotHandle& snap) {
  return snaps_->registry.release(snap.id, snap.epoch);
}

Status ShardedKvssd::read_at(const api::SnapshotHandle& snap, ByteSpan key,
                             Bytes* value_out) {
  fe_gets_->inc();
  // Snapshot reads resolve against the live index + retainer; the
  // pinned epoch, not the queued work ahead, decides visibility.
  Status st = Status::kIoError;
  Bytes value;
  on_shard(shard_of(key), [&](kvssd::KvssdDevice& dev) {
    st = dev.read_at(snap, key, &value);
  });
  if (value_out) *value_out = std::move(value);
  return st;
}

Result<std::uint64_t> ShardedKvssd::kvs_open_iterator(
    ByteSpan prefix, const api::SnapshotHandle* snap) {
  if (!cfg_.device.prefix_signatures) return Status::kUnsupported;
  if (prefix.empty()) return Status::kInvalidArgument;

  ArrayIter it;
  it.prefix = owned(prefix);
  if (snap != nullptr) {
    // Caller-owned pin: validate it up front so a dead handle fails at
    // open, not on the first next(). The epoch cross-check catches a
    // pin id recycled across a power cycle (recovery raises the epoch
    // source past every durable stamp, so epochs never collide).
    const auto epoch = snaps_->registry.epoch_of(snap->id);
    if (!epoch) return epoch.status();
    if (snap->epoch != 0 && *epoch != snap->epoch) {
      return Status::kSnapshotTooOld;
    }
    it.snap = *snap;
  } else {
    const ftl::SnapshotRegistry::Pin pin = snaps_->registry.open();
    it.snap = api::SnapshotHandle{pin.id, pin.epoch};
    it.owns_snap = true;
  }

  std::lock_guard lk(iter_mu_);
  if (array_iters_.size() >= kvssd::IteratorManager::kMaxOpenIterators) {
    if (it.owns_snap) (void)snaps_->registry.release(it.snap.id);
    return Status::kIteratorMax;
  }
  const std::uint64_t handle = next_iter_handle_++;
  array_iters_.emplace(handle, std::move(it));
  return handle;
}

Status ShardedKvssd::kvs_iterator_next(std::uint64_t handle,
                                       std::size_t max_keys,
                                       std::vector<Bytes>* keys_out) {
  if (keys_out == nullptr || max_keys == 0) return Status::kInvalidArgument;
  std::lock_guard lk(iter_mu_);
  const auto found = array_iters_.find(handle);
  if (found == array_iters_.end()) return Status::kInvalidArgument;
  ArrayIter& it = found->second;

  keys_out->clear();
  std::vector<Bytes> batch;
  while (keys_out->size() < max_keys && it.shard < shards_.size()) {
    Status st = Status::kOk;
    on_shard(it.shard, [&](kvssd::KvssdDevice& dev) {
      if (!it.dev_open) {
        // Lazy per-shard open: one device handle lives at a time, bound
        // to the iterator's pin (open fails with the pin's error —
        // kSnapshotTooOld once expired).
        const auto h = dev.kvs_open_iterator(it.prefix, &it.snap);
        if (!h) {
          st = h.status();
          return;
        }
        it.dev_handle = *h;
        it.dev_open = true;
      }
      st = dev.kvs_iterator_next(it.dev_handle, max_keys - keys_out->size(),
                                 &batch);
      if (st == Status::kNotFound) (void)dev.kvs_close_iterator(it.dev_handle);
    });
    if (st == Status::kNotFound) {
      // Shard exhausted: advance the cursor.
      it.dev_open = false;
      it.dev_handle = 0;
      it.shard++;
      continue;
    }
    if (!ok(st)) return st;
    for (Bytes& k : batch) keys_out->push_back(std::move(k));
    batch.clear();
  }
  if (keys_out->empty() && it.shard >= shards_.size()) {
    return Status::kNotFound;  // ITERATOR_END
  }
  return Status::kOk;
}

Status ShardedKvssd::kvs_close_iterator(std::uint64_t handle) {
  std::lock_guard lk(iter_mu_);
  const auto found = array_iters_.find(handle);
  if (found == array_iters_.end()) return Status::kInvalidArgument;
  ArrayIter& it = found->second;
  if (it.dev_open) {
    on_shard(it.shard, [&](kvssd::KvssdDevice& dev) {
      (void)dev.kvs_close_iterator(it.dev_handle);
    });
  }
  if (it.owns_snap) (void)snaps_->registry.release(it.snap.id);
  array_iters_.erase(found);
  return Status::kOk;
}

// -- Command queue -------------------------------------------------------------

void ShardedKvssd::set_completion_sink(api::IKvsBackend::CompletionSink sink) {
  // Each shard device is touched only by its worker, so the install runs
  // worker-side; waiting for every shard makes the call synchronous, so
  // callers may submit right after.
  on_all([&](std::uint32_t, kvssd::KvssdDevice& dev) {
    dev.set_completion_sink(sink);
  });
}

void ShardedKvssd::submit_put_tagged(std::uint64_t tag, Bytes key, Bytes value) {
  fe_puts_->inc();
  submit_cmd({tag, api::TaggedCompletion::Op::kPut, Status::kOk, std::move(key),
              std::move(value)});
}

void ShardedKvssd::submit_get_tagged(std::uint64_t tag, Bytes key) {
  fe_gets_->inc();
  submit_cmd({tag, api::TaggedCompletion::Op::kGet, Status::kOk, std::move(key), {}});
}

void ShardedKvssd::submit_del_tagged(std::uint64_t tag, Bytes key) {
  fe_dels_->inc();
  submit_cmd({tag, api::TaggedCompletion::Op::kDel, Status::kOk, std::move(key), {}});
}

// -- Barriers and whole-array introspection ------------------------------------

std::size_t ShardedKvssd::drain() {
  // Each worker hands over and resets its own count inside the barrier,
  // so every command is counted by exactly one drain(), whatever other
  // threads submit or drain meanwhile.
  std::vector<std::uint64_t> done(shards_.size());
  on_all([&](std::uint32_t sh, kvssd::KvssdDevice&) {
    done[sh] = std::exchange(shards_[sh]->completed, 0);
  });
  return static_cast<std::size_t>(
      std::accumulate(done.begin(), done.end(), std::uint64_t{0}));
}

Status ShardedKvssd::flush() {
  return all_ok([](kvssd::KvssdDevice& dev) { return dev.flush(); });
}

Status ShardedKvssd::checkpoint() {
  return all_ok([](kvssd::KvssdDevice& dev) { return dev.checkpoint(); });
}

kvssd::DeviceStats ShardedKvssd::stats() {
  std::vector<kvssd::DeviceStats> parts(shards_.size());
  on_all([&](std::uint32_t sh, kvssd::KvssdDevice& dev) { parts[sh] = dev.stats(); });
  kvssd::DeviceStats agg;
  for (const kvssd::DeviceStats& p : parts) agg.merge_from(p);
  return agg;
}

SimTime ShardedKvssd::sim_time() {
  std::vector<SimTime> t(shards_.size());
  on_all([&](std::uint32_t sh, kvssd::KvssdDevice& dev) {
    t[sh] = dev.clock().now();
  });
  return *std::max_element(t.begin(), t.end());
}

SimTime ShardedKvssd::total_stall() {
  std::vector<SimTime> t(shards_.size());
  on_all([&](std::uint32_t sh, kvssd::KvssdDevice& dev) {
    t[sh] = dev.clock().total_stall();
  });
  return *std::max_element(t.begin(), t.end());
}

std::uint64_t ShardedKvssd::key_count() {
  std::vector<std::uint64_t> n(shards_.size());
  on_all([&](std::uint32_t sh, kvssd::KvssdDevice& dev) { n[sh] = dev.key_count(); });
  std::uint64_t total = 0;
  for (const std::uint64_t k : n) total += k;
  return total;
}

std::vector<obs::MetricsSnapshot> ShardedKvssd::shard_metrics_snapshots() {
  std::vector<obs::MetricsSnapshot> out(shards_.size());
  on_all([&](std::uint32_t sh, kvssd::KvssdDevice& dev) {
    out[sh] = dev.metrics_snapshot();
  });
  return out;
}

obs::MetricsSnapshot ShardedKvssd::metrics_snapshot() {
  obs::MetricsSnapshot merged;
  for (const obs::MetricsSnapshot& s : shard_metrics_snapshots()) {
    merged.merge_from(s);
  }
  front_metrics_.snapshot_into(merged);
  merged.set_gauge("frontend.shards",
                   static_cast<std::int64_t>(shards_.size()));
  return merged;
}

}  // namespace rhik::shard
