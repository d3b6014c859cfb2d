// ShardedKvssd front-end: routing, sync verbs and tagged commands,
// cross-shard drain/flush barriers, per-shard completion batches, stats
// aggregation and single-shard parity with a raw device.
#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "shard/sharded_kvssd.hpp"
#include "workload/keygen.hpp"
#include "test_keys.hpp"

namespace rhik::shard {
namespace {

using kvssd::KvssdDevice;

ShardedConfig make_config(std::uint32_t shards) {
  ShardedConfig sc;
  sc.device.geometry = flash::Geometry::tiny(128);  // 8 MiB per shard
  sc.device.dram_cache_bytes = 64 * 1024;
  sc.num_shards = shards;
  sc.ring_capacity = 256;
  return sc;
}

ByteSpan key(const std::string& s) { return as_bytes(s); }
Bytes owned(const std::string& s) { return Bytes(s.begin(), s.end()); }

TEST(Sharded, SyncRoundTripAcrossShards) {
  ShardedKvssd arr(make_config(4));
  constexpr int kKeys = 200;
  for (int i = 0; i < kKeys; ++i) {
    const std::string k = test::numbered("key-", i);
    ASSERT_EQ(arr.put(key(k), key(test::numbered("value-", i))), Status::kOk);
  }
  for (int i = 0; i < kKeys; ++i) {
    const std::string k = test::numbered("key-", i);
    Bytes v;
    ASSERT_EQ(arr.get(key(k), &v), Status::kOk) << k;
    EXPECT_EQ(rhik::to_string(v), test::numbered("value-", i));
    EXPECT_EQ(arr.exist(key(k)), Status::kOk);
  }
  EXPECT_EQ(arr.key_count(), static_cast<std::uint64_t>(kKeys));

  for (int i = 0; i < kKeys; i += 2) {
    ASSERT_EQ(arr.del(key(test::numbered("key-", i))), Status::kOk);
  }
  EXPECT_EQ(arr.key_count(), static_cast<std::uint64_t>(kKeys / 2));
  Bytes v;
  EXPECT_EQ(arr.get(key("key-0"), &v), Status::kNotFound);
  EXPECT_EQ(arr.get(key("key-1"), &v), Status::kOk);
}

TEST(Sharded, KeysSpreadAcrossAllShards) {
  ShardedKvssd arr(make_config(4));
  constexpr int kKeys = 400;
  for (int i = 0; i < kKeys; ++i) {
    ASSERT_EQ(arr.put(workload::key_for_id(i, 16), key("v")), Status::kOk);
  }
  arr.drain();
  std::uint64_t total = 0;
  for (std::uint32_t s = 0; s < arr.num_shards(); ++s) {
    const std::uint64_t n = arr.shard_device(s).key_count();
    EXPECT_GT(n, 0u) << "shard " << s << " got no keys";
    total += n;
  }
  EXPECT_EQ(total, static_cast<std::uint64_t>(kKeys));

  // Routing is deterministic and consistent with the stored placement.
  for (int i = 0; i < kKeys; ++i) {
    const Bytes k = workload::key_for_id(i, 16);
    Bytes v;
    EXPECT_EQ(arr.shard_device(arr.shard_of(k)).get(k, &v), Status::kOk);
  }
}

TEST(Sharded, AsyncCallbacksAndDrainBarrier) {
  ShardedKvssd arr(make_config(4));
  constexpr int kOps = 300;
  std::atomic<int> acks{0};
  std::atomic<int> get_acks{0};
  // Shards fire the sink from their workers, so it counts atomically.
  arr.set_completion_sink([&](std::vector<api::TaggedCompletion>&& done) {
    for (const auto& c : done) {
      EXPECT_EQ(c.status, Status::kOk);
      if (c.op == api::TaggedCompletion::Op::kGet) {
        EXPECT_EQ(rhik::to_string(c.value), "v");
        get_acks.fetch_add(1, std::memory_order_relaxed);
      } else {
        acks.fetch_add(1, std::memory_order_relaxed);
      }
    }
  });
  for (int i = 0; i < kOps; ++i) {
    arr.submit_put_tagged(i, workload::key_for_id(i, 16), owned("v"));
  }
  arr.drain();
  EXPECT_EQ(acks.load(), kOps);
  EXPECT_EQ(arr.key_count(), static_cast<std::uint64_t>(kOps));
  // Everything already completed: a second barrier completes nothing.
  EXPECT_EQ(arr.drain(), 0u);

  for (int i = 0; i < kOps; ++i) {
    arr.submit_get_tagged(i, workload::key_for_id(i, 16));
  }
  arr.drain();
  EXPECT_EQ(get_acks.load(), kOps);
}

TEST(Sharded, FlushBarrierCoversAllShards) {
  ShardedKvssd arr(make_config(3));
  constexpr int kOps = 150;
  for (int i = 0; i < kOps; ++i) {
    arr.submit_put_tagged(i, workload::key_for_id(i, 16), owned("v"));
  }
  ASSERT_EQ(arr.flush(), Status::kOk);
  // flush() implies the drain barrier: every queued put completed on its
  // shard before the flush, so everything reads back immediately...
  EXPECT_EQ(arr.stats().puts, static_cast<std::uint64_t>(kOps));
  EXPECT_EQ(arr.key_count(), static_cast<std::uint64_t>(kOps));
  Bytes v;
  for (int i = 0; i < kOps; ++i) {
    EXPECT_EQ(arr.get(workload::key_for_id(i, 16), &v), Status::kOk) << i;
  }
  // ...and every shard persisted index state (its dirty record pages
  // were written back to flash during the flush).
  arr.drain();
  for (std::uint32_t s = 0; s < arr.num_shards(); ++s) {
    EXPECT_GT(arr.shard_device(s).index().op_stats().flash_writes, 0u)
        << "shard " << s;
  }
}

TEST(Sharded, StatsAggregationMergesCountersAndHistograms) {
  ShardedKvssd arr(make_config(4));
  constexpr int kPuts = 120;
  constexpr int kGets = 80;
  for (int i = 0; i < kPuts; ++i) {
    ASSERT_EQ(arr.put(workload::key_for_id(i, 16), key("value")), Status::kOk);
  }
  Bytes v;
  for (int i = 0; i < kGets; ++i) {
    ASSERT_EQ(arr.get(workload::key_for_id(i, 16), &v), Status::kOk);
  }
  EXPECT_EQ(arr.get(key("absent"), &v), Status::kNotFound);

  const kvssd::DeviceStats agg = arr.stats();
  EXPECT_EQ(agg.puts, static_cast<std::uint64_t>(kPuts));
  EXPECT_EQ(agg.gets, static_cast<std::uint64_t>(kGets));
  EXPECT_EQ(agg.not_found, 1u);
  // Histograms merge: one latency sample per put/get across the array.
  EXPECT_EQ(agg.put_latency_ns.count(), static_cast<std::uint64_t>(kPuts));
  EXPECT_EQ(agg.get_latency_ns.count(), static_cast<std::uint64_t>(kGets + 1));

  // Array time is the max across shard clocks (shards run concurrently).
  arr.drain();
  SimTime max_clock = 0;
  for (std::uint32_t s = 0; s < arr.num_shards(); ++s) {
    max_clock = std::max(max_clock, arr.shard_device(s).clock().now());
  }
  EXPECT_EQ(arr.sim_time(), max_clock);
}

TEST(Sharded, MetricsSnapshotEqualsMergeOfPerShardSnapshots) {
  ShardedKvssd arr(make_config(4));
  constexpr int kPuts = 150;
  constexpr int kGets = 100;
  for (int i = 0; i < kPuts; ++i) {
    ASSERT_EQ(arr.put(workload::key_for_id(i, 16), key("value")), Status::kOk);
  }
  Bytes v;
  for (int i = 0; i < kGets; ++i) {
    ASSERT_EQ(arr.get(workload::key_for_id(i, 16), &v), Status::kOk);
  }
  arr.drain();  // quiesce: both barriers below must see identical state

  const obs::MetricsSnapshot merged = arr.metrics_snapshot();
  obs::MetricsSnapshot manual;
  const auto per_shard = arr.shard_metrics_snapshots();
  ASSERT_EQ(per_shard.size(), 4u);
  for (const obs::MetricsSnapshot& s : per_shard) manual.merge_from(s);

  // The merged view is exactly the merge of the per-shard snapshots plus
  // the front-end's own frontend.* overlay — nothing dropped, nothing
  // double-counted.
  EXPECT_EQ(merged.captured_at_ns, manual.captured_at_ns);
  for (const auto& [name, value] : manual.counters) {
    EXPECT_EQ(merged.counter(name), value) << name;
  }
  for (const auto& [name, gv] : manual.gauges) {
    EXPECT_EQ(merged.gauge(name), gv.value) << name;
  }
  for (const auto& [name, h] : manual.timers) {
    const Histogram* mh = merged.timer(name);
    ASSERT_NE(mh, nullptr) << name;
    EXPECT_EQ(mh->count(), h.count()) << name;
    EXPECT_EQ(mh->max(), h.max()) << name;
    EXPECT_DOUBLE_EQ(mh->percentile(99), h.percentile(99)) << name;
  }
  // Everything the merged view adds on top is front-end-scoped.
  for (const auto& [name, value] : merged.counters) {
    if (manual.counters.count(name) == 0) {
      EXPECT_EQ(name.rfind("frontend.", 0), 0u) << name;
      (void)value;
    }
  }

  // Whole-array totals line up with the workload and the front-end's own
  // accounting (sync verbs counted once each).
  EXPECT_EQ(merged.counter("device.puts"), static_cast<std::uint64_t>(kPuts));
  EXPECT_EQ(merged.counter("device.gets"), static_cast<std::uint64_t>(kGets));
  EXPECT_EQ(merged.counter("frontend.puts"), static_cast<std::uint64_t>(kPuts));
  EXPECT_EQ(merged.counter("frontend.gets"), static_cast<std::uint64_t>(kGets));
  EXPECT_EQ(merged.gauge("frontend.shards"), 4);
  EXPECT_EQ(merged.timer("op.put.total_ns")->count(),
            static_cast<std::uint64_t>(kPuts));
  EXPECT_EQ(merged.timer("op.get.total_ns")->count(),
            static_cast<std::uint64_t>(kGets));

  // Acceptance: the JSON export of a sharded run carries per-stage
  // percentiles and flash reads per op for get and put.
  const std::string json = merged.to_json();
  for (const char* name :
       {"op.get.total_ns", "op.get.index_ns", "op.get.flash_ns",
        "op.get.flash_reads", "op.put.total_ns", "op.put.flash_reads"}) {
    EXPECT_NE(json.find(name), std::string::npos) << name;
  }
  EXPECT_NE(json.find("\"p50\""), std::string::npos);
  EXPECT_NE(json.find("\"p99\""), std::string::npos);
  auto parsed = obs::MetricsSnapshot::from_json(json);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->counter("device.puts"), merged.counter("device.puts"));
}

TEST(Sharded, MetricsStableUnderConcurrentDrains) {
  ShardedKvssd arr(make_config(4));
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 250;

  // Producers submit while other threads hammer drain() and
  // metrics_snapshot() barriers concurrently: the metrics path must not
  // drop or double-count ops.
  std::atomic<bool> stop{false};
  std::vector<std::thread> drainers;
  drainers.reserve(2);
  for (int d = 0; d < 2; ++d) {
    drainers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        arr.drain();
        (void)arr.metrics_snapshot();
      }
    });
  }
  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        arr.submit_put_tagged(i, workload::key_for_id(p * kPerProducer + i, 16),
                              owned("value"));
      }
    });
  }
  for (auto& t : producers) t.join();
  stop.store(true, std::memory_order_relaxed);
  for (auto& t : drainers) t.join();
  arr.drain();

  const obs::MetricsSnapshot snap = arr.metrics_snapshot();
  constexpr std::uint64_t kTotal = kProducers * kPerProducer;
  EXPECT_EQ(snap.counter("device.puts"), kTotal);
  EXPECT_EQ(snap.counter("frontend.puts"), kTotal);
  EXPECT_EQ(snap.timer("op.put.total_ns")->count(), kTotal);
  EXPECT_EQ(arr.key_count(), kTotal);
}

TEST(Sharded, ExecuteBatchPartitionsAndWritesBack) {
  // A group of tagged commands spread over the shards: each shard drains
  // its part, and every completion comes back by tag with its own
  // status and value.
  ShardedKvssd arr(make_config(4));
  for (int i = 0; i < 50; ++i) {
    ASSERT_EQ(arr.put(workload::key_for_id(i, 16), key("old")), Status::kOk);
  }

  std::mutex mu;
  std::map<std::uint64_t, api::TaggedCompletion> by_tag;
  arr.set_completion_sink([&](std::vector<api::TaggedCompletion>&& done) {
    std::lock_guard lk(mu);
    for (auto& c : done) {
      EXPECT_TRUE(by_tag.emplace(c.tag, std::move(c)).second) << "tag twice";
    }
  });
  for (int i = 0; i < 50; ++i) {  // gets of present keys
    arr.submit_get_tagged(i, workload::key_for_id(i, 16));
  }
  arr.submit_del_tagged(50, workload::key_for_id(7, 16));
  arr.submit_get_tagged(51, owned("absent-key"));
  arr.submit_put_tagged(52, workload::key_for_id(3, 16), owned("new"));
  arr.drain();

  ASSERT_EQ(by_tag.size(), 53u);
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(by_tag[i].status, Status::kOk) << i;
    EXPECT_EQ(rhik::to_string(by_tag[i].value), "old") << i;
    EXPECT_EQ(by_tag[i].key, workload::key_for_id(i, 16)) << i;
  }
  EXPECT_EQ(by_tag[50].status, Status::kOk);        // del
  EXPECT_EQ(by_tag[51].status, Status::kNotFound);  // get(absent)
  EXPECT_EQ(by_tag[52].status, Status::kOk);        // update

  Bytes v;
  EXPECT_EQ(arr.get(workload::key_for_id(7, 16), &v), Status::kNotFound);
  EXPECT_EQ(arr.get(workload::key_for_id(3, 16), &v), Status::kOk);
  EXPECT_EQ(rhik::to_string(v), "new");
}

TEST(Sharded, SingleShardMatchesRawDevice) {
  const auto cfg = make_config(1);
  ShardedKvssd arr(cfg);
  KvssdDevice raw(cfg.device);

  workload::KeyIdStream ids(workload::KeyPattern::kUniform, 60, /*seed=*/5);
  for (int i = 0; i < 400; ++i) {
    const std::uint64_t id = ids.next();
    const Bytes k = workload::key_for_id(id, 16);
    if (i % 3 == 0) {
      Bytes va, vb;
      EXPECT_EQ(arr.get(k, &va), raw.get(k, &vb));
      EXPECT_EQ(va, vb);
    } else if (i % 7 == 0) {
      EXPECT_EQ(arr.del(k), raw.del(k));
    } else {
      Bytes v(40);
      workload::fill_value(id, v);
      EXPECT_EQ(arr.put(k, v), raw.put(k, v));
    }
  }
  EXPECT_EQ(arr.key_count(), raw.key_count());
}

TEST(Sharded, SingleShardRoutesEverythingToShardZero) {
  ShardedKvssd arr(make_config(1));
  for (int i = 0; i < 32; ++i) {
    EXPECT_EQ(arr.shard_of(workload::key_for_id(i, 16)), 0u);
  }
}

}  // namespace
}  // namespace rhik::shard
