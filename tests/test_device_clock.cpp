// Golden device-clock test: pins the simulated-time charge rules of the
// command path to constants.
//
//  - A sync verb on one device is charged the full cmd_overhead_ns.
//  - A drained command is charged cmd_overhead_ns / queue_depth.
//  - A sync get is not a batch boundary: it neither advances the epoch
//    nor runs the checkpoint / GC ticks; every drained batch does.
//  - A sharded sync verb rides its shard's queue: async-charged, run as
//    a batch of one behind earlier commands.
//
// The sequence stays far from any GC or index-resize threshold, so no
// background quantum has work to do and the clocks depend on the
// foreground commands alone. A change to any constant below is a change
// to the device clock every bench reports.
#include <gtest/gtest.h>

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "kvssd/device.hpp"
#include "shard/sharded_kvssd.hpp"
#include "test_keys.hpp"

namespace rhik {
namespace {

using kvssd::DeviceConfig;
using kvssd::DeviceStats;
using kvssd::KvssdDevice;

DeviceConfig golden_config() {
  DeviceConfig cfg;
  cfg.geometry = flash::Geometry::tiny(256);  // 16 MiB
  cfg.dram_cache_bytes = 64 * 1024;
  cfg.prefix_signatures = true;  // the kvs_* iterators need them
  return cfg;
}

Bytes owned(const std::string& s) { return Bytes(s.begin(), s.end()); }
Bytes value_for(int i) { return Bytes(96 + i % 7, static_cast<std::uint8_t>(i)); }

/// Everything the charge rules move: clocks, counters, epoch.
struct Fingerprint {
  std::vector<SimTime> clocks;  ///< per device / shard
  std::uint64_t epoch = 0;
  std::uint64_t puts = 0, gets = 0, deletes = 0, exists = 0, iterates = 0;
  std::uint64_t bytes_put = 0, bytes_got = 0, not_found = 0;
  std::uint64_t put_lat_count = 0, put_lat_sum = 0;
  std::uint64_t get_lat_count = 0, get_lat_sum = 0;

  bool operator==(const Fingerprint&) const = default;
};

std::ostream& operator<<(std::ostream& os, const Fingerprint& f) {
  os << "{clocks={";
  for (const SimTime t : f.clocks) os << t << ",";
  return os << "}, epoch=" << f.epoch << ", puts=" << f.puts
            << ", gets=" << f.gets << ", deletes=" << f.deletes
            << ", exists=" << f.exists << ", iterates=" << f.iterates
            << ", bytes_put=" << f.bytes_put << ", bytes_got=" << f.bytes_got
            << ", not_found=" << f.not_found
            << ", put_lat=" << f.put_lat_count << "/" << f.put_lat_sum
            << ", get_lat=" << f.get_lat_count << "/" << f.get_lat_sum << "}";
}

Fingerprint fingerprint(std::vector<SimTime> clocks, std::uint64_t epoch,
                        const DeviceStats& st) {
  Fingerprint f;
  f.clocks = std::move(clocks);
  f.epoch = epoch;
  f.puts = st.puts;
  f.gets = st.gets;
  f.deletes = st.deletes;
  f.exists = st.exists;
  f.iterates = st.iterates;
  f.bytes_put = st.bytes_put;
  f.bytes_got = st.bytes_got;
  f.not_found = st.not_found;
  f.put_lat_count = st.put_latency_ns.count();
  f.put_lat_sum = st.put_latency_ns.sum();
  f.get_lat_count = st.get_latency_ns.count();
  f.get_lat_sum = st.get_latency_ns.sum();
  return f;
}

/// The sync half of the sequence, shared by the device and the arrays.
void run_sync_verbs(api::IKvsBackend& be) {
  for (int i = 0; i < 24; ++i) {
    ASSERT_EQ(be.put(owned(test::numbered("user:", 100 + i)), value_for(i)),
              Status::kOk);
  }
  for (int i = 0; i < 8; ++i) {
    ASSERT_EQ(be.put(owned(test::numbered("acct:", i)), value_for(40 + i)),
              Status::kOk);
  }
  Bytes v;
  for (int i = 0; i < 10; ++i) {
    ASSERT_EQ(be.get(owned(test::numbered("user:", 100 + 2 * i)), &v),
              Status::kOk);
  }
  EXPECT_EQ(be.get(owned("user:999"), &v), Status::kNotFound);
  EXPECT_EQ(be.get(owned("none:1"), &v), Status::kNotFound);
  for (int i = 0; i < 3; ++i) {
    ASSERT_EQ(be.del(owned(test::numbered("user:", 101 + 5 * i))),
              Status::kOk);
  }
  EXPECT_EQ(be.del(owned("user:998")), Status::kNotFound);
  EXPECT_EQ(be.exist(owned("user:100")), Status::kOk);
  EXPECT_EQ(be.exist(owned("acct:3")), Status::kOk);
  EXPECT_EQ(be.exist(owned("user:101")), Status::kNotFound);
  EXPECT_EQ(be.exist(owned("zzzz:0")), Status::kNotFound);

  // Snapshot point reads across an overwrite.
  auto snap = be.open_snapshot();
  ASSERT_TRUE(snap.has_value());
  ASSERT_EQ(be.put(owned("acct:1"), value_for(77)), Status::kOk);
  ASSERT_EQ(be.read_at(*snap, owned("acct:1"), &v), Status::kOk);
  EXPECT_EQ(v, value_for(41));
  EXPECT_EQ(be.read_at(*snap, owned("acct:99"), &v), Status::kNotFound);
  ASSERT_EQ(be.release_snapshot(*snap), Status::kOk);

  // One streaming key iterator, drained in small batches.
  auto it = be.kvs_open_iterator(owned("user"), nullptr);
  ASSERT_TRUE(it.has_value());
  std::vector<Bytes> keys;
  std::size_t seen = 0;
  Status s;
  while ((s = be.kvs_iterator_next(*it, 5, &keys)) == Status::kOk) {
    seen += keys.size();
  }
  EXPECT_EQ(s, Status::kNotFound);
  EXPECT_EQ(seen, 21u);
  ASSERT_EQ(be.kvs_close_iterator(*it), Status::kOk);
}

TEST(DeviceClockGolden, SingleDeviceSyncAndDrainedCommands) {
  KvssdDevice dev(golden_config());
  std::vector<api::TaggedCompletion> done;
  dev.set_completion_sink([&](std::vector<api::TaggedCompletion>&& batch) {
    for (auto& c : batch) done.push_back(std::move(c));
  });

  run_sync_verbs(dev);

  // A mixed drained batch: new puts, gets (hit and miss), deletes.
  std::uint64_t tag = 1;
  for (int i = 0; i < 8; ++i) {
    dev.submit_put_tagged(tag++, owned(test::numbered("bulk:", i)),
                          value_for(60 + i));
  }
  for (int i = 0; i < 4; ++i) {
    dev.submit_get_tagged(tag++, owned(test::numbered("acct:", i + 4)));
  }
  dev.submit_get_tagged(tag++, owned("bulk:404"));
  dev.submit_del_tagged(tag++, owned("acct:7"));
  dev.submit_del_tagged(tag++, owned("user:123"));
  EXPECT_EQ(dev.drain(), 15u);

  // A get-only batch.
  for (int i = 0; i < 6; ++i) {
    dev.submit_get_tagged(tag++, owned(test::numbered("user:", 102 + i)));
  }
  EXPECT_EQ(dev.drain(), 6u);

  // A same-key put -> get -> del chain in one batch.
  dev.submit_put_tagged(tag++, owned("chain"), value_for(5));
  dev.submit_get_tagged(tag++, owned("chain"));
  dev.submit_del_tagged(tag++, owned("chain"));
  EXPECT_EQ(dev.drain(), 3u);

  ASSERT_EQ(done.size(), 24u);
  const api::TaggedCompletion& chain_get = done[22];
  EXPECT_EQ(chain_get.status, Status::kOk);
  EXPECT_EQ(chain_get.value, value_for(5));
  EXPECT_EQ(done[23].status, Status::kOk);

  EXPECT_FALSE(dev.pump_background());  // nothing pending: clocks are pure

  const Fingerprint expected{{484232}, 43,   42,   21,    6,     4, 1,
                             4453,     2082, 6,    42,    204837, 24, 107116};
  EXPECT_EQ(fingerprint({dev.clock().now()}, dev.snapshots().epochs.current(),
                        dev.stats()),
            expected);
}

Fingerprint run_sharded(std::uint32_t shards) {
  shard::ShardedConfig sc;
  sc.device = golden_config();
  sc.num_shards = shards;
  shard::ShardedKvssd arr(sc);
  run_sync_verbs(arr);
  const DeviceStats st = arr.stats();  // a barrier: the array is quiescent
  std::vector<SimTime> clocks;
  for (std::uint32_t i = 0; i < arr.num_shards(); ++i) {
    clocks.push_back(arr.shard_device(i).clock().now());
  }
  return fingerprint(std::move(clocks), arr.snapshots().epochs.current(), st);
}

TEST(DeviceClockGolden, OneShardArraySyncVerbs) {
  const Fingerprint expected{{164557}, 52,   33, 11,   3,  4,  1,
                             3506,     1089, 4,  33, 9069, 12, 21116};
  EXPECT_EQ(run_sharded(1), expected);
}

TEST(DeviceClockGolden, TwoShardArraySyncVerbs) {
  const Fingerprint expected{{44139, 68418}, 52, 33, 11,   3,  4,  2,
                             3506, 1089, 4,  33, 3069, 12, 1116};
  EXPECT_EQ(run_sharded(2), expected);
}

}  // namespace
}  // namespace rhik
