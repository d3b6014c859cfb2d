// Checks of the benchmark's own maths and read-back oracle.
#include <gtest/gtest.h>

#include <vector>

#include "stats.hpp"
#include "workload_spec.hpp"

using namespace perfbench;
using rhik::api::KvsResult;

TEST(Percentile, NearestRankCarriesSampleCount) {
  std::vector<std::uint64_t> v;
  for (std::uint64_t i = 1; i <= 1000; ++i) v.push_back(1001 - i);
  const Percentile p50 = percentile(v, 50);
  EXPECT_EQ(p50.value, 500);
  EXPECT_EQ(p50.samples, 1000u);
  EXPECT_EQ(percentile(v, 99).value, 990);
  EXPECT_EQ(percentile(v, 99.9).value, 999);
  EXPECT_EQ(percentile(v, 100).value, 1000);
  std::vector<std::uint64_t> none;
  EXPECT_EQ(percentile(none, 99).samples, 0u);
}

TEST(Percentile, HistogramDeltaCountsOnlyTheWindow) {
  rhik::Histogram before;
  for (int i = 0; i < 100; ++i) before.record(10'000'000);  // slow set-up ops
  rhik::Histogram after = before;
  for (int i = 0; i < 1000; ++i) after.record(50);
  const rhik::Histogram d = histogram_delta(after, before);
  EXPECT_EQ(d.count(), 1000u);
  const Percentile p = percentile(d, 99.9);
  EXPECT_EQ(p.samples, 1000u);
  EXPECT_EQ(p.value, 50);
}

TEST(Ratio, CarriesItsBase) {
  const Ratio r = ratio(30, 120);
  EXPECT_DOUBLE_EQ(r.value, 0.25);
  EXPECT_DOUBLE_EQ(r.base, 120);
  const Ratio z = ratio(5, 0);
  EXPECT_EQ(z.value, 0);
  EXPECT_EQ(z.base, 0);
}

TEST(Goodput, ExcludesFailedOps) {
  EXPECT_DOUBLE_EQ(goodput_kops(10'000, 0, 2.0), 5.0);
  EXPECT_DOUBLE_EQ(goodput_kops(10'000, 4'000, 2.0), 3.0);
  EXPECT_EQ(goodput_kops(10, 11, 1.0), 0);
  EXPECT_EQ(goodput_kops(10, 0, 0.0), 0);
}

TEST(WindowedWall, OneStalledWindowDoesNotMoveTheMedian) {
  std::vector<Completion> done;
  std::uint64_t t = 0;
  for (int w = 0; w < 5; ++w) {
    for (int i = 0; i < 1000; ++i) {
      // Window 2 stalls: ten times slower; every tenth op in it fails.
      const bool stalled = w == 2;
      t += stalled ? 10'000 : 1'000;
      const bool ok = !(stalled && i % 10 == 0);
      done.push_back({t, stalled ? 50'000u : 5'000u,
                      i % 2 ? Completion::Kind::kGet : Completion::Kind::kPut, ok, false});
    }
  }
  const WallFigures f = windowed_wall(done, 5, 0);
  EXPECT_DOUBLE_EQ(f.goodput_kops, 1000.0);  // 1000 ops per 1 ms window
  EXPECT_EQ(f.get_p99.value, 5'000);
  EXPECT_EQ(f.put_p50.value, 5'000);
  EXPECT_EQ(f.get_p50.samples, 500u);
  EXPECT_EQ(f.put_p50.samples, 400u);  // the stalled window's successful puts
}

TEST(ErrorRate, CountsALostAcknowledgement) {
  Oracle o(4);
  for (std::uint32_t id = 0; id < 4; ++id) o.ack_put(id, 7);
  rhik::Bytes good(64);
  fill_versioned(1, 7, good);
  Tally t;
  t.add(o.check(1, KvsResult::KVS_SUCCESS, good, 64));
  // Key 2 was acknowledged but reads back absent after the power cycle.
  t.add(o.check(2, KvsResult::KVS_ERR_KEY_NOT_EXIST, {}, 64));
  EXPECT_EQ(t.lost, 1u);
  EXPECT_EQ(t.failed(), 1u);
  const Ratio e = error_rate(0, t.failed(), 10, t.checked);
  EXPECT_DOUBLE_EQ(e.value, 1.0 / 12.0);
  EXPECT_DOUBLE_EQ(e.base, 12);
}

TEST(Oracle, TellsStaleResurrectedAndCorruptApart) {
  Oracle o(3);
  o.ack_put(0, 2);
  rhik::Bytes v1(64), v2(64);
  fill_versioned(0, 1, v1);
  fill_versioned(0, 2, v2);
  EXPECT_EQ(o.check(0, KvsResult::KVS_SUCCESS, v2, 64), Oracle::Verdict::kOk);
  EXPECT_EQ(o.check(0, KvsResult::KVS_SUCCESS, v1, 64), Oracle::Verdict::kStale);
  rhik::Bytes flipped = v2;
  flipped[40] ^= 1;
  EXPECT_EQ(o.check(0, KvsResult::KVS_SUCCESS, flipped, 64), Oracle::Verdict::kCorrupt);
  rhik::Bytes other(64);
  fill_versioned(1, 2, other);
  EXPECT_EQ(o.check(0, KvsResult::KVS_SUCCESS, other, 64), Oracle::Verdict::kCorrupt);
  EXPECT_EQ(o.check(0, KvsResult::KVS_ERR_SYS_IO, {}, 64), Oracle::Verdict::kIoError);
  o.ack_del(0, 3);
  EXPECT_EQ(o.check(0, KvsResult::KVS_ERR_KEY_NOT_EXIST, {}, 64), Oracle::Verdict::kOk);
  EXPECT_EQ(o.check(0, KvsResult::KVS_SUCCESS, v2, 64), Oracle::Verdict::kResurrected);
  o.taint(0);
  EXPECT_EQ(o.check(0, KvsResult::KVS_SUCCESS, v1, 64), Oracle::Verdict::kOk);
}

TEST(Oracle, TaintedKeyAcceptsAbsenceOrItsOwnValueOnly) {
  // A put that failed may or may not have landed; nothing else is excused.
  Oracle o(2);
  o.ack_put(0, 2);
  o.taint(0);
  rhik::Bytes v3(64);
  fill_versioned(0, 3, v3);
  EXPECT_EQ(o.check(0, KvsResult::KVS_SUCCESS, v3, 64), Oracle::Verdict::kOk);
  EXPECT_EQ(o.check(0, KvsResult::KVS_ERR_KEY_NOT_EXIST, {}, 64), Oracle::Verdict::kOk);
  EXPECT_EQ(o.check(0, KvsResult::KVS_ERR_SYS_IO, {}, 64), Oracle::Verdict::kIoError);
  rhik::Bytes foreign(64);
  fill_versioned(1, 3, foreign);
  EXPECT_EQ(o.check(0, KvsResult::KVS_SUCCESS, foreign, 64), Oracle::Verdict::kCorrupt);
  rhik::Bytes torn = v3;
  torn[40] ^= 1;
  EXPECT_EQ(o.check(0, KvsResult::KVS_SUCCESS, torn, 64), Oracle::Verdict::kCorrupt);
  // The next acknowledgement clears the taint.
  o.ack_put(0, 4);
  EXPECT_EQ(o.check(0, KvsResult::KVS_ERR_KEY_NOT_EXIST, {}, 64), Oracle::Verdict::kLost);
}

TEST(Keys, GroupPrefixAndRoundTrip) {
  for (std::uint64_t id : {0ull, 63ull, 64ull, 199'999ull}) {
    for (std::uint32_t size : {16u, 20u}) {
      const std::string k = user_key(id, size);
      ASSERT_EQ(k.size(), size);
      EXPECT_EQ(k.substr(0, kGroupPrefixLen), group_prefix(id >> kGroupShift));
      std::uint64_t back = 0;
      ASSERT_TRUE(parse_user_key(k, &back));
      EXPECT_EQ(back, id);
    }
  }
  EXPECT_NE(group_prefix(1), group_prefix(2));
}

TEST(Ops, SameSeedSameStream) {
  const WorkloadSpec w = workload_by_name("churn_gc_scan");
  const auto a = generate_ops(w, 7, 5000);
  const auto b = generate_ops(w, 7, 5000);
  const auto c = generate_ops(w, 8, 5000);
  ASSERT_EQ(a.size(), b.size());
  bool same = true, differs = false;
  std::size_t puts = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    same &= a[i].id == b[i].id && a[i].kind == b[i].kind && a[i].version == b[i].version;
    differs |= a[i].id != c[i].id;
    puts += a[i].kind == OpKind::kPut;
    EXPECT_LT(a[i].id, a[i].kind == OpKind::kScan ? (w.keys >> kGroupShift) + 1 : w.keys);
  }
  EXPECT_TRUE(same);
  EXPECT_TRUE(differs);
  EXPECT_NEAR(static_cast<double>(puts) / 5000, 0.85, 0.03);
}
