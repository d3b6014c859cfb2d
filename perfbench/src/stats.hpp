// The benchmark's own arithmetic: percentiles that carry their sample
// count, ratios that carry their base, goodput and the error rate. Kept
// free of device types so tests/test_stats.cpp can check it directly.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "common/histogram.hpp"

namespace perfbench {

/// A percentile and the number of samples it was taken over.
struct Percentile {
  double value = 0;
  std::uint64_t samples = 0;
};

/// Nearest-rank percentile (p in [0, 100]) of host-measured samples.
/// Reorders `samples`. Empty input gives {0, 0}.
inline Percentile percentile(std::vector<std::uint64_t>& samples, double p) {
  if (samples.empty()) return {};
  const auto n = samples.size();
  // The epsilon keeps p * n from rounding up across an integer (99.9 % of 1000).
  auto rank = static_cast<std::size_t>(std::ceil(p * static_cast<double>(n) / 100.0 - 1e-9));
  rank = std::clamp<std::size_t>(rank, 1, n);
  std::nth_element(samples.begin(), samples.begin() + (rank - 1), samples.end());
  return {static_cast<double>(samples[rank - 1]), n};
}

/// Percentile of a device-clock histogram, with its sample count.
inline Percentile percentile(const rhik::Histogram& h, double p) {
  return {h.percentile(p), h.count()};
}

/// Histogram of the samples recorded between two snapshots of one
/// cumulative histogram (`after` minus `before`, bucket by bucket).
inline rhik::Histogram histogram_delta(const rhik::Histogram& after,
                                       const rhik::Histogram& before) {
  std::vector<std::uint64_t> counts(rhik::Histogram::bucket_count());
  std::uint64_t lo = UINT64_MAX;
  std::uint64_t hi = 0;
  for (std::size_t b = 0; b < counts.size(); ++b) {
    const std::uint64_t a = after.bucket_value(b);
    const std::uint64_t z = before.bucket_value(b);
    counts[b] = a > z ? a - z : 0;
    if (counts[b] != 0) {
      lo = std::min(lo, rhik::Histogram::bucket_lower(b));
      hi = std::max(hi, rhik::Histogram::bucket_upper(b));
    }
  }
  const std::uint64_t sum = after.sum() > before.sum() ? after.sum() - before.sum() : 0;
  return rhik::Histogram::from_buckets(counts.data(), counts.size(), sum,
                                       std::min(lo, after.max()),
                                       std::min(hi, after.max()));
}

/// A quotient and the denominator it was taken over. A zero base gives a
/// zero value; callers print the base so that case is visible.
struct Ratio {
  double value = 0;
  double base = 0;
};

inline Ratio ratio(double num, double base) {
  return {base == 0 ? 0.0 : num / base, base};
}

/// Successful operations per second, in thousands. Failed operations
/// are not work done, so they never count.
inline double goodput_kops(std::uint64_t attempted, std::uint64_t failed,
                           double seconds) {
  if (seconds <= 0 || failed > attempted) return 0;
  return static_cast<double>(attempted - failed) / seconds / 1e3;
}

/// (failed ops + failed read-backs) / (ops attempted + keys verified).
inline Ratio error_rate(std::uint64_t failed_ops, std::uint64_t failed_reads,
                        std::uint64_t ops, std::uint64_t verified) {
  return ratio(static_cast<double>(failed_ops + failed_reads),
               static_cast<double>(ops + verified));
}

/// Median of a small sample (copies; for repeated set-up timings).
inline double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : (v[m - 1] + v[m]) / 2;
}

/// One completed operation as the caller saw it.
struct Completion {
  enum class Kind : std::uint8_t { kGet, kPut, kOther };
  std::uint64_t done_ns = 0;  ///< wall time the completion was seen
  std::uint64_t lat_ns = 0;   ///< submit → completion
  Kind kind = Kind::kOther;
  bool ok = false;
  bool traced = false;
};

/// Host-clock figures of a timed phase.
struct WallFigures {
  double goodput_kops = 0;
  Percentile get_p50, get_p99, put_p50, put_p99;
  /// Per-window goodput and get p99 (ns), for the human-readable report.
  std::vector<double> window_goodput, window_get_p99;
};

/// Splits the completions (in the order they were seen) into `windows`
/// equal runs and reports, for each figure, its median over the windows:
/// a burst of host contention then moves one window, not the result.
/// Percentile sample counts are the smallest window's.
inline WallFigures windowed_wall(const std::vector<Completion>& done, std::size_t windows,
                                 std::uint64_t start_ns) {
  WallFigures out;
  if (done.empty() || windows == 0) return out;
  windows = std::min(windows, done.size());
  std::vector<double> goodput, gp50, gp99, pp50, pp99;
  std::uint64_t gmin = UINT64_MAX, pmin = UINT64_MAX;
  std::uint64_t prev_end = start_ns;
  for (std::size_t w = 0; w < windows; ++w) {
    const std::size_t lo = w * done.size() / windows;
    const std::size_t hi = (w + 1) * done.size() / windows;
    std::vector<std::uint64_t> gets, puts;
    std::uint64_t failed = 0;
    for (std::size_t i = lo; i < hi; ++i) {
      const Completion& c = done[i];
      if (!c.ok) {
        ++failed;
      } else if (c.kind == Completion::Kind::kGet) {
        gets.push_back(c.lat_ns);
      } else if (c.kind == Completion::Kind::kPut) {
        puts.push_back(c.lat_ns);
      }
    }
    const std::uint64_t end = done[hi - 1].done_ns;
    goodput.push_back(goodput_kops(hi - lo, failed, static_cast<double>(end - prev_end) / 1e9));
    prev_end = end;
    gp50.push_back(percentile(gets, 50).value);
    gp99.push_back(percentile(gets, 99).value);
    pp50.push_back(percentile(puts, 50).value);
    pp99.push_back(percentile(puts, 99).value);
    gmin = std::min<std::uint64_t>(gmin, gets.size());
    pmin = std::min<std::uint64_t>(pmin, puts.size());
  }
  out.window_goodput = goodput;
  out.window_get_p99 = gp99;
  out.goodput_kops = median(goodput);
  out.get_p50 = {median(gp50), gmin};
  out.get_p99 = {median(gp99), gmin};
  out.put_p50 = {median(pp50), pmin};
  out.put_p99 = {median(pp99), pmin};
  return out;
}

}  // namespace perfbench
