// Shared timing/provenance helpers for the perf harnesses (perf_ecc,
// perf_sim).  Gates compare steady-state throughput, so every timed section
// runs one untimed warmup pass first — page faults, allocator pool growth,
// and branch-predictor training land in the warmup instead of the
// measurement — and the repetition count plus host CPU are recorded in the
// BENCH_*.json provenance block next to the numbers they qualify.
//
// Two ways to time: best_time() (best of kRepeats, perf_ecc) and
// paired_ratio() (median of kPairs interleaved kernel/reference pairs,
// perf_sim's ratio gates).  On a shared host a best-of-3 ratio swings with
// whichever side happened to catch a quiet moment; the median of
// interleaved pairs does not.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

namespace aft::bench {

using Clock = std::chrono::steady_clock;

/// Timed repetitions per measurement (best-of-N; N recorded in the JSON).
inline constexpr int kRepeats = 3;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// One untimed warmup pass, then best-of-kRepeats wall time of fn().
template <typename Fn>
double best_time(Fn&& fn) {
  fn();  // warmup
  double best = 1e300;
  for (int r = 0; r < kRepeats; ++r) {
    const auto t0 = Clock::now();
    fn();
    best = std::min(best, seconds_since(t0));
  }
  return best;
}

/// Kernel/reference pairs behind every paired ratio (recorded in the JSON).
inline constexpr int kPairs = 11;

/// A ratio measured over interleaved pairs: the median per-pair ratio (the
/// figure gates read) with its min/max spread, plus the median rate of
/// each side for display.
struct PairedRatio {
  double median = 0.0;
  double min = 0.0;
  double max = 0.0;
  double kernel_rate = 0.0;
  double ref_rate = 0.0;
};

namespace detail {
inline double median_of(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}
}  // namespace detail

/// Times `kernel` against `ref` in kPairs interleaved pairs.  Each callable
/// runs its workload once and returns its rate (work per second).  One
/// untimed warmup run of each side comes first; then the pairs alternate
/// which side runs first (AB, BA, AB, ...), so slow drift of the machine —
/// frequency, a noisy neighbour — lands on both sides of every pair instead
/// of on one side of a best-of-N.  Each pair yields one ratio
/// kernel_rate / ref_rate.
template <typename KernelFn, typename RefFn>
PairedRatio paired_ratio(KernelFn&& kernel, RefFn&& ref) {
  kernel();  // warmup
  ref();     // warmup
  std::vector<double> ratios, kernel_rates, ref_rates;
  for (int p = 0; p < kPairs; ++p) {
    double k = 0.0, r = 0.0;
    if (p % 2 == 0) {
      k = kernel();
      r = ref();
    } else {
      r = ref();
      k = kernel();
    }
    kernel_rates.push_back(k);
    ref_rates.push_back(r);
    ratios.push_back(k / r);
  }
  PairedRatio out;
  out.min = *std::min_element(ratios.begin(), ratios.end());
  out.max = *std::max_element(ratios.begin(), ratios.end());
  out.median = detail::median_of(std::move(ratios));
  out.kernel_rate = detail::median_of(std::move(kernel_rates));
  out.ref_rate = detail::median_of(std::move(ref_rates));
  return out;
}

/// Host CPU model ("model name" from /proc/cpuinfo), or "unknown".
inline std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) != 0) continue;
    const std::size_t colon = line.find(':');
    if (colon == std::string::npos) break;
    std::size_t start = colon + 1;
    while (start < line.size() && line[start] == ' ') ++start;
    return line.substr(start);
  }
  return "unknown";
}

/// Fixed one-decimal rendering, locale-independent (bench JSON values).
inline std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.1f", v);
  return buf;
}

}  // namespace aft::bench
