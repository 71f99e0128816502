#pragma once
/// \file stats.hpp
/// \brief Order statistics and process clocks for the serving benchmark:
///        interpolated percentiles (failures count as +infinity, so a
///        failed request misses every latency percentile), medians, and
///        the process CPU clock behind cpu_ns_per_bit.

#include <chrono>
#include <cstddef>
#include <vector>

namespace perfbench {

/// Percentile of `samples` at q in [0, 1], linear interpolation between
/// closest ranks (the "R-7" / numpy default definition):
///   h = (n - 1) q,  result = s[floor h] + (h - floor h)(s[floor h + 1] - s[floor h])
/// over the sorted samples s. Runs in O(n) with nth_element; takes the
/// vector by value because it reorders it.
/// \throws std::invalid_argument on an empty sample or q outside [0, 1].
[[nodiscard]] double percentile(std::vector<double> samples, double q);

/// percentile(samples, 0.5).
[[nodiscard]] double median(std::vector<double> samples);

/// A latency sample where failed requests count as +infinity: they miss
/// every percentile instead of silently shrinking the sample.
struct LatencySample {
  std::vector<double> ok_ms;   ///< succeeded requests [ms]
  std::size_t failed = 0;      ///< failed or refused requests

  [[nodiscard]] std::size_t count() const noexcept {
    return ok_ms.size() + failed;
  }
  /// Percentile over the succeeded samples plus `failed` copies of
  /// +infinity. Returns +infinity when q lands on a failure.
  [[nodiscard]] double percentile_ms(double q) const;
};

/// User + system CPU time of the whole process (every thread) [s].
[[nodiscard]] double process_cpu_seconds();

/// Seconds elapsed on the steady clock since `t0`.
[[nodiscard]] double seconds_since(std::chrono::steady_clock::time_point t0);

/// Wall and process-CPU stopwatch started at construction.
struct Stopwatch {
  std::chrono::steady_clock::time_point wall0 = std::chrono::steady_clock::now();
  double cpu0 = process_cpu_seconds();

  [[nodiscard]] double wall_s() const { return seconds_since(wall0); }
  [[nodiscard]] double cpu_s() const { return process_cpu_seconds() - cpu0; }
};

}  // namespace perfbench
