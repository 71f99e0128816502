#include "stats.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <utility>

namespace perfbench {

double percentile(std::vector<double> samples, double q) {
  if (samples.empty()) throw std::invalid_argument("percentile: no samples");
  if (!(q >= 0.0 && q <= 1.0)) {
    throw std::invalid_argument("percentile: q outside [0, 1]");
  }
  const double h = static_cast<double>(samples.size() - 1) * q;
  const auto lo = static_cast<std::size_t>(std::floor(h));
  const double frac = h - static_cast<double>(lo);
  std::nth_element(samples.begin(), samples.begin() + static_cast<long>(lo),
                   samples.end());
  const double low = samples[lo];
  if (frac == 0.0 || lo + 1 == samples.size()) return low;
  // The next order statistic is the minimum of the upper partition.
  const double high = *std::min_element(
      samples.begin() + static_cast<long>(lo) + 1, samples.end());
  if (std::isinf(high)) return high;  // inf - inf would be NaN
  return low + frac * (high - low);
}

double median(std::vector<double> samples) {
  return percentile(std::move(samples), 0.5);
}

double LatencySample::percentile_ms(double q) const {
  std::vector<double> all = ok_ms;
  all.insert(all.end(), failed, std::numeric_limits<double>::infinity());
  return percentile(std::move(all), q);
}

double process_cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace perfbench
