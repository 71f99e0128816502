#include "common/sweep.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "common/math.hpp"

namespace oscs {

std::vector<double> Range::values() const {
  if (steps == 0) {
    throw std::invalid_argument("Range: steps must be >= 1");
  }
  return linspace(lo, hi, steps);
}

void grid_for_each(const Range& xs, const Range& ys,
                   const std::function<void(double, double)>& fn) {
  const auto xv = xs.values();
  const auto yv = ys.values();
  for (double x : xv) {
    for (double y : yv) {
      fn(x, y);
    }
  }
}

void tensor_for_each(
    const std::vector<double>& values, std::size_t arity,
    const std::function<void(const std::vector<double>&)>& fn) {
  if (values.empty() || arity == 0) return;
  std::vector<std::size_t> index(arity, 0);
  std::vector<double> point(arity, values.front());
  for (;;) {
    fn(point);
    // Odometer step: advance the last axis, carrying into earlier ones.
    std::size_t axis = arity;
    while (axis > 0 && ++index[axis - 1] == values.size()) {
      --axis;
      index[axis] = 0;
      point[axis] = values.front();
    }
    if (axis == 0) return;
    point[axis - 1] = values[index[axis - 1]];
  }
}

std::vector<ParetoPoint> pareto_front(std::vector<ParetoPoint> points) {
  std::sort(points.begin(), points.end(), [](const ParetoPoint& a,
                                             const ParetoPoint& b) {
    if (a.objective_a != b.objective_a) return a.objective_a < b.objective_a;
    return a.objective_b < b.objective_b;
  });
  std::vector<ParetoPoint> front;
  double best_b = std::numeric_limits<double>::infinity();
  for (const auto& p : points) {
    if (p.objective_b < best_b) {
      front.push_back(p);
      best_b = p.objective_b;
    }
  }
  return front;
}

}  // namespace oscs
