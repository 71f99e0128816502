#pragma once
/// \file sweep.hpp
/// \brief Parameter-sweep helpers for design-space exploration: inclusive
///        ranges, cartesian grids (two-axis and N-fold) and simple Pareto
///        filtering.

#include <cstddef>
#include <functional>
#include <vector>

namespace oscs {

/// Inclusive numeric range [lo, hi] sampled at `steps` points.
struct Range {
  double lo = 0.0;
  double hi = 1.0;
  std::size_t steps = 2;

  /// Materialize the sample points (steps >= 1; steps == 1 yields {lo}).
  [[nodiscard]] std::vector<double> values() const;
};

/// Call `fn(x, y)` over the cartesian product of two ranges (row-major:
/// y inner loop).
void grid_for_each(const Range& xs, const Range& ys,
                   const std::function<void(double, double)>& fn);

/// Call `fn(point)` over the `arity`-fold cartesian power of `values`
/// (row-major: the last axis varies fastest). Nothing is visited when
/// `values` is empty or `arity` is 0.
void tensor_for_each(const std::vector<double>& values, std::size_t arity,
                     const std::function<void(const std::vector<double>&)>& fn);

/// A candidate point in a 2-objective minimization problem.
struct ParetoPoint {
  double objective_a = 0.0;  ///< e.g. energy
  double objective_b = 0.0;  ///< e.g. bit-error rate
  std::size_t tag = 0;       ///< caller-defined index into its own storage
};

/// Non-dominated subset for 2-objective minimization (strict dominance:
/// another point is <= in both objectives and < in at least one).
/// Output is sorted by objective_a ascending.
[[nodiscard]] std::vector<ParetoPoint> pareto_front(
    std::vector<ParetoPoint> points);

}  // namespace oscs
