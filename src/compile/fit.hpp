#pragma once
/// \file fit.hpp
/// \brief Projection stage of the function compiler: continuous
///        least-squares fit of an arbitrary f: [0,1] -> R onto the
///        Bernstein basis, with automatic degree selection (grow the
///        degree until a target sup-norm error is met or a cap is hit)
///        and a bound-constrained solve that keeps every coefficient in
///        [0,1] - the condition for a stochastic implementation. When the
///        constraint binds, the solve re-optimizes the free coefficients
///        (active-set descent) instead of plain clamping, and reports the
///        feasibility gap of the unconstrained optimum.

#include <cstddef>
#include <functional>
#include <vector>

#include "common/linalg.hpp"
#include "stochastic/bernstein.hpp"
#include "stochastic/separable.hpp"

namespace oscs::compile {

/// Bound-constrained normal-equations solve onto the unit box: minimize
/// ||G c - rhs|| subject to c in [0,1]^dim via one active-set descent pass
/// (coefficients never leave a bound once pinned). The building block the
/// univariate, tensor-product and separable (ALS) projections all share.
/// \throws std::invalid_argument on a dimension mismatch.
[[nodiscard]] std::vector<double> solve_unit_box(const oscs::Matrix& gram,
                                                 const std::vector<double>& rhs);

/// Controls for the projection stage.
struct ProjectionOptions {
  std::size_t min_degree = 1;  ///< first degree tried
  std::size_t max_degree = 6;  ///< degree cap (ReSC hardware order budget)
  /// Degree growth stops once the estimated sup-norm error of the
  /// constrained fit drops to or below this.
  double target_max_error = 0.01;
  std::size_t error_samples = 512;     ///< sup-norm estimation grid density
  std::size_t quadrature_points = 64;  ///< Gauss-Legendre nodes for moments

  /// \throws std::invalid_argument on an empty degree range or
  ///         non-positive sample counts.
  void validate() const;
};

/// Outcome of one projection (fixed degree or auto-selected).
struct ProjectionResult {
  stochastic::BernsteinPoly poly{std::vector<double>{0.0}};  ///< constrained
  std::size_t degree = 0;
  double max_error = 0.0;  ///< sup-norm estimate of f - poly over [0,1]
  double l2_error = 0.0;   ///< continuous L2 norm of f - poly
  /// How far the *unconstrained* least-squares optimum leaves [0,1]
  /// (max over coefficients of the distance to the box). Zero when the
  /// function is representable without constraint distortion.
  double feasibility_gap = 0.0;
  bool clamped = false;     ///< the [0,1] constraint was binding
  bool target_met = false;  ///< max_error <= target_max_error
};

/// Bound-constrained continuous least-squares fit at one fixed degree.
/// \throws std::invalid_argument on invalid options.
[[nodiscard]] ProjectionResult project_at_degree(
    const std::function<double(double)>& f, std::size_t degree,
    const ProjectionOptions& options = {});

/// Degree auto-selection: fit at min_degree..max_degree, returning the
/// first degree meeting target_max_error, or the best fit found when none
/// does (target_met = false).
/// \throws std::invalid_argument on invalid options.
[[nodiscard]] ProjectionResult project(const std::function<double(double)>& f,
                                       const ProjectionOptions& options = {});

/// Controls for the bivariate (tensor-product) projection stage. The
/// degree range is per axis; error estimation samples and quadrature
/// nodes are per axis too (the grids are their squares).
struct ProjectionOptions2 {
  std::size_t min_degree_x = 1;  ///< first x degree tried
  std::size_t max_degree_x = 4;  ///< x degree cap
  std::size_t min_degree_y = 1;  ///< first y degree tried
  std::size_t max_degree_y = 4;  ///< y degree cap
  /// Degree growth stops once the estimated sup-norm error of the
  /// constrained fit drops to or below this.
  double target_max_error = 0.01;
  std::size_t error_samples = 48;      ///< sup-norm grid density per axis
  std::size_t quadrature_points = 32;  ///< Gauss-Legendre nodes per axis

  /// \throws std::invalid_argument on an empty degree range (either
  ///         axis) or non-positive sample counts.
  void validate() const;
};

/// Outcome of one bivariate projection.
struct ProjectionResult2 {
  stochastic::BernsteinPoly2 poly{0, 0, std::vector<double>{0.0}};
  std::size_t degree_x = 0;
  std::size_t degree_y = 0;
  double max_error = 0.0;  ///< sup-norm estimate over the unit square
  double l2_error = 0.0;   ///< continuous L2 norm of f - poly
  /// How far the unconstrained least-squares optimum leaves [0,1].
  double feasibility_gap = 0.0;
  bool clamped = false;     ///< the [0,1] constraint was binding
  bool target_met = false;  ///< max_error <= target_max_error
};

/// Bound-constrained tensor-product least-squares fit at fixed per-axis
/// degrees. The normal-equations matrix is the Kronecker product
/// Gx (x) Gy of the per-axis analytic Grams; when the [0,1] constraint
/// binds, the same active-set descent as the univariate path re-solves
/// the free coefficients over the full Kronecker system.
/// \throws std::invalid_argument on invalid options.
[[nodiscard]] ProjectionResult2 project2_at_degree(
    const std::function<double(double, double)>& f, std::size_t degree_x,
    std::size_t degree_y, const ProjectionOptions2& options = {});

/// Per-axis degree auto-selection: candidate (deg_x, deg_y) pairs are
/// visited in increasing coefficient count (deg_x+1)*(deg_y+1) - the
/// hardware cost of the 2D LUT - returning the first pair meeting
/// target_max_error, or the best fit found when none does.
/// \throws std::invalid_argument on invalid options.
[[nodiscard]] ProjectionResult2 project2(
    const std::function<double(double, double)>& f,
    const ProjectionOptions2& options = {});

/// Controls for the N-ary separable projection: a greedy rank build-up
/// with alternating least squares (ALS) over the per-axis factors. Each
/// factor solve reuses the same bound-constrained normal-equations descent
/// as the dense paths (solve_unit_box), so every factor coefficient stays
/// on the stochastic [0,1] box by construction.
struct ProjectionOptionsN {
  std::size_t degree = 3;     ///< per-axis factor degree (>= 1)
  std::size_t max_terms = 3;  ///< rank budget (sum-of-rank-1 terms)
  /// Term growth stops once the estimated sup-norm error of the fit drops
  /// to or below this.
  double target_max_error = 0.02;
  std::size_t grid_samples = 16;  ///< fit/error grid density per axis
  /// ALS sweep cap after each term addition. Sweeps stop early once the
  /// grid residual stagnates; near-separable targets converge slowly but
  /// each sweep is cheap (the grids are tiny), so the cap is generous.
  std::size_t als_sweeps = 400;

  /// \throws std::invalid_argument on a zero degree, zero term budget,
  ///         too-sparse grid or non-positive target.
  void validate() const;
};

/// Outcome of one separable projection.
struct ProjectionResultN {
  stochastic::SeparableProgram program{
      stochastic::BernsteinPoly{std::vector<double>{0.0}}};
  std::size_t arity = 0;
  std::size_t terms = 0;   ///< rank actually used
  double max_error = 0.0;  ///< sup-norm estimate over the sample grid
  double l2_error = 0.0;   ///< RMS of f - program over the sample grid
  /// Error trajectory: term_errors[t] is the sup-norm estimate with t+1
  /// terms - the terms-versus-accuracy curve benches report.
  std::vector<double> term_errors;
  bool target_met = false;  ///< max_error <= target_max_error
};

/// Greedy sum-of-separable fit of f: [0,1]^arity -> R. Terms are added one
/// at a time; after each addition every term's factors and weight are
/// re-polished by block-coordinate ALS sweeps (each per-axis subproblem is
/// a weighted Bernstein least squares solved onto the unit box, each
/// weight a nonnegative 1-D least squares). Growth stops at
/// target_max_error or the rank budget.
/// The fit runs on the dense grid_samples^arity tensor grid, capped at
/// 2^20 points.
/// \throws std::invalid_argument on invalid options, zero arity or a grid
///         beyond the point cap.
[[nodiscard]] ProjectionResultN project_nd(
    const std::function<double(const std::vector<double>&)>& f,
    std::size_t arity, const ProjectionOptionsN& options = {});

}  // namespace oscs::compile
