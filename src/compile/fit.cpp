#include "compile/fit.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/linalg.hpp"
#include "common/quadrature.hpp"

namespace oscs::compile {

namespace sc = oscs::stochastic;

void ProjectionOptions::validate() const {
  if (min_degree > max_degree) {
    throw std::invalid_argument("ProjectionOptions: min_degree > max_degree");
  }
  if (error_samples < 2) {
    throw std::invalid_argument("ProjectionOptions: need >= 2 error samples");
  }
  if (quadrature_points == 0) {
    throw std::invalid_argument("ProjectionOptions: zero quadrature points");
  }
  if (!(target_max_error > 0.0)) {
    throw std::invalid_argument(
        "ProjectionOptions: target_max_error must be positive");
  }
}

namespace {

enum class BoundState { kFree, kAtLower, kAtUpper };

/// Re-solve the normal equations over the free coefficients only, with the
/// bound-fixed ones folded into the right-hand side. One active-set
/// descent pass: coefficients never leave a bound once pinned, which
/// terminates in at most dim rounds and is exact whenever at most one
/// constraint binds (the common case for well-scaled targets).
std::vector<double> solve_with_bounds(const oscs::Matrix& gram,
                                      const std::vector<double>& rhs,
                                      std::vector<BoundState>& state) {
  const std::size_t dim = rhs.size();
  std::vector<double> coeffs(dim, 0.0);
  for (std::size_t round = 0; round <= dim; ++round) {
    std::vector<std::size_t> free_idx;
    for (std::size_t i = 0; i < dim; ++i) {
      if (state[i] == BoundState::kFree) free_idx.push_back(i);
      coeffs[i] = (state[i] == BoundState::kAtUpper) ? 1.0 : 0.0;
    }
    if (!free_idx.empty()) {
      oscs::Matrix sub(free_idx.size(), free_idx.size());
      std::vector<double> sub_rhs(free_idx.size(), 0.0);
      for (std::size_t a = 0; a < free_idx.size(); ++a) {
        double r = rhs[free_idx[a]];
        for (std::size_t j = 0; j < dim; ++j) {
          if (state[j] == BoundState::kAtUpper) {
            r -= gram(free_idx[a], j);  // fixed value 1.0
          }
        }
        sub_rhs[a] = r;
        for (std::size_t b = 0; b < free_idx.size(); ++b) {
          sub(a, b) = gram(free_idx[a], free_idx[b]);
        }
      }
      const std::vector<double> sub_sol = oscs::cholesky_solve(sub, sub_rhs);
      for (std::size_t a = 0; a < free_idx.size(); ++a) {
        coeffs[free_idx[a]] = sub_sol[a];
      }
    }
    bool violated = false;
    for (std::size_t i = 0; i < dim; ++i) {
      if (state[i] != BoundState::kFree) continue;
      if (coeffs[i] < 0.0) {
        state[i] = BoundState::kAtLower;
        violated = true;
      } else if (coeffs[i] > 1.0) {
        state[i] = BoundState::kAtUpper;
        violated = true;
      }
    }
    if (!violated) break;
  }
  for (std::size_t i = 0; i < dim; ++i) {
    if (state[i] == BoundState::kAtLower) coeffs[i] = 0.0;
    if (state[i] == BoundState::kAtUpper) coeffs[i] = 1.0;
  }
  return coeffs;
}

}  // namespace

std::vector<double> solve_unit_box(const oscs::Matrix& gram,
                                   const std::vector<double>& rhs) {
  if (gram.rows() != rhs.size() || gram.cols() != rhs.size()) {
    throw std::invalid_argument("solve_unit_box: dimension mismatch");
  }
  std::vector<BoundState> state(rhs.size(), BoundState::kFree);
  return solve_with_bounds(gram, rhs, state);
}

ProjectionResult project_at_degree(const std::function<double(double)>& f,
                                   std::size_t degree,
                                   const ProjectionOptions& options) {
  options.validate();
  const oscs::Matrix gram = sc::bernstein_gram(degree);
  const std::vector<double> rhs =
      sc::bernstein_moments(f, degree, options.quadrature_points);

  const std::vector<double> unconstrained = oscs::cholesky_solve(gram, rhs);
  double gap = 0.0;
  for (double b : unconstrained) {
    gap = std::max(gap, std::max(-b, b - 1.0));
  }
  gap = std::max(gap, 0.0);

  ProjectionResult result;
  result.degree = degree;
  result.feasibility_gap = gap;
  result.clamped = gap > 0.0;
  if (!result.clamped) {
    result.poly = sc::BernsteinPoly(unconstrained);
  } else {
    std::vector<BoundState> state(unconstrained.size(), BoundState::kFree);
    result.poly = sc::BernsteinPoly(solve_with_bounds(gram, rhs, state));
  }

  const std::size_t samples = options.error_samples;
  double max_err = 0.0;
  for (std::size_t s = 0; s <= samples; ++s) {
    const double x = static_cast<double>(s) / static_cast<double>(samples);
    max_err = std::max(max_err, std::abs(f(x) - result.poly(x)));
  }
  result.max_error = max_err;
  result.l2_error = std::sqrt(std::max(
      0.0, oscs::integrate_gl(
               [&](double x) {
                 const double e = f(x) - result.poly(x);
                 return e * e;
               },
               0.0, 1.0, options.quadrature_points)));
  result.target_met = result.max_error <= options.target_max_error;
  return result;
}

ProjectionResult project(const std::function<double(double)>& f,
                         const ProjectionOptions& options) {
  options.validate();
  ProjectionResult best;
  bool have_best = false;
  for (std::size_t n = options.min_degree; n <= options.max_degree; ++n) {
    ProjectionResult r = project_at_degree(f, n, options);
    if (r.target_met) return r;
    if (!have_best || r.max_error < best.max_error) {
      best = std::move(r);
      have_best = true;
    }
  }
  return best;
}

void ProjectionOptions2::validate() const {
  if (min_degree_x > max_degree_x || min_degree_y > max_degree_y) {
    throw std::invalid_argument(
        "ProjectionOptions2: min_degree > max_degree on an axis");
  }
  if (error_samples < 2) {
    throw std::invalid_argument("ProjectionOptions2: need >= 2 error samples");
  }
  if (quadrature_points == 0) {
    throw std::invalid_argument("ProjectionOptions2: zero quadrature points");
  }
  if (!(target_max_error > 0.0)) {
    throw std::invalid_argument(
        "ProjectionOptions2: target_max_error must be positive");
  }
}

ProjectionResult2 project2_at_degree(
    const std::function<double(double, double)>& f, std::size_t degree_x,
    std::size_t degree_y, const ProjectionOptions2& options) {
  options.validate();
  const std::size_t rows = degree_x + 1;
  const std::size_t cols = degree_y + 1;
  const std::size_t dim = rows * cols;

  // Kronecker normal equations: G[(i1,j1),(i2,j2)] = Gx(i1,i2) Gy(j1,j2)
  // with the flat row-major coefficient layout BernsteinPoly2 uses. At the
  // hardware degree caps dim stays tiny (<= (kMaxOrder+1)^2), so the dense
  // solve is cheap.
  const oscs::Matrix gram_x = sc::bernstein_gram(degree_x);
  const oscs::Matrix gram_y = sc::bernstein_gram(degree_y);
  oscs::Matrix gram(dim, dim);
  for (std::size_t i1 = 0; i1 < rows; ++i1) {
    for (std::size_t j1 = 0; j1 < cols; ++j1) {
      for (std::size_t i2 = 0; i2 < rows; ++i2) {
        for (std::size_t j2 = 0; j2 < cols; ++j2) {
          gram(i1 * cols + j1, i2 * cols + j2) =
              gram_x(i1, i2) * gram_y(j1, j2);
        }
      }
    }
  }
  const std::vector<double> rhs =
      sc::bernstein_moments2(f, degree_x, degree_y, options.quadrature_points);

  std::vector<double> unconstrained = oscs::cholesky_solve(gram, rhs);
  double gap = 0.0;
  for (double b : unconstrained) {
    gap = std::max(gap, std::max(-b, b - 1.0));
  }
  gap = std::max(gap, 0.0);

  ProjectionResult2 result;
  result.degree_x = degree_x;
  result.degree_y = degree_y;
  result.feasibility_gap = gap;
  // Targets sitting exactly on the box boundary (x*y puts three
  // coefficients at 0 and one at 1) come back with round-off-sized
  // violations; treat those as feasible and clip them exactly instead of
  // reporting a binding constraint.
  constexpr double kGapEps = 1e-10;
  result.clamped = gap > kGapEps;
  if (!result.clamped) {
    for (double& b : unconstrained) {
      b = std::min(1.0, std::max(0.0, b));
    }
    result.poly = sc::BernsteinPoly2(degree_x, degree_y,
                                     std::move(unconstrained));
  } else {
    std::vector<BoundState> state(dim, BoundState::kFree);
    result.poly = sc::BernsteinPoly2(degree_x, degree_y,
                                     solve_with_bounds(gram, rhs, state));
  }

  const std::size_t samples = options.error_samples;
  double max_err = 0.0;
  for (std::size_t sx = 0; sx <= samples; ++sx) {
    const double x = static_cast<double>(sx) / static_cast<double>(samples);
    for (std::size_t sy = 0; sy <= samples; ++sy) {
      const double y = static_cast<double>(sy) / static_cast<double>(samples);
      max_err = std::max(max_err, std::abs(f(x, y) - result.poly(x, y)));
    }
  }
  result.max_error = max_err;
  result.l2_error = std::sqrt(std::max(
      0.0, oscs::integrate_gl(
               [&](double x) {
                 return oscs::integrate_gl(
                     [&](double y) {
                       const double e = f(x, y) - result.poly(x, y);
                       return e * e;
                     },
                     0.0, 1.0, options.quadrature_points);
               },
               0.0, 1.0, options.quadrature_points)));
  result.target_met = result.max_error <= options.target_max_error;
  return result;
}

ProjectionResult2 project2(const std::function<double(double, double)>& f,
                           const ProjectionOptions2& options) {
  options.validate();
  // Candidates ordered by coefficient count (the 2D LUT hardware cost),
  // ties by the smaller total degree then the smaller x degree - so the
  // first target hit is the cheapest representable surface.
  struct Cand {
    std::size_t dx, dy;
  };
  std::vector<Cand> candidates;
  for (std::size_t dx = options.min_degree_x; dx <= options.max_degree_x;
       ++dx) {
    for (std::size_t dy = options.min_degree_y; dy <= options.max_degree_y;
         ++dy) {
      candidates.push_back({dx, dy});
    }
  }
  std::sort(candidates.begin(), candidates.end(),
            [](const Cand& a, const Cand& b) {
              const std::size_t ca = (a.dx + 1) * (a.dy + 1);
              const std::size_t cb = (b.dx + 1) * (b.dy + 1);
              if (ca != cb) return ca < cb;
              if (a.dx + a.dy != b.dx + b.dy) return a.dx + a.dy < b.dx + b.dy;
              return a.dx < b.dx;
            });

  ProjectionResult2 best;
  bool have_best = false;
  for (const Cand& c : candidates) {
    ProjectionResult2 r = project2_at_degree(f, c.dx, c.dy, options);
    if (r.target_met) return r;
    if (!have_best || r.max_error < best.max_error) {
      best = std::move(r);
      have_best = true;
    }
  }
  return best;
}

void ProjectionOptionsN::validate() const {
  if (degree == 0) {
    throw std::invalid_argument(
        "ProjectionOptionsN: factor degree must be >= 1");
  }
  if (max_terms == 0) {
    throw std::invalid_argument("ProjectionOptionsN: zero term budget");
  }
  if (grid_samples < degree + 2) {
    throw std::invalid_argument(
        "ProjectionOptionsN: need more than degree+1 grid samples per axis");
  }
  if (als_sweeps == 0) {
    throw std::invalid_argument("ProjectionOptionsN: zero ALS sweeps");
  }
  if (!(target_max_error > 0.0)) {
    throw std::invalid_argument(
        "ProjectionOptionsN: target_max_error must be positive");
  }
}

namespace {

/// Fit grids past this many points are rejected before anything is
/// allocated: the fit keeps the target, the residual and one contribution
/// per term at every point, and an unchecked samples^arity wraps
/// std::size_t (16 samples over 16 axes wraps to 0).
constexpr std::size_t kMaxFitGridPoints = std::size_t{1} << 20;

/// Working state of one separable term during the ALS fit.
struct AlsTerm {
  double weight = 0.0;
  /// [axis][coefficient], each vector of size degree+1, in [0,1].
  std::vector<std::vector<double>> coeffs;
  /// [axis * samples + node]: factor value at the node, kept in sync with
  /// coeffs.
  std::vector<double> values;
  /// [grid point]: weight times the product of every factor value (in
  /// term_product's axis order), refreshed after each weight update.
  std::vector<double> contrib;
};

/// Recompute one factor's node values from its coefficients; `basis` is
/// the flat samples x dim Bernstein table.
void refresh_values(AlsTerm& term, std::size_t axis,
                    const std::vector<double>& basis, std::size_t samples) {
  const std::vector<double>& coeffs = term.coeffs[axis];
  const std::size_t dim = coeffs.size();
  double* values = term.values.data() + axis * samples;
  for (std::size_t s = 0; s < samples; ++s) {
    const double* row = basis.data() + s * dim;
    double v = 0.0;
    for (std::size_t a = 0; a < dim; ++a) v += coeffs[a] * row[a];
    values[s] = v;
  }
}

/// Product of term factor values at the grid point whose per-axis node
/// indices are `idx[0..arity)`, skipping `skip_axis` (pass arity or larger
/// to include every axis).
double term_product(const AlsTerm& term, const std::uint32_t* idx,
                    std::size_t arity, std::size_t samples,
                    std::size_t skip_axis) {
  double product = 1.0;
  for (std::size_t j = 0; j < arity; ++j) {
    if (j == skip_axis) continue;
    product *= term.values[j * samples + idx[j]];
  }
  return product;
}

/// The dense fit grid every ALS subproblem loops over.
struct FitGrid {
  std::size_t arity = 0;
  std::size_t samples = 0;  ///< nodes per axis
  std::size_t dim = 0;      ///< factor basis size (degree + 1)
  std::size_t points = 0;   ///< samples^arity
  std::vector<double> basis;          ///< [node * dim + a]
  std::vector<std::uint32_t> coords;  ///< [point * arity + axis] -> node
};

/// Normal equations of `term`'s factor on `axis` against `residual`, lower
/// triangle only, into gram (dim x dim) and rhs (dim); returns the sum of
/// the squared point weights p. The per-point order - pb = p * B[a],
/// rhs[a] += r * pb, gram(a, b) += pb * p * B[b] - is the contract the
/// projection goldens pin. A nonzero Dim fixes dim at compile time so the
/// accumulators stay in registers; Dim == 0 accumulates into gram and rhs
/// for any basis size.
template <std::size_t Dim>
double accumulate_factor_as(const AlsTerm& term, std::size_t axis,
                            const FitGrid& fit,
                            const std::vector<double>& residual, double* gram,
                            double* rhs) {
  const std::size_t dim = Dim > 0 ? Dim : fit.dim;
  double fixed_gram[Dim > 0 ? Dim * Dim : 1] = {};
  double fixed_rhs[Dim > 0 ? Dim : 1] = {};
  double* const g_acc = Dim > 0 ? fixed_gram : gram;
  double* const r_acc = Dim > 0 ? fixed_rhs : rhs;
  if constexpr (Dim == 0) {
    std::fill(gram, gram + dim * dim, 0.0);
    std::fill(rhs, rhs + dim, 0.0);
  }
  double p_sq_sum = 0.0;
  for (std::size_t g = 0; g < fit.points; ++g) {
    const std::uint32_t* idx = &fit.coords[g * fit.arity];
    const double p = term.weight *
                     term_product(term, idx, fit.arity, fit.samples, axis);
    if (p == 0.0) continue;
    p_sq_sum += p * p;
    const double r = residual[g];
    const double* row = fit.basis.data() + idx[axis] * dim;
    for (std::size_t a = 0; a < dim; ++a) {
      const double pb = p * row[a];
      r_acc[a] += r * pb;
      for (std::size_t b = 0; b <= a; ++b) {
        g_acc[a * dim + b] += pb * p * row[b];
      }
    }
  }
  if constexpr (Dim > 0) {
    std::copy(fixed_gram, fixed_gram + dim * dim, gram);
    std::copy(fixed_rhs, fixed_rhs + dim, rhs);
  }
  return p_sq_sum;
}

/// Every N-ary registry entry fits degree-3 factors, so a 4-function basis
/// gets the fixed kernel; every other size takes the generic one.
double accumulate_factor(const AlsTerm& term, std::size_t axis,
                         const FitGrid& fit,
                         const std::vector<double>& residual, double* gram,
                         double* rhs) {
  if (fit.dim == 4) {
    return accumulate_factor_as<4>(term, axis, fit, residual, gram, rhs);
  }
  return accumulate_factor_as<0>(term, axis, fit, residual, gram, rhs);
}

}  // namespace

ProjectionResultN project_nd(
    const std::function<double(const std::vector<double>&)>& f,
    std::size_t arity, const ProjectionOptionsN& options) {
  options.validate();
  if (arity == 0) {
    throw std::invalid_argument("project_nd: zero arity");
  }

  FitGrid fit;
  fit.arity = arity;
  fit.samples = options.grid_samples;
  fit.dim = options.degree + 1;
  const std::size_t samples = fit.samples;
  const std::size_t dim = fit.dim;

  // The full tensor grid, flattened axis-0-major. Its size is checked
  // before anything is allocated: samples^arity overflows silently.
  std::size_t grid = 1;
  for (std::size_t j = 0; j < arity; ++j) {
    if (grid > kMaxFitGridPoints / samples) {
      throw std::invalid_argument(
          "project_nd: arity " + std::to_string(arity) + " at grid_samples " +
          std::to_string(samples) + " exceeds the " +
          std::to_string(kMaxFitGridPoints) + "-point fit grid cap");
    }
    grid *= samples;
  }
  fit.points = grid;

  // Shared per-axis machinery: the node grid spans [0,1] endpoints
  // included (the sup-norm estimate needs the boundary), and every axis
  // evaluates the same Bernstein basis table.
  std::vector<double> nodes(samples);
  for (std::size_t s = 0; s < samples; ++s) {
    nodes[s] = static_cast<double>(s) / static_cast<double>(samples - 1);
  }
  fit.basis.resize(samples * dim);
  for (std::size_t s = 0; s < samples; ++s) {
    for (std::size_t a = 0; a < dim; ++a) {
      fit.basis[s * dim + a] =
          sc::bernstein_basis(a, options.degree, nodes[s]);
    }
  }

  // Every grid point's per-axis node indices are decoded once, into
  // fit.coords, alongside the target value.
  fit.coords.resize(grid * arity);
  std::vector<double> target(grid, 0.0);
  {
    std::vector<std::size_t> strides(arity, 1);
    for (std::size_t j = arity; j-- > 1;) {
      strides[j - 1] = strides[j] * samples;
    }
    std::vector<double> point(arity, 0.0);
    for (std::size_t g = 0; g < grid; ++g) {
      for (std::size_t j = 0; j < arity; ++j) {
        const std::size_t s = (g / strides[j]) % samples;
        fit.coords[g * arity + j] = static_cast<std::uint32_t>(s);
        point[j] = nodes[s];
      }
      target[g] = f(point);
    }
  }

  std::vector<AlsTerm> terms;
  // residual[g] = target[g] - sum of the other terms' contributions, the
  // sum taken in term order. One residual serves a term's factor solves
  // and its weight update: only that term changes in between.
  std::vector<double> residual(grid, 0.0);
  const auto residual_excluding = [&](std::size_t skip_term) {
    std::fill(residual.begin(), residual.end(), 0.0);
    for (std::size_t t = 0; t < terms.size(); ++t) {
      if (t == skip_term) continue;
      const std::vector<double>& contrib = terms[t].contrib;
      for (std::size_t g = 0; g < grid; ++g) residual[g] += contrib[g];
    }
    for (std::size_t g = 0; g < grid; ++g) {
      residual[g] = target[g] - residual[g];
    }
  };
  // A term's weight solve: its full factor product at every point (kept
  // for set_weight) and the numerator and denominator of its 1-D least
  // squares against the current residual.
  std::vector<double> products(grid, 0.0);
  const auto weight_moments = [&](const AlsTerm& term) {
    double num = 0.0;
    double den = 0.0;
    for (std::size_t g = 0; g < grid; ++g) {
      const double product =
          term_product(term, &fit.coords[g * arity], arity, samples, arity);
      products[g] = product;
      num += residual[g] * product;
      den += product * product;
    }
    return std::pair<double, double>{num, den};
  };
  const auto set_weight = [&](AlsTerm& term, double weight) {
    term.weight = weight;
    for (std::size_t g = 0; g < grid; ++g) {
      term.contrib[g] = weight * products[g];
    }
  };

  ProjectionResultN result;
  result.arity = arity;
  const auto measure = [&] {
    residual_excluding(terms.size());
    double max_err = 0.0;
    double sq_sum = 0.0;
    for (std::size_t g = 0; g < grid; ++g) {
      const double e = residual[g];
      max_err = std::max(max_err, std::abs(e));
      sq_sum += e * e;
    }
    result.max_error = max_err;
    result.l2_error = std::sqrt(sq_sum / static_cast<double>(grid));
  };

  std::vector<double> gram(dim * dim);
  std::vector<double> rhs(dim);
  for (std::size_t rank = 0; rank < options.max_terms; ++rank) {
    // New term: constant-1/2 factors; the nonnegative weight projection of
    // the current residual onto that constant seeds the magnitude (floored
    // so ALS can pull a mixed-sign residual term out of the corner).
    AlsTerm term;
    term.coeffs.assign(arity, std::vector<double>(dim, 0.5));
    term.values.assign(arity * samples, 0.0);
    term.contrib.assign(grid, 0.0);
    for (std::size_t j = 0; j < arity; ++j) {
      refresh_values(term, j, fit.basis, samples);
    }
    terms.push_back(std::move(term));

    const std::size_t t_new = terms.size() - 1;
    {
      residual_excluding(t_new);
      const auto [num, den] = weight_moments(terms[t_new]);
      set_weight(terms[t_new], std::max(den > 0.0 ? num / den : 0.0, 1e-3));
    }

    // Block-coordinate polish over every term: each factor solve is a
    // weighted Bernstein least squares onto the unit box against the
    // residual excluding its own term, each weight a nonnegative 1-D
    // least squares. Sweeping stops early when the residual stagnates.
    double prev_sq = -1.0;
    for (std::size_t sweep = 0; sweep < options.als_sweeps; ++sweep) {
      for (std::size_t t = 0; t < terms.size(); ++t) {
        AlsTerm& active = terms[t];
        residual_excluding(t);
        for (std::size_t j = 0; j < arity; ++j) {
          const double p_sq_sum = accumulate_factor(
              active, j, fit, residual, gram.data(), rhs.data());
          if (p_sq_sum <= 1e-14) continue;  // dead term; weight stays 0
          double ridge = 0.0;
          for (std::size_t a = 0; a < dim; ++a) {
            ridge = std::max(ridge, gram[a * dim + a]);
          }
          oscs::Matrix normal(dim, dim);
          for (std::size_t a = 0; a < dim; ++a) {
            for (std::size_t b = 0; b <= a; ++b) {
              normal(a, b) = gram[a * dim + b];
              normal(b, a) = gram[a * dim + b];
            }
            // Tiny Tikhonov floor keeps the active-set Cholesky solvable
            // when a factor's mass concentrates on few basis columns.
            normal(a, a) += 1e-12 * (ridge + 1.0);
          }
          active.coeffs[j] = solve_unit_box(normal, rhs);
          refresh_values(active, j, fit.basis, samples);
        }
        const auto [num, den] = weight_moments(active);
        set_weight(active, den > 0.0 ? std::max(0.0, num / den) : 0.0);
      }
      residual_excluding(terms.size());
      double sq = 0.0;
      for (std::size_t g = 0; g < grid; ++g) sq += residual[g] * residual[g];
      if (prev_sq >= 0.0 && prev_sq - sq <= 1e-14 * (1.0 + sq)) break;
      prev_sq = sq;
    }

    // A polished-to-zero weight means the residual has no nonnegative
    // rank-1 component left; further terms cannot improve the fit.
    if (terms.back().weight <= 0.0) {
      terms.pop_back();
      if (terms.empty()) {
        // Nothing fit at all (f <= 0 everywhere on the grid): keep one
        // zero term so the program stays well-formed.
        AlsTerm zero;
        zero.coeffs.assign(arity, std::vector<double>(dim, 0.0));
        zero.values.assign(arity * samples, 0.0);
        zero.contrib.assign(grid, 0.0);
        terms.push_back(std::move(zero));
      }
      measure();
      result.term_errors.push_back(result.max_error);
      break;
    }
    measure();
    result.term_errors.push_back(result.max_error);
    if (result.max_error <= options.target_max_error) break;
  }

  result.terms = terms.size();
  result.target_met = result.max_error <= options.target_max_error;
  std::vector<sc::SeparableTerm> program_terms;
  program_terms.reserve(terms.size());
  for (const AlsTerm& term : terms) {
    sc::SeparableTerm out;
    out.weight = term.weight;
    out.factors.reserve(arity);
    for (std::size_t j = 0; j < arity; ++j) {
      out.factors.push_back(
          sc::SeparableFactor{j, sc::BernsteinPoly(term.coeffs[j])});
    }
    program_terms.push_back(std::move(out));
  }
  result.program = sc::SeparableProgram(arity, std::move(program_terms));
  return result;
}

}  // namespace oscs::compile
