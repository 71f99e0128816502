#pragma once
/// \file bernstein.hpp
/// \brief Bernstein polynomial machinery (paper Eq. 1): basis evaluation,
///        stable de Casteljau evaluation, power-basis conversion both
///        ways, degree elevation, and constrained least-squares fitting of
///        arbitrary functions - the step that turns an application kernel
///        (e.g. gamma correction) into SC-compatible coefficients in [0,1].

#include <cstddef>
#include <functional>
#include <vector>

#include "common/linalg.hpp"
#include "stochastic/polynomial.hpp"

namespace oscs::stochastic {

/// Bernstein basis polynomial B_{i,n}(x) = C(n,i) x^i (1-x)^(n-i).
[[nodiscard]] double bernstein_basis(std::size_t i, std::size_t n, double x);

/// Tensor-product Bernstein basis B_{i,j}^{n,m}(x, y) =
/// B_{i,n}(x) B_{j,m}(y) - the multi-input ReSC generalization's basis.
[[nodiscard]] double bernstein_basis2(std::size_t i, std::size_t j,
                                      std::size_t n, std::size_t m, double x,
                                      double y);

/// Analytic Gram matrix of the degree-n Bernstein basis on [0,1]:
/// G_ij = integral of B_{i,n} B_{j,n} = C(n,i)C(n,j) / ((2n+1) C(2n,i+j)).
/// Symmetric positive definite; the normal-equations matrix of every
/// continuous L2 Bernstein fit.
[[nodiscard]] oscs::Matrix bernstein_gram(std::size_t degree);

/// L2 moments <f, B_{i,n}> on [0,1], i = 0..n, by Gauss-Legendre
/// quadrature with `quad_points` nodes - the right-hand side of the
/// normal equations.
[[nodiscard]] std::vector<double> bernstein_moments(
    const std::function<double(double)>& f, std::size_t degree,
    std::size_t quad_points = 64);

/// Polynomial in Bernstein form: B(x) = sum_i b_i B_{i,n}(x).
class BernsteinPoly {
 public:
  /// Coefficients b_0..b_n (degree = size - 1; must be nonempty).
  explicit BernsteinPoly(std::vector<double> coeffs);

  [[nodiscard]] std::size_t degree() const noexcept {
    return coeffs_.size() - 1;
  }
  [[nodiscard]] const std::vector<double>& coeffs() const noexcept {
    return coeffs_;
  }

  /// Numerically stable de Casteljau evaluation.
  [[nodiscard]] double operator()(double x) const;

  /// True iff every coefficient lies in [0, 1] - the condition for direct
  /// stochastic implementation (coefficients become SNG probabilities).
  [[nodiscard]] bool is_sc_compatible(double tolerance = 0.0) const noexcept;

  /// Exact conversion from power form; the Bernstein degree equals the
  /// power degree. b_i = sum_{k<=i} C(i,k)/C(n,k) a_k.
  [[nodiscard]] static BernsteinPoly from_power(const Polynomial& p);

  /// Exact conversion to power form.
  [[nodiscard]] Polynomial to_power() const;

  /// Degree-elevated copy (value-preserving), degree + `times`.
  [[nodiscard]] BernsteinPoly elevated(std::size_t times = 1) const;

  /// Least-squares fit of f on [0,1] at the given degree, minimizing the
  /// continuous L2 error via the analytic Gram matrix
  /// G_ij = C(n,i)C(n,j) / ((2n+1) C(2n,i+j)).
  /// If `clamp_to_unit` is set, coefficients are clamped into [0,1]
  /// afterwards (the usual SC practice; exact for functions with range
  /// inside [0,1] and monotone Bernstein representations).
  [[nodiscard]] static BernsteinPoly fit(
      const std::function<double(double)>& f, std::size_t degree,
      bool clamp_to_unit = true);

 private:
  std::vector<double> coeffs_;
};

/// L2 moments <f, B_{i,j}^{n,m}> on the unit square, flat row-major
/// (index i * (deg_y + 1) + j), by a tensor Gauss-Legendre rule with
/// `quad_points` nodes per axis - the right-hand side of the
/// tensor-product normal equations.
[[nodiscard]] std::vector<double> bernstein_moments2(
    const std::function<double(double, double)>& f, std::size_t deg_x,
    std::size_t deg_y, std::size_t quad_points = 32);

/// Bivariate polynomial in tensor-product Bernstein form:
///   B(x, y) = sum_{i,j} c_{i,j} B_{i,n}(x) B_{j,m}(y)
/// with the coefficient grid stored flat row-major (x-major):
/// coeffs[i * (m+1) + j] = c_{i,j}. Degree 0 is legal on either axis
/// (the grid degenerates to a univariate coefficient vector).
class BernsteinPoly2 {
 public:
  /// Flat row-major coefficients; coeffs.size() must be
  /// (deg_x + 1) * (deg_y + 1).
  /// \throws std::invalid_argument on a size mismatch.
  BernsteinPoly2(std::size_t deg_x, std::size_t deg_y,
                 std::vector<double> coeffs);

  /// Build from a nested grid: grid[i][j] = c_{i,j}. All rows must be
  /// nonempty and equal length.
  /// \throws std::invalid_argument on an empty or ragged grid.
  explicit BernsteinPoly2(const std::vector<std::vector<double>>& grid);

  [[nodiscard]] std::size_t deg_x() const noexcept { return deg_x_; }
  [[nodiscard]] std::size_t deg_y() const noexcept { return deg_y_; }
  /// Flat row-major coefficient grid.
  [[nodiscard]] const std::vector<double>& coeffs() const noexcept {
    return coeffs_;
  }
  [[nodiscard]] double coeff(std::size_t i, std::size_t j) const {
    return coeffs_.at(i * (deg_y_ + 1) + j);
  }

  /// Numerically stable evaluation: de Casteljau along y in every row,
  /// then de Casteljau along x over the collapsed values.
  [[nodiscard]] double operator()(double x, double y) const;

  /// True iff every coefficient lies in [0, 1] - the condition for direct
  /// stochastic implementation (coefficients become SNG probabilities).
  [[nodiscard]] bool is_sc_compatible(double tolerance = 0.0) const noexcept;

  /// The transposed surface: T(y, x) == B(x, y), with the coefficient
  /// grid transposed accordingly.
  [[nodiscard]] BernsteinPoly2 transposed() const;

  /// Degree-elevated copy (value-preserving): deg_x + times_x on the x
  /// axis, deg_y + times_y on the y axis.
  [[nodiscard]] BernsteinPoly2 elevated(std::size_t times_x,
                                        std::size_t times_y) const;

 private:
  std::size_t deg_x_ = 0;
  std::size_t deg_y_ = 0;
  std::vector<double> coeffs_;  ///< row-major (deg_x+1) x (deg_y+1)
};

}  // namespace oscs::stochastic
