#pragma once
/// \file quadrature.hpp
/// \brief 1-D numerical integration: Gauss-Legendre rules (nodes computed
///        at runtime by Newton iteration on Legendre polynomials) and an
///        adaptive Simpson fallback for less smooth integrands.

#include <cstddef>
#include <functional>
#include <vector>

namespace oscs {

/// A quadrature rule on the canonical interval [-1, 1].
struct QuadratureRule {
  std::vector<double> nodes;
  std::vector<double> weights;
};

/// Gauss-Legendre rule with `n` points (exact for polynomials of degree
/// 2n-1). Nodes are the roots of P_n found by Newton iteration from the
/// Chebyshev initial guess; accurate to machine precision for n <= 256.
[[nodiscard]] QuadratureRule gauss_legendre(std::size_t n);

/// Integrate f over [a, b] with an n-point Gauss-Legendre rule. The rule
/// for each n is built once and shared lock-free across threads, so nested
/// (tensor-product) integrals pay the Newton root solve once per n, not
/// once per call.
/// \throws std::invalid_argument when n is 0.
[[nodiscard]] double integrate_gl(const std::function<double(double)>& f,
                                  double a, double b, std::size_t n = 32);

/// Adaptive Simpson integration of f over [a, b] to absolute tolerance
/// `tol`. Depth-limited; suitable for integrands with mild kinks.
[[nodiscard]] double integrate_adaptive(const std::function<double(double)>& f,
                                        double a, double b, double tol = 1e-10,
                                        int max_depth = 40);

}  // namespace oscs
