#include "stochastic/bernstein.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "common/linalg.hpp"
#include "common/math.hpp"
#include "common/quadrature.hpp"

namespace oscs::stochastic {

double bernstein_basis(std::size_t i, std::size_t n, double x) {
  if (i > n) {
    throw std::invalid_argument("bernstein_basis: need i <= n");
  }
  return oscs::binom(static_cast<unsigned>(n), static_cast<unsigned>(i)) *
         std::pow(x, static_cast<double>(i)) *
         std::pow(1.0 - x, static_cast<double>(n - i));
}

BernsteinPoly::BernsteinPoly(std::vector<double> coeffs)
    : coeffs_(std::move(coeffs)) {
  if (coeffs_.empty()) {
    throw std::invalid_argument("BernsteinPoly: need at least one coefficient");
  }
}

double BernsteinPoly::operator()(double x) const {
  // de Casteljau: repeated linear interpolation.
  std::vector<double> w = coeffs_;
  for (std::size_t level = w.size() - 1; level > 0; --level) {
    for (std::size_t i = 0; i < level; ++i) {
      w[i] = (1.0 - x) * w[i] + x * w[i + 1];
    }
  }
  return w[0];
}

bool BernsteinPoly::is_sc_compatible(double tolerance) const noexcept {
  for (double b : coeffs_) {
    if (b < -tolerance || b > 1.0 + tolerance) return false;
  }
  return true;
}

BernsteinPoly BernsteinPoly::from_power(const Polynomial& p) {
  const std::size_t n = p.degree();
  std::vector<double> b(n + 1, 0.0);
  for (std::size_t i = 0; i <= n; ++i) {
    double s = 0.0;
    for (std::size_t k = 0; k <= i; ++k) {
      s += oscs::binom(static_cast<unsigned>(i), static_cast<unsigned>(k)) /
           oscs::binom(static_cast<unsigned>(n), static_cast<unsigned>(k)) *
           p.coeff(k);
    }
    b[i] = s;
  }
  return BernsteinPoly(std::move(b));
}

Polynomial BernsteinPoly::to_power() const {
  // a_k = sum_{i<=k} (-1)^(k-i) C(n,k) C(k,i) b_i
  const std::size_t n = degree();
  std::vector<double> a(n + 1, 0.0);
  for (std::size_t k = 0; k <= n; ++k) {
    double s = 0.0;
    for (std::size_t i = 0; i <= k; ++i) {
      const double sign = ((k - i) % 2 == 0) ? 1.0 : -1.0;
      s += sign *
           oscs::binom(static_cast<unsigned>(k), static_cast<unsigned>(i)) *
           coeffs_[i];
    }
    a[k] = s * oscs::binom(static_cast<unsigned>(n), static_cast<unsigned>(k));
  }
  return Polynomial(std::move(a));
}

BernsteinPoly BernsteinPoly::elevated(std::size_t times) const {
  std::vector<double> b = coeffs_;
  for (std::size_t t = 0; t < times; ++t) {
    const std::size_t n = b.size() - 1;  // current degree
    std::vector<double> up(n + 2, 0.0);
    up[0] = b[0];
    up[n + 1] = b[n];
    for (std::size_t i = 1; i <= n; ++i) {
      const double w = static_cast<double>(i) / static_cast<double>(n + 1);
      up[i] = w * b[i - 1] + (1.0 - w) * b[i];
    }
    b = std::move(up);
  }
  return BernsteinPoly(std::move(b));
}

oscs::Matrix bernstein_gram(std::size_t degree) {
  const std::size_t n = degree;
  const std::size_t dim = n + 1;
  oscs::Matrix gram(dim, dim);
  for (std::size_t i = 0; i < dim; ++i) {
    for (std::size_t j = 0; j < dim; ++j) {
      gram(i, j) =
          oscs::binom(static_cast<unsigned>(n), static_cast<unsigned>(i)) *
          oscs::binom(static_cast<unsigned>(n), static_cast<unsigned>(j)) /
          ((2.0 * static_cast<double>(n) + 1.0) *
           oscs::binom(static_cast<unsigned>(2 * n),
                       static_cast<unsigned>(i + j)));
    }
  }
  return gram;
}

std::vector<double> bernstein_moments(const std::function<double(double)>& f,
                                      std::size_t degree,
                                      std::size_t quad_points) {
  const std::size_t n = degree;
  std::vector<double> rhs(n + 1, 0.0);
  for (std::size_t i = 0; i <= n; ++i) {
    rhs[i] = oscs::integrate_gl(
        [&](double x) { return f(x) * bernstein_basis(i, n, x); }, 0.0, 1.0,
        quad_points);
  }
  return rhs;
}

BernsteinPoly BernsteinPoly::fit(const std::function<double(double)>& f,
                                 std::size_t degree, bool clamp_to_unit) {
  std::vector<double> b = oscs::cholesky_solve(bernstein_gram(degree),
                                               bernstein_moments(f, degree));
  if (clamp_to_unit) {
    for (double& v : b) v = oscs::clamp01(v);
  }
  return BernsteinPoly(std::move(b));
}

double bernstein_basis2(std::size_t i, std::size_t j, std::size_t n,
                        std::size_t m, double x, double y) {
  return bernstein_basis(i, n, x) * bernstein_basis(j, m, y);
}

std::vector<double> bernstein_moments2(
    const std::function<double(double, double)>& f, std::size_t deg_x,
    std::size_t deg_y, std::size_t quad_points) {
  // The nested integral int B_i(x) (int f(x, y) B_j(y) dy) dx on one tensor
  // Gauss-Legendre grid. f runs once per node pair, and each inner
  // y-integral once per (j, x-node), shared by every row i. Nodes, products
  // and sums follow integrate_gl's order exactly, so every moment is
  // bit-identical to nesting two integrate_gl calls.
  const oscs::QuadratureRule rule = oscs::gauss_legendre(quad_points);
  const std::size_t q = quad_points;
  const double mid = 0.5;   // integrate_gl's (a + b) / 2 on [0, 1]
  const double half = 0.5;  // integrate_gl's (b - a) / 2 on [0, 1]
  std::vector<double> nodes(q);
  for (std::size_t p = 0; p < q; ++p) nodes[p] = mid + half * rule.nodes[p];
  std::vector<double> values(q * q);  // f(x_p, y_r) at p * q + r
  for (std::size_t p = 0; p < q; ++p) {
    for (std::size_t r = 0; r < q; ++r) {
      values[p * q + r] = f(nodes[p], nodes[r]);
    }
  }
  const std::size_t cols = deg_y + 1;
  std::vector<double> inner(cols * q);  // y-integral for (j, x_p)
  std::vector<double> basis(q);
  for (std::size_t j = 0; j < cols; ++j) {
    for (std::size_t r = 0; r < q; ++r) {
      basis[r] = bernstein_basis(j, deg_y, nodes[r]);
    }
    for (std::size_t p = 0; p < q; ++p) {
      double sum = 0.0;
      for (std::size_t r = 0; r < q; ++r) {
        sum += rule.weights[r] * (values[p * q + r] * basis[r]);
      }
      inner[j * q + p] = half * sum;
    }
  }
  std::vector<double> rhs((deg_x + 1) * cols, 0.0);
  for (std::size_t i = 0; i <= deg_x; ++i) {
    for (std::size_t p = 0; p < q; ++p) {
      basis[p] = bernstein_basis(i, deg_x, nodes[p]);
    }
    for (std::size_t j = 0; j < cols; ++j) {
      double sum = 0.0;
      for (std::size_t p = 0; p < q; ++p) {
        sum += rule.weights[p] * (basis[p] * inner[j * q + p]);
      }
      rhs[i * cols + j] = half * sum;
    }
  }
  return rhs;
}

BernsteinPoly2::BernsteinPoly2(std::size_t deg_x, std::size_t deg_y,
                               std::vector<double> coeffs)
    : deg_x_(deg_x), deg_y_(deg_y), coeffs_(std::move(coeffs)) {
  if (coeffs_.size() != (deg_x_ + 1) * (deg_y_ + 1)) {
    throw std::invalid_argument(
        "BernsteinPoly2: need (deg_x+1)*(deg_y+1) coefficients");
  }
}

BernsteinPoly2::BernsteinPoly2(const std::vector<std::vector<double>>& grid) {
  if (grid.empty() || grid.front().empty()) {
    throw std::invalid_argument("BernsteinPoly2: empty coefficient grid");
  }
  deg_x_ = grid.size() - 1;
  deg_y_ = grid.front().size() - 1;
  coeffs_.reserve((deg_x_ + 1) * (deg_y_ + 1));
  for (const std::vector<double>& row : grid) {
    if (row.size() != deg_y_ + 1) {
      throw std::invalid_argument("BernsteinPoly2: ragged coefficient grid");
    }
    coeffs_.insert(coeffs_.end(), row.begin(), row.end());
  }
}

double BernsteinPoly2::operator()(double x, double y) const {
  // Collapse the y axis in every row by de Casteljau, then collapse the
  // resulting control values along x.
  std::vector<double> rows(deg_x_ + 1, 0.0);
  std::vector<double> w(deg_y_ + 1, 0.0);
  for (std::size_t i = 0; i <= deg_x_; ++i) {
    const double* row = coeffs_.data() + i * (deg_y_ + 1);
    std::copy(row, row + deg_y_ + 1, w.begin());
    for (std::size_t level = deg_y_; level > 0; --level) {
      for (std::size_t j = 0; j < level; ++j) {
        w[j] = (1.0 - y) * w[j] + y * w[j + 1];
      }
    }
    rows[i] = w[0];
  }
  for (std::size_t level = deg_x_; level > 0; --level) {
    for (std::size_t i = 0; i < level; ++i) {
      rows[i] = (1.0 - x) * rows[i] + x * rows[i + 1];
    }
  }
  return rows[0];
}

bool BernsteinPoly2::is_sc_compatible(double tolerance) const noexcept {
  for (double c : coeffs_) {
    if (c < -tolerance || c > 1.0 + tolerance) return false;
  }
  return true;
}

BernsteinPoly2 BernsteinPoly2::transposed() const {
  std::vector<double> t((deg_x_ + 1) * (deg_y_ + 1), 0.0);
  for (std::size_t i = 0; i <= deg_x_; ++i) {
    for (std::size_t j = 0; j <= deg_y_; ++j) {
      t[j * (deg_x_ + 1) + i] = coeffs_[i * (deg_y_ + 1) + j];
    }
  }
  return BernsteinPoly2(deg_y_, deg_x_, std::move(t));
}

BernsteinPoly2 BernsteinPoly2::elevated(std::size_t times_x,
                                        std::size_t times_y) const {
  // Elevate along y (each row is a univariate Bernstein polynomial in y),
  // then along x through a transpose round trip - both value-preserving.
  std::size_t ny = deg_y_;
  std::vector<double> c = coeffs_;
  if (times_y > 0) {
    std::vector<double> out((deg_x_ + 1) * (ny + times_y + 1), 0.0);
    for (std::size_t i = 0; i <= deg_x_; ++i) {
      const BernsteinPoly row(std::vector<double>(
          c.begin() + static_cast<std::ptrdiff_t>(i * (ny + 1)),
          c.begin() + static_cast<std::ptrdiff_t>((i + 1) * (ny + 1))));
      const std::vector<double> up = row.elevated(times_y).coeffs();
      std::copy(up.begin(), up.end(),
                out.begin() + static_cast<std::ptrdiff_t>(
                                  i * (ny + times_y + 1)));
    }
    ny += times_y;
    c = std::move(out);
  }
  BernsteinPoly2 grown(deg_x_, ny, std::move(c));
  if (times_x == 0) return grown;
  // The transpose swaps the axes, so the x elevation runs through the
  // row-wise y path above.
  return grown.transposed().elevated(0, times_x).transposed();
}

}  // namespace oscs::stochastic
