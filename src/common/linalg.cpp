#include "common/linalg.hpp"

#include <cmath>
#include <stdexcept>
#include <string>

namespace oscs {

namespace {
void check(bool ok, const char* msg) {
  if (!ok) throw std::invalid_argument(msg);
}
}  // namespace

Matrix::Matrix(std::size_t rows, std::size_t cols)
    : rows_(rows), cols_(cols), data_(rows * cols, 0.0) {}

Matrix::Matrix(std::initializer_list<std::initializer_list<double>> rows) {
  rows_ = rows.size();
  cols_ = rows_ == 0 ? 0 : rows.begin()->size();
  data_.reserve(rows_ * cols_);
  for (const auto& row : rows) {
    check(row.size() == cols_, "Matrix: ragged initializer list");
    for (double v : row) data_.push_back(v);
  }
}

Matrix Matrix::identity(std::size_t n) {
  Matrix m(n, n);
  for (std::size_t i = 0; i < n; ++i) m(i, i) = 1.0;
  return m;
}

Matrix Matrix::transposed() const {
  Matrix t(cols_, rows_);
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t c = 0; c < cols_; ++c) t(c, r) = (*this)(r, c);
  }
  return t;
}

Matrix Matrix::operator*(const Matrix& rhs) const {
  check(cols_ == rhs.rows_, "Matrix*Matrix: inner dimensions differ");
  Matrix out(rows_, rhs.cols_);
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t k = 0; k < cols_; ++k) {
      const double a = (*this)(r, k);
      if (a == 0.0) continue;
      for (std::size_t c = 0; c < rhs.cols_; ++c) {
        out(r, c) += a * rhs(k, c);
      }
    }
  }
  return out;
}

std::vector<double> Matrix::operator*(const std::vector<double>& v) const {
  check(cols_ == v.size(), "Matrix*vector: dimension mismatch");
  std::vector<double> out(rows_, 0.0);
  for (std::size_t r = 0; r < rows_; ++r) {
    double s = 0.0;
    for (std::size_t c = 0; c < cols_; ++c) s += (*this)(r, c) * v[c];
    out[r] = s;
  }
  return out;
}

Matrix Matrix::operator+(const Matrix& rhs) const {
  check(rows_ == rhs.rows_ && cols_ == rhs.cols_, "Matrix+: shape mismatch");
  Matrix out(rows_, cols_);
  for (std::size_t i = 0; i < data_.size(); ++i) out.data_[i] = data_[i] + rhs.data_[i];
  return out;
}

Matrix Matrix::operator-(const Matrix& rhs) const {
  check(rows_ == rhs.rows_ && cols_ == rhs.cols_, "Matrix-: shape mismatch");
  Matrix out(rows_, cols_);
  for (std::size_t i = 0; i < data_.size(); ++i) out.data_[i] = data_[i] - rhs.data_[i];
  return out;
}

double Matrix::max_abs_diff(const Matrix& rhs) const {
  check(rows_ == rhs.rows_ && cols_ == rhs.cols_,
        "max_abs_diff: shape mismatch");
  double m = 0.0;
  for (std::size_t i = 0; i < data_.size(); ++i) {
    m = std::max(m, std::fabs(data_[i] - rhs.data_[i]));
  }
  return m;
}

std::vector<double> lu_solve(Matrix a, std::vector<double> b) {
  const std::size_t n = a.rows();
  check(a.cols() == n, "lu_solve: matrix must be square");
  check(b.size() == n, "lu_solve: rhs size mismatch");

  std::vector<std::size_t> perm(n);
  for (std::size_t i = 0; i < n; ++i) perm[i] = i;

  for (std::size_t col = 0; col < n; ++col) {
    // Partial pivot.
    std::size_t pivot = col;
    double best = std::fabs(a(col, col));
    for (std::size_t r = col + 1; r < n; ++r) {
      const double v = std::fabs(a(r, col));
      if (v > best) {
        best = v;
        pivot = r;
      }
    }
    if (best < 1e-300) {
      throw std::runtime_error("lu_solve: matrix is singular at column " +
                               std::to_string(col));
    }
    if (pivot != col) {
      for (std::size_t c = 0; c < n; ++c) std::swap(a(col, c), a(pivot, c));
      std::swap(b[col], b[pivot]);
    }
    // Eliminate below.
    for (std::size_t r = col + 1; r < n; ++r) {
      const double factor = a(r, col) / a(col, col);
      if (factor == 0.0) continue;
      a(r, col) = 0.0;
      for (std::size_t c = col + 1; c < n; ++c) a(r, c) -= factor * a(col, c);
      b[r] -= factor * b[col];
    }
  }
  // Back substitution.
  std::vector<double> x(n, 0.0);
  for (std::size_t ri = n; ri-- > 0;) {
    double s = b[ri];
    for (std::size_t c = ri + 1; c < n; ++c) s -= a(ri, c) * x[c];
    x[ri] = s / a(ri, ri);
  }
  return x;
}

std::vector<double> cholesky_solve(const Matrix& a,
                                   const std::vector<double>& b) {
  const std::size_t n = a.rows();
  check(a.cols() == n, "cholesky_solve: matrix must be square");
  check(b.size() == n, "cholesky_solve: rhs size mismatch");

  // Lower-triangular factor L with A = L L^T.
  Matrix l(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j <= i; ++j) {
      double s = a(i, j);
      for (std::size_t k = 0; k < j; ++k) s -= l(i, k) * l(j, k);
      if (i == j) {
        if (s <= 0.0) {
          throw std::runtime_error("cholesky_solve: matrix not SPD");
        }
        l(i, j) = std::sqrt(s);
      } else {
        l(i, j) = s / l(j, j);
      }
    }
  }
  // Solve L y = b.
  std::vector<double> y(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    double s = b[i];
    for (std::size_t k = 0; k < i; ++k) s -= l(i, k) * y[k];
    y[i] = s / l(i, i);
  }
  // Solve L^T x = y.
  std::vector<double> x(n, 0.0);
  for (std::size_t ii = n; ii-- > 0;) {
    double s = y[ii];
    for (std::size_t k = ii + 1; k < n; ++k) s -= l(k, ii) * x[k];
    x[ii] = s / l(ii, ii);
  }
  return x;
}

std::vector<double> least_squares(const Matrix& a,
                                  const std::vector<double>& b) {
  check(a.rows() >= a.cols(), "least_squares: need rows >= cols");
  check(a.rows() == b.size(), "least_squares: rhs size mismatch");
  const Matrix at = a.transposed();
  const Matrix ata = at * a;
  const std::vector<double> atb = at * b;
  return cholesky_solve(ata, atb);
}

double norm2(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) s += x * x;
  return std::sqrt(s);
}

double dot(const std::vector<double>& a, const std::vector<double>& b) {
  check(a.size() == b.size(), "dot: size mismatch");
  double s = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) s += a[i] * b[i];
  return s;
}

}  // namespace oscs
