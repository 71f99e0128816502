#pragma once
/// \file linalg.hpp
/// \brief Small dense linear algebra: just enough for Bernstein
///        least-squares fits and design-space regressions. Row-major,
///        double precision, bounds-checked in debug builds.

#include <cstddef>
#include <initializer_list>
#include <vector>

namespace oscs {

/// Dense row-major matrix of doubles.
class Matrix {
 public:
  Matrix() = default;
  /// Zero-initialized rows x cols matrix.
  Matrix(std::size_t rows, std::size_t cols);
  /// Build from nested initializer lists; all rows must have equal length.
  Matrix(std::initializer_list<std::initializer_list<double>> rows);

  [[nodiscard]] static Matrix identity(std::size_t n);

  [[nodiscard]] std::size_t rows() const noexcept { return rows_; }
  [[nodiscard]] std::size_t cols() const noexcept { return cols_; }

  // Inline: these sit in the innermost loops of every normal-equations
  // build and solve.
  [[nodiscard]] double& operator()(std::size_t r, std::size_t c) {
    return data_[r * cols_ + c];
  }
  [[nodiscard]] double operator()(std::size_t r, std::size_t c) const {
    return data_[r * cols_ + c];
  }

  [[nodiscard]] Matrix transposed() const;
  [[nodiscard]] Matrix operator*(const Matrix& rhs) const;
  [[nodiscard]] std::vector<double> operator*(const std::vector<double>& v) const;
  [[nodiscard]] Matrix operator+(const Matrix& rhs) const;
  [[nodiscard]] Matrix operator-(const Matrix& rhs) const;

  /// Max absolute element difference; handy for tests.
  [[nodiscard]] double max_abs_diff(const Matrix& rhs) const;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

/// Solve A x = b by LU decomposition with partial pivoting.
/// \throws std::invalid_argument on dimension mismatch,
///         std::runtime_error if A is (numerically) singular.
[[nodiscard]] std::vector<double> lu_solve(Matrix a, std::vector<double> b);

/// Cholesky solve for symmetric positive definite A.
/// \throws std::runtime_error if A is not SPD.
[[nodiscard]] std::vector<double> cholesky_solve(const Matrix& a,
                                                 const std::vector<double>& b);

/// Least-squares solution of min ||A x - b||_2 via the normal equations
/// (A is m x n with m >= n and full column rank).
[[nodiscard]] std::vector<double> least_squares(const Matrix& a,
                                                const std::vector<double>& b);

/// Euclidean norm of a vector.
[[nodiscard]] double norm2(const std::vector<double>& v);

/// Dot product; sizes must match.
[[nodiscard]] double dot(const std::vector<double>& a,
                         const std::vector<double>& b);

}  // namespace oscs
