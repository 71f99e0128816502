/// Property-based suite for the Bernstein machinery, univariate and
/// tensor-product alike: partition of unity, endpoint interpolation,
/// degree-elevation invariance and the transpose symmetry
/// B(x, y) == B^T(y, x), all fuzzed over random coefficient grids with a
/// seeded (fully reproducible) RNG. Suites are named Bivariate* so ctest
/// can run the whole tensor-product surface in isolation
/// (-L bivariate).

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "stochastic/bernstein.hpp"

namespace oscs::stochastic {
namespace {

/// One fuzz configuration: everything derives from the seed.
struct Fuzz {
  std::uint64_t seed;
};

/// Random degree in [0, max_degree] and coefficients in [0, 1].
class BivariateBernsteinPropertyTest : public ::testing::TestWithParam<Fuzz> {
 protected:
  oscs::Xoshiro256 rng_{GetParam().seed};

  std::size_t random_degree(std::size_t max_degree) {
    return static_cast<std::size_t>(rng_() % (max_degree + 1));
  }

  BernsteinPoly2 random_surface(std::size_t max_degree = 5) {
    const std::size_t n = random_degree(max_degree);
    const std::size_t m = random_degree(max_degree);
    std::vector<double> coeffs((n + 1) * (m + 1), 0.0);
    for (double& c : coeffs) c = rng_.uniform01();
    return BernsteinPoly2(n, m, std::move(coeffs));
  }

  BernsteinPoly random_poly(std::size_t max_degree = 6) {
    const std::size_t n = random_degree(max_degree);
    std::vector<double> coeffs(n + 1, 0.0);
    for (double& c : coeffs) c = rng_.uniform01();
    return BernsteinPoly(std::move(coeffs));
  }

  double random_unit() { return rng_.uniform01(); }
};

TEST_P(BivariateBernsteinPropertyTest, PartitionOfUnity2D) {
  // sum_{i,j} B_{i,j}^{n,m}(x, y) == 1 everywhere on the unit square.
  for (int trial = 0; trial < 8; ++trial) {
    const std::size_t n = random_degree(6);
    const std::size_t m = random_degree(6);
    const double x = random_unit();
    const double y = random_unit();
    double sum = 0.0;
    for (std::size_t i = 0; i <= n; ++i) {
      for (std::size_t j = 0; j <= m; ++j) {
        sum += bernstein_basis2(i, j, n, m, x, y);
      }
    }
    EXPECT_NEAR(sum, 1.0, 1e-12) << "n=" << n << " m=" << m << " x=" << x
                                 << " y=" << y;
  }
}

TEST_P(BivariateBernsteinPropertyTest, PartitionOfUnity1D) {
  for (int trial = 0; trial < 8; ++trial) {
    const std::size_t n = random_degree(8);
    const double x = random_unit();
    double sum = 0.0;
    for (std::size_t i = 0; i <= n; ++i) sum += bernstein_basis(i, n, x);
    EXPECT_NEAR(sum, 1.0, 1e-12) << "n=" << n << " x=" << x;
  }
}

TEST_P(BivariateBernsteinPropertyTest, EndpointInterpolation2D) {
  // The four corners of the unit square interpolate the corner
  // coefficients exactly.
  const BernsteinPoly2 poly = random_surface();
  const std::size_t n = poly.deg_x();
  const std::size_t m = poly.deg_y();
  EXPECT_NEAR(poly(0.0, 0.0), poly.coeff(0, 0), 1e-12);
  EXPECT_NEAR(poly(0.0, 1.0), poly.coeff(0, m), 1e-12);
  EXPECT_NEAR(poly(1.0, 0.0), poly.coeff(n, 0), 1e-12);
  EXPECT_NEAR(poly(1.0, 1.0), poly.coeff(n, m), 1e-12);
}

TEST_P(BivariateBernsteinPropertyTest, EndpointInterpolation1D) {
  const BernsteinPoly poly = random_poly();
  EXPECT_NEAR(poly(0.0), poly.coeffs().front(), 1e-12);
  EXPECT_NEAR(poly(1.0), poly.coeffs().back(), 1e-12);
}

TEST_P(BivariateBernsteinPropertyTest, EdgeRestrictionIsUnivariate) {
  // Along y = 0 the surface collapses to the univariate polynomial of the
  // first coefficient column, and along y = 1 to the last.
  const BernsteinPoly2 poly = random_surface();
  std::vector<double> first_col;
  std::vector<double> last_col;
  for (std::size_t i = 0; i <= poly.deg_x(); ++i) {
    first_col.push_back(poly.coeff(i, 0));
    last_col.push_back(poly.coeff(i, poly.deg_y()));
  }
  const BernsteinPoly lo(first_col);
  const BernsteinPoly hi(last_col);
  for (int trial = 0; trial < 8; ++trial) {
    const double x = random_unit();
    EXPECT_NEAR(poly(x, 0.0), lo(x), 1e-12);
    EXPECT_NEAR(poly(x, 1.0), hi(x), 1e-12);
  }
}

TEST_P(BivariateBernsteinPropertyTest, DegreeElevationInvariance2D) {
  const BernsteinPoly2 poly = random_surface(4);
  const std::size_t tx = 1 + static_cast<std::size_t>(rng_() % 3);
  const std::size_t ty = 1 + static_cast<std::size_t>(rng_() % 3);
  const BernsteinPoly2 up = poly.elevated(tx, ty);
  EXPECT_EQ(up.deg_x(), poly.deg_x() + tx);
  EXPECT_EQ(up.deg_y(), poly.deg_y() + ty);
  for (int trial = 0; trial < 16; ++trial) {
    const double x = random_unit();
    const double y = random_unit();
    EXPECT_NEAR(up(x, y), poly(x, y), 1e-12)
        << "x=" << x << " y=" << y << " tx=" << tx << " ty=" << ty;
  }
}

TEST_P(BivariateBernsteinPropertyTest, DegreeElevationPreservesUnitBox) {
  // Elevation is a convex combination of neighbours: SC compatibility
  // survives any number of elevation steps.
  const BernsteinPoly2 poly = random_surface(4);
  EXPECT_TRUE(poly.is_sc_compatible(1e-12));
  EXPECT_TRUE(poly.elevated(2, 3).is_sc_compatible(1e-12));
}

TEST_P(BivariateBernsteinPropertyTest, TransposeSymmetry) {
  // B(x, y) == B^T(y, x), and transposing twice is the identity.
  const BernsteinPoly2 poly = random_surface();
  const BernsteinPoly2 t = poly.transposed();
  EXPECT_EQ(t.deg_x(), poly.deg_y());
  EXPECT_EQ(t.deg_y(), poly.deg_x());
  for (int trial = 0; trial < 16; ++trial) {
    const double x = random_unit();
    const double y = random_unit();
    EXPECT_NEAR(poly(x, y), t(y, x), 1e-12) << "x=" << x << " y=" << y;
  }
  const BernsteinPoly2 round_trip = t.transposed();
  EXPECT_EQ(round_trip.coeffs(), poly.coeffs());
}

TEST_P(BivariateBernsteinPropertyTest, EvaluationMatchesBasisExpansion) {
  // de Casteljau agrees with the explicit sum over bernstein_basis2.
  const BernsteinPoly2 poly = random_surface(4);
  for (int trial = 0; trial < 8; ++trial) {
    const double x = random_unit();
    const double y = random_unit();
    double sum = 0.0;
    for (std::size_t i = 0; i <= poly.deg_x(); ++i) {
      for (std::size_t j = 0; j <= poly.deg_y(); ++j) {
        sum += poly.coeff(i, j) *
               bernstein_basis2(i, j, poly.deg_x(), poly.deg_y(), x, y);
      }
    }
    EXPECT_NEAR(poly(x, y), sum, 1e-11) << "x=" << x << " y=" << y;
  }
}

INSTANTIATE_TEST_SUITE_P(
    FuzzSeeds, BivariateBernsteinPropertyTest,
    ::testing::Values(Fuzz{1}, Fuzz{2}, Fuzz{3}, Fuzz{0xBEEF}, Fuzz{0xC0FFEE},
                      Fuzz{0xDA7E2019}, Fuzz{42}, Fuzz{0x5EED5EED}),
    [](const auto& info) { return "seed" + std::to_string(info.index); });

}  // namespace
}  // namespace oscs::stochastic
