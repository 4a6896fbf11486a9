// Tests for the 1D spectral building blocks.
#include "sfem/lgl.h"

#include <gtest/gtest.h>

#include <cmath>

using namespace esamr::sfem;

class LglDegrees : public ::testing::TestWithParam<int> {};

TEST(Lgl, KnownNodesDegree2) {
  const auto b = Basis1d::make(2);
  ASSERT_EQ(b.np, 3);
  EXPECT_NEAR(b.nodes[0], -1.0, 1e-15);
  EXPECT_NEAR(b.nodes[1], 0.0, 1e-15);
  EXPECT_NEAR(b.nodes[2], 1.0, 1e-15);
  // Simpson-like LGL weights 1/3, 4/3, 1/3.
  EXPECT_NEAR(b.weights[0], 1.0 / 3.0, 1e-14);
  EXPECT_NEAR(b.weights[1], 4.0 / 3.0, 1e-14);
}

TEST(Lgl, KnownNodesDegree3) {
  const auto b = Basis1d::make(3);
  EXPECT_NEAR(b.nodes[1], -std::sqrt(1.0 / 5.0), 1e-13);
  EXPECT_NEAR(b.nodes[2], std::sqrt(1.0 / 5.0), 1e-13);
  EXPECT_NEAR(b.weights[0], 1.0 / 6.0, 1e-13);
  EXPECT_NEAR(b.weights[1], 5.0 / 6.0, 1e-13);
}

TEST_P(LglDegrees, NodesSortedSymmetricInUnitInterval) {
  const auto b = Basis1d::make(GetParam());
  for (int i = 0; i < b.np; ++i) {
    EXPECT_NEAR(b.nodes[static_cast<std::size_t>(i)],
                -b.nodes[static_cast<std::size_t>(b.np - 1 - i)], 1e-13);
    if (i > 0) {
      EXPECT_LT(b.nodes[static_cast<std::size_t>(i - 1)], b.nodes[static_cast<std::size_t>(i)]);
    }
  }
  EXPECT_EQ(b.nodes.front(), -1.0);
  EXPECT_EQ(b.nodes.back(), 1.0);
}

TEST_P(LglDegrees, QuadratureExactToDegree2Nm1) {
  const int n = GetParam();
  const auto b = Basis1d::make(n);
  for (int k = 0; k <= 2 * n - 1; ++k) {
    double q = 0.0;
    for (int i = 0; i < b.np; ++i) {
      q += b.weights[static_cast<std::size_t>(i)] * std::pow(b.nodes[static_cast<std::size_t>(i)], k);
    }
    const double exact = (k % 2 == 0) ? 2.0 / (k + 1) : 0.0;
    EXPECT_NEAR(q, exact, 1e-12) << "degree " << n << " moment " << k;
  }
}

TEST_P(LglDegrees, DifferentiationExactForPolynomials) {
  const int n = GetParam();
  const auto b = Basis1d::make(n);
  for (int k = 0; k <= n; ++k) {
    std::vector<double> u(static_cast<std::size_t>(b.np)), du(static_cast<std::size_t>(b.np), 0.0);
    for (int i = 0; i < b.np; ++i) u[static_cast<std::size_t>(i)] = std::pow(b.nodes[static_cast<std::size_t>(i)], k);
    for (int i = 0; i < b.np; ++i) {
      for (int j = 0; j < b.np; ++j) {
        du[static_cast<std::size_t>(i)] += b.diff[static_cast<std::size_t>(i * b.np + j)] * u[static_cast<std::size_t>(j)];
      }
    }
    for (int i = 0; i < b.np; ++i) {
      const double exact = k == 0 ? 0.0 : k * std::pow(b.nodes[static_cast<std::size_t>(i)], k - 1);
      EXPECT_NEAR(du[static_cast<std::size_t>(i)], exact, 1e-10);
    }
  }
}

TEST_P(LglDegrees, HalfIntervalInterpolationExactForPolynomials) {
  const int n = GetParam();
  const auto b = Basis1d::make(n);
  for (int c = 0; c < 2; ++c) {
    for (int k = 0; k <= n; ++k) {
      for (int i = 0; i < b.np; ++i) {
        double v = 0.0;
        for (int j = 0; j < b.np; ++j) {
          v += b.interp_half[c][static_cast<std::size_t>(i * b.np + j)] *
               std::pow(b.nodes[static_cast<std::size_t>(j)], k);
        }
        const double x = 0.5 * b.nodes[static_cast<std::size_t>(i)] + (c == 0 ? -0.5 : 0.5);
        EXPECT_NEAR(v, std::pow(x, k), 1e-11);
      }
    }
  }
}

TEST_P(LglDegrees, ProjectionInvertsInterpolation) {
  // sum_c P_c I_c = identity on the polynomial space.
  const int n = GetParam();
  const auto b = Basis1d::make(n);
  for (int i = 0; i < b.np; ++i) {
    for (int j = 0; j < b.np; ++j) {
      double acc = 0.0;
      for (int c = 0; c < 2; ++c) {
        for (int q = 0; q < b.np; ++q) {
          acc += b.project_half[c][static_cast<std::size_t>(i * b.np + q)] *
                 b.interp_half[c][static_cast<std::size_t>(q * b.np + j)];
        }
      }
      EXPECT_NEAR(acc, i == j ? 1.0 : 0.0, 1e-11);
    }
  }
}

TEST_P(LglDegrees, InterpolationMatrixReproducesNodeValues) {
  const auto b = Basis1d::make(GetParam());
  const auto id = interpolation_matrix(b.nodes, b.nodes);
  for (int i = 0; i < b.np; ++i) {
    for (int j = 0; j < b.np; ++j) {
      EXPECT_EQ(id[static_cast<std::size_t>(i * b.np + j)], i == j ? 1.0 : 0.0);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Degrees, LglDegrees, ::testing::Values(1, 2, 3, 4, 6, 8));
