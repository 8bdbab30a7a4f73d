// Unit tests for src/linalg: Matrix, vector ops and the dense solvers.

#include <gtest/gtest.h>

#include <cmath>

#include "common/random.h"
#include "linalg/matrix.h"
#include "linalg/solvers.h"
#include "linalg/vector_ops.h"

namespace dspot {
namespace {

// Test-local reference for the SPD tests: the textbook Cholesky
// factorization A = L L^T, independent of the regularized LDL^T that the
// library ships and LM uses.

/// Returns the lower-triangular factor, or NumericalError if A is not
/// (numerically) positive definite.
StatusOr<Matrix> CholeskyFactor(const Matrix& a) {
  if (a.rows() != a.cols()) {
    return Status::InvalidArgument("CholeskyFactor: matrix is not square");
  }
  const size_t n = a.rows();
  Matrix l(n, n);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j <= i; ++j) {
      double sum = a(i, j);
      for (size_t k = 0; k < j; ++k) {
        sum -= l(i, k) * l(j, k);
      }
      if (i == j) {
        if (sum <= 0.0 || !std::isfinite(sum)) {
          return Status::NumericalError(
              "CholeskyFactor: matrix is not positive definite");
        }
        l(i, j) = std::sqrt(sum);
      } else {
        l(i, j) = sum / l(j, j);
      }
    }
  }
  return l;
}

/// Solves A x = b for symmetric positive-definite A: L y = b forward, then
/// L^T x = y backward.
StatusOr<std::vector<double>> CholeskySolve(const Matrix& a,
                                            const std::vector<double>& b) {
  if (a.rows() != b.size()) {
    return Status::InvalidArgument("CholeskySolve: size mismatch");
  }
  DSPOT_ASSIGN_OR_RETURN(Matrix l, CholeskyFactor(a));
  const size_t n = l.rows();
  std::vector<double> y(n);
  for (size_t i = 0; i < n; ++i) {
    double sum = b[i];
    for (size_t j = 0; j < i; ++j) {
      sum -= l(i, j) * y[j];
    }
    y[i] = sum / l(i, i);
  }
  std::vector<double> x(n);
  for (size_t i = n; i-- > 0;) {
    double sum = y[i];
    for (size_t j = i + 1; j < n; ++j) {
      sum -= l(j, i) * x[j];
    }
    x[i] = sum / l(i, i);
  }
  return x;
}

TEST(Matrix, ConstructionAndIndexing) {
  Matrix m(2, 3, 1.5);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_DOUBLE_EQ(m(1, 2), 1.5);
  m(0, 1) = -2.0;
  EXPECT_DOUBLE_EQ(m(0, 1), -2.0);
}

TEST(Matrix, IdentityAndMultiply) {
  Matrix id = Matrix::Identity(3);
  Matrix a = Matrix::FromRows({{1, 2, 3}, {4, 5, 6}, {7, 8, 10}});
  Matrix prod = a * id;
  for (size_t r = 0; r < 3; ++r) {
    for (size_t c = 0; c < 3; ++c) {
      EXPECT_DOUBLE_EQ(prod(r, c), a(r, c));
    }
  }
}

TEST(Matrix, MultiplyKnownResult) {
  Matrix a = Matrix::FromRows({{1, 2}, {3, 4}});
  Matrix b = Matrix::FromRows({{5, 6}, {7, 8}});
  Matrix c = a * b;
  EXPECT_DOUBLE_EQ(c(0, 0), 19.0);
  EXPECT_DOUBLE_EQ(c(0, 1), 22.0);
  EXPECT_DOUBLE_EQ(c(1, 0), 43.0);
  EXPECT_DOUBLE_EQ(c(1, 1), 50.0);
}

TEST(Matrix, MatrixVectorProduct) {
  Matrix a = Matrix::FromRows({{1, 2}, {3, 4}});
  std::vector<double> v = {1.0, -1.0};
  std::vector<double> out = a * v;
  ASSERT_EQ(out.size(), 2u);
  EXPECT_DOUBLE_EQ(out[0], -1.0);
  EXPECT_DOUBLE_EQ(out[1], -1.0);
}

TEST(Matrix, TransposeRoundTrip) {
  Matrix a = Matrix::FromRows({{1, 2, 3}, {4, 5, 6}});
  Matrix t = a.Transposed();
  EXPECT_EQ(t.rows(), 3u);
  EXPECT_EQ(t.cols(), 2u);
  Matrix tt = t.Transposed();
  for (size_t r = 0; r < 2; ++r) {
    for (size_t c = 0; c < 3; ++c) {
      EXPECT_DOUBLE_EQ(tt(r, c), a(r, c));
    }
  }
}

TEST(Matrix, GramMatchesExplicitProduct) {
  Matrix a = Matrix::FromRows({{1, 2}, {3, 4}, {5, 6}});
  Matrix gram = a.Gram();
  Matrix expected = a.Transposed() * a;
  for (size_t r = 0; r < 2; ++r) {
    for (size_t c = 0; c < 2; ++c) {
      EXPECT_NEAR(gram(r, c), expected(r, c), 1e-12);
    }
  }
}

TEST(Matrix, TransposedTimesMatchesExplicit) {
  Matrix a = Matrix::FromRows({{1, 2}, {3, 4}, {5, 6}});
  std::vector<double> v = {1.0, 0.5, -1.0};
  std::vector<double> got = a.TransposedTimes(v);
  std::vector<double> expected = a.Transposed() * v;
  ASSERT_EQ(got.size(), expected.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_NEAR(got[i], expected[i], 1e-12);
  }
}

TEST(Matrix, AddSubScaleDiagonal) {
  Matrix a = Matrix::FromRows({{1, 2}, {3, 4}});
  Matrix b = Matrix::FromRows({{4, 3}, {2, 1}});
  Matrix sum = a + b;
  Matrix diff = a - b;
  EXPECT_DOUBLE_EQ(sum(0, 0), 5.0);
  EXPECT_DOUBLE_EQ(diff(1, 1), 3.0);
  a.Scale(2.0);
  EXPECT_DOUBLE_EQ(a(1, 0), 6.0);
  a.AddToDiagonal(1.0);
  EXPECT_DOUBLE_EQ(a(0, 0), 3.0);
  EXPECT_DOUBLE_EQ(a(1, 1), 9.0);
}

TEST(Matrix, Norms) {
  Matrix a = Matrix::FromRows({{3, 0}, {0, 4}});
  EXPECT_DOUBLE_EQ(a.FrobeniusNorm(), 5.0);
  EXPECT_DOUBLE_EQ(a.MaxAbs(), 4.0);
  EXPECT_DOUBLE_EQ(Matrix().MaxAbs(), 0.0);
}

TEST(VectorOps, DotAndNorms) {
  const std::vector<double> a = {1, 2, 3};
  const std::vector<double> b = {4, -5, 6};
  EXPECT_DOUBLE_EQ(Dot(a, b), 12.0);
  EXPECT_DOUBLE_EQ(Norm2({3, 4}), 5.0);
  EXPECT_DOUBLE_EQ(NormInf(b), 6.0);
  EXPECT_DOUBLE_EQ(SumSquares(a), 14.0);
}

TEST(VectorOps, AddSubScaleAxpy) {
  std::vector<double> a = {1, 2};
  const std::vector<double> b = {3, 4};
  EXPECT_EQ(Add(a, b), (std::vector<double>{4, 6}));
  EXPECT_EQ(Sub(a, b), (std::vector<double>{-2, -2}));
  EXPECT_EQ(Scaled(a, 3.0), (std::vector<double>{3, 6}));
  Axpy(2.0, b, &a);
  EXPECT_EQ(a, (std::vector<double>{7, 10}));
}

TEST(Solvers, CholeskySolvesSpdSystem) {
  Matrix a = Matrix::FromRows({{4, 2}, {2, 3}});
  std::vector<double> x_true = {1.0, -2.0};
  std::vector<double> b = a * x_true;
  auto x = CholeskySolve(a, b);
  ASSERT_TRUE(x.ok()) << x.status().ToString();
  EXPECT_NEAR((*x)[0], 1.0, 1e-10);
  EXPECT_NEAR((*x)[1], -2.0, 1e-10);
}

TEST(Solvers, CholeskyRejectsIndefinite) {
  Matrix a = Matrix::FromRows({{1, 2}, {2, 1}});  // eigenvalues 3, -1
  auto r = CholeskyFactor(a);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNumericalError);
}

TEST(Solvers, CholeskyRejectsNonSquare) {
  Matrix a(2, 3);
  EXPECT_EQ(CholeskyFactor(a).status().code(), StatusCode::kInvalidArgument);
}

TEST(Solvers, RegularizedLdltHandlesSingular) {
  // Rank-1 matrix: plain Cholesky would fail; the regularized solve
  // returns a finite solution.
  Matrix a = Matrix::FromRows({{1, 1}, {1, 1}});
  auto x = RegularizedLdltSolve(a, {1.0, 1.0});
  ASSERT_TRUE(x.ok()) << x.status().ToString();
  EXPECT_TRUE(std::isfinite((*x)[0]));
  EXPECT_TRUE(std::isfinite((*x)[1]));
}

TEST(Solvers, RegularizedLdltMatchesCholeskyOnSpd) {
  Matrix a = Matrix::FromRows({{5, 1, 0}, {1, 4, 1}, {0, 1, 3}});
  std::vector<double> b = {1, 2, 3};
  auto x1 = CholeskySolve(a, b);
  auto x2 = RegularizedLdltSolve(a, b);
  ASSERT_TRUE(x1.ok() && x2.ok());
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_NEAR((*x1)[i], (*x2)[i], 1e-9);
  }
}

TEST(Solvers, QrLeastSquaresExactSystem) {
  Matrix a = Matrix::FromRows({{2, 0}, {0, 3}});
  auto x = QrLeastSquares(a, {4.0, 9.0});
  ASSERT_TRUE(x.ok());
  EXPECT_NEAR((*x)[0], 2.0, 1e-10);
  EXPECT_NEAR((*x)[1], 3.0, 1e-10);
}

TEST(Solvers, QrLeastSquaresOverdetermined) {
  // Fit y = a + b*t through noisy-free collinear points: exact recovery.
  Matrix a = Matrix::FromRows({{1, 0}, {1, 1}, {1, 2}, {1, 3}});
  std::vector<double> b = {1.0, 3.0, 5.0, 7.0};  // y = 1 + 2t
  auto x = QrLeastSquares(a, b);
  ASSERT_TRUE(x.ok());
  EXPECT_NEAR((*x)[0], 1.0, 1e-10);
  EXPECT_NEAR((*x)[1], 2.0, 1e-10);
}

TEST(Solvers, QrRejectsUnderdetermined) {
  Matrix a(1, 2);
  EXPECT_EQ(QrLeastSquares(a, {1.0}).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(Solvers, QrRejectsRankDeficient) {
  Matrix a = Matrix::FromRows({{1, 1}, {2, 2}, {3, 3}});
  EXPECT_EQ(QrLeastSquares(a, {1.0, 2.0, 3.0}).status().code(),
            StatusCode::kNumericalError);
}

/// Property sweep: random SPD systems of several sizes are solved to high
/// accuracy by both Cholesky and the regularized LDLT.
class SpdSolveProperty : public ::testing::TestWithParam<size_t> {};

TEST_P(SpdSolveProperty, RandomSystemsSolveAccurately) {
  const size_t n = GetParam();
  Random rng(1000 + n);
  for (int rep = 0; rep < 5; ++rep) {
    Matrix g(n, n);
    for (size_t r = 0; r < n; ++r) {
      for (size_t c = 0; c < n; ++c) {
        g(r, c) = rng.Gaussian();
      }
    }
    Matrix a = g.Gram();  // SPD (almost surely)
    a.AddToDiagonal(0.5);
    std::vector<double> x_true(n);
    for (double& v : x_true) v = rng.Gaussian();
    std::vector<double> b = a * x_true;
    auto x1 = CholeskySolve(a, b);
    auto x2 = RegularizedLdltSolve(a, b);
    ASSERT_TRUE(x1.ok() && x2.ok());
    EXPECT_LT(Norm2(Sub(*x1, x_true)), 1e-6 * (1.0 + Norm2(x_true)));
    EXPECT_LT(Norm2(Sub(*x2, x_true)), 1e-6 * (1.0 + Norm2(x_true)));
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, SpdSolveProperty,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21));

}  // namespace
}  // namespace dspot
