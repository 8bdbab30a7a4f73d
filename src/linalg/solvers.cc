#include "linalg/solvers.h"

#include <cmath>

namespace dspot {

StatusOr<std::vector<double>> RegularizedLdltSolve(const Matrix& a,
                                                   const std::vector<double>& b,
                                                   double min_pivot) {
  LdltWorkspace ws;
  std::vector<double> x(a.rows());
  DSPOT_RETURN_IF_ERROR(RegularizedLdltSolveInto(a, b, x, &ws, min_pivot));
  return x;
}

Status RegularizedLdltSolveInto(const Matrix& a, std::span<const double> b,
                                std::span<double> x, LdltWorkspace* ws,
                                double min_pivot) {
  if (a.rows() != a.cols()) {
    return Status::InvalidArgument("RegularizedLdltSolve: not square");
  }
  if (a.rows() != b.size() || a.rows() != x.size()) {
    return Status::InvalidArgument("RegularizedLdltSolve: size mismatch");
  }
  const size_t n = a.rows();
  // A = L D L^T with unit lower-triangular L and diagonal D. Only the
  // strictly-lower entries of L are ever read, and every one of them is
  // rewritten below, so the workspace matrix needs no reset between calls.
  Matrix& l = ws->l;
  l.Resize(n, n);
  std::vector<double>& d = ws->d;
  d.resize(n);
  for (size_t j = 0; j < n; ++j) {
    double dj = a(j, j);
    for (size_t k = 0; k < j; ++k) {
      dj -= l(j, k) * l(j, k) * d[k];
    }
    if (!std::isfinite(dj)) {
      return Status::NumericalError("RegularizedLdltSolve: non-finite pivot");
    }
    if (dj < min_pivot) {
      dj = min_pivot;
    }
    d[j] = dj;
    for (size_t i = j + 1; i < n; ++i) {
      double sum = a(i, j);
      for (size_t k = 0; k < j; ++k) {
        sum -= l(i, k) * l(j, k) * d[k];
      }
      l(i, j) = sum / dj;
    }
  }
  // Solve L z = b, D w = z, L^T x = w.
  std::vector<double>& z = ws->z;
  z.resize(n);
  for (size_t i = 0; i < n; ++i) {
    double sum = b[i];
    for (size_t j = 0; j < i; ++j) {
      sum -= l(i, j) * z[j];
    }
    z[i] = sum;
  }
  for (size_t i = 0; i < n; ++i) {
    z[i] /= d[i];
  }
  for (size_t ii = n; ii-- > 0;) {
    double sum = z[ii];
    for (size_t j = ii + 1; j < n; ++j) {
      sum -= l(j, ii) * x[j];
    }
    x[ii] = sum;
  }
  return Status::Ok();
}

StatusOr<std::vector<double>> QrLeastSquares(const Matrix& a,
                                             const std::vector<double>& b) {
  const size_t m = a.rows();
  const size_t n = a.cols();
  if (m < n) {
    return Status::InvalidArgument("QrLeastSquares: underdetermined system");
  }
  if (b.size() != m) {
    return Status::InvalidArgument("QrLeastSquares: size mismatch");
  }
  Matrix r = a;             // Will be transformed in place into R.
  std::vector<double> qtb = b;  // Accumulates Q^T b.
  // Householder QR.
  for (size_t k = 0; k < n; ++k) {
    // Compute the norm of the k-th column below the diagonal.
    double norm = 0.0;
    for (size_t i = k; i < m; ++i) {
      norm += r(i, k) * r(i, k);
    }
    norm = std::sqrt(norm);
    if (norm < 1e-14) {
      return Status::NumericalError("QrLeastSquares: rank-deficient matrix");
    }
    const double alpha = (r(k, k) > 0.0) ? -norm : norm;
    std::vector<double> v(m - k, 0.0);
    v[0] = r(k, k) - alpha;
    for (size_t i = k + 1; i < m; ++i) {
      v[i - k] = r(i, k);
    }
    const double vnorm2 = [&] {
      double s = 0.0;
      for (double x : v) s += x * x;
      return s;
    }();
    if (vnorm2 > 0.0) {
      // Apply H = I - 2 v v^T / (v^T v) to R's trailing block and to qtb.
      for (size_t c = k; c < n; ++c) {
        double dot = 0.0;
        for (size_t i = k; i < m; ++i) {
          dot += v[i - k] * r(i, c);
        }
        const double f = 2.0 * dot / vnorm2;
        for (size_t i = k; i < m; ++i) {
          r(i, c) -= f * v[i - k];
        }
      }
      double dot = 0.0;
      for (size_t i = k; i < m; ++i) {
        dot += v[i - k] * qtb[i];
      }
      const double f = 2.0 * dot / vnorm2;
      for (size_t i = k; i < m; ++i) {
        qtb[i] -= f * v[i - k];
      }
    }
  }
  // Back-substitute R x = (Q^T b)[0..n).
  std::vector<double> x(n);
  for (size_t ii = n; ii-- > 0;) {
    double sum = qtb[ii];
    for (size_t j = ii + 1; j < n; ++j) {
      sum -= r(ii, j) * x[j];
    }
    if (std::fabs(r(ii, ii)) < 1e-14) {
      return Status::NumericalError("QrLeastSquares: singular R");
    }
    x[ii] = sum / r(ii, ii);
  }
  return x;
}

}  // namespace dspot
