#ifndef DSPOT_LINALG_SOLVERS_H_
#define DSPOT_LINALG_SOLVERS_H_

#include <span>
#include <vector>

#include "common/status.h"
#include "common/statusor.h"
#include "linalg/matrix.h"

namespace dspot {

/// Direct solvers for the small dense systems that appear in the
/// Levenberg-Marquardt normal equations and the AR least-squares fit.

/// Solves A x = b for symmetric A via LDL^T with diagonal regularization:
/// if a pivot falls below `min_pivot`, it is lifted to `min_pivot`. This is
/// what LM uses, since its damped Hessians can be near-singular.
StatusOr<std::vector<double>> RegularizedLdltSolve(
    const Matrix& a, const std::vector<double>& b, double min_pivot = 1e-12);

/// Scratch storage for RegularizedLdltSolveInto. Reused across solves of the
/// same (or any) size; buffers only grow, so repeated solves of a fixed-size
/// system allocate nothing after the first call.
struct LdltWorkspace {
  Matrix l;
  std::vector<double> d;
  std::vector<double> z;
};

/// RegularizedLdltSolve into caller-owned storage. `x` must have size
/// a.rows(); `ws` provides the factor/scratch buffers. Runs the exact same
/// floating-point sequence as the allocating overload.
Status RegularizedLdltSolveInto(const Matrix& a, std::span<const double> b,
                                std::span<double> x, LdltWorkspace* ws,
                                double min_pivot = 1e-12);

/// Least-squares solution of min ||A x - b||_2 via Householder QR with
/// column norm checks. A must have rows() >= cols(). Returns
/// NumericalError for rank-deficient systems.
StatusOr<std::vector<double>> QrLeastSquares(const Matrix& a,
                                             const std::vector<double>& b);

}  // namespace dspot

#endif  // DSPOT_LINALG_SOLVERS_H_
