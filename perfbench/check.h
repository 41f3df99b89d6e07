// Result checks for the benchmark. Every timed result is compared, outside
// the timed interval, with a reference computed by the plain Gustavson
// kernel (SpGemmCsr) on the same inputs, or, for a chain, with the plain
// sequential evaluation of the same plan.
//
// The check demands the reference's exact non-zero pattern and every value
// within a relative tolerance. Values may not be bitwise equal: tiled and
// monolithic kernels sum a C element's products in different orders, and
// the SIMD dot reductions are only ULP-bounded (docs/KERNELS.md,
// "Floating-point reproducibility contract"). The benchmark's inputs have
// only positive values, so no sum cancels and the pattern is exact.

#ifndef ATMX_PERFBENCH_CHECK_H_
#define ATMX_PERFBENCH_CHECK_H_

#include <string>

#include "storage/csr_matrix.h"
#include "storage/dense_matrix.h"
#include "tile/at_matrix.h"

namespace atmx::perfbench {

// The tolerance the library's own tests use for ATMULT against the plain
// kernels (tests/test_atmult.cc), taken relative to the value's magnitude.
inline constexpr double kValueRelTol = 1e-9;

// Each returns "" when `got` matches `want`, else a one-line description of
// the first difference found.
std::string CompareResult(const CsrMatrix& want, const ATMatrix& got);
std::string CompareResult(const CsrMatrix& want, const CsrMatrix& got);
std::string CompareResult(const CsrMatrix& want, const DenseMatrix& got);

}  // namespace atmx::perfbench

#endif  // ATMX_PERFBENCH_CHECK_H_
