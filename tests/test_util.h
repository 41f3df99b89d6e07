// Shared helpers for the test suite: random matrix construction and
// structural/numeric comparison of the different representations.

#ifndef ATMX_TESTS_TEST_UTIL_H_
#define ATMX_TESTS_TEST_UTIL_H_

#include <gtest/gtest.h>

#include <unistd.h>

#include <cmath>
#include <string>

#include "common/rng.h"
#include "storage/convert.h"
#include "storage/coo_matrix.h"
#include "storage/csr_matrix.h"
#include "storage/dense_matrix.h"
#include "tile/at_matrix.h"

namespace atmx::testing {

// Uniform random COO with `nnz` distinct entries (nnz must be well below
// rows * cols).
inline CooMatrix RandomCoo(index_t rows, index_t cols, index_t nnz,
                           std::uint64_t seed) {
  Rng rng(seed);
  CooMatrix coo(rows, cols);
  coo.Reserve(nnz);
  index_t added = 0;
  // Dedupe via coalescing afterwards would change nnz; use rejection on a
  // generous draw budget instead.
  std::vector<bool> used;
  const bool small = rows * cols <= (1 << 22);
  if (small) used.assign(static_cast<std::size_t>(rows * cols), false);
  while (added < nnz) {
    const index_t r = static_cast<index_t>(rng.NextBounded(rows));
    const index_t c = static_cast<index_t>(rng.NextBounded(cols));
    if (small) {
      const std::size_t key = static_cast<std::size_t>(r * cols + c);
      if (used[key]) continue;
      used[key] = true;
    }
    coo.Add(r, c, rng.NextDouble() * 2.0 - 1.0);
    ++added;
  }
  if (!small) coo.CoalesceDuplicates();
  return coo;
}

inline void ExpectDenseNear(const DenseMatrix& expected,
                            const DenseMatrix& actual, double tol = 1e-9) {
  ASSERT_EQ(expected.rows(), actual.rows());
  ASSERT_EQ(expected.cols(), actual.cols());
  EXPECT_LE(MaxAbsDiff(expected, actual), tol)
      << "dense matrices differ beyond tolerance";
}

inline void ExpectCsrNearDense(const DenseMatrix& expected,
                               const CsrMatrix& actual, double tol = 1e-9) {
  ExpectDenseNear(expected, CsrToDense(actual), tol);
}

inline void ExpectAtmNearDense(const DenseMatrix& expected,
                               const ATMatrix& actual, double tol = 1e-9) {
  ExpectDenseNear(expected, CsrToDense(actual.ToCsr()), tol);
}

// A scratch-file path under ::testing::TempDir() that is unique to the
// running test and process: `ctest -j` runs every test as its own process
// in parallel, so a fixed file name lets tests overwrite each other's
// files mid-read.
inline std::string UniqueTempPath(const std::string& name) {
  const ::testing::TestInfo* info =
      ::testing::UnitTest::GetInstance()->current_test_info();
  std::string prefix = "atmx";
  if (info != nullptr) {
    prefix = std::string(info->test_suite_name()) + "." + info->name();
  }
  return ::testing::TempDir() + "/" + prefix + "." +
         std::to_string(::getpid()) + "." + name;
}

}  // namespace atmx::testing

#endif  // ATMX_TESTS_TEST_UTIL_H_
