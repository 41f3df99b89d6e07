#include "check.h"

#include <cmath>
#include <cstdio>
#include <span>
#include <vector>

namespace atmx::perfbench {
namespace {

// Walks `got` row segment by row segment against the reference. Segments
// must not overlap; together they must cover every reference non-zero,
// which Finish() verifies by count.
class Comparison {
 public:
  explicit Comparison(const CsrMatrix& want) : want_(want) {}

  // Row `row` of a sparse block whose column 0 is matrix column c0: `cols`
  // (ascending, block-relative) and `vals` are its non-zeros, `width` its
  // column count.
  void SparseRow(index_t row, index_t c0, index_t width,
                 std::span<const index_t> cols,
                 std::span<const value_t> vals) {
    if (!error_.empty()) return;
    index_t w = 0;
    index_t last = 0;
    Range(row, c0, width, &w, &last);
    const std::vector<index_t>& wc = want_.col_idx();
    const std::vector<value_t>& wv = want_.values();
    for (std::size_t g = 0; g < cols.size(); ++g, ++w) {
      const index_t col = c0 + cols[g];
      if (w < last && wc[w] < col) {
        return Fail("missing", row, wc[w], wv[w], 0);
      }
      if (w == last || col < wc[w]) {
        return Fail("extra", row, col, 0, vals[g]);
      }
      if (!Near(vals[g], wv[w])) {
        return Fail("value", row, col, wv[w], vals[g]);
      }
    }
    if (w < last) Fail("missing", row, wc[w], wv[w], 0);
  }

  // Row `row` of a dense block of `width` columns starting at column c0.
  void DenseRow(index_t row, index_t c0, index_t width, const value_t* vals) {
    if (!error_.empty()) return;
    index_t w = 0;
    index_t last = 0;
    Range(row, c0, width, &w, &last);
    const std::vector<index_t>& wc = want_.col_idx();
    const std::vector<value_t>& wv = want_.values();
    for (index_t j = 0; j < width; ++j) {
      if (w < last && wc[w] == c0 + j) {
        if (!Near(vals[j], wv[w])) {
          return Fail("value", row, c0 + j, wv[w], vals[j]);
        }
        ++w;
      } else if (vals[j] != 0.0) {
        return Fail("extra", row, c0 + j, 0, vals[j]);
      }
    }
  }

  void FailShape(const char* what) {
    if (error_.empty()) error_ = what;
  }

  std::string Finish() {
    if (error_.empty() && covered_ != want_.nnz()) {
      error_ = "result covers " + std::to_string(covered_) + " of " +
               std::to_string(want_.nnz()) + " reference non-zeros";
    }
    return error_;
  }

 private:
  // Positions of the reference's non-zeros in row `row`, columns
  // [c0, c0 + width); counts them as covered.
  void Range(index_t row, index_t c0, index_t width, index_t* first,
             index_t* last) {
    want_.RowColRange(row, c0, c0 + width, first, last);
    covered_ += *last - *first;
  }

  static bool Near(double got, double want) {
    return std::abs(got - want) <= kValueRelTol * std::abs(want);
  }

  void Fail(const char* what, index_t row, index_t col, double want,
            double got) {
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "%s entry at (%lld, %lld): want %.17g, got %.17g", what,
                  static_cast<long long>(row), static_cast<long long>(col),
                  want, got);
    error_ = buf;
  }

  const CsrMatrix& want_;
  index_t covered_ = 0;
  std::string error_;
};

bool SameShape(const CsrMatrix& want, index_t rows, index_t cols) {
  return want.rows() == rows && want.cols() == cols;
}

}  // namespace

std::string CompareResult(const CsrMatrix& want, const ATMatrix& got) {
  if (!SameShape(want, got.rows(), got.cols())) return "shape differs";
  Comparison cmp(want);
  for (const Tile& t : got.tiles()) {
    if (t.row0() < 0 || t.col0() < 0 || t.row_end() > got.rows() ||
        t.col_end() > got.cols()) {
      cmp.FailShape("tile outside the matrix");
      break;
    }
    for (index_t i = 0; i < t.rows(); ++i) {
      if (t.is_dense()) {
        cmp.DenseRow(t.row0() + i, t.col0(), t.cols(),
                     t.dense().data() + i * t.dense().ld());
      } else {
        cmp.SparseRow(t.row0() + i, t.col0(), t.cols(),
                      t.sparse().RowCols(i), t.sparse().RowValues(i));
      }
    }
  }
  return cmp.Finish();
}

std::string CompareResult(const CsrMatrix& want, const CsrMatrix& got) {
  if (!SameShape(want, got.rows(), got.cols())) return "shape differs";
  Comparison cmp(want);
  for (index_t i = 0; i < got.rows(); ++i) {
    cmp.SparseRow(i, 0, got.cols(), got.RowCols(i), got.RowValues(i));
  }
  return cmp.Finish();
}

std::string CompareResult(const CsrMatrix& want, const DenseMatrix& got) {
  if (!SameShape(want, got.rows(), got.cols())) return "shape differs";
  Comparison cmp(want);
  for (index_t i = 0; i < got.rows(); ++i) {
    cmp.DenseRow(i, 0, got.cols(), got.data() + i * got.ld());
  }
  return cmp.Finish();
}

}  // namespace atmx::perfbench
