// Self-test of the benchmark's own machinery: the result check must accept
// an ATMULT result and reject deliberately perturbed copies of it, and span
// self times must exclude the children's intervals.
//
// Run through `python3 perfbench/run.py --selftest`; exits 0 on success.

#include <chrono>
#include <cmath>
#include <cstdio>
#include <string>

#include "check.h"
#include "gen/workloads.h"
#include "kernels/sparse_kernels.h"
#include "ops/atmult.h"
#include "spans.h"
#include "storage/convert.h"
#include "tile/partitioner.h"

namespace atmx::perfbench {
namespace {

int g_failures = 0;

void Expect(bool ok, const std::string& what) {
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
  if (!ok) ++g_failures;
}

// Applies `perturb` to a copy of `result` and expects the check to reject it.
template <typename Perturb>
void ExpectRejected(const CsrMatrix& reference, const ATMatrix& result,
                    const std::string& what, Perturb perturb) {
  ATMatrix copy = result;
  const bool changed = perturb(&copy);
  const std::string err = CompareResult(reference, copy);
  Expect(changed && !err.empty(),
         "rejects " + what + (err.empty() ? "" : ": " + err));
}

void TestCheck() {
  AtmConfig config;
  config.llc_bytes = 1 << 20;
  config.num_sockets = 1;
  config.cores_per_socket = 1;
  const CooMatrix coo = MakeWorkloadMatrix("R8", 0.05, 7);
  const CsrMatrix csr = CooToCsr(coo);
  const ATMatrix atm = PartitionToAtm(coo, config);
  const ATMatrix result = AtMult(config).Multiply(atm, atm);
  const CsrMatrix reference = SpGemmCsr(csr, csr);

  Expect(CompareResult(reference, result).empty(), "accepts the ATMULT result");
  Expect(CompareResult(reference, reference).empty(), "accepts the reference");
  Expect(CompareResult(reference, CsrToDense(reference)).empty(),
         "accepts the dense reference");

  bool has_dense = false;
  bool has_sparse = false;
  for (const Tile& t : result.tiles()) {
    has_dense |= t.is_dense() && t.nnz() > 0;
    has_sparse |= !t.is_dense() && t.nnz() > 0;
  }
  Expect(has_dense && has_sparse, "result has dense and sparse tiles");

  ExpectRejected(reference, result, "a value off by 1e-6 in a dense tile",
                 [](ATMatrix* m) {
                   for (Tile& t : m->mutable_tiles()) {
                     if (!t.is_dense()) continue;
                     DenseMatrix& d = t.mutable_dense();
                     for (index_t k = 0; k < d.rows() * d.cols(); ++k) {
                       if (d.data()[k] != 0.0) {
                         d.data()[k] *= 1.0 + 1e-6;
                         return true;
                       }
                     }
                   }
                   return false;
                 });
  ExpectRejected(reference, result, "a value off by 1e-6 in a sparse tile",
                 [](ATMatrix* m) {
                   for (Tile& t : m->mutable_tiles()) {
                     if (t.is_dense() || t.nnz() == 0) continue;
                     t.mutable_sparse().mutable_values()[0] *= 1.0 + 1e-6;
                     return true;
                   }
                   return false;
                 });
  ExpectRejected(reference, result, "a dropped non-zero", [](ATMatrix* m) {
    for (Tile& t : m->mutable_tiles()) {
      if (!t.is_dense()) continue;
      DenseMatrix& d = t.mutable_dense();
      for (index_t k = 0; k < d.rows() * d.cols(); ++k) {
        if (d.data()[k] != 0.0) {
          d.data()[k] = 0.0;
          return true;
        }
      }
    }
    return false;
  });
  ExpectRejected(reference, result, "an extra non-zero", [](ATMatrix* m) {
    for (Tile& t : m->mutable_tiles()) {
      if (!t.is_dense()) continue;
      DenseMatrix& d = t.mutable_dense();
      for (index_t k = 0; k < d.rows() * d.cols(); ++k) {
        if (d.data()[k] == 0.0) {
          d.data()[k] = 1.0;
          return true;
        }
      }
    }
    return false;
  });

  CsrMatrix bad = reference;
  bad.mutable_values().back() = -bad.values().back();
  Expect(!CompareResult(reference, bad).empty(), "rejects a sign flip in CSR");
  DenseMatrix bad_dense = CsrToDense(reference);
  bad_dense.At(0, 0) += 1.0;
  Expect(!CompareResult(reference, bad_dense).empty(),
         "rejects a changed dense element");
}

void Spin(double seconds) {
  const auto end = std::chrono::steady_clock::now() +
                   std::chrono::duration<double>(seconds);
  while (std::chrono::steady_clock::now() < end) {
  }
}

void TestSelfTime() {
  SpanRecorder rec;
  {
    ScopedSpan parent(&rec, "parent", 1);
    Spin(0.002);
    {
      ScopedSpan child(&rec, "child", 1);
      Spin(0.004);
      ScopedSpan grandchild(&rec, "grandchild", 1);
      Spin(0.002);
    }
  }
  const std::vector<Span>& spans = rec.spans();
  const std::vector<double> self = rec.SelfSeconds();
  Expect(spans.size() == 3 && spans[1].parent == 0 && spans[2].parent == 1,
         "spans nest by parent");
  const double parent_total = spans[0].end - spans[0].start;
  const double child_total = spans[1].end - spans[1].start;
  Expect(std::abs(self[0] - (parent_total - child_total)) < 1e-9,
         "parent self time excludes the child");
  Expect(self[0] >= 0.002 && self[1] >= 0.004 && self[2] >= 0.002,
         "self times cover their own work");
  const auto facts = rec.OpFacts();
  Expect(facts.at(1).at("child#total") == child_total,
         "op facts sum span totals");
}

}  // namespace
}  // namespace atmx::perfbench

int main() {
  atmx::perfbench::TestCheck();
  atmx::perfbench::TestSelfTime();
  std::printf("%s\n", atmx::perfbench::g_failures == 0 ? "PASS" : "FAILED");
  return atmx::perfbench::g_failures == 0 ? 0 : 1;
}
