// End-to-end integration scenarios across the full stack: workload
// generation -> partitioning -> estimation -> ATMULT -> export, plus the
// application patterns from the paper's introduction (cosine similarity
// A*A^T, iterative V*H^T products).

#include <gtest/gtest.h>

#include <cstdio>

#include "gen/synthetic.h"
#include "gen/workloads.h"
#include "kernels/sparse_kernels.h"
#include "storage/matrix_market.h"
#include "ops/atmult.h"
#include "ops/spmv.h"
#include "ops/transpose.h"
#include "storage/convert.h"
#include "tests/test_util.h"
#include "tile/partitioner.h"

namespace atmx {
namespace {

AtmConfig IntegrationConfig() {
  AtmConfig config;
  config.b_atomic = 32;
  config.llc_bytes = 1 << 20;
  config.num_sockets = 2;
  config.cores_per_socket = 2;
  return config;
}

TEST(IntegrationTest, TinyWorkloadSuiteSelfMultiplies) {
  // A miniature version of the Fig. 8 experiment over a representative
  // workload subset, checking correctness rather than speed.
  const AtmConfig config = IntegrationConfig();
  AtMult op(config);
  for (const char* id : {"R3", "R7", "G1", "G9"}) {
    CooMatrix coo = MakeWorkloadMatrix(id, 0.01);
    CsrMatrix csr = CooToCsr(coo);
    ATMatrix atm = PartitionToAtm(coo, config);
    EXPECT_TRUE(atm.CheckValid()) << id;

    AtMultStats stats;
    ATMatrix c = op.Multiply(atm, atm, &stats);
    CsrMatrix expected = SpGemmCsr(csr, csr);
    EXPECT_EQ(c.nnz(), expected.nnz()) << id;
    atmx::testing::ExpectDenseNear(CsrToDense(expected),
                                   CsrToDense(c.ToCsr()), 1e-8);
  }
}

TEST(IntegrationTest, CosineSimilarityPattern) {
  // Term-document matrix A; similarity D = A * A^T (paper section I).
  const AtmConfig config = IntegrationConfig();
  CooMatrix a_coo = atmx::testing::RandomCoo(80, 120, 900, 42);
  CsrMatrix a = CooToCsr(a_coo);
  CsrMatrix at = Transpose(a);

  ATMatrix atm_a = PartitionToAtm(a_coo, config);
  ATMatrix atm_at = AtmFromCsr(at, config);
  AtMult op(config);
  ATMatrix d = op.Multiply(atm_a, atm_at);

  CsrMatrix expected = SpGemmCsr(a, at);
  atmx::testing::ExpectDenseNear(CsrToDense(expected),
                                 CsrToDense(d.ToCsr()), 1e-9);
  // Self-similarity entries (diagonal) are positive row norms.
  for (index_t i = 0; i < 80; ++i) {
    if (a.RowNnz(i) > 0) {
      EXPECT_GT(d.At(i, i), 0.0);
    }
  }
}

TEST(IntegrationTest, IterativeFactorizationPattern) {
  // Gene-clustering inner loop: repeated V * H^T with sparse V and a
  // small dense H (paper section I).
  const AtmConfig config = IntegrationConfig();
  CooMatrix v_coo = MakeWorkloadMatrix("R2", 0.005);
  const index_t n = v_coo.cols();
  DenseMatrix h = GenerateFullDense(8, n, 7);

  ATMatrix v = PartitionToAtm(v_coo, config);
  ATMatrix ht = AtmFromDense(Transpose(h), config);
  AtMult op(config);
  ATMatrix w = op.Multiply(v, ht);
  EXPECT_EQ(w.rows(), v.rows());
  EXPECT_EQ(w.cols(), 8);

  CsrMatrix expected = SpGemmCsr(CooToCsr(v_coo),
                                 DenseToCsr(Transpose(h)));
  atmx::testing::ExpectDenseNear(CsrToDense(expected),
                                 CsrToDense(w.ToCsr()), 1e-8);
}

TEST(IntegrationTest, MultiSourceBfsPattern) {
  // Multi-source BFS via repeated boolean-ish sparse multiplication
  // (frontier matrix F (sources x n) times adjacency A).
  const AtmConfig config = IntegrationConfig();
  CooMatrix adj_coo = MakeWorkloadMatrix("G5", 0.005);
  const index_t n = adj_coo.rows();
  CsrMatrix adj = CooToCsr(adj_coo);
  ATMatrix atm_adj = PartitionToAtm(adj_coo, config);

  CooMatrix frontier(4, n);
  for (index_t s = 0; s < 4; ++s) frontier.Add(s, s * (n / 5), 1.0);
  ATMatrix f = PartitionToAtm(frontier, config);

  AtMult op(config);
  ATMatrix reached = op.Multiply(f, atm_adj);
  CsrMatrix expected = SpGemmCsr(CooToCsr(frontier), adj);
  EXPECT_EQ(reached.nnz(), expected.nnz());

  // Two hops.
  ATMatrix two_hop = op.Multiply(reached, atm_adj);
  CsrMatrix expected2 = SpGemmCsr(expected, adj);
  atmx::testing::ExpectDenseNear(CsrToDense(expected2),
                                 CsrToDense(two_hop.ToCsr()), 1e-8);
}

TEST(IntegrationTest, ExportRoundTripThroughMatrixMarket) {
  const AtmConfig config = IntegrationConfig();
  CooMatrix coo = MakeWorkloadMatrix("R3", 0.005);
  ATMatrix atm = PartitionToAtm(coo, config);
  AtMult op(config);
  ATMatrix c = op.Multiply(atm, atm);

  const std::string path = atmx::testing::UniqueTempPath("result.mtx");
  ASSERT_TRUE(WriteMatrixMarket(c.ToCoo(), path).ok());
  Result<CooMatrix> read = ReadMatrixMarket(path);
  std::remove(path.c_str());
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read.value().nnz(), c.nnz());
}

TEST(IntegrationTest, MemoryLimitedPipelineStaysUnderBudget) {
  AtmConfig config = IntegrationConfig();
  CooMatrix coo = MakeWorkloadMatrix("R3", 0.008);
  ATMatrix atm = PartitionToAtm(coo, config);

  AtMult unlimited(config);
  AtMultStats s1;
  ATMatrix c1 = unlimited.Multiply(atm, atm, &s1);

  // Budget at 60% of the unconstrained result size.
  config.result_mem_limit_bytes =
      static_cast<std::size_t>(c1.MemoryBytes() * 0.6);
  AtMult limited(config);
  AtMultStats s2;
  ATMatrix c2 = limited.Multiply(atm, atm, &s2);
  EXPECT_GE(s2.effective_write_threshold, s1.effective_write_threshold);
  // The limit may be infeasible for this product (sparse blocks below
  // rho = 0.5 cannot shrink by densifying); the contract is best-effort:
  // never exceed the unconstrained layout.
  EXPECT_LE(static_cast<double>(c2.MemoryBytes()),
            1.01 * static_cast<double>(c1.MemoryBytes()));
}

}  // namespace
}  // namespace atmx
