#include "ops/explain.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "gen/rmat.h"
#include "gen/synthetic.h"
#include "obs/obs.h"
#if defined(ATMX_OBS_ENABLED)
#include "obs/audit_ledger.h"
#endif
#include "ops/atmult.h"
#include "storage/convert.h"
#include "tests/test_util.h"
#include "tile/partitioner.h"

namespace atmx {
namespace {

using atmx::testing::RandomCoo;

AtmConfig ExplainConfig() {
  AtmConfig config;
  config.b_atomic = 16;
  config.llc_bytes = 1 << 20;
  config.num_sockets = 2;
  config.cores_per_socket = 2;
  return config;
}

TEST(ExplainTest, PlanMatchesExecutionStats) {
  AtmConfig config = ExplainConfig();
  CooMatrix coo = GenerateDiagonalDenseBlocks(96, 3, 16, 0.9, 300, 1);
  ATMatrix atm = PartitionToAtm(coo, config);
  CostModel model;

  MultiplyPlan plan = ExplainMultiply(atm, atm, config, model);
  AtMult op(config, model);
  AtMultStats stats;
  ATMatrix c = op.Multiply(atm, atm, &stats);

  // The plan predicts exactly what execution does.
  EXPECT_EQ(static_cast<index_t>(plan.pairs.size()),
            stats.pair_multiplications);
  EXPECT_EQ(plan.dense_target_tiles, stats.dense_result_tiles);
  EXPECT_EQ(plan.sparse_target_tiles, stats.sparse_result_tiles);
  EXPECT_EQ(plan.planned_conversions,
            stats.sparse_to_dense_conversions +
                stats.dense_to_sparse_conversions);
  EXPECT_DOUBLE_EQ(plan.effective_write_threshold,
                   stats.effective_write_threshold);
  EXPECT_EQ(plan.num_row_bands * plan.num_col_bands, c.num_tiles());
}

TEST(ExplainTest, PredictsConversions) {
  // The conversion scenario from the ATMULT tests: near-threshold sparse
  // tiles against a full dense operand (paper section II-C3).
  AtmConfig config = ExplainConfig();
  config.llc_bytes = 16 * 1024;
  CooMatrix a = GenerateDiagonalDenseBlocks(96, 3, 32, 0.22, 100, 17);
  CooMatrix b = DenseToCoo(GenerateFullDense(96, 96, 18));
  ATMatrix atm_a = PartitionToAtm(a, config);
  ATMatrix atm_b = PartitionToAtm(b, config);
  // Level the tall-skinny panel rate: under the default c_sdd_panel the
  // optimizer correctly keeps A sparse against 96-wide dense windows, but
  // this test exercises the conversion *prediction* machinery.
  CostParams params;
  params.c_sdd_panel = params.c_sdd;
  CostModel model(params);

  MultiplyPlan plan = ExplainMultiply(atm_a, atm_b, config, model);
  EXPECT_GT(plan.planned_conversions, 0);

  AtMult op(config, model);
  AtMultStats stats;
  op.Multiply(atm_a, atm_b, &stats);
  EXPECT_EQ(plan.planned_conversions,
            stats.sparse_to_dense_conversions +
                stats.dense_to_sparse_conversions);
}

// A * A shares one conversion record between the two sides, exactly as
// execution shares one conversion cache; a distinct copy of A keeps one
// record per side.
TEST(ExplainTest, SelfProductPredictsSharedConversions) {
  AtmConfig config = ExplainConfig();
  config.llc_bytes = 16 * 1024;
  config.num_sockets = 1;
  config.cores_per_socket = 1;
  CooMatrix coo = GenerateDiagonalDenseBlocks(64, 2, 32, 0.22, 50, 17);
  ATMatrix atm = PartitionToAtm(coo, config);
  const ATMatrix copy = atm;
  AtMult op(config);

  AtMultStats self;
  op.Multiply(atm, atm, &self);
  const MultiplyPlan self_plan = ExplainMultiply(atm, atm, config);
  EXPECT_GT(self_plan.planned_conversions, 0);
  EXPECT_EQ(self_plan.planned_conversions,
            self.sparse_to_dense_conversions +
                self.dense_to_sparse_conversions);

  AtMultStats distinct;
  op.Multiply(atm, copy, &distinct);
  const MultiplyPlan distinct_plan = ExplainMultiply(atm, copy, config);
  EXPECT_GT(distinct_plan.planned_conversions, self_plan.planned_conversions);
  EXPECT_EQ(distinct_plan.planned_conversions,
            distinct.sparse_to_dense_conversions +
                distinct.dense_to_sparse_conversions);
}

TEST(ExplainTest, EstimateFieldsPopulated) {
  AtmConfig config = ExplainConfig();
  CooMatrix coo = RandomCoo(64, 64, 600, 2);
  ATMatrix atm = PartitionToAtm(coo, config);
  MultiplyPlan plan = ExplainMultiply(atm, atm, config);
  EXPECT_GT(plan.estimated_result_nnz, 0.0);
  EXPECT_GT(plan.estimated_result_bytes, 0u);
  EXPECT_GT(plan.total_projected_cost, 0.0);
}

TEST(ExplainTest, ToStringContainsKeySections) {
  AtmConfig config = ExplainConfig();
  CooMatrix coo = GenerateDiagonalDenseBlocks(96, 3, 16, 0.9, 300, 3);
  ATMatrix atm = PartitionToAtm(coo, config);
  MultiplyPlan plan = ExplainMultiply(atm, atm, config);
  const std::string text = plan.ToString(8);
  EXPECT_NE(text.find("MultiplyPlan"), std::string::npos);
  EXPECT_NE(text.find("pair multiplications"), std::string::npos);
  EXPECT_NE(text.find("gemm"), std::string::npos);
  EXPECT_NE(text.find("rho_a"), std::string::npos);
}

TEST(ExplainTest, NoEstimationMeansSparseTargets) {
  AtmConfig config = ExplainConfig();
  config.density_estimation = false;
  CooMatrix coo = RandomCoo(64, 64, 600, 4);
  ATMatrix atm = PartitionToAtm(coo, config);
  MultiplyPlan plan = ExplainMultiply(atm, atm, config);
  EXPECT_EQ(plan.dense_target_tiles, 0);
  EXPECT_EQ(plan.estimated_result_nnz, 0.0);
}


#if defined(ATMX_OBS_ENABLED)
// EXPLAIN and execution share one planner: on one team with a static
// schedule, ExplainMultiply's pairs are the ledger's repr records pair for
// pair — tile, contraction range, kernel and the JIT conversions each pair
// makes — across shape classes and the configurations that change
// decisions.
TEST(ExplainTest, PairsMatchLedgerReprRecords) {
  struct Shape {
    const char* name;
    CooMatrix a;
    CooMatrix b;  // empty rows(): the product is A * A
  };
  RmatParams rmat;
  rmat.rows = rmat.cols = 256;
  rmat.nnz = 3000;
  rmat.a = 0.55;
  rmat.b = 0.15;
  rmat.c = 0.15;
  rmat.seed = 5;
  std::vector<Shape> shapes;
  shapes.push_back({"banded", GenerateBanded(256, 24, 0.3, 1), CooMatrix()});
  shapes.push_back({"block", GenerateDiagonalDenseBlocks(192, 3, 48, 0.9,
                                                         400, 2),
                    GenerateUniform(192, 192, 2500, 3)});
  shapes.push_back({"rmat", GenerateRmat(rmat), CooMatrix()});
  shapes.push_back({"hypersparse", GenerateUniform(512, 512, 300, 4),
                    CooMatrix()});
  shapes.push_back({"rectangular", GenerateUniform(160, 256, 1500, 6),
                    GenerateUniform(256, 96, 2000, 7)});
  shapes.push_back({"near_threshold_x_dense",
                    GenerateDiagonalDenseBlocks(96, 3, 32, 0.22, 100, 8),
                    DenseToCoo(GenerateFullDense(96, 96, 9))});
  shapes.push_back({"near_threshold_self",
                    GenerateDiagonalDenseBlocks(64, 2, 32, 0.22, 50, 17),
                    CooMatrix()});

  struct Variant {
    const char* name;
    bool dynamic_conversion;
    bool density_estimation;
    bool finite_limit;
  };
  const Variant variants[] = {{"default", true, true, false},
                              {"no_conversion", false, true, false},
                              {"no_estimation", true, false, false},
                              {"mem_limit", true, true, true}};

  obs::AuditLedger& ledger = obs::AuditLedger::Global();
  // Coverage of the sweep: conversions and both target kinds occur.
  index_t total_conversions = 0, dense_target_pairs = 0,
          sparse_target_pairs = 0;
  for (const Shape& shape : shapes) {
    for (const Variant& v : variants) {
      SCOPED_TRACE(std::string(shape.name) + "/" + v.name);
      AtmConfig config = ExplainConfig();
      config.llc_bytes = 16 * 1024;
      config.num_sockets = 1;
      config.cores_per_socket = 1;
      config.work_stealing = false;
      config.dynamic_conversion = v.dynamic_conversion;
      config.density_estimation = v.density_estimation;
      const ATMatrix a = PartitionToAtm(shape.a, config);
      const bool self = shape.b.rows() == 0;
      const ATMatrix b_own =
          self ? ATMatrix() : PartitionToAtm(shape.b, config);
      const ATMatrix& b = self ? a : b_own;
      if (v.finite_limit) {
        // Half the unconstrained projection: the water level binds.
        config.result_mem_limit_bytes =
            ExplainMultiply(a, b, config).estimated_result_bytes / 2 + 1;
      }

      const MultiplyPlan plan = ExplainMultiply(a, b, config);
      ledger.Clear();
      ledger.SetEnabled(true);
      AtMultStats stats;
      AtMult(config).Multiply(a, b, &stats);
      ledger.SetEnabled(false);
      const std::vector<obs::ReprAuditRecord> repr = ledger.Snapshot().repr;
      ledger.Clear();

      ASSERT_EQ(plan.pairs.size(), repr.size());
      ASSERT_EQ(static_cast<index_t>(repr.size()),
                stats.pair_multiplications);
      index_t conversions = 0;
      for (std::size_t i = 0; i < repr.size(); ++i) {
        const PlannedPair& p = plan.pairs[i];
        const obs::ReprAuditRecord& r = repr[i];
        SCOPED_TRACE("pair " + std::to_string(i));
        EXPECT_EQ(p.ti, r.ti);
        EXPECT_EQ(p.tj, r.tj);
        EXPECT_EQ(p.k0, r.k0);
        EXPECT_EQ(p.k1, r.k1);
        EXPECT_EQ(static_cast<int>(p.kernel), r.kernel);
        // A conversion the pair made: its operand runs converted and the
        // cache held no copy when it was decided. (A diagonal tile of
        // A * A converted for both sides of one pair would count once in
        // the plan and twice here; no pair of this sweep does that.)
        const bool a_converts = r.a_converted() && !r.a_cached;
        const bool b_converts = r.b_converted() && !r.b_cached;
        (r.c_dense ? dense_target_pairs : sparse_target_pairs)++;
        EXPECT_EQ(p.converts_a, a_converts);
        EXPECT_EQ(p.converts_b, b_converts);
        conversions += (a_converts ? 1 : 0) + (b_converts ? 1 : 0);
      }
      EXPECT_EQ(conversions, stats.sparse_to_dense_conversions +
                                 stats.dense_to_sparse_conversions);
      total_conversions += conversions;
    }
  }
  EXPECT_GT(total_conversions, 0);
  EXPECT_GT(dense_target_pairs, 0);
  EXPECT_GT(sparse_target_pairs, 0);
}
#endif  // ATMX_OBS_ENABLED

}  // namespace
}  // namespace atmx
