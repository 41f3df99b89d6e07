// The tile task's accumulate phase: one row-block loop per C tile, forked
// at most once per task, produces bitwise-identical dense and sparse
// targets (seeded by MultiplyAdd's accumulator or not) for every team
// width.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "gen/rmat.h"
#include "gen/synthetic.h"
#include "obs/obs.h"
#include "ops/atmult.h"
#include "ops/chain.h"
#include "storage/convert.h"
#include "tile/partitioner.h"

namespace atmx {
namespace {

AtmConfig TileTaskConfig(int teams, int threads, std::size_t llc_bytes) {
  AtmConfig config;
  config.b_atomic = 16;
  config.llc_bytes = llc_bytes;
  config.num_sockets = teams;
  config.cores_per_socket = threads;
  return config;
}

// Same shape, same stored representation per tile, same bits.
void ExpectBitwiseEqual(const ATMatrix& want, const ATMatrix& got) {
  ASSERT_EQ(want.num_tiles(), got.num_tiles());
  for (index_t t = 0; t < want.num_tiles(); ++t) {
    EXPECT_EQ(want.tiles()[t].is_dense(), got.tiles()[t].is_dense())
        << "tile " << t;
  }
  const CsrMatrix x = want.ToCsr();
  const CsrMatrix y = got.ToCsr();
  ASSERT_EQ(x.row_ptr(), y.row_ptr());
  ASSERT_EQ(x.col_idx(), y.col_idx());
  ASSERT_EQ(x.values().size(), y.values().size());
  EXPECT_EQ(0, std::memcmp(x.values().data(), y.values().data(),
                           x.values().size() * sizeof(value_t)));
}

TEST(AtMultTileTaskTest, BitwiseIdenticalAcrossThreadsPerTeam) {
  // Dense diagonal blocks make dense result tiles on the diagonal and
  // sparse ones off it; the accumulator has both kinds of tile too.
  const CooMatrix a_coo = GenerateDiagonalDenseBlocks(1024, 4, 128, 0.6,
                                                      1500, 31);
  const CooMatrix b_coo = GenerateUniform(1024, 1024, 3000, 32);
  const CooMatrix c_coo = GenerateDiagonalDenseBlocks(1024, 2, 256, 0.9,
                                                      3000, 33);
  struct Run {
    ATMatrix dense_and_sparse;  // A * A
    ATMatrix mixed;             // A * B
    ATMatrix seeded;            // C + A * B
  };
  std::vector<Run> runs;
  for (const int threads : {1, 2, 4}) {
    SCOPED_TRACE("threads per team " + std::to_string(threads));
    // Large tiles: row bands of a few hundred rows give the sparse
    // targets one block per thread.
    const AtmConfig config = TileTaskConfig(2, threads, 4 << 20);
    const ATMatrix a = PartitionToAtm(a_coo, config);
    const ATMatrix b = PartitionToAtm(b_coo, config);
    const ATMatrix c = PartitionToAtm(c_coo, config);
    const AtMult op(config);
    Run run;
    AtMultStats aa, seeded;
    run.dense_and_sparse = op.Multiply(a, a, &aa);
    run.mixed = op.Multiply(a, b);
    run.seeded = op.MultiplyAdd(c, a, b, &seeded);
    // Both target kinds occur, so both accumulate paths are compared.
    EXPECT_GT(aa.dense_result_tiles, 0);
    EXPECT_GT(aa.sparse_result_tiles, 0);
    EXPECT_GT(seeded.dense_result_tiles, 0);
    EXPECT_GT(seeded.sparse_result_tiles, 0);
    runs.push_back(std::move(run));
  }
  for (std::size_t i = 1; i < runs.size(); ++i) {
    ExpectBitwiseEqual(runs[0].dense_and_sparse, runs[i].dense_and_sparse);
    ExpectBitwiseEqual(runs[0].mixed, runs[i].mixed);
    ExpectBitwiseEqual(runs[0].seeded, runs[i].seeded);
  }
}

#if defined(ATMX_OBS_ENABLED)
std::uint64_t CounterValue(const std::string& name) {
  return obs::MetricsRegistry::Global().GetCounter(name).Value();
}

// Each tile task forks its team at most once (the row-block loop), never
// once per pair: a fused A * A * X chain with dense n x 64 result panels
// on one team of two threads advances the team's fork-join counter by at
// most its task count, although its tiles accumulate several pairs each.
TEST(AtMultTileTaskTest, ForksTeamAtMostOncePerTask) {
  const AtmConfig config = TileTaskConfig(1, 2, 64 * 1024);
  RmatParams rmat;
  rmat.rows = rmat.cols = 1024;
  rmat.nnz = 12000;
  rmat.a = 0.45;
  rmat.b = 0.15;
  rmat.c = 0.15;
  rmat.seed = 7;
  const ATMatrix a = PartitionToAtm(GenerateRmat(rmat), config);
  const ATMatrix x = AtmFromDense(GenerateFullDense(1024, 64, 8), config);
  const std::vector<const ATMatrix*> chain = {&a, &a, &x};
  const ChainPlan plan = PlanChain(
      {&a.density_map(), &a.density_map(), &x.density_map()}, CostModel(),
      config.rho_write);

  const std::uint64_t runs_before = CounterValue("threadpool.parallel_runs");
  const std::uint64_t tasks_before = CounterValue("threadpool.tasks");
  ChainExecStats stats;
  ExecuteChain(chain, plan, AtMult(config), &stats);
  const std::uint64_t runs = CounterValue("threadpool.parallel_runs") -
                             runs_before;
  const std::uint64_t tasks = CounterValue("threadpool.tasks") - tasks_before;

  ASSERT_TRUE(stats.fused);
  ASSERT_GT(stats.total.dense_result_tiles, 0);
  // Several pairs per task: a per-pair fork would exceed the bound.
  ASSERT_GT(static_cast<std::uint64_t>(stats.total.pair_multiplications),
            2 * tasks);
  EXPECT_GT(runs, 0u);
  EXPECT_LE(runs, tasks);
}
#endif  // ATMX_OBS_ENABLED

}  // namespace
}  // namespace atmx
