// Compile-and-link check of the umbrella header: every public API symbol
// must be reachable through a single include.

#include "atmx.h"

#include <gtest/gtest.h>

namespace atmx {
namespace {

TEST(UmbrellaTest, EndToEndThroughSingleInclude) {
  AtmConfig config;
  config.b_atomic = 16;
  config.llc_bytes = 1 << 20;
  CooMatrix coo = GenerateUniform(64, 64, 400, 1);
  ATMatrix atm = PartitionToAtm(coo, config);
  AtMult op(config);
  ATMatrix c = op.Multiply(atm, atm);
  EXPECT_TRUE(c.CheckValid());
  EXPECT_GT(c.nnz(), 0);
  MultiplyPlan plan = ExplainMultiply(atm, atm, config);
  EXPECT_FALSE(plan.ToString().empty());
}

}  // namespace
}  // namespace atmx
