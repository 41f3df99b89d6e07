#include "ops/atmult.h"

#include <algorithm>
#include <sstream>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/timer.h"
#include "estimate/density_estimator.h"
#include "estimate/water_level.h"
#include "kernels/kernel_dispatch.h"
#include "obs/obs.h"
#include "ops/chain_exec.h"
#include "tile/partitioner.h"

namespace atmx {

double AtMultStats::MaxTeamBusySeconds() const {
  double m = 0.0;
  for (double s : team_busy_seconds) m = std::max(m, s);
  return m;
}

double AtMultStats::MaxTeamCpuSeconds() const {
  double m = 0.0;
  for (double s : team_cpu_seconds) m = std::max(m, s);
  return m;
}

double AtMultStats::LocalFraction() const {
  const std::uint64_t local = local_read_bytes + local_write_bytes;
  const std::uint64_t total =
      local + remote_read_bytes + remote_write_bytes;
  return total == 0 ? 1.0
                    : static_cast<double>(local) / static_cast<double>(total);
}

std::string AtMultStats::ToString() const {
  std::ostringstream os;
  os << "AtMultStats{total=" << total_seconds
     << "s, estimate=" << estimate_seconds
     << "s, optimize=" << optimize_seconds
     << "s, multiply=" << multiply_seconds
     << "s, rho_w=" << effective_write_threshold
     << ", pairs=" << pair_multiplications
     << ", conv(s->d)=" << sparse_to_dense_conversions
     << ", conv(d->s)=" << dense_to_sparse_conversions
     << ", c_tiles(d/sp)=" << dense_result_tiles << "/"
     << sparse_result_tiles << ", local=" << LocalFraction()
     << ", stolen=" << tasks_stolen;
  os << ", kernels={";
  bool first = true;
  for (int v = 0; v < kNumKernelTypes; ++v) {
    if (kernel_invocations[v] == 0) continue;
    if (!first) os << ", ";
    first = false;
    os << KernelTypeName(static_cast<KernelType>(v)) << "="
       << kernel_invocations[v];
  }
  os << "}}";
  return os.str();
}

AtMult::AtMult(const AtmConfig& config, const CostModel& cost_model)
    : config_(config), cost_model_(cost_model) {}

ATMatrix AtMult::Multiply(const ATMatrix& a, const ATMatrix& b,
                          AtMultStats* stats) const {
  return MultiplyImpl(nullptr, a, b, stats);
}

ATMatrix AtMult::Multiply(const CsrMatrix& a, const ATMatrix& b,
                          AtMultStats* stats) const {
  return MultiplyImpl(nullptr, AtmFromCsr(a, config_), b, stats);
}

ATMatrix AtMult::Multiply(const ATMatrix& a, const CsrMatrix& b,
                          AtMultStats* stats) const {
  return MultiplyImpl(nullptr, a, AtmFromCsr(b, config_), stats);
}

ATMatrix AtMult::Multiply(const DenseMatrix& a, const ATMatrix& b,
                          AtMultStats* stats) const {
  return MultiplyImpl(nullptr, AtmFromDense(a, config_), b, stats);
}

ATMatrix AtMult::Multiply(const ATMatrix& a, const DenseMatrix& b,
                          AtMultStats* stats) const {
  return MultiplyImpl(nullptr, a, AtmFromDense(b, config_), stats);
}

ATMatrix AtMult::MultiplyAdd(const ATMatrix& c, const ATMatrix& a,
                             const ATMatrix& b, AtMultStats* stats) const {
  ATMX_CHECK_EQ(c.rows(), a.rows());
  ATMX_CHECK_EQ(c.cols(), b.cols());
  ATMX_CHECK_EQ(c.b_atomic(), a.b_atomic());
  return MultiplyImpl(&c, a, b, stats);
}

ATMatrix AtMult::MultiplyImpl(const ATMatrix* c_init, const ATMatrix& a,
                              const ATMatrix& b, AtMultStats* stats) const {
  ATMX_CHECK_EQ(a.cols(), b.rows());
  ATMX_CHECK_EQ(a.b_atomic(), b.b_atomic());
  WallTimer total_timer;
  ATMX_TRACE_SPAN_ARGS("op", "atmult",
                       {"m", a.rows()}, {"k", a.cols()}, {"n", b.cols()},
                       {"nnz_a", a.nnz()}, {"nnz_b", b.nnz()});

  internal::ProductNode node;
  node.left = &a;
  node.right = &b;
  node.c_init = c_init;
  node.rho_w = config_.rho_write;

  // --- Density estimation + flexible write threshold (Alg. 2 l. 2-3). ---
  DensityMap estimate;
  if (config_.density_estimation) {
    ATMX_TRACE_SPAN("op", "estimate_density");
    WallTimer est_timer;
    estimate = EstimateProductDensity(a.density_map(), b.density_map());
    if (c_init != nullptr) {
      estimate = CombineAdditive(estimate, c_init->density_map());
    }
    node.rho_w = EffectiveWriteThreshold(estimate, config_.rho_write,
                                         config_.result_mem_limit_bytes,
                                         &node.feasible);
    node.estimate = &estimate;
    node.estimate_seconds = est_timer.ElapsedSeconds();
  }

  // --- Tile tasks (Alg. 2 l. 4-12): a one-node product tree. ---
  ChainExecStats run;
  ATMatrix result = internal::ExecuteProducts(
      {node}, *this, internal::ExecMode::kPerNode, /*budget_bytes=*/0, &run);
  if (stats != nullptr) {
    *stats = std::move(run.per_product.front());
    stats->total_seconds = total_timer.ElapsedSeconds();
  }
  return result;
}

}  // namespace atmx
