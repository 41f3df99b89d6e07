#include "ops/atmult.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <sstream>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/math_util.h"
#include "common/timer.h"
#include "estimate/density_estimator.h"
#include "estimate/water_level.h"
#include "kernels/kernel_dispatch.h"
#include "obs/obs.h"
#if defined(ATMX_OBS_ENABLED)
#include "obs/audit_ledger.h"
#endif
#include "ops/optimizer.h"
#include "ops/product_task.h"
#include "tile/partitioner.h"
#include "topology/thread_pool.h"

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

ATMatrix AtMult::Multiply(const ATMatrix& a, const ATMatrix& b,
                          AtMultStats* stats, ConversionCache* a_cache,
                          ConversionCache* b_cache) const {
  return MultiplyImpl(nullptr, a, b, stats, a_cache, b_cache);
}

ATMatrix AtMult::Multiply(const ATMatrix& a, const ATMatrix& b,
                          AtMultStats* stats, ConversionCache* a_cache,
                          ConversionCache* b_cache,
                          double rho_w_override) const {
  return MultiplyImpl(nullptr, a, b, stats, a_cache, b_cache, rho_w_override);
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
                              const ATMatrix& b, AtMultStats* stats,
                              ConversionCache* a_cache,
                              ConversionCache* b_cache,
                              double rho_w_override) const {
  ATMX_CHECK_EQ(a.cols(), b.rows());
  ATMX_CHECK_EQ(a.b_atomic(), b.b_atomic());
  AtMultStats local_stats;
  if (stats == nullptr) stats = &local_stats;
  *stats = AtMultStats();

  WallTimer total_timer;
  const index_t block = a.b_atomic();
  ATMX_TRACE_SPAN_ARGS("op", "atmult",
                       {"m", a.rows()}, {"k", a.cols()}, {"n", b.cols()},
                       {"nnz_a", a.nnz()}, {"nnz_b", b.nnz()});
#if defined(ATMX_OBS_ENABLED)
  const bool audit_enabled = obs::DecisionLog::Global().enabled();
  const bool ledger_enabled = obs::AuditLedger::Global().enabled();
  const std::uint64_t op_id = (audit_enabled || ledger_enabled)
                                  ? obs::DecisionLog::Global().NextOpId()
                                  : 0;
#endif

  // --- Density estimation + flexible write threshold (Alg. 2 l. 2-3). ---
  DensityMap estimate;
  double rho_w = config_.rho_write;
  bool wl_feasible = true;
  const bool use_estimate = config_.density_estimation;
  if (use_estimate) {
    ATMX_TRACE_SPAN("op", "estimate_density");
    WallTimer est_timer;
    estimate = EstimateProductDensity(a.density_map(), b.density_map());
    if (c_init != nullptr) {
      estimate = CombineAdditive(estimate, c_init->density_map());
    }
    if (rho_w_override >= 0.0) {
      // The caller (chain executor) already solved the water level
      // chain-wide; its per-product threshold replaces the local solve.
      rho_w = rho_w_override;
    } else {
      rho_w = EffectiveWriteThreshold(estimate, config_.rho_write,
                                      config_.result_mem_limit_bytes,
                                      &wl_feasible);
    }
    stats->estimate_seconds = est_timer.ElapsedSeconds();
  }
  stats->effective_write_threshold = rho_w;
  ATMX_GAUGE_SET("atmult.waterlevel.rho_w", rho_w);
#if defined(ATMX_OBS_ENABLED)
  std::uint64_t projected_bytes = 0;
  if (use_estimate) {
    // Projected result memory at the effective threshold — the number the
    // mem-tracker high-water mark (mem.high_water_bytes) and the realized
    // result size (atmult.result_bytes) are compared against.
    projected_bytes = EstimateMemoryBytes(estimate, rho_w);
    const double projected = static_cast<double>(projected_bytes);
    ATMX_GAUGE_SET("atmult.waterlevel.predicted_bytes", projected);
    if (config_.result_mem_limit_bytes !=
        std::numeric_limits<std::size_t>::max()) {
      // Water-level headroom: how far under the memory SLA the projected
      // result stays at the effective threshold (negative = infeasible
      // SLA).
      ATMX_GAUGE_SET(
          "atmult.waterlevel.headroom_bytes",
          static_cast<double>(config_.result_mem_limit_bytes) - projected);
    }
  }
#endif

  const index_t num_ti = a.num_row_bands();
  const index_t num_tj = b.num_col_bands();
  const index_t num_tasks = num_ti * num_tj;
  std::vector<Tile> c_tiles(static_cast<std::size_t>(num_tasks));

  // JIT conversion cache: private per operation unless the caller injects
  // shared caches (the chain executor shares one cache per source matrix,
  // addressed with the kLeft key space on both sides; the private cache is
  // one object split by side). Per-operation conversion counts are deltas
  // so an injected cache's earlier hits are not re-counted.
  ConversionCache local_cache;
  const bool a_injected = a_cache != nullptr;
  const bool b_injected = b_cache != nullptr;
  if (!a_injected) a_cache = &local_cache;
  if (!b_injected) b_cache = &local_cache;
  const index_t s2d_before =
      a_cache->sparse_to_dense_count() +
      (b_cache == a_cache ? 0 : b_cache->sparse_to_dense_count());
  const index_t d2s_before =
      a_cache->dense_to_sparse_count() +
      (b_cache == a_cache ? 0 : b_cache->dense_to_sparse_count());
  Mutex stats_mutex;
#if defined(ATMX_OBS_ENABLED)
  // Result-tile bytes recorded with the mem tracker during this operation;
  // released at the end (ownership passes to the caller) so the tracker
  // follows the operator-transient footprint.
  std::atomic<std::uint64_t> op_tracked_bytes{0};
#endif

  // Filled task by task (each task sets its own region's cells).
  DensityMap c_map(a.rows(), b.cols(), block);

  const int teams = config_.EffectiveTeams();
  const int threads = config_.EffectiveThreadsPerTeam();
  TeamScheduler scheduler(teams, threads);

  internal::ProductContext pctx;
  pctx.a = internal::OperandView::FromMatrix(a);
  pctx.b = internal::OperandView::FromMatrix(b);
  pctx.block = block;
  pctx.use_estimate = use_estimate;
  pctx.estimate = &estimate;
  pctx.rho_w = rho_w;
  pctx.dynamic_conversion = config_.dynamic_conversion;
  pctx.cost_model = &cost_model_;
  pctx.a_cache = a_cache;
  pctx.a_cache_side = ConversionCache::kLeft;
  pctx.b_cache = b_cache;
  // The private cache is one object for both operands, split by key side;
  // injected caches are per-matrix objects addressed uniformly as kLeft.
  pctx.b_cache_side =
      b_injected ? ConversionCache::kLeft : ConversionCache::kRight;
  pctx.c_init = c_init;
  pctx.c_tiles = &c_tiles;
  pctx.c_map = &c_map;
  pctx.stats = stats;
  pctx.stats_mutex = &stats_mutex;
#if defined(ATMX_OBS_ENABLED)
  pctx.op_id = op_id;
  pctx.audit_enabled = audit_enabled;
  pctx.ledger_enabled = ledger_enabled;
  pctx.tracked_bytes = &op_tracked_bytes;
  if (ledger_enabled) {
    // The counterfactual replay re-runs DecidePairRepresentations with
    // the parameters this operation actually decided with.
    obs::AuditLedger::Global().SetCostParams(cost_model_.params());
  }
#endif

  std::vector<double> task_cost;  // outlives sched_options.cost_of
  ScheduleOptions sched_options;
  sched_options.work_stealing = config_.work_stealing;
  if (config_.work_stealing && num_tasks > 0) {
    internal::AppendProductTaskCosts(
        cost_model_, a.density_map(), b.density_map(), a.row_bounds(),
        b.col_bounds(), use_estimate ? &estimate : nullptr, &task_cost);
    sched_options.cost_of = [&task_cost](index_t task) {
      return task_cost[static_cast<std::size_t>(task)];
    };
  }
  ScheduleStats sched_stats;
  scheduler.RunTaskGraph(
      num_tasks, /*dep_count=*/{}, /*successors=*/{},
      [&](index_t task) {
        // Tasks follow their A tile-row's round-robin home (III-F); with
        // work stealing this is the *initial* queue, and the task accounts
        // locality against the team that actually executes (its
        // WorkerTeam::team_id), so stolen tasks honestly show up as remote
        // reads of their A tiles.
        return static_cast<int>((task / num_tj) % teams);
      },
      [&](WorkerTeam& team, index_t task) {
        internal::RunProductTileTask(pctx, team, task);
      },
      sched_options, &sched_stats);
  stats->tasks_stolen = static_cast<index_t>(sched_stats.TotalSteals());
  stats->team_busy_seconds = sched_stats.busy_seconds;
  stats->team_cpu_seconds = sched_stats.cpu_seconds;

  stats->sparse_to_dense_conversions =
      a_cache->sparse_to_dense_count() +
      (b_cache == a_cache ? 0 : b_cache->sparse_to_dense_count()) -
      s2d_before;
  stats->dense_to_sparse_conversions =
      a_cache->dense_to_sparse_count() +
      (b_cache == a_cache ? 0 : b_cache->dense_to_sparse_count()) -
      d2s_before;
  ATMatrix result(a.rows(), b.cols(), block, std::move(c_tiles),
                  std::move(c_map));
  stats->total_seconds = total_timer.ElapsedSeconds();

#if defined(ATMX_OBS_ENABLED)
  {
    auto& registry = obs::MetricsRegistry::Global();
    ATMX_COUNTER_INC("atmult.operations");
    ATMX_COUNTER_ADD("atmult.pairs", stats->pair_multiplications);
    ATMX_COUNTER_ADD("atmult.result_tiles.dense", stats->dense_result_tiles);
    ATMX_COUNTER_ADD("atmult.result_tiles.sparse",
                     stats->sparse_result_tiles);
    ATMX_COUNTER_ADD("atmult.bytes.local_read", stats->local_read_bytes);
    ATMX_COUNTER_ADD("atmult.bytes.remote_read", stats->remote_read_bytes);
    ATMX_COUNTER_ADD("atmult.bytes.local_write", stats->local_write_bytes);
    ATMX_COUNTER_ADD("atmult.bytes.remote_write", stats->remote_write_bytes);
    ATMX_HISTOGRAM_OBSERVE("atmult.seconds.total", stats->total_seconds);
    // Per-variant invocation counters: names are per-variant, so the
    // function-local-static caching macro does not apply; registration
    // cost is once per operation, not per pair.
    for (int v = 0; v < kNumKernelTypes; ++v) {
      if (stats->kernel_invocations[v] > 0) {
        registry.GetCounter(KernelMetricName(static_cast<KernelType>(v)))
            .Add(static_cast<std::uint64_t>(stats->kernel_invocations[v]));
      }
    }
    // Estimator telemetry: predicted vs. actual per-block density error,
    // joined into the prediction audit ledger when one is armed.
    const DensityMap& actual = result.density_map();
    if (use_estimate && estimate.grid_rows() == actual.grid_rows() &&
        estimate.grid_cols() == actual.grid_cols()) {
      for (index_t bi = 0; bi < actual.grid_rows(); ++bi) {
        for (index_t bj = 0; bj < actual.grid_cols(); ++bj) {
          const double err =
              std::abs(estimate.At(bi, bj) - actual.At(bi, bj));
          ATMX_HISTOGRAM_OBSERVE_WITH("atmult.estimator.abs_error", err,
                                      0.001, 0.005, 0.01, 0.05, 0.1, 0.25,
                                      0.5, 1.0);
          if (ledger_enabled) {
            obs::DensityAuditRecord r;
            r.op = op_id;
            r.bi = bi;
            r.bj = bj;
            r.predicted = estimate.At(bi, bj);
            r.actual = actual.At(bi, bj);
            obs::AuditLedger::Global().RecordDensity(r);
          }
        }
      }
      ATMX_GAUGE_SET("atmult.estimator.predicted_nnz",
                     estimate.ExpectedNnz());
      ATMX_GAUGE_SET("atmult.estimator.actual_nnz", actual.ExpectedNnz());
    }
    if (ledger_enabled && use_estimate) {
      // Water-level outcome: projection vs the materialized result and
      // the tracker high water while this operation ran.
      obs::WaterLevelAuditRecord w;
      w.op = op_id;
      w.rho_w = rho_w;
      w.projected_bytes = projected_bytes;
      w.result_bytes = result.MemoryBytes();
      w.high_water_bytes = obs::MemTracker::Global().high_water_bytes();
      w.feasible = wl_feasible;
      obs::AuditLedger::Global().RecordWaterLevel(w);
    }
    // Placement balance across the worker teams (first-touch home nodes of
    // the result tiles). Dynamic names => direct registry calls.
    std::vector<index_t> node_tiles(static_cast<std::size_t>(teams), 0);
    for (const Tile& t : result.tiles()) {
      const int node = t.home_node();
      if (node >= 0 && node < teams) {
        ++node_tiles[static_cast<std::size_t>(node)];
      }
    }
    index_t min_tiles = std::numeric_limits<index_t>::max();
    index_t max_tiles = 0;
    for (int node = 0; node < teams; ++node) {
      const index_t count = node_tiles[static_cast<std::size_t>(node)];
      registry
          .GetGauge("atmult.placement.node." + std::to_string(node) +
                    ".result_tiles")
          .Set(static_cast<double>(count));
      min_tiles = std::min(min_tiles, count);
      max_tiles = std::max(max_tiles, count);
    }
    ATMX_GAUGE_SET("atmult.placement.balance",
                   max_tiles > 0 ? static_cast<double>(min_tiles) /
                                       static_cast<double>(max_tiles)
                                 : 1.0);
    // Memory telemetry close-out: the realized result size (compare
    // against atmult.waterlevel.predicted_bytes), the kernel's view of the
    // process, and the release of this operation's tracked footprint (the
    // high-water mark keeps the peak).
    ATMX_GAUGE_SET("atmult.result_bytes",
                   static_cast<double>(result.MemoryBytes()));
    obs::MemTracker::Global().RecordFree(
        op_tracked_bytes.load(std::memory_order_relaxed));
    obs::MemTracker::SampleProcess();
  }
#endif
  return result;
}

}  // namespace atmx
