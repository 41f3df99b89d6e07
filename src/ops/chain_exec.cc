#include "ops/chain_exec.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/math_util.h"
#include "common/mutex.h"
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
#include "tile/tile_lifetime.h"
#include "topology/thread_pool.h"

namespace atmx::internal {

void AccumulateProductStats(const AtMultStats& s, AtMultStats* total) {
  total->estimate_seconds += s.estimate_seconds;
  total->optimize_seconds += s.optimize_seconds;
  total->multiply_seconds += s.multiply_seconds;
  total->total_seconds += s.total_seconds;
  // The chain's threshold is the minimum across its products — the
  // binding one for representation decisions (0.0 means "not set yet").
  if (total->effective_write_threshold == 0.0) {
    total->effective_write_threshold = s.effective_write_threshold;
  } else if (s.effective_write_threshold > 0.0) {
    total->effective_write_threshold = std::min(
        total->effective_write_threshold, s.effective_write_threshold);
  }
  total->pair_multiplications += s.pair_multiplications;
  total->sparse_to_dense_conversions += s.sparse_to_dense_conversions;
  total->dense_to_sparse_conversions += s.dense_to_sparse_conversions;
  total->dense_result_tiles += s.dense_result_tiles;
  total->sparse_result_tiles += s.sparse_result_tiles;
  for (int v = 0; v < kNumKernelTypes; ++v) {
    total->kernel_invocations[v] += s.kernel_invocations[v];
  }
  total->tasks_stolen += s.tasks_stolen;
  if (total->team_busy_seconds.size() < s.team_busy_seconds.size()) {
    total->team_busy_seconds.resize(s.team_busy_seconds.size(), 0.0);
  }
  for (std::size_t t = 0; t < s.team_busy_seconds.size(); ++t) {
    total->team_busy_seconds[t] += s.team_busy_seconds[t];
  }
  if (total->team_cpu_seconds.size() < s.team_cpu_seconds.size()) {
    total->team_cpu_seconds.resize(s.team_cpu_seconds.size(), 0.0);
  }
  for (std::size_t t = 0; t < s.team_cpu_seconds.size(); ++t) {
    total->team_cpu_seconds[t] += s.team_cpu_seconds[t];
  }
  total->local_read_bytes += s.local_read_bytes;
  total->remote_read_bytes += s.remote_read_bytes;
  total->local_write_bytes += s.local_write_bytes;
  total->remote_write_bytes += s.remote_write_bytes;
}

namespace {

// Post-order walk of the plan tree for the subchain (i..j): appends each
// product's node (operands: an input matrix or an earlier node) and its
// topology, estimated bottom-up from the inputs' actual maps, and records
// each product's consuming parent. Returns the subchain root's product id,
// or -1 for a single matrix; ids follow ChainExecStats::per_product's
// post-order.
int WalkPlannedProducts(const std::vector<const ATMatrix*>& chain,
                        const ChainPlan& plan, int i, int j,
                        ChainBudgetPlan* budget, std::vector<int>* parents) {
  if (i == j) return -1;
  const int k = plan.split[static_cast<std::size_t>(i)]
                          [static_cast<std::size_t>(j)];
  ProductNode node;
  node.left_node = WalkPlannedProducts(chain, plan, i, k, budget, parents);
  node.right_node =
      WalkPlannedProducts(chain, plan, k + 1, j, budget, parents);
  if (node.left_node < 0) node.left = chain[static_cast<std::size_t>(i)];
  if (node.right_node < 0) {
    node.right = chain[static_cast<std::size_t>(k) + 1];
  }
  auto map_of = [budget](const ATMatrix* leaf, int id) -> const DensityMap& {
    return leaf != nullptr ? leaf->density_map()
                           : budget->planned_maps[static_cast<std::size_t>(id)];
  };
  DensityMap product = EstimateProductDensity(
      map_of(node.left, node.left_node), map_of(node.right, node.right_node));
  const int id = static_cast<int>(budget->products.size());
  budget->planned_maps.push_back(std::move(product));
  budget->products.push_back(node);
  parents->push_back(-1);
  if (node.left_node >= 0) {
    (*parents)[static_cast<std::size_t>(node.left_node)] = id;
  }
  if (node.right_node >= 0) {
    (*parents)[static_cast<std::size_t>(node.right_node)] = id;
  }
  return id;
}

// Runtime state of one product node.
struct NodeRun {
  const ProductNode* spec = nullptr;
  int parent = -1;  // consuming node; -1 for the root
  bool is_left_of_parent = false;

  index_t num_ti = 0;       // result row bands (left operand's row bands)
  index_t num_tj = 0;       // result col bands (right operand's col bands)
  index_t task_offset = 0;  // global id of this node's task (0, 0)

  // The materializing result grid: slot ti * num_tj + tj.
  std::vector<Tile> tiles;
  std::vector<index_t> row_bounds;
  std::vector<index_t> col_bounds;
  DensityMap map;       // actual densities, filled per task
  DensityMap estimate;  // filled per task when the spec brings none
  const DensityMap* planned = nullptr;

  ProductContext ctx;
  AtMultStats stats;

  // Consumer countdowns for dropping this node's result tiles: as the
  // left operand of the parent, row band ti is retired when all parent
  // tasks (ti, *) finished; as the right operand, col band tj when all
  // (*, tj) finished.
  std::vector<std::atomic<index_t>> remaining;
};

using NodeVec = std::vector<std::unique_ptr<NodeRun>>;

// Density map of one operand: an input's own map, or the producing node's
// actual map (final for the bands a task reads once its dependencies ran)
// or planning-time estimate.
const DensityMap& OperandMap(const ATMatrix* leaf, int node,
                             const NodeVec& nodes, bool planned) {
  if (leaf != nullptr) return leaf->density_map();
  const NodeRun& src = *nodes[static_cast<std::size_t>(node)];
  if (!planned) return src.map;
  ATMX_CHECK(src.planned != nullptr);
  return *src.planned;
}

#if defined(ATMX_OBS_ENABLED)
// Per-product telemetry, recorded once per node after its tasks ran: the
// atmult.* counters and histograms, the water-level and estimator gauges
// and audit records, the placement gauges.
void RecordProductTelemetry(const NodeRun& node, const AtmConfig& config,
                            int teams) {
  const AtMultStats& s = node.stats;
  auto& registry = obs::MetricsRegistry::Global();
  ATMX_COUNTER_INC("atmult.operations");
  ATMX_COUNTER_ADD("atmult.pairs", s.pair_multiplications);
  ATMX_COUNTER_ADD("atmult.result_tiles.dense", s.dense_result_tiles);
  ATMX_COUNTER_ADD("atmult.result_tiles.sparse", s.sparse_result_tiles);
  ATMX_COUNTER_ADD("atmult.bytes.local_read", s.local_read_bytes);
  ATMX_COUNTER_ADD("atmult.bytes.remote_read", s.remote_read_bytes);
  ATMX_COUNTER_ADD("atmult.bytes.local_write", s.local_write_bytes);
  ATMX_COUNTER_ADD("atmult.bytes.remote_write", s.remote_write_bytes);
  ATMX_HISTOGRAM_OBSERVE("atmult.seconds.total", s.total_seconds);
  // Per-variant invocation counters: names are per-variant, so the
  // function-local-static caching macro does not apply; registration
  // cost is once per product, not per pair.
  for (int v = 0; v < kNumKernelTypes; ++v) {
    if (s.kernel_invocations[v] > 0) {
      registry.GetCounter(KernelMetricName(static_cast<KernelType>(v)))
          .Add(static_cast<std::uint64_t>(s.kernel_invocations[v]));
    }
  }

  const double rho_w = node.ctx.rho_w;
  // Every result tile wrote its bytes once (first-touch placement), so
  // the write counters are the realized result size.
  const std::uint64_t result_bytes =
      s.local_write_bytes + s.remote_write_bytes;
  ATMX_GAUGE_SET("atmult.waterlevel.rho_w", rho_w);
  if (node.ctx.use_estimate) {
    const DensityMap& estimate = *node.ctx.estimate;
    const DensityMap& actual = node.map;
    // Projected result memory at the effective threshold — the number
    // the mem-tracker high-water mark and the realized result size
    // (atmult.result_bytes) are compared against.
    const std::uint64_t projected_bytes = EstimateMemoryBytes(estimate, rho_w);
    ATMX_GAUGE_SET("atmult.waterlevel.predicted_bytes",
                   static_cast<double>(projected_bytes));
    if (config.result_mem_limit_bytes !=
        std::numeric_limits<std::size_t>::max()) {
      // Water-level headroom: how far under the memory SLA the projected
      // result stays at the effective threshold (negative = infeasible).
      ATMX_GAUGE_SET("atmult.waterlevel.headroom_bytes",
                     static_cast<double>(config.result_mem_limit_bytes) -
                         static_cast<double>(projected_bytes));
    }
    // Estimator telemetry: predicted vs. actual per-block density error,
    // joined into the prediction audit ledger when one is armed.
    if (estimate.grid_rows() == actual.grid_rows() &&
        estimate.grid_cols() == actual.grid_cols()) {
      for (index_t bi = 0; bi < actual.grid_rows(); ++bi) {
        for (index_t bj = 0; bj < actual.grid_cols(); ++bj) {
          const double err =
              std::abs(estimate.At(bi, bj) - actual.At(bi, bj));
          ATMX_HISTOGRAM_OBSERVE_WITH("atmult.estimator.abs_error", err,
                                      0.001, 0.005, 0.01, 0.05, 0.1, 0.25,
                                      0.5, 1.0);
          if (node.ctx.ledger_enabled) {
            obs::DensityAuditRecord r;
            r.op = node.ctx.op_id;
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
    if (node.ctx.ledger_enabled) {
      // Water-level outcome: projection vs the materialized result and
      // the tracker high water while this product ran.
      obs::WaterLevelAuditRecord w;
      w.op = node.ctx.op_id;
      w.rho_w = rho_w;
      w.projected_bytes = projected_bytes;
      w.result_bytes = result_bytes;
      w.high_water_bytes = obs::MemTracker::Global().high_water_bytes();
      w.feasible = node.spec->feasible;
      obs::AuditLedger::Global().RecordWaterLevel(w);
    }
  }
  // Placement balance across the worker teams (first-touch home nodes of
  // the result tiles; retired tiles keep theirs). Dynamic names => direct
  // registry calls.
  std::vector<index_t> node_tiles(static_cast<std::size_t>(teams), 0);
  for (const Tile& t : node.tiles) {
    const int home = t.home_node();
    if (home >= 0 && home < teams) {
      ++node_tiles[static_cast<std::size_t>(home)];
    }
  }
  index_t min_tiles = std::numeric_limits<index_t>::max();
  index_t max_tiles = 0;
  for (int team = 0; team < teams; ++team) {
    const index_t count = node_tiles[static_cast<std::size_t>(team)];
    registry
        .GetGauge("atmult.placement.node." + std::to_string(team) +
                  ".result_tiles")
        .Set(static_cast<double>(count));
    min_tiles = std::min(min_tiles, count);
    max_tiles = std::max(max_tiles, count);
  }
  ATMX_GAUGE_SET("atmult.placement.balance",
                 max_tiles > 0 ? static_cast<double>(min_tiles) /
                                     static_cast<double>(max_tiles)
                               : 1.0);
  ATMX_GAUGE_SET("atmult.result_bytes", static_cast<double>(result_bytes));
}
#endif

void AttributeSchedule(const ScheduleStats& sched, AtMultStats* stats) {
  stats->tasks_stolen = static_cast<index_t>(sched.TotalSteals());
  stats->team_busy_seconds = sched.busy_seconds;
  stats->team_cpu_seconds = sched.cpu_seconds;
}

}  // namespace

ChainBudgetPlan PlanChainBudget(const std::vector<const ATMatrix*>& chain,
                                const ChainPlan& plan, const AtMult& op) {
  ChainBudgetPlan budget;
  const AtmConfig& config = op.config();
  const int n = static_cast<int>(chain.size());
  if (n < 2) return budget;
  std::vector<int> parents;
  WalkPlannedProducts(chain, plan, 0, n - 1, &budget, &parents);
  budget.rho_w.assign(budget.planned_maps.size(), config.rho_write);
  // Budgeting needs a finite limit and the estimator for the planned
  // topologies.
  if (config.result_mem_limit_bytes !=
          std::numeric_limits<std::size_t>::max() &&
      config.density_estimation) {
    if (budget.planned_maps.size() == 1) {
      // A single product gets the operator's own per-product water level,
      // exactly as AtMult::Multiply solves it.
      budget.rho_w[0] = EffectiveWriteThreshold(
          budget.planned_maps[0], config.rho_write,
          config.result_mem_limit_bytes, &budget.feasible);
    } else {
      budget.active = true;
      budget.budget_bytes = config.result_mem_limit_bytes;
      std::vector<const DensityMap*> maps;
      maps.reserve(budget.planned_maps.size());
      for (const DensityMap& m : budget.planned_maps) maps.push_back(&m);
      const ChainWaterLevelResult wl = SolveChainWaterLevel(
          maps, parents, config.rho_write, budget.budget_bytes);
      budget.rho_w = wl.thresholds;
      budget.feasible = wl.feasible;
      budget.projected_peak_bytes = wl.projected_peak_bytes;
    }
  }
  for (std::size_t id = 0; id < budget.products.size(); ++id) {
    ProductNode& node = budget.products[id];
    node.rho_w = budget.rho_w[id];
    node.feasible = budget.feasible;
    node.planned = &budget.planned_maps[id];
  }
  return budget;
}

ATMatrix ExecuteProducts(const std::vector<ProductNode>& specs,
                         const AtMult& op, ExecMode mode,
                         std::size_t budget_bytes, ChainExecStats* stats) {
  ATMX_CHECK(stats != nullptr);
  ATMX_CHECK(!specs.empty());
  // Post-order: the first node has no children, so both operands are
  // inputs.
  ATMX_CHECK(specs[0].left != nullptr && specs[0].right != nullptr);
  WallTimer batch_timer;
  const AtmConfig& config = op.config();
  const bool fused = mode == ExecMode::kFused;
  const index_t block = specs[0].left->b_atomic();
  const std::size_t n = specs.size();

#if defined(ATMX_OBS_ENABLED)
  const bool ledger_enabled = obs::AuditLedger::Global().enabled();
  if (ledger_enabled) {
    // The counterfactual replay re-runs DecidePairRepresentations with
    // the parameters this operation actually decided with.
    obs::AuditLedger::Global().SetCostParams(op.cost_model().params());
  }
#endif
  Mutex stats_mutex;
  ResidentTileSet resident;
  resident.set_budget_bytes(budget_bytes);

  // One JIT conversion cache per distinct operand matrix (input or
  // intermediate), keyed by its tile vector: a matrix on both sides of a
  // product, or in several products, converts each tile at most once.
  std::map<const std::vector<Tile>*, std::unique_ptr<ConversionCache>> caches;
  auto cache_for = [&caches](const std::vector<Tile>* tiles) {
    auto& slot = caches[tiles];
    if (slot == nullptr) slot = std::make_unique<ConversionCache>();
    return slot.get();
  };

  // --- Per-node setup (children before parents: post-order ids). --------
  NodeVec nodes;
  nodes.reserve(n);
  index_t total_tasks = 0;
  for (std::size_t id = 0; id < n; ++id) {
    nodes.push_back(std::make_unique<NodeRun>());
    NodeRun& node = *nodes.back();
    const ProductNode& spec = specs[id];
    node.spec = &spec;
    node.planned = spec.planned != nullptr ? spec.planned : spec.estimate;
    ProductContext& ctx = node.ctx;
    auto bind = [&](const ATMatrix* leaf, int src_id, bool is_left,
                    OperandView* view, ConversionCache** cache) {
      if (leaf != nullptr) {
        ATMX_CHECK_EQ(leaf->b_atomic(), block);
        *view = OperandView::FromMatrix(*leaf);
        *cache = cache_for(&leaf->tiles());
        return;
      }
      ATMX_CHECK(src_id >= 0 && static_cast<std::size_t>(src_id) < id);
      NodeRun& src = *nodes[static_cast<std::size_t>(src_id)];
      ATMX_CHECK_EQ(src.parent, -1);
      src.parent = static_cast<int>(id);
      src.is_left_of_parent = is_left;
      *view = OperandView::FromGrid(&src.tiles, &src.row_bounds,
                                    &src.col_bounds, &src.map);
      *cache = cache_for(&src.tiles);
    };
    bind(spec.left, spec.left_node, true, &ctx.a, &ctx.a_cache);
    bind(spec.right, spec.right_node, false, &ctx.b, &ctx.b_cache);
    ATMX_CHECK_EQ(ctx.a.cols(), ctx.b.rows());

    node.row_bounds = ctx.a.row_bounds();
    node.col_bounds = ctx.b.col_bounds();
    node.num_ti = ctx.a.num_row_bands();
    node.num_tj = ctx.b.num_col_bands();
    node.task_offset = total_tasks;
    total_tasks += node.num_ti * node.num_tj;
    node.tiles.resize(static_cast<std::size_t>(node.num_ti * node.num_tj));
    node.map = DensityMap(ctx.a.rows(), ctx.b.cols(), block);

    ctx.block = block;
    ctx.use_estimate = config.density_estimation;
    if (ctx.use_estimate && spec.estimate == nullptr) {
      node.estimate = DensityMap(ctx.a.rows(), ctx.b.cols(), block);
    }
    ctx.estimate = spec.estimate != nullptr ? spec.estimate : &node.estimate;
    ctx.rho_w = spec.rho_w;
    ctx.dynamic_conversion = config.dynamic_conversion;
    ctx.cost_model = &op.cost_model();
    ctx.c_init = spec.c_init;
    ctx.c_tiles = &node.tiles;
    ctx.c_map = &node.map;
    ctx.stats = &node.stats;
    ctx.stats_mutex = &stats_mutex;
    node.stats.effective_write_threshold = spec.rho_w;
    node.stats.estimate_seconds = spec.estimate_seconds;
#if defined(ATMX_OBS_ENABLED)
    ctx.ledger_enabled = ledger_enabled;
    ctx.op_id = ledger_enabled ? obs::AuditLedger::Global().NextOpId() : 0;
#endif
  }
  // Retire countdowns: sized by the operand band the parent consumes;
  // parents have larger ids, so their band counts exist only after the
  // first pass. Every node but the root has exactly one consumer.
  for (std::size_t id = 0; id + 1 < n; ++id) {
    NodeRun& node = *nodes[id];
    ATMX_CHECK(node.parent >= 0);
    const NodeRun& p = *nodes[static_cast<std::size_t>(node.parent)];
    const std::size_t bands = static_cast<std::size_t>(
        node.is_left_of_parent ? node.num_ti : node.num_tj);
    const index_t consumers = node.is_left_of_parent ? p.num_tj : p.num_ti;
    node.remaining = std::vector<std::atomic<index_t>>(bands);
    for (auto& r : node.remaining) {
      r.store(consumers, std::memory_order_relaxed);
    }
  }

  // --- Dependency graph over the global task space (fused only). --------
  // Task (ti, tj) of a product reads the left operand's entire row band ti
  // and the right operand's entire col band tj, so it depends on every
  // left-child task (ti, *) and every right-child task (*, tj). One batch
  // per node needs no edges: a node's children finished in earlier
  // batches.
  std::vector<index_t> dep_count;
  std::vector<std::vector<index_t>> successors;
  if (fused && n > 1) {
    dep_count.assign(static_cast<std::size_t>(total_tasks), 0);
    successors.resize(static_cast<std::size_t>(total_tasks));
    for (auto& node_ptr : nodes) {
      const NodeRun& node = *node_ptr;
      const ProductNode& spec = *node.spec;
      const index_t deps =
          (spec.left == nullptr
               ? nodes[static_cast<std::size_t>(spec.left_node)]->num_tj
               : 0) +
          (spec.right == nullptr
               ? nodes[static_cast<std::size_t>(spec.right_node)]->num_ti
               : 0);
      for (index_t t = 0; t < node.num_ti * node.num_tj; ++t) {
        dep_count[static_cast<std::size_t>(node.task_offset + t)] = deps;
      }
      if (node.parent < 0) continue;
      const NodeRun& p = *nodes[static_cast<std::size_t>(node.parent)];
      for (index_t ti = 0; ti < node.num_ti; ++ti) {
        for (index_t tj = 0; tj < node.num_tj; ++tj) {
          auto& succ = successors[static_cast<std::size_t>(
              node.task_offset + ti * node.num_tj + tj)];
          if (node.is_left_of_parent) {
            succ.reserve(static_cast<std::size_t>(p.num_tj));
            for (index_t j = 0; j < p.num_tj; ++j) {
              succ.push_back(p.task_offset + ti * p.num_tj + j);
            }
          } else {
            succ.reserve(static_cast<std::size_t>(p.num_ti));
            for (index_t i = 0; i < p.num_ti; ++i) {
              succ.push_back(p.task_offset + i * p.num_tj + tj);
            }
          }
        }
      }
    }
  }

  // Global task id -> owning node, via the offsets (nodes are in offset
  // order by construction).
  std::vector<index_t> offsets;
  offsets.reserve(n);
  for (const auto& node_ptr : nodes) offsets.push_back(node_ptr->task_offset);
  auto node_of = [&offsets](index_t task) {
    return static_cast<int>(std::upper_bound(offsets.begin(), offsets.end(),
                                             task) -
                            offsets.begin()) -
           1;
  };

  // --- LPT queue ordering from planning-time estimates. -----------------
  // Intermediates have no actual map until they materialize, so queue
  // order uses the planned maps (order is a performance hint only —
  // results are unaffected).
  std::vector<double> task_cost;
  if (config.work_stealing && total_tasks > 0) {
    task_cost.reserve(static_cast<std::size_t>(total_tasks));
    for (const auto& node_ptr : nodes) {  // offset order: appends line up
      const NodeRun& node = *node_ptr;
      const ProductNode& spec = *node.spec;
      AppendProductTaskCosts(
          op.cost_model(),
          OperandMap(spec.left, spec.left_node, nodes, /*planned=*/true),
          OperandMap(spec.right, spec.right_node, nodes, /*planned=*/true),
          node.row_bounds, node.col_bounds,
          config.density_estimation ? node.planned : nullptr, &task_cost);
    }
  }

  // --- Admission control against the budget. ----------------------------
  // Each task's projected output bytes at its product's planned threshold
  // (the same 8 B/elem dense, 16 B/elem sparse pricing the water level
  // used). A ready task reserves its projection before launching; the
  // reservation converts to real charges as tiles materialize and is
  // dropped when the task finishes, so parked tasks re-enter as completed
  // consumers retire upstream tiles. ScheduleOptions::admit guarantees
  // forward progress by force-admitting the oldest parked task when
  // nothing is in flight.
  std::vector<std::uint64_t> task_bytes;
  if (budget_bytes > 0) {
    task_bytes.assign(static_cast<std::size_t>(total_tasks), 0);
    for (const auto& node_ptr : nodes) {
      const NodeRun& node = *node_ptr;
      ATMX_CHECK(node.planned != nullptr);
      const DensityMap& pm = *node.planned;
      for (index_t ti = 0; ti < node.num_ti; ++ti) {
        const index_t bi0 =
            node.row_bounds[static_cast<std::size_t>(ti)] / block;
        const index_t bi1 =
            CeilDiv(node.row_bounds[static_cast<std::size_t>(ti) + 1], block);
        for (index_t tj = 0; tj < node.num_tj; ++tj) {
          const index_t bj0 =
              node.col_bounds[static_cast<std::size_t>(tj)] / block;
          const index_t bj1 = CeilDiv(
              node.col_bounds[static_cast<std::size_t>(tj) + 1], block);
          double bytes = 0.0;
          for (index_t bi = bi0; bi < bi1; ++bi) {
            for (index_t bj = bj0; bj < bj1; ++bj) {
              const double area = static_cast<double>(pm.BlockArea(bi, bj));
              const double rho = pm.At(bi, bj);
              bytes += rho >= node.ctx.rho_w
                           ? area * kDenseElemBytes
                           : rho * area * kSparseElemBytes;
            }
          }
          task_bytes[static_cast<std::size_t>(node.task_offset +
                                              ti * node.num_tj + tj)] =
              static_cast<std::uint64_t>(bytes);
        }
      }
    }
  }

  // --- The tile task. ---------------------------------------------------
  auto tile_task = [&](WorkerTeam& team, index_t task) {
    NodeRun& node = *nodes[static_cast<std::size_t>(node_of(task))];
    const ProductNode& spec = *node.spec;
    const index_t local = task - node.task_offset;
    const index_t ti = local / node.num_tj;
    const index_t tj = local % node.num_tj;

    if (node.ctx.use_estimate && spec.estimate == nullptr) {
      // Region-by-region estimate from the operands' *actual* maps —
      // bitwise identical to a full pre-pass, because the operand bands
      // this region reads are final (dependency edges or earlier
      // batches).
      const index_t bi0 = node.row_bounds[static_cast<std::size_t>(ti)] / block;
      const index_t bi1 =
          CeilDiv(node.row_bounds[static_cast<std::size_t>(ti) + 1], block);
      const index_t bj0 = node.col_bounds[static_cast<std::size_t>(tj)] / block;
      const index_t bj1 =
          CeilDiv(node.col_bounds[static_cast<std::size_t>(tj) + 1], block);
      WallTimer est_timer;
      EstimateProductDensityRegion(
          OperandMap(spec.left, spec.left_node, nodes, /*planned=*/false),
          OperandMap(spec.right, spec.right_node, nodes, /*planned=*/false),
          bi0, bi1, bj0, bj1, &node.estimate);
      const double est_seconds = est_timer.ElapsedSeconds();
      MutexLock lock(stats_mutex);
      node.stats.estimate_seconds += est_seconds;
    }

    // Also sets the region's cells of node.map, which downstream
    // estimates read once their dependencies release them.
    RunProductTileTask(node.ctx, team, local);

    // Every result tile charges the resident set: the budget (and the
    // resident peak) covers the whole footprint held, result included —
    // the root's charge is released at the end when ownership passes to
    // the caller.
    resident.Charge(node.tiles[static_cast<std::size_t>(local)].MemoryBytes());

    // Retire operand bands whose last consumer this task was. acq_rel on
    // the countdown orders every consumer's reads before the release.
    if (spec.left == nullptr) {
      NodeRun& l = *nodes[static_cast<std::size_t>(spec.left_node)];
      if (l.remaining[static_cast<std::size_t>(ti)].fetch_sub(
              1, std::memory_order_acq_rel) == 1) {
        std::vector<index_t> band(static_cast<std::size_t>(l.num_tj));
        for (index_t j = 0; j < l.num_tj; ++j) {
          band[static_cast<std::size_t>(j)] = ti * l.num_tj + j;
        }
        resident.Retire(&l.tiles, band);
      }
    }
    if (spec.right == nullptr) {
      NodeRun& r = *nodes[static_cast<std::size_t>(spec.right_node)];
      if (r.remaining[static_cast<std::size_t>(tj)].fetch_sub(
              1, std::memory_order_acq_rel) == 1) {
        std::vector<index_t> band(static_cast<std::size_t>(r.num_ti));
        for (index_t i = 0; i < r.num_ti; ++i) {
          band[static_cast<std::size_t>(i)] = i * r.num_tj + tj;
        }
        resident.Retire(&r.tiles, band);
      }
    }
    if (budget_bytes > 0) {
      // The projection is real charges now (or never materialized): hand
      // the reservation back so parked tasks can re-enter.
      resident.ReleaseReservation(
          task_bytes[static_cast<std::size_t>(task)]);
    }
  };

  // --- Run: one batch, or one batch per node. ----------------------------
  const int teams = config.EffectiveTeams();
  TeamScheduler scheduler(teams, config.EffectiveThreadsPerTeam());
  // Runs the tasks of nodes [first, last) as one scheduler batch.
  auto run_batch = [&](std::size_t first, std::size_t last,
                       ScheduleStats* sched_stats) {
    const index_t base = nodes[first]->task_offset;
    const index_t end = last < n ? nodes[last]->task_offset : total_tasks;
    ScheduleOptions options;
    options.work_stealing = config.work_stealing;
    if (!task_cost.empty()) {
      options.cost_of = [&task_cost, base](index_t t) {
        return task_cost[static_cast<std::size_t>(base + t)];
      };
    }
    if (budget_bytes > 0) {
      options.admit = [&resident, &task_bytes, base](index_t t, bool force) {
        const std::uint64_t bytes =
            task_bytes[static_cast<std::size_t>(base + t)];
        if (force) {
          resident.ForceReserve(bytes);
          ATMX_COUNTER_INC("atmult.fused.admission.forced");
          return true;
        }
        if (!resident.TryReserve(bytes)) {
          ATMX_COUNTER_INC("atmult.fused.admission.parked");
          return false;
        }
        return true;
      };
    }
    std::function<void(WorkerTeam&, index_t)> run =
        [&tile_task, base](WorkerTeam& team, index_t t) {
          tile_task(team, base + t);
        };
    if (fused) {
      run = [&tile_task, &node_of, base](WorkerTeam& team, index_t t) {
        ATMX_TRACE_SPAN_ARGS("chain", "fused_tile",
                             {"product", node_of(base + t)},
                             {"task", base + t});
        ATMX_COUNTER_INC("atmult.fused.tiles");
        tile_task(team, base + t);
      };
    }
    scheduler.RunTaskGraph(
        end - base, dep_count, successors,
        [&](index_t t) {
          // Tasks follow their result tile-row's round-robin home (III-F),
          // within their own product; with work stealing this is the
          // *initial* queue, and the task accounts locality against the
          // team that actually executes it.
          const NodeRun& node = *nodes[static_cast<std::size_t>(
              node_of(base + t))];
          return static_cast<int>(((base + t - node.task_offset) /
                                   node.num_tj) %
                                  static_cast<index_t>(teams));
        },
        run, options, sched_stats);
  };

  // A batch that runs one node hands that node its scheduler outcome and
  // wall time; a multi-product DAG's outcome goes to the chain total.
  auto close_batch = [&](std::size_t id, const ScheduleStats& sched) {
    NodeRun& node = *nodes[id];
    AttributeSchedule(sched, &node.stats);
    node.stats.total_seconds =
        node.spec->estimate_seconds + batch_timer.ElapsedSeconds();
    batch_timer.Restart();
  };
  const bool one_dag = fused && n > 1;
  ScheduleStats dag_sched;
  if (fused) {
    ATMX_TRACE_SPAN_ARGS("chain", "fused_exec",
                         {"products", static_cast<index_t>(n)},
                         {"tasks", total_tasks});
    run_batch(0, n, &dag_sched);
    if (!one_dag) close_batch(0, dag_sched);
  } else {
    for (std::size_t id = 0; id < n; ++id) {
      ScheduleStats sched;
      run_batch(id, id + 1, &sched);
      close_batch(id, sched);
    }
  }

  // --- Close out stats and telemetry, once per node. --------------------
  stats->fused = fused;
  stats->fused_tasks = fused ? total_tasks : 0;
  stats->resident_peak_bytes = resident.peak_bytes();
  stats->per_product.reserve(n);
  for (auto& node_ptr : nodes) {
    NodeRun& node = *node_ptr;
    // Products of one DAG interleave: their phase sum stands in for wall.
    if (one_dag) node.stats.total_seconds = node.stats.PhaseSeconds();
#if defined(ATMX_OBS_ENABLED)
    RecordProductTelemetry(node, config, teams);
#endif
    AccumulateProductStats(node.stats, &stats->total);
    stats->per_product.push_back(node.stats);
    if (node.ctx.ledger_enabled) stats->product_ops.push_back(node.ctx.op_id);
  }
  if (one_dag) AttributeSchedule(dag_sched, &stats->total);

  NodeRun& root = *nodes.back();
  std::uint64_t root_bytes = 0;
  for (const Tile& t : root.tiles) root_bytes += t.MemoryBytes();
  ATMatrix result(root.row_bounds.back(), root.col_bounds.back(), block,
                  std::move(root.tiles), std::move(root.map));
  // Ownership of the root tiles passes to the caller: uncharge them from
  // the resident set (the peak keeps the high-water mark; with the
  // observability layer in, ReleaseCharge also returns the bytes to the
  // MemTracker exactly as their Charge recorded them).
  resident.ReleaseCharge(root_bytes);

#if defined(ATMX_OBS_ENABLED)
  if (fused) {
    ATMX_COUNTER_INC("atmult.fused.chains");
    ATMX_COUNTER_ADD("atmult.fused.products", static_cast<std::uint64_t>(n));
    ATMX_GAUGE_SET("atmult.fused.resident_bytes_peak",
                   static_cast<double>(stats->resident_peak_bytes));
    if (budget_bytes > 0) {
      ATMX_GAUGE_SET("atmult.fused.budget_bytes",
                     static_cast<double>(budget_bytes));
    }
  }
  obs::MemTracker::SampleProcess();
#endif
  return result;
}

}  // namespace atmx::internal
