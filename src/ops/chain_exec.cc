#include "ops/chain_exec.h"

#include <algorithm>
#include <atomic>
#include <limits>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/math_util.h"
#include "common/mutex.h"
#include "common/timer.h"
#include "estimate/density_estimator.h"
#include "estimate/water_level.h"
#include "obs/obs.h"
#if defined(ATMX_OBS_ENABLED)
#include "obs/audit_ledger.h"
#endif
#include "ops/optimizer.h"
#include "ops/product_task.h"
#include "tile/tile_lifetime.h"
#include "topology/thread_pool.h"

namespace atmx::internal {

bool CanFuseChain(const std::vector<const ATMatrix*>& chain,
                  const AtmConfig& config, std::string* reason) {
  if (chain.size() < 3) {  // fewer than two products
    if (reason != nullptr) *reason = "short_chain";
    return false;
  }
  // A finite memory SLA is served by the chain-scope water level
  // (PlanChainBudget), which needs the density estimator for the
  // planning-time intermediate topologies; without estimation nothing can
  // bound the resident set, so those chains stay product-at-a-time.
  if (config.result_mem_limit_bytes !=
          std::numeric_limits<std::size_t>::max() &&
      !config.density_estimation) {
    if (reason != nullptr) *reason = "no_estimation";
    return false;
  }
  return true;
}

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

// One product of the plan tree. Nodes are created in post-order (left
// subtree, right subtree, self), so children always have smaller ids than
// their parent and the per-product stats vector matches the unfused
// executor's execution order; the root is the last node.
struct ProductNode {
  int left_leaf = -1;   // chain index when the left operand is an input
  int left_node = -1;   // producing node when it is an intermediate
  int right_leaf = -1;
  int right_node = -1;
  int parent = -1;      // consuming node; -1 for the root
  bool is_left_of_parent = false;

  index_t num_ti = 0;       // result row bands (left operand's row bands)
  index_t num_tj = 0;       // result col bands (right operand's col bands)
  index_t task_offset = 0;  // global id of this node's task (0, 0)

  // The materializing result grid: slot ti * num_tj + tj.
  std::vector<Tile> tiles;
  std::vector<index_t> row_bounds;
  std::vector<index_t> col_bounds;
  DensityMap map;          // actual densities, filled per task
  DensityMap estimate;     // estimator output, filled per task
  DensityMap planned_map;  // planning-time estimate (LPT costs)

  // JIT conversions of this node's result tiles, when a consuming task
  // prefers the other representation.
  std::unique_ptr<ConversionCache> result_cache;

  ProductContext ctx;
  AtMultStats stats;

  // Consumer countdowns for dropping this node's result tiles: as the
  // left operand of the parent, row band ti is retired when all parent
  // tasks (ti, *) finished; as the right operand, col band tj when all
  // (*, tj) finished.
  std::vector<std::atomic<index_t>> remaining;
};

// Builds the product tree for the subchain (i..j) in post-order and
// returns the subchain root's node id.
int BuildNodes(const ChainPlan& plan, int i, int j,
               std::vector<std::unique_ptr<ProductNode>>* nodes) {
  const int k = plan.split[static_cast<std::size_t>(i)]
                          [static_cast<std::size_t>(j)];
  const int left = i < k ? BuildNodes(plan, i, k, nodes) : -1;
  const int right = k + 1 < j ? BuildNodes(plan, k + 1, j, nodes) : -1;
  auto node = std::make_unique<ProductNode>();
  node->left_node = left;
  node->left_leaf = i == k ? i : -1;
  node->right_node = right;
  node->right_leaf = k + 1 == j ? k + 1 : -1;
  const int id = static_cast<int>(nodes->size());
  if (left >= 0) {
    (*nodes)[static_cast<std::size_t>(left)]->parent = id;
    (*nodes)[static_cast<std::size_t>(left)]->is_left_of_parent = true;
  }
  if (right >= 0) {
    (*nodes)[static_cast<std::size_t>(right)]->parent = id;
    (*nodes)[static_cast<std::size_t>(right)]->is_left_of_parent = false;
  }
  nodes->push_back(std::move(node));
  return id;
}

using NodeVec = std::vector<std::unique_ptr<ProductNode>>;

const DensityMap& LeftActualMap(const std::vector<const ATMatrix*>& chain,
                                const NodeVec& nodes,
                                const ProductNode& node) {
  return node.left_leaf >= 0
             ? chain[static_cast<std::size_t>(node.left_leaf)]->density_map()
             : nodes[static_cast<std::size_t>(node.left_node)]->map;
}

const DensityMap& RightActualMap(const std::vector<const ATMatrix*>& chain,
                                 const NodeVec& nodes,
                                 const ProductNode& node) {
  return node.right_leaf >= 0
             ? chain[static_cast<std::size_t>(node.right_leaf)]->density_map()
             : nodes[static_cast<std::size_t>(node.right_node)]->map;
}

const DensityMap& LeftPlannedMap(const std::vector<const ATMatrix*>& chain,
                                 const NodeVec& nodes,
                                 const ProductNode& node) {
  return node.left_leaf >= 0
             ? chain[static_cast<std::size_t>(node.left_leaf)]->density_map()
             : nodes[static_cast<std::size_t>(node.left_node)]->planned_map;
}

const DensityMap& RightPlannedMap(const std::vector<const ATMatrix*>& chain,
                                  const NodeVec& nodes,
                                  const ProductNode& node) {
  return node.right_leaf >= 0
             ? chain[static_cast<std::size_t>(node.right_leaf)]->density_map()
             : nodes[static_cast<std::size_t>(node.right_node)]->planned_map;
}

// Post-order walk of the plan tree for the subchain (i..j): estimates
// every product's topology bottom-up (leaves use the inputs' actual maps)
// and records each product's consuming parent. Returns the subchain
// root's product id; ids match BuildNodes' post-order.
int WalkPlannedProducts(const std::vector<const ATMatrix*>& chain,
                        const ChainPlan& plan, int i, int j,
                        std::vector<DensityMap>* maps,
                        std::vector<int>* parents) {
  const int k = plan.split[static_cast<std::size_t>(i)]
                          [static_cast<std::size_t>(j)];
  const int left =
      i < k ? WalkPlannedProducts(chain, plan, i, k, maps, parents) : -1;
  const int right =
      k + 1 < j ? WalkPlannedProducts(chain, plan, k + 1, j, maps, parents)
                : -1;
  DensityMap product = EstimateProductDensity(
      left >= 0 ? (*maps)[static_cast<std::size_t>(left)]
                : chain[static_cast<std::size_t>(i)]->density_map(),
      right >= 0 ? (*maps)[static_cast<std::size_t>(right)]
                 : chain[static_cast<std::size_t>(k) + 1]->density_map());
  const int id = static_cast<int>(maps->size());
  maps->push_back(std::move(product));
  parents->push_back(-1);
  if (left >= 0) (*parents)[static_cast<std::size_t>(left)] = id;
  if (right >= 0) (*parents)[static_cast<std::size_t>(right)] = id;
  return id;
}

}  // namespace

ChainBudgetPlan PlanChainBudget(const std::vector<const ATMatrix*>& chain,
                                const ChainPlan& plan, const AtMult& op) {
  ChainBudgetPlan budget;
  const AtmConfig& config = op.config();
  const int n = static_cast<int>(chain.size());
  if (n < 2) return budget;
  std::vector<int> parents;
  WalkPlannedProducts(chain, plan, 0, n - 1, &budget.planned_maps, &parents);
  budget.rho_w.assign(budget.planned_maps.size(), config.rho_write);
  // Chain-scope budgeting needs a finite limit, the estimator for the
  // planned topologies, and at least two products — a single product is
  // exactly the operator's own per-product water level, which MultiplyImpl
  // already runs.
  if (config.result_mem_limit_bytes ==
          std::numeric_limits<std::size_t>::max() ||
      !config.density_estimation || budget.planned_maps.size() < 2) {
    return budget;
  }
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
  return budget;
}

ATMatrix ExecuteChainFused(const std::vector<const ATMatrix*>& chain,
                           const ChainPlan& plan, const AtMult& op,
                           const ChainBudgetPlan& budget,
                           ChainExecStats* stats) {
  ATMX_CHECK(stats != nullptr);
  const AtmConfig& config = op.config();
  const index_t block = chain[0]->b_atomic();
  const int n = static_cast<int>(chain.size());

  NodeVec nodes;
  nodes.reserve(static_cast<std::size_t>(n) - 1);
  const int root_id = BuildNodes(plan, 0, n - 1, &nodes);
  ATMX_CHECK_EQ(root_id, static_cast<int>(nodes.size()) - 1);
  ATMX_CHECK(!budget.active || budget.rho_w.size() == nodes.size());

#if defined(ATMX_OBS_ENABLED)
  const bool audit_enabled = obs::DecisionLog::Global().enabled();
  const bool ledger_enabled = obs::AuditLedger::Global().enabled();
  if (ledger_enabled) {
    obs::AuditLedger::Global().SetCostParams(op.cost_model().params());
  }
#endif
  Mutex stats_mutex;
  ResidentTileSet resident;
  if (budget.active) resident.set_budget_bytes(budget.budget_bytes);

  // Shared JIT conversion caches, one per distinct input matrix, addressed
  // with the kLeft key space on both operand sides — a matrix appearing in
  // several products (or twice in one) converts each tile at most once per
  // chain. Intermediates get their producing node's result_cache.
  std::map<const ATMatrix*, std::unique_ptr<ConversionCache>> leaf_caches;
  auto leaf_cache = [&](int leaf) {
    auto& slot = leaf_caches[chain[static_cast<std::size_t>(leaf)]];
    if (slot == nullptr) slot = std::make_unique<ConversionCache>();
    return slot.get();
  };

  // --- Per-node setup (children before parents: post-order ids). --------
  index_t total_tasks = 0;
  for (std::size_t id = 0; id < nodes.size(); ++id) {
    ProductNode& node = *nodes[id];
    node.row_bounds =
        node.left_leaf >= 0
            ? chain[static_cast<std::size_t>(node.left_leaf)]->row_bounds()
            : nodes[static_cast<std::size_t>(node.left_node)]->row_bounds;
    node.col_bounds =
        node.right_leaf >= 0
            ? chain[static_cast<std::size_t>(node.right_leaf)]->col_bounds()
            : nodes[static_cast<std::size_t>(node.right_node)]->col_bounds;
    node.num_ti = static_cast<index_t>(node.row_bounds.size()) - 1;
    node.num_tj = static_cast<index_t>(node.col_bounds.size()) - 1;
    node.task_offset = total_tasks;
    total_tasks += node.num_ti * node.num_tj;

    const index_t rows = node.row_bounds.back();
    const index_t cols = node.col_bounds.back();
    node.tiles.resize(static_cast<std::size_t>(node.num_ti * node.num_tj));
    node.map = DensityMap(rows, cols, block);
    if (config.density_estimation) {
      node.estimate = DensityMap(rows, cols, block);
    }
    node.result_cache = std::make_unique<ConversionCache>();

    ProductContext& ctx = node.ctx;
    if (node.left_leaf >= 0) {
      ctx.a = OperandView::FromMatrix(
          *chain[static_cast<std::size_t>(node.left_leaf)]);
      ctx.a_cache = leaf_cache(node.left_leaf);
    } else {
      ProductNode& l = *nodes[static_cast<std::size_t>(node.left_node)];
      ctx.a = OperandView::FromGrid(&l.tiles, &l.row_bounds, &l.col_bounds,
                                    &l.map);
      ctx.a_cache = l.result_cache.get();
    }
    if (node.right_leaf >= 0) {
      ctx.b = OperandView::FromMatrix(
          *chain[static_cast<std::size_t>(node.right_leaf)]);
      ctx.b_cache = leaf_cache(node.right_leaf);
    } else {
      ProductNode& r = *nodes[static_cast<std::size_t>(node.right_node)];
      ctx.b = OperandView::FromGrid(&r.tiles, &r.row_bounds, &r.col_bounds,
                                    &r.map);
      ctx.b_cache = r.result_cache.get();
    }
    ctx.block = block;
    ctx.use_estimate = config.density_estimation;
    ctx.estimate = &node.estimate;
    // Unbounded budget: the performance-optimal threshold, exactly as the
    // unfused path's EffectiveWriteThreshold fast path. Finite budget: the
    // chain-scope water level's per-product threshold, which the unfused
    // path imposes identically (rho_w_override) — same representation
    // decisions, bitwise-identical results.
    ctx.rho_w = budget.active ? budget.rho_w[id] : config.rho_write;
    if (id < budget.planned_maps.size()) {
      node.planned_map = budget.planned_maps[id];
    }
    ctx.dynamic_conversion = config.dynamic_conversion;
    ctx.cost_model = &op.cost_model();
    ctx.a_cache_side = ConversionCache::kLeft;
    ctx.b_cache_side = ConversionCache::kLeft;
    ctx.c_tiles = &node.tiles;
    ctx.c_map = &node.map;
    ctx.stats = &node.stats;
    ctx.stats_mutex = &stats_mutex;
    node.stats.effective_write_threshold = ctx.rho_w;
#if defined(ATMX_OBS_ENABLED)
    ctx.audit_enabled = audit_enabled;
    ctx.ledger_enabled = ledger_enabled;
    ctx.op_id = (audit_enabled || ledger_enabled)
                    ? obs::DecisionLog::Global().NextOpId()
                    : 0;
#endif
  }
  // Retire countdowns: sized by the operand band the parent consumes;
  // parents have larger ids, so their band counts exist only after the
  // first pass.
  for (auto& node_ptr : nodes) {
    ProductNode& node = *node_ptr;
    if (node.parent < 0) continue;
    ProductNode& p = *nodes[static_cast<std::size_t>(node.parent)];
    const std::size_t bands = static_cast<std::size_t>(
        node.is_left_of_parent ? node.num_ti : node.num_tj);
    const index_t consumers = node.is_left_of_parent ? p.num_tj : p.num_ti;
    node.remaining = std::vector<std::atomic<index_t>>(bands);
    for (auto& r : node.remaining) {
      r.store(consumers, std::memory_order_relaxed);
    }
  }

  // --- Dependency graph over the global task space. ---------------------
  // Task (ti, tj) of a product reads the left operand's entire row band ti
  // and the right operand's entire col band tj, so it depends on every
  // left-child task (ti, *) and every right-child task (*, tj).
  std::vector<index_t> dep_count(static_cast<std::size_t>(total_tasks), 0);
  std::vector<std::vector<index_t>> successors(
      static_cast<std::size_t>(total_tasks));
  for (auto& node_ptr : nodes) {
    ProductNode& node = *node_ptr;
    const index_t deps =
        (node.left_node >= 0
             ? nodes[static_cast<std::size_t>(node.left_node)]->num_tj
             : 0) +
        (node.right_node >= 0
             ? nodes[static_cast<std::size_t>(node.right_node)]->num_ti
             : 0);
    for (index_t t = 0; t < node.num_ti * node.num_tj; ++t) {
      dep_count[static_cast<std::size_t>(node.task_offset + t)] = deps;
    }
    if (node.parent < 0) continue;
    ProductNode& p = *nodes[static_cast<std::size_t>(node.parent)];
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

  // Global task id -> owning node, via the offsets (nodes are in offset
  // order by construction).
  std::vector<index_t> offsets;
  offsets.reserve(nodes.size());
  for (const auto& node_ptr : nodes) offsets.push_back(node_ptr->task_offset);
  auto node_of = [&](index_t task) {
    return static_cast<int>(std::upper_bound(offsets.begin(), offsets.end(),
                                             task) -
                            offsets.begin()) -
           1;
  };

  // --- LPT queue ordering from planning-time estimates. -----------------
  // The unfused path prices tasks against the operands' actual density
  // maps; here intermediates have no actual map until they materialize, so
  // queue order uses the estimator's planned maps instead (order is a
  // performance hint only — results are unaffected).
  std::vector<double> task_cost;  // outlives sched_options.cost_of
  ScheduleOptions sched_options;
  sched_options.work_stealing = config.work_stealing;
  if (config.work_stealing && total_tasks > 0) {
    task_cost.reserve(static_cast<std::size_t>(total_tasks));
    for (auto& node_ptr : nodes) {  // offset order: appends line up
      ProductNode& node = *node_ptr;
      const DensityMap& amap = LeftPlannedMap(chain, nodes, node);
      const DensityMap& bmap = RightPlannedMap(chain, nodes, node);
      if (node.planned_map.rows() == 0) {  // not seeded by the budget plan
        node.planned_map = EstimateProductDensity(amap, bmap);
      }
      AppendProductTaskCosts(
          op.cost_model(), amap, bmap, node.row_bounds, node.col_bounds,
          config.density_estimation ? &node.planned_map : nullptr,
          &task_cost);
    }
    sched_options.cost_of = [&task_cost](index_t task) {
      return task_cost[static_cast<std::size_t>(task)];
    };
  }

  // --- Admission control against the chain budget. ----------------------
  // Each task's projected output bytes at its product's planned threshold
  // (the same 8 B/elem dense, 16 B/elem sparse pricing the water level
  // used). A ready task reserves its projection before launching; the
  // reservation converts to real charges as tiles materialize and is
  // dropped when the task finishes, so parked tasks re-enter as completed
  // consumers retire upstream tiles. ScheduleOptions::admit guarantees
  // forward progress by force-admitting the oldest parked task when
  // nothing is in flight.
  std::vector<std::uint64_t> task_bytes;
  if (budget.active) {
    task_bytes.assign(static_cast<std::size_t>(total_tasks), 0);
    for (auto& node_ptr : nodes) {
      ProductNode& node = *node_ptr;
      const DensityMap& pm = node.planned_map;
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
    sched_options.admit = [&resident, &task_bytes](index_t task,
                                                   bool force) {
      const std::uint64_t bytes =
          task_bytes[static_cast<std::size_t>(task)];
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

  // --- Run the DAG. -----------------------------------------------------
  const int teams = config.EffectiveTeams();
  TeamScheduler scheduler(teams, config.EffectiveThreadsPerTeam());
  ATMX_TRACE_SPAN_ARGS("chain", "fused_exec",
                       {"products", static_cast<index_t>(nodes.size())},
                       {"tasks", total_tasks});

  auto run_task = [&](WorkerTeam& team, index_t task) {
    const int node_id = node_of(task);
    ProductNode& node = *nodes[static_cast<std::size_t>(node_id)];
    const index_t local = task - node.task_offset;
    const index_t ti = local / node.num_tj;
    const index_t tj = local % node.num_tj;
    ATMX_TRACE_SPAN_ARGS("chain", "fused_tile", {"product", node_id},
                         {"ti", ti}, {"tj", tj});
    ATMX_COUNTER_INC("atmult.fused.tiles");

    const index_t bi0 = node.row_bounds[static_cast<std::size_t>(ti)] / block;
    const index_t bi1 =
        CeilDiv(node.row_bounds[static_cast<std::size_t>(ti) + 1], block);
    const index_t bj0 = node.col_bounds[static_cast<std::size_t>(tj)] / block;
    const index_t bj1 =
        CeilDiv(node.col_bounds[static_cast<std::size_t>(tj) + 1], block);
    if (node.ctx.use_estimate) {
      // Region-by-region estimate from the operands' *actual* maps —
      // bitwise identical to the full pre-pass the unfused path runs,
      // because the dependency edges guarantee the operand bands this
      // region reads are final.
      WallTimer est_timer;
      EstimateProductDensityRegion(LeftActualMap(chain, nodes, node),
                                   RightActualMap(chain, nodes, node), bi0,
                                   bi1, bj0, bj1, &node.estimate);
      const double est_seconds = est_timer.ElapsedSeconds();
      MutexLock lock(stats_mutex);
      node.stats.estimate_seconds += est_seconds;
    }

    // Also sets the region's cells of node.map, which downstream
    // estimates read once the dependency edges release them.
    RunProductTileTask(node.ctx, team, local);

    const Tile& produced = node.tiles[static_cast<std::size_t>(local)];
    // Root tiles charge too: the budget (and the resident peak) covers the
    // whole footprint the fused chain holds, result included — the root's
    // charge is released at the end when ownership passes to the caller.
    resident.Charge(produced.MemoryBytes());

    // Retire operand bands whose last consumer this task was. acq_rel on
    // the countdown orders every consumer's reads before the release.
    if (node.left_node >= 0) {
      ProductNode& l = *nodes[static_cast<std::size_t>(node.left_node)];
      if (l.remaining[static_cast<std::size_t>(ti)].fetch_sub(
              1, std::memory_order_acq_rel) == 1) {
        std::vector<index_t> band(static_cast<std::size_t>(l.num_tj));
        for (index_t j = 0; j < l.num_tj; ++j) {
          band[static_cast<std::size_t>(j)] = ti * l.num_tj + j;
        }
        resident.Retire(&l.tiles, band);
      }
    }
    if (node.right_node >= 0) {
      ProductNode& r = *nodes[static_cast<std::size_t>(node.right_node)];
      if (r.remaining[static_cast<std::size_t>(tj)].fetch_sub(
              1, std::memory_order_acq_rel) == 1) {
        std::vector<index_t> band(static_cast<std::size_t>(r.num_ti));
        for (index_t i = 0; i < r.num_ti; ++i) {
          band[static_cast<std::size_t>(i)] = i * r.num_tj + tj;
        }
        resident.Retire(&r.tiles, band);
      }
    }
    if (budget.active) {
      // The projection is real charges now (or never materialized): hand
      // the reservation back so parked tasks can re-enter.
      resident.ReleaseReservation(
          task_bytes[static_cast<std::size_t>(task)]);
    }
  };

  ScheduleStats sched_stats;
  scheduler.RunTaskGraph(
      total_tasks, dep_count, successors,
      [&](index_t task) {
        // Same round-robin home as one unfused product: the task's result
        // tile-row, within its own product.
        const int node_id = node_of(task);
        const ProductNode& node = *nodes[static_cast<std::size_t>(node_id)];
        return static_cast<int>(((task - node.task_offset) / node.num_tj) %
                                static_cast<index_t>(teams));
      },
      run_task, sched_options, &sched_stats);

  // --- Close out stats. -------------------------------------------------
  stats->fused = true;
  stats->fused_tasks = total_tasks;
  stats->resident_peak_bytes = resident.peak_bytes();
  stats->per_product.reserve(nodes.size());
  for (auto& node_ptr : nodes) {
    ProductNode& node = *node_ptr;
    node.stats.total_seconds = node.stats.PhaseSeconds();
    AccumulateProductStats(node.stats, &stats->total);
    stats->per_product.push_back(node.stats);
  }
  // Per-product conversion deltas are ill-defined under fusion (products
  // interleave on shared caches); the chain totals come straight from the
  // caches.
  index_t s2d = 0;
  index_t d2s = 0;
  for (const auto& entry : leaf_caches) {
    s2d += entry.second->sparse_to_dense_count();
    d2s += entry.second->dense_to_sparse_count();
  }
  for (const auto& node_ptr : nodes) {
    s2d += node_ptr->result_cache->sparse_to_dense_count();
    d2s += node_ptr->result_cache->dense_to_sparse_count();
  }
  stats->total.sparse_to_dense_conversions = s2d;
  stats->total.dense_to_sparse_conversions = d2s;
  stats->total.tasks_stolen = static_cast<index_t>(sched_stats.TotalSteals());
  stats->total.team_busy_seconds = sched_stats.busy_seconds;
  stats->total.team_cpu_seconds = sched_stats.cpu_seconds;

#if defined(ATMX_OBS_ENABLED)
  // Join per-node estimator output against the realized density maps
  // before the root's map is moved into the result matrix.
  if (ledger_enabled && config.density_estimation) {
    for (const auto& node_ptr : nodes) {
      const ProductNode& node = *node_ptr;
      if (node.estimate.grid_rows() != node.map.grid_rows() ||
          node.estimate.grid_cols() != node.map.grid_cols()) {
        continue;
      }
      for (index_t bi = 0; bi < node.map.grid_rows(); ++bi) {
        for (index_t bj = 0; bj < node.map.grid_cols(); ++bj) {
          obs::DensityAuditRecord r;
          r.op = node.ctx.op_id;
          r.bi = bi;
          r.bj = bj;
          r.predicted = node.estimate.At(bi, bj);
          r.actual = node.map.At(bi, bj);
          obs::AuditLedger::Global().RecordDensity(r);
        }
      }
    }
  }
#endif

  ProductNode& root = *nodes[static_cast<std::size_t>(root_id)];
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
  ATMX_COUNTER_INC("atmult.fused.chains");
  ATMX_COUNTER_ADD("atmult.fused.products",
                   static_cast<std::uint64_t>(nodes.size()));
  ATMX_GAUGE_SET("atmult.fused.resident_bytes_peak",
                 static_cast<double>(stats->resident_peak_bytes));
  if (budget.active) {
    ATMX_GAUGE_SET("atmult.fused.budget_bytes",
                   static_cast<double>(budget.budget_bytes));
  }
  obs::MemTracker::SampleProcess();
#endif
  return result;
}

}  // namespace atmx::internal
