// The product executor (docs/CHAINS.md): the one place that runs ATMULT
// tile tasks. It takes a post-order tree of products — a single
// AtMult::Multiply is a one-node tree, ExecuteChain hands over a planned
// parenthesization — and runs every (row band, col band) pair of every
// product as a tile task (RunProductTileTask, ops/product_task.h), in one
// of two modes:
//
//  - fused: all products in ONE dependency-scheduled task DAG. A downstream
//    product's task starts the moment the input result-tiles it reads are
//    complete — there is no full-matrix barrier between products — and
//    under a budget ready tasks are admission-gated against it.
//  - one batch per node, in post-order (product-at-a-time).
//
// In both modes every result tile is charged to one ResidentTileSet,
// intermediate tiles stay resident only from their producing task until
// their last consuming task finishes, and JIT conversions go through one
// ConversionCache per distinct operand matrix. Both modes run the identical
// per-tile pipeline on identical inputs — same operand tiles, same band
// iteration order, same region-by-region density estimates, same write
// thresholds — so their results are bitwise identical. Under a finite
// memory budget the chain-scope water level (ChainBudgetPlan) plans one
// threshold per product, which both modes apply (scheduling order never
// affects results).

#ifndef ATMX_OPS_CHAIN_EXEC_H_
#define ATMX_OPS_CHAIN_EXEC_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "estimate/density_map.h"
#include "ops/chain.h"
#include "tile/at_matrix.h"

namespace atmx::internal {

// One product of a post-order product tree: children come before their
// parent and the root is the last node.
struct ProductNode {
  // Each operand is an input matrix or, when null, the result of the
  // earlier node `left_node` / `right_node`.
  const ATMatrix* left = nullptr;
  int left_node = -1;
  const ATMatrix* right = nullptr;
  int right_node = -1;
  // Accumulator of C + A * B (MultiplyAdd); null for plain products.
  const ATMatrix* c_init = nullptr;
  // Effective write threshold rhoD_W the node's tasks classify against,
  // and whether it meets the memory budget (water-level audit record).
  double rho_w = 0.0;
  bool feasible = true;
  // The full result-density estimate when the caller already computed it
  // (AtMult does, for its water level); the node's tasks then skip the
  // per-region estimate. `estimate_seconds` is the time that took.
  const DensityMap* estimate = nullptr;
  double estimate_seconds = 0.0;
  // Planning-time estimate of the result: prices the queue order, the
  // admission projections and the parent's operand. Defaults to
  // `estimate`; required for intermediates and under a budget.
  const DensityMap* planned = nullptr;
};

// Chain-scope memory plan: per-product write thresholds solved against the
// shared result_mem_limit_bytes budget, charging each intermediate for its
// resident lifetime (producer through last consumer; see
// SolveChainWaterLevel). Products are indexed in post-order of the plan
// tree — the same order as ChainExecStats::per_product.
struct ChainBudgetPlan {
  // Move-only: products[id].planned points into this plan's planned_maps.
  ChainBudgetPlan() = default;
  ChainBudgetPlan(ChainBudgetPlan&&) = default;
  ChainBudgetPlan& operator=(ChainBudgetPlan&&) = default;
  ChainBudgetPlan(const ChainBudgetPlan&) = delete;
  ChainBudgetPlan& operator=(const ChainBudgetPlan&) = delete;

  // True when a finite budget (with density estimation) drives
  // chain-scope thresholds over two or more products; false leaves the
  // thresholds at the performance-optimal rho_write (a single product
  // under a finite budget gets its own water level instead).
  bool active = false;
  // False when even the memory-minimal thresholds miss the budget; the
  // thresholds are then the clamped floor and ExecuteChain downgrades to
  // product-at-a-time execution as a last resort.
  bool feasible = true;
  std::size_t budget_bytes = 0;
  std::size_t projected_peak_bytes = 0;
  std::vector<double> rho_w;              // per product, post-order
  std::vector<DensityMap> planned_maps;   // per product, post-order
  // The plan tree as the executor's product nodes, post-order, each with
  // its threshold, feasibility and planned map filled in.
  std::vector<ProductNode> products;
};

// Builds the budget plan for the chain in one post-order walk of the plan
// tree, which yields the product nodes and every product's topology
// estimated bottom-up. When the operator's budget is finite, solves the
// chain-scope water level over the products' resident lifetimes (or, for
// a single product, the operator's own per-product water level). With an
// unbounded budget (or estimation disabled) the plan comes back inactive,
// every threshold at rho_write.
ChainBudgetPlan PlanChainBudget(const std::vector<const ATMatrix*>& chain,
                                const ChainPlan& plan, const AtMult& op);

enum class ExecMode { kFused, kPerNode };

// Runs the products and returns the root's result. A non-zero
// `budget_bytes` admission-gates ready tile tasks against it (projected
// bytes reserved up front, released as consumers retire tiles; see
// ScheduleOptions::admit). Fills `stats` (non-null): per_product in node
// order, their sum in total, fused / fused_tasks for kFused, and the
// resident peak. Records the per-product atmult.* telemetry and audit
// records exactly once per node.
ATMatrix ExecuteProducts(const std::vector<ProductNode>& nodes,
                         const AtMult& op, ExecMode mode,
                         std::size_t budget_bytes, ChainExecStats* stats);

// Adds one product's operator stats into the chain total (timings,
// counters, kernel invocations, per-team seconds, locality bytes). The
// total's effective_write_threshold becomes the *minimum* across the
// accumulated products — the binding threshold of the chain — with 0.0
// treated as "unset"; per-product values live in
// ChainExecStats::per_product.
void AccumulateProductStats(const AtMultStats& s, AtMultStats* total);

}  // namespace atmx::internal

#endif  // ATMX_OPS_CHAIN_EXEC_H_
