// The tile-granular unit of work of the product executor: one task
// produces one C tile of one product A * B in two phases, each of which
// exists once:
//
//  - plan (PlanTilePairs): window matching and the per-pair representation
//    decisions. ExplainMultiply runs the same function without executing.
//  - accumulate: JIT conversions resolve the operands, then one row-block
//    loop over the C tile seeds its rows and applies every pair in order,
//    for a dense and a sparse target alike.
//
// The task then closes out its own share of the result: density-map cells,
// result-tile counts, stats.
//
// internal::ExecuteProducts (ops/chain_exec.h) is the only executor. It runs
// a post-order tree of products — a single AtMult::Multiply is a one-node
// tree — either as one task DAG, where an operand may be a
// still-materializing intermediate, or as one batch per product. Both
// modes execute the *same* code on the same inputs, which is what makes
// them bitwise-identical (see docs/CHAINS.md).

#ifndef ATMX_OPS_PRODUCT_TASK_H_
#define ATMX_OPS_PRODUCT_TASK_H_

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "common/mutex.h"
#include "cost/cost_model.h"
#include "estimate/density_map.h"
#include "ops/atmult.h"
#include "ops/optimizer.h"
#include "tile/at_matrix.h"
#include "tile/tile.h"
#include "topology/thread_pool.h"

namespace atmx::internal {

// Band-level view of one multiplication operand. Either a finished
// ATMatrix, or a row-band x col-band grid of tiles that another product is
// still filling in (the fused-chain intermediate). The view carries its
// own band->tile index lists so both shapes expose the identical
// iteration order (tiles within a row band ordered by col0, within a col
// band by row0 — for the grid this is exactly the tj / ti order, matching
// what ATMatrix::BuildBands would produce for the same tiles).
class OperandView {
 public:
  OperandView() = default;

  static OperandView FromMatrix(const ATMatrix& m);

  // Grid mode: `tiles` has one slot per (row band, col band) pair, row
  // major — slot ti * (col_bounds->size() - 1) + tj. Slots may be filled
  // after construction; callers must not read a tile before its producer
  // completed (the chain executor's dependency edges guarantee this).
  static OperandView FromGrid(const std::vector<Tile>* tiles,
                              const std::vector<index_t>* row_bounds,
                              const std::vector<index_t>* col_bounds,
                              const DensityMap* map);

  index_t rows() const { return row_bounds_->back(); }
  index_t cols() const { return col_bounds_->back(); }
  index_t num_row_bands() const {
    return static_cast<index_t>(row_bounds_->size()) - 1;
  }
  index_t num_col_bands() const {
    return static_cast<index_t>(col_bounds_->size()) - 1;
  }
  const std::vector<index_t>& row_bounds() const { return *row_bounds_; }
  const std::vector<index_t>& col_bounds() const { return *col_bounds_; }

  std::span<const index_t> TilesInRowBand(index_t band) const {
    return row_band_tiles_[static_cast<std::size_t>(band)];
  }
  std::span<const index_t> TilesInColBand(index_t band) const {
    return col_band_tiles_[static_cast<std::size_t>(band)];
  }
  const Tile& tile(index_t idx) const {
    return (*tiles_)[static_cast<std::size_t>(idx)];
  }
  const DensityMap& map() const { return *map_; }

 private:
  const std::vector<Tile>* tiles_ = nullptr;
  const std::vector<index_t>* row_bounds_ = nullptr;
  const std::vector<index_t>* col_bounds_ = nullptr;
  const DensityMap* map_ = nullptr;
  std::vector<std::vector<index_t>> row_band_tiles_;
  std::vector<std::vector<index_t>> col_band_tiles_;
};

// Everything one product's tile tasks share. The pointers stay owned by
// the caller and must outlive every RunProductTileTask call. The planning
// phase reads only the operands, `block`, the estimate fields,
// `dynamic_conversion` and `cost_model`.
struct ProductContext {
  OperandView a;
  OperandView b;
  index_t block = 1;  // atomic block edge

  // Density-estimation phase output. When use_estimate is set, `estimate`
  // must cover at least the task's block region by the time the task runs
  // (the fused executor fills it region-by-region).
  bool use_estimate = false;
  const DensityMap* estimate = nullptr;
  double rho_w = 0.0;  // effective write threshold rhoD_W

  bool dynamic_conversion = true;
  const CostModel* cost_model = nullptr;

  // JIT conversion caches of the two operand matrices: one cache per
  // distinct matrix, so in A * A both point at the same cache and each
  // tile converts at most once.
  ConversionCache* a_cache = nullptr;
  ConversionCache* b_cache = nullptr;

  // Optional accumulator (MultiplyAdd's C); null for plain products.
  const ATMatrix* c_init = nullptr;

  // Output: tile slot per task (task = ti * b.num_col_bands() + tj) and
  // the result's density map. C tiles cover disjoint block-aligned
  // regions, so tasks write disjoint slots and map cells.
  std::vector<Tile>* c_tiles = nullptr;
  DensityMap* c_map = nullptr;

  // Per-product stats accumulation, guarded by stats_mutex.
  AtMultStats* stats = nullptr;
  Mutex* stats_mutex = nullptr;

  // Decision-audit recording into obs::AuditLedger (per-pair
  // representation decisions, per-task cost outcomes, SPA mode choices),
  // grouped under op_id (0 / false when auditing is off).
  std::uint64_t op_id = 0;
  bool ledger_enabled = false;
};

// The C tile of task (ti, tj): its region and its target representation,
// chosen from the estimated density (Alg. 2 l. 6).
struct TileTarget {
  index_t ti = 0;
  index_t tj = 0;
  index_t r0 = 0;  // C rows [r0, r1)
  index_t r1 = 0;
  index_t c0 = 0;  // C cols [c0, c1)
  index_t c1 = 0;
  double rho_c = 0.0;  // estimated density; 0 without estimation
  bool c_dense = false;
};

TileTarget PlanTileTarget(const ProductContext& ctx, index_t ti, index_t tj);

// One decided tile pair of a C tile: A tile `a_idx` x B tile `b_idx` over
// the contraction range [k0, k1).
struct DecidedPair {
  index_t a_idx = 0;
  index_t b_idx = 0;
  index_t k0 = 0;
  index_t k1 = 0;
  MultiplyShape shape;
  // Whether the tile's other representation already existed when the pair
  // was decided (always false without dynamic conversion).
  bool a_cached = false;
  bool b_cached = false;
  // Chosen representations and model costs. Without dynamic conversion
  // these are the stored representations, and both costs are that
  // kernel's model cost.
  PairDecision decision;
};

// The planning phase of one tile task, shared by RunProductTileTask and
// ExplainMultiply: walks A's row band target.ti against B's col band
// target.tj (Fig. 4), builds every matching pair's shape, skips windows
// whose density is zero and decides each pair's representations.
// `is_converted(b_side, tile_idx)` answers whether an operand tile already
// has its other representation. `on_pair` receives each decided pair
// before the next one is decided, so a JIT conversion made for one pair is
// visible to the next decision.
void PlanTilePairs(
    const ProductContext& ctx, const TileTarget& target,
    const std::function<bool(bool b_side, index_t tile_idx)>& is_converted,
    const std::function<void(const DecidedPair&)>& on_pair);

// Runs task `task` (= ti * b.num_col_bands() + tj): produces the C tile
// for row band ti x col band tj into (*ctx.c_tiles)[task], sets the
// region's cells of *ctx.c_map to the realized densities and accumulates
// the stats (result-tile counts and the JIT conversions this task made
// included). `team` provides intra-task parallelism — the task forks it at
// most once, for the row-block loop — and the locality accounting node.
void RunProductTileTask(const ProductContext& ctx, WorkerTeam& team,
                        index_t task);

// Appends the scheduler cost estimate (EstimateTaskCost) of every tile task
// of one product to `costs`, in task order. Result rows are split by
// `row_bounds`, columns by `col_bounds`. O(1) per task from per-band
// aggregate densities of the operand maps: the per-pair refinement happens
// inside the task, and LPT queue order only needs magnitudes. `c_map`, when
// non-null, supplies the estimated result density.
void AppendProductTaskCosts(const CostModel& model, const DensityMap& a_map,
                            const DensityMap& b_map,
                            const std::vector<index_t>& row_bounds,
                            const std::vector<index_t>& col_bounds,
                            const DensityMap* c_map,
                            std::vector<double>* costs);

}  // namespace atmx::internal

#endif  // ATMX_OPS_PRODUCT_TASK_H_
