// The tile-granular unit of work of the product executor: one task
// produces one C tile of one product A * B, running the full per-pair
// pipeline (window matching, dynamic representation decisions with JIT
// conversions, kernel dispatch) and closes out its own share of the
// result: density-map cells, result-tile counts, stats.
//
// internal::ExecuteProducts (ops/chain_exec.h) is the only caller. It runs
// a post-order tree of products — a single AtMult::Multiply is a one-node
// tree — either as one task DAG, where an operand may be a
// still-materializing intermediate, or as one batch per product. Both
// modes execute the *same* code on the same inputs, which is what makes
// them bitwise-identical (see docs/CHAINS.md).

#ifndef ATMX_OPS_PRODUCT_TASK_H_
#define ATMX_OPS_PRODUCT_TASK_H_

#include <cstdint>
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
// the caller and must outlive every RunProductTileTask call.
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

// Runs task `task` (= ti * b.num_col_bands() + tj): produces the C tile
// for row band ti x col band tj into (*ctx.c_tiles)[task], sets the
// region's cells of *ctx.c_map to the realized densities and accumulates
// the stats (result-tile counts and the JIT conversions this task made
// included). `team` provides intra-task
// parallelism and the locality accounting node.
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
