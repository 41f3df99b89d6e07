#include "ops/product_task.h"

#include <algorithm>
#include <array>
#include <utility>

#include "common/check.h"
#include "common/math_util.h"
#include "common/timer.h"
#include "kernels/kernel_dispatch.h"
#include "kernels/sparse_accumulator.h"
#include "obs/obs.h"
#if defined(ATMX_OBS_ENABLED)
#include "obs/audit_ledger.h"
#endif

namespace atmx::internal {

OperandView OperandView::FromMatrix(const ATMatrix& m) {
  OperandView v;
  v.tiles_ = &m.tiles();
  v.row_bounds_ = &m.row_bounds();
  v.col_bounds_ = &m.col_bounds();
  v.map_ = &m.density_map();
  v.row_band_tiles_.resize(static_cast<std::size_t>(m.num_row_bands()));
  for (index_t band = 0; band < m.num_row_bands(); ++band) {
    const auto span = m.TilesInRowBand(band);
    v.row_band_tiles_[static_cast<std::size_t>(band)].assign(span.begin(),
                                                             span.end());
  }
  v.col_band_tiles_.resize(static_cast<std::size_t>(m.num_col_bands()));
  for (index_t band = 0; band < m.num_col_bands(); ++band) {
    const auto span = m.TilesInColBand(band);
    v.col_band_tiles_[static_cast<std::size_t>(band)].assign(span.begin(),
                                                             span.end());
  }
  return v;
}

OperandView OperandView::FromGrid(const std::vector<Tile>* tiles,
                                  const std::vector<index_t>* row_bounds,
                                  const std::vector<index_t>* col_bounds,
                                  const DensityMap* map) {
  OperandView v;
  v.tiles_ = tiles;
  v.row_bounds_ = row_bounds;
  v.col_bounds_ = col_bounds;
  v.map_ = map;
  const index_t nrb = static_cast<index_t>(row_bounds->size()) - 1;
  const index_t ncb = static_cast<index_t>(col_bounds->size()) - 1;
  ATMX_CHECK_EQ(static_cast<index_t>(tiles->size()), nrb * ncb);
  v.row_band_tiles_.resize(static_cast<std::size_t>(nrb));
  for (index_t ti = 0; ti < nrb; ++ti) {
    auto& band = v.row_band_tiles_[static_cast<std::size_t>(ti)];
    band.reserve(static_cast<std::size_t>(ncb));
    for (index_t tj = 0; tj < ncb; ++tj) band.push_back(ti * ncb + tj);
  }
  v.col_band_tiles_.resize(static_cast<std::size_t>(ncb));
  for (index_t tj = 0; tj < ncb; ++tj) {
    auto& band = v.col_band_tiles_[static_cast<std::size_t>(tj)];
    band.reserve(static_cast<std::size_t>(nrb));
    for (index_t ti = 0; ti < nrb; ++ti) band.push_back(ti * ncb + tj);
  }
  return v;
}

namespace {

// Row blocks of the accumulate loop. A dense target hands out small blocks
// dynamically: rows are cheap to split and skewed operands balance better.
// A sparse block is one CSR piece with its own SPA, so a sparse target
// gets at most one block per thread, each of at least kSparseMinRowBlock
// rows.
constexpr index_t kDenseRowBlock = 16;
constexpr index_t kSparseMinRowBlock = 64;

// Prepared pair: operands resolved to concrete representations/windows.
struct PreparedPair {
  Operand a;
  Operand b;
  KernelType kernel;
  std::uint64_t a_read_bytes;
  std::uint64_t b_read_bytes;
  int a_home;
  int b_home;
};

// Concatenates row-block CSRs (block c covers the rows after block c - 1)
// into one matrix of `rows` rows.
CsrMatrix ConcatCsrRowBlocks(std::vector<CsrMatrix> blocks, index_t rows,
                             index_t cols) {
  index_t nnz = 0;
  for (const CsrMatrix& c : blocks) nnz += c.nnz();
  std::vector<index_t> row_ptr;
  row_ptr.reserve(rows + 1);
  row_ptr.push_back(0);
  std::vector<index_t> col_idx;
  col_idx.reserve(nnz);
  std::vector<value_t> values;
  values.reserve(nnz);
  for (const CsrMatrix& c : blocks) {
    const index_t offset = static_cast<index_t>(col_idx.size());
    for (index_t i = 0; i < c.rows(); ++i) {
      row_ptr.push_back(c.row_ptr()[i + 1] + offset);
    }
    col_idx.insert(col_idx.end(), c.col_idx().begin(), c.col_idx().end());
    values.insert(values.end(), c.values().begin(), c.values().end());
  }
  ATMX_CHECK_EQ(static_cast<index_t>(row_ptr.size()), rows + 1);
  return CsrMatrix(rows, cols, std::move(row_ptr), std::move(col_idx),
                   std::move(values));
}

// Approximate bytes read from an operand window, for locality accounting.
std::uint64_t ApproxWindowBytes(bool dense, double rho, index_t m,
                                index_t n) {
  const double area = static_cast<double>(m) * static_cast<double>(n);
  return static_cast<std::uint64_t>(
      dense ? area * kDenseElemBytes : rho * area * kSparseElemBytes);
}

// Resolves one operand window to the representation the decision chose,
// converting the tile just in time (through the cache) when needed.
Operand ResolveOperand(const Tile& tile, index_t tile_idx, bool want_dense,
                       const Window& w, ConversionCache* cache,
                       index_t* to_dense, index_t* to_sparse) {
  if (want_dense) {
    const DenseMatrix& dm = tile.is_dense()
                                ? tile.dense()
                                : cache->GetDense(tile_idx, tile, to_dense);
    return Operand::Dense(dm.View().Window(w.r0, w.c0, w.rows(), w.cols()));
  }
  const CsrMatrix& sm = tile.is_dense()
                            ? cache->GetSparse(tile_idx, tile, to_sparse)
                            : tile.sparse();
  return Operand::Sparse(&sm, w);
}

}  // namespace

TileTarget PlanTileTarget(const ProductContext& ctx, index_t ti, index_t tj) {
  TileTarget t;
  t.ti = ti;
  t.tj = tj;
  t.r0 = ctx.a.row_bounds()[ti];
  t.r1 = ctx.a.row_bounds()[ti + 1];
  t.c0 = ctx.b.col_bounds()[tj];
  t.c1 = ctx.b.col_bounds()[tj + 1];
  if (ctx.use_estimate) {
    t.rho_c = ctx.estimate->RegionDensity(
        t.r0 / ctx.block, t.c0 / ctx.block, CeilDiv(t.r1 - t.r0, ctx.block),
        CeilDiv(t.c1 - t.c0, ctx.block));
  }
  t.c_dense = ctx.use_estimate && t.rho_c >= ctx.rho_w;
  return t;
}

void PlanTilePairs(
    const ProductContext& ctx, const TileTarget& target,
    const std::function<bool(bool b_side, index_t tile_idx)>& is_converted,
    const std::function<void(const DecidedPair&)>& on_pair) {
  const OperandView& a = ctx.a;
  const OperandView& b = ctx.b;
  const index_t block = ctx.block;
  const index_t m = target.r1 - target.r0;
  const index_t n = target.c1 - target.c0;
  const auto a_band = a.TilesInRowBand(target.ti);
  const auto b_band = b.TilesInColBand(target.tj);
  std::size_t ia = 0, ib = 0;
  while (ia < a_band.size() && ib < b_band.size()) {
    const Tile& at = a.tile(a_band[ia]);
    const Tile& bt = b.tile(b_band[ib]);
    DecidedPair p;
    p.a_idx = a_band[ia];
    p.b_idx = b_band[ib];
    p.k0 = std::max(at.col0(), bt.row0());
    p.k1 = std::min(at.col_end(), bt.row_end());
    if (at.col_end() <= bt.row_end()) {
      ++ia;
    } else {
      ++ib;
    }
    if (p.k1 <= p.k0 || at.nnz() == 0 || bt.nnz() == 0) continue;

    const index_t k = p.k1 - p.k0;
    p.shape.m = m;
    p.shape.k = k;
    p.shape.n = n;
    p.shape.rho_a = a.map().RegionDensity(target.r0 / block, p.k0 / block,
                                          CeilDiv(m, block), CeilDiv(k, block));
    p.shape.rho_b = b.map().RegionDensity(p.k0 / block, target.c0 / block,
                                          CeilDiv(k, block), CeilDiv(n, block));
    p.shape.rho_c = target.rho_c;
    // The tile pair matched on bounding boxes, but the referenced windows
    // can still be exactly empty (e.g. a huge melted sparse tile that only
    // touches the band in a far corner). The density map is exact at block
    // granularity and windows are block-aligned, so a zero region density
    // proves the pair contributes nothing.
    if (p.shape.rho_a == 0.0 || p.shape.rho_b == 0.0) continue;

    if (ctx.dynamic_conversion) {
      p.a_cached = is_converted(/*b_side=*/false, p.a_idx);
      p.b_cached = is_converted(/*b_side=*/true, p.b_idx);
      p.decision = DecidePairRepresentations(
          *ctx.cost_model, p.shape, at.is_dense(), bt.is_dense(), p.a_cached,
          p.b_cached, target.c_dense, /*allow_conversion=*/true);
    } else {
      p.decision.a_dense = at.is_dense();
      p.decision.b_dense = bt.is_dense();
      p.decision.projected_cost = ctx.cost_model->ComputeCost(
          MakeKernelType(at.is_dense(), bt.is_dense(), target.c_dense),
          p.shape);
      p.decision.stored_cost = p.decision.projected_cost;
    }
    on_pair(p);
  }
}

void RunProductTileTask(const ProductContext& ctx, WorkerTeam& team,
                        index_t task) {
  const OperandView& a = ctx.a;
  const OperandView& b = ctx.b;
  const index_t block = ctx.block;
  const index_t num_tj = b.num_col_bands();
  const TileTarget target = PlanTileTarget(ctx, task / num_tj, task % num_tj);
  const index_t ti = target.ti;
  const index_t tj = target.tj;
  const index_t r0 = target.r0;
  const index_t r1 = target.r1;
  const index_t c0 = target.c0;
  const index_t c1 = target.c1;
  const double rho_c = target.rho_c;
  const bool c_dense = target.c_dense;
  // Once per task, so cheap enough to keep in release builds: any check
  // failure below names the C tile being produced.
  ScopedCheckContext check_ctx(
      "AtMult tile (%lld,%lld) C[%lld:%lld,%lld:%lld)",
      static_cast<long long>(ti), static_cast<long long>(tj),
      static_cast<long long>(r0), static_cast<long long>(r1),
      static_cast<long long>(c0), static_cast<long long>(c1));
  const index_t m = r1 - r0;
  const index_t n = c1 - c0;
  const int exec_node = team.team_id();
  ATMX_TRACE_SPAN_ARGS("op", "tile_task",
                       {"ti", ti}, {"tj", tj}, {"node", exec_node},
                       {"rows", m}, {"cols", n});

  double opt_seconds = 0.0;  // decisions + JIT conversions
  double mult_seconds = 0.0;
  index_t to_dense = 0;  // JIT conversions this task made
  index_t to_sparse = 0;
  std::uint64_t local_read = 0, remote_read = 0;
  std::array<index_t, kNumKernelTypes> task_kernels{};
#if defined(ATMX_OBS_ENABLED)
  // Prediction-audit collection: repr records are held back until the C
  // tile is materialized (its realized density resolves every pair
  // decision of this task); the task-level cost prediction accumulates
  // per-pair model costs plus the write side.
  std::vector<obs::ReprAuditRecord> pending_repr;
  double predicted_task_cost = 0.0;
  double predicted_intermediates = 0.0;
  const obs::PerfSnapshot task_perf_begin =
      ctx.ledger_enabled ? obs::PerfBeginSnapshot() : obs::PerfSnapshot();
#endif

  std::vector<Tile>& c_tiles = *ctx.c_tiles;
  // Per-atomic-block non-zero counts of this task's C region, taken while
  // the produced tile is still cache-hot; they become the region's cells
  // of the result density map without a second pass.
  ATMX_DCHECK(r0 % block == 0 && c0 % block == 0);
  const index_t bi0 = r0 / block;
  const index_t bj0 = c0 / block;
  const index_t region_bcols = CeilDiv(c1, block) - bj0;
  std::vector<index_t> block_counts(
      static_cast<std::size_t>((CeilDiv(r1, block) - bi0) * region_bcols), 0);

  // Accumulator windows: tiles of the initial C overlapping this task's
  // region, with their intersection boxes in region-local coordinates.
  struct SeedWindow {
    const Tile* tile;
    index_t tr0, tr1, tc0, tc1;  // tile-local intersection
    index_t out_r0, out_c0;      // region-local offset of the window
  };
  std::vector<SeedWindow> seeds;
  if (ctx.c_init != nullptr) {
    for (const Tile& t : ctx.c_init->tiles()) {
      const index_t ir0 = std::max(r0, t.row0());
      const index_t ir1 = std::min(r1, t.row_end());
      const index_t ic0 = std::max(c0, t.col0());
      const index_t ic1 = std::min(c1, t.col_end());
      if (ir0 < ir1 && ic0 < ic1 && t.nnz() > 0) {
        seeds.push_back({&t, ir0 - t.row0(), ir1 - t.row0(),
                         ic0 - t.col0(), ic1 - t.col0(), ir0 - r0,
                         ic0 - c0});
        // The referenced accumulator window is read exactly once while
        // seeding; account it like the operand windows so MultiplyAdd's
        // locality fractions include the C-side traffic.
        const double tile_area =
            static_cast<double>(t.rows()) * static_cast<double>(t.cols());
        const double rho =
            tile_area > 0 ? static_cast<double>(t.nnz()) / tile_area : 0.0;
        const std::uint64_t bytes = ApproxWindowBytes(
            t.is_dense(), rho, ir1 - ir0, ic1 - ic0);
        (t.home_node() == exec_node ? local_read : remote_read) += bytes;
      }
    }
  }

  // --- Plan every pair, resolving its operands (JIT conversions). ------
  std::vector<PreparedPair> prepared;
  {
    WallTimer opt_timer;
    PlanTilePairs(
        ctx, target,
        [&](bool b_side, index_t idx) {
          const Tile& t = b_side ? b.tile(idx) : a.tile(idx);
          const ConversionCache* cache = b_side ? ctx.b_cache : ctx.a_cache;
          return t.is_dense() ? cache->HasSparse(idx) : cache->HasDense(idx);
        },
        [&](const DecidedPair& p) {
          const Tile& at = a.tile(p.a_idx);
          const Tile& bt = b.tile(p.b_idx);
          const KernelType kernel = MakeKernelType(
              p.decision.a_dense, p.decision.b_dense, c_dense);
#if defined(ATMX_OBS_ENABLED)
          if (ctx.ledger_enabled) {
            // Task-level cost prediction: pair compute (+ conversion when
            // the optimizer priced one in) plus the expected SPA traffic
            // feeding the write side accounted after the loop.
            predicted_task_cost += p.decision.projected_cost;
            predicted_intermediates += p.shape.rho_a * p.shape.rho_b *
                                       static_cast<double>(p.shape.m) *
                                       static_cast<double>(p.shape.k) *
                                       static_cast<double>(p.shape.n);
            // Every decided pair is recorded, held back until the tile's
            // realized density is known.
            obs::ReprAuditRecord repr;
            repr.op = ctx.op_id;
            repr.ti = ti;
            repr.tj = tj;
            repr.k0 = p.k0;
            repr.k1 = p.k1;
            repr.m = p.shape.m;
            repr.k = p.shape.k;
            repr.n = p.shape.n;
            repr.rho_a = p.shape.rho_a;
            repr.rho_b = p.shape.rho_b;
            repr.rho_c_pred = ctx.use_estimate ? rho_c : -1.0;
            repr.rho_c_actual = -1.0;
            repr.rho_w = ctx.rho_w;
            repr.a_stored_dense = at.is_dense();
            repr.b_stored_dense = bt.is_dense();
            repr.a_cached = p.a_cached;
            repr.b_cached = p.b_cached;
            repr.allow_conversion = ctx.dynamic_conversion;
            repr.c_dense = c_dense;
            repr.kernel = static_cast<int>(kernel);
            repr.stored_cost = p.decision.stored_cost;
            repr.chosen_cost = p.decision.projected_cost;
            pending_repr.push_back(repr);
          }
#endif
          PreparedPair pp;
          pp.kernel = kernel;
          pp.a_home = at.home_node();
          pp.b_home = bt.home_node();
          // A operand: window rows = C rows, window cols = [k0, k1).
          pp.a = ResolveOperand(
              at, p.a_idx, p.decision.a_dense,
              Window{r0 - at.row0(), r1 - at.row0(), p.k0 - at.col0(),
                     p.k1 - at.col0()},
              ctx.a_cache, &to_dense, &to_sparse);
          // B operand: window rows = [k0, k1), window cols = C cols.
          pp.b = ResolveOperand(
              bt, p.b_idx, p.decision.b_dense,
              Window{p.k0 - bt.row0(), p.k1 - bt.row0(), c0 - bt.col0(),
                     c1 - bt.col0()},
              ctx.b_cache, &to_dense, &to_sparse);
          pp.a_read_bytes = ApproxWindowBytes(p.decision.a_dense,
                                              p.shape.rho_a, m, p.shape.k);
          pp.b_read_bytes = ApproxWindowBytes(p.decision.b_dense,
                                              p.shape.rho_b, p.shape.k, n);
          prepared.push_back(pp);
        });
    opt_seconds += opt_timer.ElapsedSeconds();
  }
  for (const PreparedPair& pp : prepared) {
    ++task_kernels[static_cast<int>(pp.kernel)];
  }

  // --- Accumulate: one row-block loop seeds and applies every pair. ----
  WallTimer mult_timer;
  if (prepared.empty() && seeds.empty()) {
    // Nothing contributes to this C tile (common off the diagonal of
    // banded matrices): emit an empty sparse tile without touching the
    // row loop.
    c_tiles[task] = Tile::MakeSparse(r0, c0, CsrMatrix(m, n));
  } else {
#if defined(ATMX_OBS_ENABLED)
    // The row loop interleaves all pairs, so per-pair timing does not
    // exist; each pair still gets one complete event (emitted after the
    // loop, covering the whole loop interval and flagged `interleaved`)
    // so the "kernel" span count equals the kernel invocation counters.
    const std::int64_t loop_start_ns =
        obs::TraceRecorder::Global().enabled() ? obs::TraceRecorder::NowNanos()
                                               : -1;
    const obs::PerfSnapshot loop_begin = obs::PerfBeginSnapshot();
#endif
    // Seeds region-local row `i` from the accumulator windows: add(col,
    // value) once per stored non-zero. Windows are disjoint, so every C
    // element receives at most one seed, before any pair.
    auto seed_row = [&](index_t i, auto&& add) {
      for (const SeedWindow& sw : seeds) {
        const index_t tile_row = sw.tr0 + (i - sw.out_r0);
        if (i < sw.out_r0 || tile_row >= sw.tr1) continue;
        if (sw.tile->is_dense()) {
          const DenseMatrix& d = sw.tile->dense();
          const value_t* src = d.data() + tile_row * d.ld();
          for (index_t j = sw.tc0; j < sw.tc1; ++j) {
            if (src[j] != 0.0) add(sw.out_c0 + j - sw.tc0, src[j]);
          }
        } else {
          const CsrMatrix& sp = sw.tile->sparse();
          index_t first, last;
          sp.RowColRange(tile_row, sw.tc0, sw.tc1, &first, &last);
          for (index_t p = first; p < last; ++p) {
            add(sw.out_c0 + sp.col_idx()[p] - sw.tc0, sp.values()[p]);
          }
        }
      }
    };
    // A one-thread team runs the tile as a single block: one kernel call
    // per pair over all rows.
    index_t num_blocks = 1;
    if (team.size() > 1) {
      num_blocks = c_dense ? CeilDiv(m, kDenseRowBlock)
                           : std::min<index_t>(
                                 team.size(),
                                 std::max<index_t>(1, m / kSparseMinRowBlock));
    }
    const index_t block_rows = CeilDiv(m, num_blocks);
    DenseMatrix dense_target = c_dense ? DenseMatrix(m, n) : DenseMatrix();
    std::vector<CsrMatrix> sparse_blocks(
        static_cast<std::size_t>(c_dense ? 0 : num_blocks));
    // Nagasaka-style accumulator selection: ultra-sparse result rows use
    // the hash SPA instead of paying O(n) dense-array init + flag-array
    // cache pollution. Unknown density (estimation off) keeps the dense
    // default; either mode produces bitwise-identical rows.
    const double expected_row_nnz =
        ctx.use_estimate ? rho_c * static_cast<double>(n) : -1.0;
    auto run_block = [&](index_t blk) {
      const index_t lo = blk * block_rows;
      const index_t hi = std::min(lo + block_rows, m);
      if (c_dense) {
        const DenseMutView view = dense_target.MutView();
        for (index_t i = lo; i < hi; ++i) {
          value_t* dst = view.data + i * view.ld;
          seed_row(i, [dst](index_t j, value_t v) { dst[j] += v; });
        }
        for (const PreparedPair& pp : prepared) {
          MultiplyIntoDense(pp.a, pp.b, view, lo, hi);
        }
        return;
      }
      CsrBuilder builder(hi - lo, n);
      SparseAccumulator spa;
      spa.ResizeAdaptive(n, expected_row_nnz);
      for (index_t i = lo; i < hi; ++i) {
        seed_row(i, [&spa](index_t j, value_t v) { spa.Add(j, v); });
        for (const PreparedPair& pp : prepared) {
          AccumulateRowInto(pp.a, pp.b, i, &spa);
        }
        spa.FlushToBuilder(&builder);
        builder.FinishRowsUpTo(i - lo + 1);
      }
      sparse_blocks[static_cast<std::size_t>(blk)] = builder.Build();
    };
    team.ParallelFor(num_blocks, /*grain=*/1, [&](index_t first, index_t last) {
      for (index_t blk = first; blk < last; ++blk) run_block(blk);
    });

    if (c_dense) {
      // Single cache-hot pass: per-block counts + tile nnz.
      index_t tile_nnz = 0;
      for (index_t i = 0; i < m; ++i) {
        index_t* row_counts = &block_counts[i / block * region_bcols];
        const value_t* row = dense_target.data() + i * dense_target.ld();
        for (index_t j0 = 0; j0 < n; j0 += block) {
          const index_t j1 = std::min(j0 + block, n);
          index_t count = 0;
          for (index_t j = j0; j < j1; ++j) count += (row[j] != 0.0);
          row_counts[j0 / block] += count;
          tile_nnz += count;
        }
      }
      c_tiles[task] =
          Tile::MakeDenseCounted(r0, c0, std::move(dense_target), tile_nnz);
    } else {
      c_tiles[task] = Tile::MakeSparse(
          r0, c0,
          num_blocks == 1
              ? std::move(sparse_blocks.front())
              : ConcatCsrRowBlocks(std::move(sparse_blocks), m, n));
    }
#if defined(ATMX_OBS_ENABLED)
    const obs::PerfDelta loop_delta = obs::PerfDeltaSince(loop_begin);
    if (loop_delta.valid && !prepared.empty()) {
      // The interleaved row loop has no per-pair hardware attribution; a
      // single-variant loop (the common case) is attributed exactly to
      // that variant, a mixed loop under a shared pseudo-variant rather
      // than over-counting every variant with the full delta.
      const KernelType kt0 = prepared.front().kernel;
      const bool uniform = std::all_of(
          prepared.begin(), prepared.end(),
          [kt0](const PreparedPair& pp) { return pp.kernel == kt0; });
      obs::AccumulatePerfMetrics(
          uniform ? KernelPerfMetricPrefix(kt0) : "kernel.mixed_loop",
          loop_delta);
    }
    if (loop_start_ns >= 0 && !prepared.empty()) {
      const std::int64_t dur_ns =
          obs::TraceRecorder::NowNanos() - loop_start_ns;
      std::vector<obs::TraceArg> loop_args = {
          {"ti", ti},   {"tj", tj},          {"rows", m},
          {"cols", n},  {"node", exec_node}, {"interleaved", 1}};
      obs::AppendPerfArgs(loop_delta, &loop_args);
      for (const PreparedPair& pp : prepared) {
        obs::TraceRecorder::Global().RecordComplete(
            "kernel", KernelTypeName(pp.kernel), loop_start_ns, dur_ns,
            loop_args);
      }
    }
#endif
  }
  if (!c_dense) {
    const CsrMatrix& sp = c_tiles[task].sparse();
    for (index_t i = 0; i < m; ++i) {
      index_t* row_counts = &block_counts[i / block * region_bcols];
      for (index_t col : sp.RowCols(i)) ++row_counts[col / block];
    }
  }
  for (std::size_t cell = 0; cell < block_counts.size(); ++cell) {
    const index_t bi = bi0 + static_cast<index_t>(cell) / region_bcols;
    const index_t bj = bj0 + static_cast<index_t>(cell) % region_bcols;
    const double area = static_cast<double>(ctx.c_map->BlockArea(bi, bj));
    ctx.c_map->Set(bi, bj,
                   area > 0 ? static_cast<double>(block_counts[cell]) / area
                            : 0.0);
  }
  mult_seconds = mult_timer.ElapsedSeconds();
#if defined(ATMX_OBS_ENABLED)
  if (ctx.ledger_enabled) {
    auto& ledger = obs::AuditLedger::Global();
    // The realized tile density resolves every pair decision of this
    // task (all pairs share the C region the estimate covered).
    const index_t tile_nnz = c_tiles[task].nnz();
    const double area = static_cast<double>(m) * static_cast<double>(n);
    const double rho_c_actual =
        area > 0.0 ? static_cast<double>(tile_nnz) / area : 0.0;
    for (obs::ReprAuditRecord& repr : pending_repr) {
      repr.rho_c_actual = rho_c_actual;
      ledger.RecordRepr(repr);
    }
    if (!prepared.empty()) {
      predicted_task_cost += ctx.cost_model->WriteCost(
          c_dense, m, n, rho_c, predicted_intermediates);
      obs::CostAuditRecord cost;
      cost.op = ctx.op_id;
      cost.ti = ti;
      cost.tj = tj;
      cost.predicted_cost = predicted_task_cost;
      cost.measured_seconds = opt_seconds + mult_seconds;
      const obs::PerfDelta task_delta = obs::PerfDeltaSince(task_perf_begin);
      if (task_delta.valid) {
        if (task_delta.has(obs::PerfCounterId::kCycles)) {
          cost.measured_cycles = task_delta[obs::PerfCounterId::kCycles];
        }
        if (task_delta.has(obs::PerfCounterId::kTaskClockNs)) {
          cost.measured_cpu_ns = static_cast<double>(
              task_delta[obs::PerfCounterId::kTaskClockNs]);
        }
      }
      // Attribute the task to its kernel variant when all pairs agreed.
      int dominant = -1;
      bool mixed = false;
      for (int v = 0; v < kNumKernelTypes; ++v) {
        if (task_kernels[static_cast<std::size_t>(v)] > 0) {
          mixed = dominant >= 0;
          dominant = v;
        }
      }
      cost.kernel = mixed ? -1 : dominant;
      ledger.RecordCost(cost);
      if (!c_dense) {
        obs::SpaModeAuditRecord spa;
        spa.op = ctx.op_id;
        spa.ti = ti;
        spa.tj = tj;
        spa.width = n;
        spa.predicted_row_nnz =
            ctx.use_estimate ? rho_c * static_cast<double>(n) : -1.0;
        spa.actual_row_nnz =
            m > 0 ? static_cast<double>(tile_nnz) / static_cast<double>(m)
                  : 0.0;
        spa.chosen_mode = static_cast<int>(
            SparseAccumulator::ChooseMode(n, spa.predicted_row_nnz));
        ledger.RecordSpaMode(spa);
      }
    }
  }
#endif
  c_tiles[task].set_home_node(exec_node);  // first-touch placement

  for (const PreparedPair& pp : prepared) {
    (pp.a_home == exec_node ? local_read : remote_read) += pp.a_read_bytes;
    (pp.b_home == exec_node ? local_read : remote_read) += pp.b_read_bytes;
  }

  MutexLock lock(*ctx.stats_mutex);
  AtMultStats* stats = ctx.stats;
  stats->optimize_seconds += opt_seconds;
  stats->multiply_seconds += mult_seconds;
  stats->pair_multiplications += static_cast<index_t>(prepared.size());
  stats->sparse_to_dense_conversions += to_dense;
  stats->dense_to_sparse_conversions += to_sparse;
  for (int v = 0; v < kNumKernelTypes; ++v) {
    stats->kernel_invocations[v] += task_kernels[static_cast<std::size_t>(v)];
  }
  stats->local_read_bytes += local_read;
  stats->remote_read_bytes += remote_read;
  stats->local_write_bytes += c_tiles[task].MemoryBytes();
  if (c_tiles[task].is_dense()) {
    stats->dense_result_tiles++;
  } else {
    stats->sparse_result_tiles++;
  }
}

void AppendProductTaskCosts(const CostModel& model, const DensityMap& a_map,
                            const DensityMap& b_map,
                            const std::vector<index_t>& row_bounds,
                            const std::vector<index_t>& col_bounds,
                            const DensityMap* c_map,
                            std::vector<double>* costs) {
  const index_t block = a_map.block();
  const index_t k = a_map.cols();
  const index_t k_blocks = CeilDiv(k, block);
  const std::size_t num_ti = row_bounds.size() - 1;
  const std::size_t num_tj = col_bounds.size() - 1;
  std::vector<double> rho_a_band(num_ti);
  for (std::size_t ti = 0; ti < num_ti; ++ti) {
    const index_t m = row_bounds[ti + 1] - row_bounds[ti];
    rho_a_band[ti] = a_map.RegionDensity(row_bounds[ti] / block, 0,
                                         CeilDiv(m, block), k_blocks);
  }
  std::vector<double> rho_b_band(num_tj);
  for (std::size_t tj = 0; tj < num_tj; ++tj) {
    const index_t n = col_bounds[tj + 1] - col_bounds[tj];
    rho_b_band[tj] = b_map.RegionDensity(0, col_bounds[tj] / block, k_blocks,
                                         CeilDiv(n, block));
  }
  for (std::size_t ti = 0; ti < num_ti; ++ti) {
    for (std::size_t tj = 0; tj < num_tj; ++tj) {
      MultiplyShape shape;
      shape.m = row_bounds[ti + 1] - row_bounds[ti];
      shape.k = k;
      shape.n = col_bounds[tj + 1] - col_bounds[tj];
      shape.rho_a = rho_a_band[ti];
      shape.rho_b = rho_b_band[tj];
      if (c_map != nullptr) {
        shape.rho_c = c_map->RegionDensity(
            row_bounds[ti] / block, col_bounds[tj] / block,
            CeilDiv(shape.m, block), CeilDiv(shape.n, block));
      }
      costs->push_back(EstimateTaskCost(model, shape));
    }
  }
}

}  // namespace atmx::internal
