#include "ops/explain.h"

#include <algorithm>
#include <sstream>
#include <string>
#include <utility>

#include "common/check.h"
#include "common/table_printer.h"
#include "estimate/density_estimator.h"
#include "estimate/water_level.h"
#include "ops/product_task.h"

namespace atmx {

namespace {

// The "C(ti,tj)", "k range" and "conv" cells of one tile pair, shared by
// the plan and the decision tables.
struct PairCells {
  std::string tile;
  std::string k_range;
  std::string conv;
};

PairCells FormatPairCells(index_t ti, index_t tj, index_t k0, index_t k1,
                          bool converts_a, bool converts_b) {
  PairCells cells;
  cells.tile.append("(")
      .append(std::to_string(ti))
      .append(",")
      .append(std::to_string(tj))
      .append(")");
  cells.k_range.append("[")
      .append(std::to_string(k0))
      .append(",")
      .append(std::to_string(k1))
      .append(")");
  if (converts_a) cells.conv.append("A");
  if (converts_b) cells.conv.append(converts_a ? "+B" : "B");
  if (cells.conv.empty()) cells.conv.append("-");
  return cells;
}

}  // namespace

std::string MultiplyPlan::ToString(index_t max_pairs) const {
  std::ostringstream os;
  os << "MultiplyPlan: " << num_row_bands << " x " << num_col_bands
     << " target tiles (" << dense_target_tiles << " dense, "
     << sparse_target_tiles << " sparse), rho_W="
     << effective_write_threshold << "\n";
  os << "  estimated result: " << static_cast<long long>(estimated_result_nnz)
     << " nnz, ~" << TablePrinter::FmtBytes(estimated_result_bytes) << "\n";
  os << "  " << pairs.size() << " pair multiplications, "
     << planned_conversions << " JIT conversions, projected cost "
     << static_cast<long long>(total_projected_cost) << " units\n";

  TablePrinter table({"C(ti,tj)", "k range", "rho_a", "rho_b", "kernel",
                      "conv", "cost"});
  const index_t shown =
      std::min<index_t>(max_pairs, static_cast<index_t>(pairs.size()));
  for (index_t i = 0; i < shown; ++i) {
    const PlannedPair& p = pairs[i];
    PairCells cells =
        FormatPairCells(p.ti, p.tj, p.k0, p.k1, p.converts_a, p.converts_b);
    table.AddRow({std::move(cells.tile), std::move(cells.k_range),
                  TablePrinter::Fmt(p.rho_a, 4),
                  TablePrinter::Fmt(p.rho_b, 4), KernelTypeName(p.kernel),
                  std::move(cells.conv),
                  TablePrinter::Fmt(p.projected_cost, 0)});
  }
  os << table.ToString();
  if (shown < static_cast<index_t>(pairs.size())) {
    os << "  ... " << (pairs.size() - shown) << " more pairs\n";
  }
  return os.str();
}

#if defined(ATMX_OBS_ENABLED)
std::string FormatDecisions(const std::vector<obs::ReprAuditRecord>& records,
                            index_t max_rows) {
  std::ostringstream os;
  index_t conversions = 0;
  double stored_cost = 0.0;
  double chosen_cost = 0.0;
  for (const obs::ReprAuditRecord& r : records) {
    conversions += (r.a_converted() ? 1 : 0) + (r.b_converted() ? 1 : 0);
    stored_cost += r.stored_cost;
    chosen_cost += r.chosen_cost;
  }
  os << "Decisions: " << records.size() << " pairs, " << conversions
     << " JIT conversions, cost " << static_cast<long long>(chosen_cost)
     << " units (stored-representation baseline "
     << static_cast<long long>(stored_cost) << ")\n";

  TablePrinter table({"op", "C(ti,tj)", "k range", "rho_a", "rho_b", "rho_c",
                      "rho_W", "kernel", "conv", "cost", "stored"});
  const index_t shown =
      std::min<index_t>(max_rows, static_cast<index_t>(records.size()));
  for (index_t i = 0; i < shown; ++i) {
    const obs::ReprAuditRecord& r = records[i];
    PairCells cells = FormatPairCells(r.ti, r.tj, r.k0, r.k1,
                                      r.a_converted(), r.b_converted());
    table.AddRow({std::to_string(r.op), std::move(cells.tile),
                  std::move(cells.k_range), TablePrinter::Fmt(r.rho_a, 4),
                  TablePrinter::Fmt(r.rho_b, 4),
                  r.rho_c_pred < 0.0 ? "-" : TablePrinter::Fmt(r.rho_c_pred, 4),
                  TablePrinter::Fmt(r.rho_w, 4),
                  KernelTypeName(static_cast<KernelType>(r.kernel)),
                  std::move(cells.conv), TablePrinter::Fmt(r.chosen_cost, 0),
                  TablePrinter::Fmt(r.stored_cost, 0)});
  }
  os << table.ToString();
  if (shown < static_cast<index_t>(records.size())) {
    os << "  ... " << (records.size() - shown) << " more decisions\n";
  }
  return os.str();
}

std::string FormatChainDecisions(
    const std::vector<obs::ChainAuditRecord>& records, index_t max_rows) {
  std::ostringstream os;
  os << "ChainDecisions: " << records.size() << " chains\n";
  if (records.empty()) return os.str();

  TablePrinter table({"op", "products", "plan", "len", "planned",
                      "left-to-right", "fused", "tasks", "resident peak",
                      "budget", "time"});
  const index_t total = static_cast<index_t>(records.size());
  const index_t shown = std::min<index_t>(max_rows, total);
  // Newest records are the interesting ones; the snapshot is oldest-first.
  for (index_t i = total - shown; i < total; ++i) {
    const obs::ChainAuditRecord& r = records[i];
    // The products' op ids join the chain to their pair rows.
    std::string products;
    for (const std::uint64_t op : r.product_ops) {
      if (!products.empty()) products.append(",");
      products.append(std::to_string(op));
    }
    // One effective write threshold per product; n matrices, n-1 products.
    table.AddRow({std::to_string(r.op), products.empty() ? "-" : products,
                  r.plan,
                  std::to_string(r.rho_w.size() + 1),
                  TablePrinter::Fmt(r.planned_cost, 0),
                  TablePrinter::Fmt(r.alternative_cost, 0),
                  r.fused ? "yes" : "no(" + r.fallback_reason + ")",
                  std::to_string(r.fused_tasks),
                  TablePrinter::FmtBytes(r.resident_peak_bytes),
                  r.budget_bytes == 0 ? "-"
                                      : TablePrinter::FmtBytes(r.budget_bytes),
                  TablePrinter::Fmt(r.measured_seconds, 4) + "s"});
  }
  os << table.ToString();
  if (shown < total) {
    os << "  ... " << (total - shown) << " older chains\n";
  }
  return os.str();
}
#endif  // ATMX_OBS_ENABLED

MultiplyPlan ExplainMultiply(const ATMatrix& a, const ATMatrix& b,
                             const AtmConfig& config,
                             const CostModel& cost_model) {
  ATMX_CHECK_EQ(a.cols(), b.rows());
  ATMX_CHECK_EQ(a.b_atomic(), b.b_atomic());

  MultiplyPlan plan;
  plan.num_row_bands = a.num_row_bands();
  plan.num_col_bands = b.num_col_bands();

  DensityMap estimate;
  double rho_w = config.rho_write;
  if (config.density_estimation) {
    estimate = EstimateProductDensity(a.density_map(), b.density_map());
    rho_w = EffectiveWriteThreshold(estimate, config.rho_write,
                                    config.result_mem_limit_bytes);
    plan.estimated_result_nnz = estimate.ExpectedNnz();
    plan.estimated_result_bytes = EstimateMemoryBytes(estimate, rho_w);
  }
  plan.effective_write_threshold = rho_w;

  // The executor's planning phase over views of the two matrices.
  internal::ProductContext ctx;
  ctx.a = internal::OperandView::FromMatrix(a);
  ctx.b = internal::OperandView::FromMatrix(b);
  ctx.block = a.b_atomic();
  ctx.use_estimate = config.density_estimation;
  ctx.estimate = &estimate;
  ctx.rho_w = rho_w;
  ctx.dynamic_conversion = config.dynamic_conversion;
  ctx.cost_model = &cost_model;

  // Tracks which tiles a JIT conversion has already been planned for, so
  // the cached-conversion logic matches execution: one record per
  // distinct operand matrix, shared by both sides in A * A.
  std::vector<bool> a_record(a.num_tiles(), false);
  std::vector<bool> b_record(&a == &b ? 0 : b.num_tiles(), false);
  std::vector<bool>& a_converted = a_record;
  std::vector<bool>& b_converted = &a == &b ? a_record : b_record;

  for (index_t ti = 0; ti < plan.num_row_bands; ++ti) {
    for (index_t tj = 0; tj < plan.num_col_bands; ++tj) {
      const internal::TileTarget target =
          internal::PlanTileTarget(ctx, ti, tj);
      if (target.c_dense) {
        plan.dense_target_tiles++;
      } else {
        plan.sparse_target_tiles++;
      }
      internal::PlanTilePairs(
          ctx, target,
          [&](bool b_side, index_t idx) {
            return (b_side ? b_converted : a_converted)[idx];
          },
          [&](const internal::DecidedPair& p) {
            PlannedPair pair;
            pair.ti = ti;
            pair.tj = tj;
            pair.k0 = p.k0;
            pair.k1 = p.k1;
            pair.rho_a = p.shape.rho_a;
            pair.rho_b = p.shape.rho_b;
            pair.kernel = MakeKernelType(p.decision.a_dense,
                                         p.decision.b_dense, target.c_dense);
            pair.projected_cost = p.decision.projected_cost;
            // A before B: in A * A a diagonal pair's second side finds the
            // tile the first side just converted.
            pair.converts_a = p.decision.a_converted && !a_converted[p.a_idx];
            if (pair.converts_a) {
              a_converted[p.a_idx] = true;
              plan.planned_conversions++;
            }
            pair.converts_b = p.decision.b_converted && !b_converted[p.b_idx];
            if (pair.converts_b) {
              b_converted[p.b_idx] = true;
              plan.planned_conversions++;
            }
            plan.total_projected_cost += p.decision.projected_cost;
            plan.pairs.push_back(pair);
          });
    }
  }
  return plan;
}

}  // namespace atmx
