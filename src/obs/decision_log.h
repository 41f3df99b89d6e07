// Decision audit log (the "EXPLAIN after the fact"): a bounded ring buffer
// of every representation decision the dynamic optimizer took during real
// ATMULT executions — tile pair, estimated densities, the effective write
// threshold, the cost-model scores of the stored vs. chosen
// representations, and whether a JIT conversion fired.
//
// Disabled by default (unlike the counters, a record is tens of bytes
// under a mutex); the CLI trace/metrics commands, the benches'
// ATMX_TRACE_OUT path, and tests switch it on. Rendering as a table lives
// in ops/explain.cc (FormatDecisionLog); JSON rendering is here.

#ifndef ATMX_OBS_DECISION_LOG_H_
#define ATMX_OBS_DECISION_LOG_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "common/types.h"
#include "kernels/kernel_common.h"

namespace atmx::obs {

// Version of the stamped ToJson()/ChainsToJson() documents.
inline constexpr int kDecisionLogSchemaVersion = 1;

// One optimizer decision for one tile-pair multiplication.
struct DecisionRecord {
  std::uint64_t op_id = 0;   // groups records of one ATMULT operation
  index_t ti = 0;            // C tile-row band
  index_t tj = 0;            // C tile-col band
  index_t k0 = 0;            // contraction range
  index_t k1 = 0;
  double rho_a = 0.0;        // estimated window densities
  double rho_b = 0.0;
  double rho_c = 0.0;        // estimated result-region density
  double rho_w = 0.0;        // effective write threshold rhoD_W
  bool a_stored_dense = false;  // representation as stored in the operand
  bool b_stored_dense = false;
  bool c_dense = false;         // chosen target representation
  KernelType kernel = KernelType::kSSS;  // chosen kernel variant
  bool a_converted = false;  // JIT conversion fired for this pair
  bool b_converted = false;
  double stored_cost = 0.0;  // cost-model score without conversions
  double chosen_cost = 0.0;  // score of the selected plan
};

// One executed chain multiplication: the planner's choice and the
// realized execution shape (the "EXPLAIN" record behind `atmx decisions`
// for chains).
struct ChainDecisionRecord {
  std::uint64_t op_id = 0;          // shared by the chain's product records
  std::string plan;                 // parenthesization, e.g. "((A0*A1)*A2)"
  index_t length = 0;               // matrices in the chain
  double planned_cost = 0.0;        // DP-optimal estimated cost
  double left_to_right_cost = 0.0;  // naive evaluation order, for contrast
  bool fused = false;               // tile-granular dataflow execution
  // Why fusion was declined ("" when fused): "disabled",
  // "no_estimation", or "budget_infeasible".
  std::string fallback_reason;
  index_t fused_tasks = 0;          // tile tasks in the DAG (0 unfused)
  std::uint64_t resident_peak_bytes = 0;  // peak resident intermediates
  std::uint64_t budget_bytes = 0;   // chain-scope memory budget (0 = none)
  std::uint64_t projected_peak_bytes = 0;  // water-level projected peak
  double total_seconds = 0.0;
  // One line per product in execution order (post-order of the plan
  // tree), e.g. "pairs=12 kernels=34 multiply=0.01s".
  std::vector<std::string> product_summaries;
};

class DecisionLog {
 public:
  static DecisionLog& Global();

  void SetEnabled(bool enabled) {
    enabled_.store(enabled, std::memory_order_relaxed);
  }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  // Caps the ring; when full, new records overwrite the oldest. Resets the
  // buffer.
  void SetCapacity(std::size_t capacity);

  // Fresh op id for grouping one operation's records.
  std::uint64_t NextOpId() {
    return next_op_id_.fetch_add(1, std::memory_order_relaxed);
  }

  // No-op while disabled.
  void Record(const DecisionRecord& record);

  // No-op while disabled. Chain records live in their own (small) ring so
  // one big chain's pair records cannot evict the chain summaries.
  void RecordChain(const ChainDecisionRecord& record);

  // Buffered records, oldest first.
  std::vector<DecisionRecord> Snapshot() const;

  // Buffered chain records, oldest first.
  std::vector<ChainDecisionRecord> ChainSnapshot() const;

  // Total records ever accepted (including ones the ring has evicted).
  std::uint64_t TotalRecorded() const {
    return total_recorded_.load(std::memory_order_relaxed);
  }

  void Clear();

  // {"schema_version":1,"git_sha":"...","records":[{"op":..,...}, ...]},
  // records oldest first — the same stamping contract as the
  // BenchReporter / audit-ledger documents (sha from ATMX_GIT_SHA).
  std::string ToJson() const;

  // Chain-ring counterpart: {"schema_version":1,"git_sha":"...",
  // "records":[{"op":..,"plan":..,...}, ...]}, oldest first.
  std::string ChainsToJson() const;

  static constexpr std::size_t kDefaultCapacity = 1 << 16;
  static constexpr std::size_t kChainCapacity = 1 << 10;

 private:
  DecisionLog() = default;

  std::atomic<bool> enabled_{false};
  std::atomic<std::uint64_t> next_op_id_{1};
  std::atomic<std::uint64_t> total_recorded_{0};

  mutable Mutex mutex_;
  std::size_t capacity_ ATMX_GUARDED_BY(mutex_) = kDefaultCapacity;
  // Ring write position once full.
  std::size_t next_slot_ ATMX_GUARDED_BY(mutex_) = 0;
  bool wrapped_ ATMX_GUARDED_BY(mutex_) = false;
  std::vector<DecisionRecord> records_ ATMX_GUARDED_BY(mutex_);
  std::size_t chain_next_slot_ ATMX_GUARDED_BY(mutex_) = 0;
  bool chain_wrapped_ ATMX_GUARDED_BY(mutex_) = false;
  std::vector<ChainDecisionRecord> chain_records_ ATMX_GUARDED_BY(mutex_);
};

// Renders `records` as the ToJson document — factored out so callers
// holding their own snapshot (the flight recorder's bounded tail) render
// without re-snapshotting the global log.
std::string RenderDecisionRecordsJson(
    const std::vector<DecisionRecord>& records);

// Chain-record counterpart of RenderDecisionRecordsJson.
std::string RenderChainDecisionRecordsJson(
    const std::vector<ChainDecisionRecord>& records);

}  // namespace atmx::obs

#endif  // ATMX_OBS_DECISION_LOG_H_
