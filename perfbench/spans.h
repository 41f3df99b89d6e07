// In-memory span and count recorder for the benchmark's traced run.
//
// Spans are placed by the benchmark around its own calls into the library
// (one span per public call), never inside the library. Every span and count
// carries the id of the benchmark operation it belongs to, so per-layer
// numbers can be taken per operation and aggregated afterwards. Nothing is
// written while the run measures; WriteJson dumps everything once at the
// end.

#ifndef ATMX_PERFBENCH_SPANS_H_
#define ATMX_PERFBENCH_SPANS_H_

#include <chrono>
#include <map>
#include <string>
#include <vector>

namespace atmx::perfbench {

struct Span {
  std::string name;
  double start = 0.0;  // seconds since the recorder was created
  double end = 0.0;
  int parent = -1;     // index into SpanRecorder::spans(), -1 for a root
  int op_id = -1;
};

struct Count {
  std::string name;
  int op_id = -1;
  double value = 0.0;
};

class SpanRecorder {
 public:
  SpanRecorder();

  // Opens a span as a child of the innermost open span and returns its
  // index. Spans must be closed in LIFO order (ScopedSpan does that).
  int Begin(const std::string& name, int op_id);
  void End(int index);

  // Records one count for an operation (several with the same name add up).
  void AddCount(int op_id, const std::string& name, double value);

  const std::vector<Span>& spans() const { return spans_; }
  const std::vector<Count>& counts() const { return counts_; }

  // Self time of every span: its duration minus the part of its interval
  // covered by its children (the union of the children's intervals, so
  // overlapping children are not counted twice).
  std::vector<double> SelfSeconds() const;

  // Per-operation facts: for each op id, every count summed by name, plus
  // "<span>#self" and "<span>#total" summed over the op's spans of that
  // name.
  std::map<int, std::map<std::string, double>> OpFacts() const;

  // Writes {"spans": [...], "counts": [...]} with self times included.
  bool WriteJson(const std::string& path) const;

 private:
  double Now() const;

  std::chrono::steady_clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<Count> counts_;
  std::vector<int> open_;  // stack of open span indices
};

// RAII span; a null recorder makes it a no-op, so untraced and traced
// operations share one code path.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, const std::string& name, int op_id)
      : recorder_(recorder),
        index_(recorder ? recorder->Begin(name, op_id) : -1) {}
  ~ScopedSpan() {
    if (recorder_ != nullptr) recorder_->End(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* recorder_;
  int index_;
};

}  // namespace atmx::perfbench

#endif  // ATMX_PERFBENCH_SPANS_H_
