#include "spans.h"

#include <algorithm>
#include <cstdio>
#include <utility>

namespace atmx::perfbench {

SpanRecorder::SpanRecorder() : origin_(std::chrono::steady_clock::now()) {}

double SpanRecorder::Now() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       origin_)
      .count();
}

int SpanRecorder::Begin(const std::string& name, int op_id) {
  Span span;
  span.name = name;
  span.op_id = op_id;
  span.parent = open_.empty() ? -1 : open_.back();
  const int index = static_cast<int>(spans_.size());
  spans_.push_back(std::move(span));
  open_.push_back(index);
  // Read the clock last so the bookkeeping above is not inside the span.
  spans_[index].start = Now();
  return index;
}

void SpanRecorder::End(int index) {
  const double now = Now();
  spans_[index].end = now;
  if (!open_.empty() && open_.back() == index) open_.pop_back();
}

void SpanRecorder::AddCount(int op_id, const std::string& name,
                            double value) {
  counts_.push_back({name, op_id, value});
}

std::vector<double> SpanRecorder::SelfSeconds() const {
  std::vector<std::vector<std::pair<double, double>>> children(spans_.size());
  for (const Span& s : spans_) {
    if (s.parent >= 0) children[s.parent].emplace_back(s.start, s.end);
  }
  std::vector<double> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    double covered = 0.0;
    double run_start = 0.0;
    double run_end = -1.0;  // empty run
    for (const auto& [b, e] : kids) {
      const double lo = std::max(b, s.start);
      const double hi = std::min(e, s.end);
      if (hi <= lo) continue;
      if (lo > run_end) {
        if (run_end > run_start) covered += run_end - run_start;
        run_start = lo;
        run_end = hi;
      } else {
        run_end = std::max(run_end, hi);
      }
    }
    if (run_end > run_start) covered += run_end - run_start;
    self[i] = std::max(0.0, (s.end - s.start) - covered);
  }
  return self;
}

std::map<int, std::map<std::string, double>> SpanRecorder::OpFacts() const {
  std::map<int, std::map<std::string, double>> facts;
  const std::vector<double> self = SelfSeconds();
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    auto& op = facts[spans_[i].op_id];
    op[spans_[i].name + "#self"] += self[i];
    op[spans_[i].name + "#total"] += spans_[i].end - spans_[i].start;
  }
  for (const Count& c : counts_) facts[c.op_id][c.name] += c.value;
  return facts;
}

bool SpanRecorder::WriteJson(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::vector<double> self = SelfSeconds();
  std::fprintf(f, "{\"spans\": [\n");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "  {\"id\": %zu, \"name\": \"%s\", \"op\": %d, "
                 "\"parent\": %d, \"start\": %.9f, \"end\": %.9f, "
                 "\"self\": %.9f}%s\n",
                 i, s.name.c_str(), s.op_id, s.parent, s.start, s.end,
                 self[i], i + 1 < spans_.size() ? "," : "");
  }
  std::fprintf(f, "],\n\"counts\": [\n");
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    const Count& c = counts_[i];
    std::fprintf(f, "  {\"name\": \"%s\", \"op\": %d, \"value\": %.17g}%s\n",
                 c.name.c_str(), c.op_id, c.value,
                 i + 1 < counts_.size() ? "," : "");
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

}  // namespace atmx::perfbench
