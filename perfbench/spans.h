// In-memory wall-clock spans for the traced runs. Spans are recorded from
// the benchmark's own code around calls into the program's public
// functions; nothing inside the program is instrumented. They stay in
// memory and are written out once, when the run ends.
#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  std::string name;
  int64_t start_ns = 0;  // NowNanos()
  int64_t end_ns = 0;
  int parent = -1;  // index into the recorder, -1 for a root
  /// Correlation id: the queue task id or the invocation index.
  int64_t corr = 0;
};

/// Single-threaded: the engine thread owns it.
class SpanRecorder {
 public:
  /// Opens a span under the innermost open span; returns its index.
  int Begin(const std::string& name, int64_t corr = 0);
  void End(int index);
  /// Records a finished span under `parent`, by default the innermost
  /// open span.
  static constexpr int kInnermost = -2;
  int Add(const std::string& name, int64_t start_ns, int64_t end_ns,
          int64_t corr = 0, int parent = kInnermost);
  /// Re-labels a span's correlation id once it is known.
  void SetCorr(int index, int64_t corr) { spans_[index].corr = corr; }

  const std::vector<Span>& spans() const { return spans_; }
  /// The spans that started at or after `start_ns`, re-parented within
  /// the copy (a parent that started earlier becomes no parent).
  SpanRecorder Since(int64_t start_ns) const;

  /// Duration minus the part of it covered by the span's children (ns).
  std::vector<int64_t> SelfTimes() const;
  /// Durations, in microseconds, of every span named `name`.
  std::vector<double> Durations(const std::string& name) const;
  /// Sum of self times per span name (ns).
  std::map<std::string, int64_t> SelfTotals() const;

  /// One JSON object per line.
  bool WriteJsonLines(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* rec, const std::string& name, int64_t corr = 0)
      : rec_(rec), index_(rec->Begin(name, corr)) {}
  ~ScopedSpan() { rec_->End(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* rec_;
  int index_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
