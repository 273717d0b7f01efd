#include "spans.h"

#include <fstream>

#include "common.h"

namespace perfbench {

int SpanRecorder::Begin(const std::string& name, int64_t corr) {
  int parent = open_.empty() ? -1 : open_.back();
  spans_.push_back({name, NowNanos(), 0, parent, corr});
  int index = static_cast<int>(spans_.size()) - 1;
  open_.push_back(index);
  return index;
}

void SpanRecorder::End(int index) {
  spans_[index].end_ns = NowNanos();
  if (!open_.empty() && open_.back() == index) open_.pop_back();
}

int SpanRecorder::Add(const std::string& name, int64_t start_ns,
                      int64_t end_ns, int64_t corr, int parent) {
  if (parent == kInnermost) parent = open_.empty() ? -1 : open_.back();
  spans_.push_back({name, start_ns, end_ns, parent, corr});
  return static_cast<int>(spans_.size()) - 1;
}

SpanRecorder SpanRecorder::Since(int64_t start_ns) const {
  SpanRecorder out;
  std::vector<int> remap(spans_.size(), -1);
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.start_ns < start_ns) continue;
    int parent = s.parent >= 0 ? remap[s.parent] : -1;
    out.spans_.push_back({s.name, s.start_ns, s.end_ns, parent, s.corr});
    remap[i] = static_cast<int>(out.spans_.size()) - 1;
  }
  return out;
}

std::vector<int64_t> SpanRecorder::SelfTimes() const {
  // Children of one parent never overlap (spans nest on one thread), so
  // the covered part is the sum of the children's durations.
  std::vector<int64_t> self(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) {
    self[i] = spans_[i].end_ns - spans_[i].start_ns;
  }
  for (const Span& s : spans_) {
    if (s.parent >= 0) self[s.parent] -= s.end_ns - s.start_ns;
  }
  return self;
}

std::vector<double> SpanRecorder::Durations(const std::string& name) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (s.name == name) out.push_back(static_cast<double>(s.end_ns - s.start_ns) / 1e3);
  }
  return out;
}

std::map<std::string, int64_t> SpanRecorder::SelfTotals() const {
  std::map<std::string, int64_t> totals;
  std::vector<int64_t> self = SelfTimes();
  for (size_t i = 0; i < spans_.size(); ++i) totals[spans_[i].name] += self[i];
  return totals;
}

bool SpanRecorder::WriteJsonLines(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "{\"id\": " << i << ", \"name\": \"" << s.name
        << "\", \"start_ns\": " << s.start_ns << ", \"end_ns\": " << s.end_ns
        << ", \"parent\": " << s.parent << ", \"corr\": " << s.corr << "}\n";
  }
  return static_cast<bool>(out);
}

}  // namespace perfbench
