#include "workloads.h"

#include <cstdio>

#include "core/papyrus.h"

namespace perfbench {

void AddLatency(const std::vector<double>& latencies_ms, const TailSpec& tail,
                std::map<std::string, double>* values, Report* report) {
  (*values)["task_p50_ms"] = Median(latencies_ms);
  (*values)["task_tail_ms"] = Percentile(latencies_ms, tail.percentile);
  int64_t beyond = SamplesBeyond(latencies_ms.size(), tail.percentile);
  char note[160];
  std::snprintf(note, sizeof(note), "task_tail_ms is p%g of %zu samples (%lld beyond it)",
                tail.percentile, latencies_ms.size(), static_cast<long long>(beyond));
  report->Note(note);
  report->Check(beyond >= 10, "fewer than 10 samples beyond the tail percentile");
}

double TimeLint(const papyrus::tdl::TaskTemplate& tmpl,
                papyrus::lint::LintResult* result) {
  papyrus::SessionOptions options;
  options.worker_threads = 1;
  papyrus::Papyrus session(options);
  papyrus::lint::LintOptions lint;
  lint.tools = &session.tools();
  lint.library = &session.templates();
  std::vector<double> ms;
  for (int i = 0; i < 3; ++i) {
    double t0 = NowSeconds();
    *result = papyrus::lint::LintTemplate(tmpl, lint);
    ms.push_back((NowSeconds() - t0) * 1000.0);
  }
  return Median(ms);
}

}  // namespace perfbench
