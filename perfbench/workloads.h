// The workloads and the metric catalogue they report against.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <map>
#include <string>
#include <vector>

#include "common.h"
#include "lint/linter.h"
#include "tdl/template.h"

namespace perfbench {

/// Generator connections or threads: at most this many, and at most
/// nproc - 1, so the engine thread keeps a core.
constexpr int kMaxConnections = 3;

/// Layer self times must cover at least this share of the traced
/// end-to-end time (and not exceed it).
constexpr double kCoverageMin = 0.9;

struct MetricSpec {
  const char* name;
  const char* unit;
};

/// Printed with --trace 0, in this order.
inline constexpr MetricSpec kEndToEnd[] = {
    {"tasks_per_s", "tasks/s"},   {"task_p50_ms", "ms"},
    {"task_tail_ms", "ms"},       {"steps_per_s", "steps/s"},
    {"virtual_task_s", "s"},      {"setup_s", "s"},
    {"recover_s", "s"},           {"peak_rss_mb", "MiB"},
    {"store_mb", "MiB"},
};

/// Printed with --trace 1, in this order. A workload that bypasses a
/// layer reports 0 for it.
inline constexpr MetricSpec kPerLayer[] = {
    {"transport.overhead_us", "us"},
    {"wire.submit_us", "us"},
    {"wire.checkin_us", "us"},
    {"queue.expire_us", "us"},
    {"queue.claim_us", "us"},
    {"queue.complete_us", "us"},
    {"queue.journal_bytes_per_task", "bytes/task"},
    {"session.open_us", "us"},
    {"session.cold_open_ratio", "ratio"},
    {"session.execute_us", "us"},
    {"session.save_wal_us", "us"},
    {"session.save_compact_us", "us"},
    {"session.save_compact_max_us", "us"},
    {"wal.syncs_per_task", "syncs/task"},
    {"wal.bytes_per_task", "bytes/task"},
    {"snapshot.generations_per_task", "gens/task"},
    {"snapshot.sections_written_per_task", "sections/task"},
    {"wal.replayed_records_per_open", "records/open"},
    {"engine.commit_wal_ms", "ms"},
    {"engine.open_storage_ms", "ms"},
    {"cas.hit_ratio", "ratio"},
    {"cas.bytes_written_per_task", "bytes/task"},
    {"cache.hit_ratio", "ratio"},
    {"task.preflight_ms", "ms"},
    {"lint.template_ms", "ms"},
    {"task.steps_ms", "ms"},
    {"task.sched_us_per_step", "us/step"},
    {"cadtools.payload_us_per_step", "us/step"},
    {"task.finish_ms", "ms"},
    {"oct.versions_per_step", "versions/step"},
    {"trace.coverage_frac", "ratio"},
    {"trace.overhead_frac", "ratio"},
};

/// Adds every metric of `specs` to `report`, taking values from `values`
/// (0 where absent) and failing the report on names it does not know.
template <size_t N>
void AddMetrics(const MetricSpec (&specs)[N],
                const std::map<std::string, double>& values, Report* report) {
  for (const auto& [name, value] : values) {
    bool known = false;
    for (const MetricSpec& s : specs) known |= name == s.name;
    if (!known) report->Fail("unlisted metric " + name);
  }
  for (const MetricSpec& s : specs) {
    auto it = values.find(s.name);
    report->Add(s.name, it == values.end() ? 0.0 : it->second, s.unit);
  }
}

/// Runs `daemon_churn` or `daemon_hot`; fills end-to-end metrics, or the
/// per-layer ones with `args.trace`.
void RunDaemonWorkload(const Args& args, Report* report);

/// Runs `flow_deep`.
void RunFlowWorkload(const Args& args, Report* report);

/// The tail percentile a workload reports and the task count its
/// measured phase guarantees so that at least ten samples lie beyond it.
struct TailSpec {
  double percentile;
  int64_t min_tasks;
};

/// Adds task_p50_ms and task_tail_ms, with a note naming the tail's
/// percentile and sample count.
void AddLatency(const std::vector<double>& latencies_ms, const TailSpec& tail,
                std::map<std::string, double>* values, Report* report);

/// Median wall milliseconds of three standalone lint::LintTemplate calls
/// on `tmpl`, against the tools and templates of a standard session.
/// `result` receives the findings.
double TimeLint(const papyrus::tdl::TaskTemplate& tmpl,
                papyrus::lint::LintResult* result);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
