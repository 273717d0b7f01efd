// Experiment F-queue — crash-surviving queue recovery: a papyrusd
// workload (two sessions fed over the wire) runs under a seeded
// daemon-crash plan that kills the process mid-pipeline; a supervisor
// loop reboots it on the same root until the queue drains. Reported per
// worker-pool size: injected crashes, restarts, wall-clock cost of each
// reopen (journal replay + session restore), and the exactly-once
// verdict — every task done, none failed, executed + deduped == n, and
// the final snapshot bytes identical to a crash-free reference run.
//
// Flags:
//   --smoke      run the soak matrix only; exit non-zero unless every
//                scenario is exactly-once and byte-identical
//   --json F     write the summary to F (default
//                BENCH_queue_recovery.json; "" disables)
//   --trace F    dump the chaos soak's virtual-time Chrome trace to F
//   --metrics F  dump the chaos soak's metrics-registry snapshot to F
//                (both validated by tools/check_trace.py in CI)

#include <benchmark/benchmark.h>

#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "base/clock.h"
#include "base/macros.h"
#include "base/status.h"
#include "bench/bench_util.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "server/daemon.h"
#include "server/fingerprint.h"
#include "server/queue.h"

namespace papyrus::bench {
namespace {

namespace fs = std::filesystem;

int64_t WallMicros() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::string FreshDir(const std::string& name) {
  fs::path dir = fs::temp_directory_path() / ("bench_queue_" + name);
  std::error_code ec;
  fs::remove_all(dir, ec);
  fs::create_directories(dir, ec);
  return dir.string();
}

/// One daemon lifetime spanning injected crashes: the clock, metrics,
/// and trace recorder survive each reboot, the in-memory daemon does
/// not — exactly the supervisor loop papyrusd expects around itself.
struct Harness {
  explicit Harness(const std::string& root_dir)
      : root(root_dir), trace(&clock) {
    trace.set_enabled(true);
  }

  Status Boot() {
    daemon.reset();  // the old incarnation's memory dies first
    server::DaemonOptions options;
    options.root = root;
    options.session.worker_threads = workers;
    options.crash_plan = plan;
    options.clock = &clock;
    options.trace = &trace;
    options.metrics = &metrics;
    int64_t start = WallMicros();
    auto started = server::PapyrusDaemon::Start(options);
    reopen_wall_micros += WallMicros() - start;
    if (!started.ok()) return started.status();
    daemon = std::move(*started);
    ++boots;
    return Status::OK();
  }

  /// Drains to empty, rebooting on injected crashes. Returns the number
  /// of restarts or an error if the daemon never settles.
  Result<int> Settle(int max_restarts = 64) {
    int restarts = 0;
    while (true) {
      Status st = daemon->Drain();
      if (st.ok()) return restarts;
      if (!st.IsAborted()) return st;
      if (++restarts > max_restarts) {
        return Status::Internal("daemon did not settle");
      }
      PAPYRUS_RETURN_IF_ERROR(Boot());
    }
  }

  std::string root;
  ManualClock clock{0};
  obs::MetricsRegistry metrics;
  obs::TraceRecorder trace;
  server::DaemonCrashPlan* plan = nullptr;
  int workers = 1;
  int boots = 0;
  int64_t reopen_wall_micros = 0;
  std::unique_ptr<server::PapyrusDaemon> daemon;
};

/// Two sessions over the wire: `kTasks` synthesis flows in alpha and as
/// many pad placements in beta. Returns the number of tasks submitted.
int SubmitWorkload(Harness& h) {
  auto send = [&](const std::string& line) {
    std::string reply = h.daemon->HandleLine(line);
    if (reply.rfind("ok", 0) != 0) {
      std::fprintf(stderr, "wire error: %s -> %s\n", line.c_str(),
                   reply.c_str());
    }
  };
  constexpr int kTasks = 4;
  send("checkin ~session=alpha ~path=/proj/shifter ~type=behav"
       " ~inputs=8 ~outputs=8 ~complexity=12 ~seed=77");
  send("checkin ~session=alpha ~path=/proj/sim.cmd ~type=text"
       " ~text=run%20100");
  send("checkin ~session=beta ~path=/proj/cell ~type=layout"
       " ~cells=12 ~area=1200 ~seed=3");
  for (int k = 0; k < kTasks; ++k) {
    send("submit ~session=alpha ~thread=synth"
         " ~template=Structure_Synthesis"
         " ~in=/proj/shifter ~in=/proj/sim.cmd"
         " ~out=s" + std::to_string(k) + ".layout"
         " ~out=s" + std::to_string(k) + ".stats"
         " ~seed=" + std::to_string(42 + k));
    send("submit ~session=beta ~thread=pads ~template=Padp"
         " ~in=/proj/cell"
         " ~out=cell" + std::to_string(k) + ".padded"
         " ~seed=" + std::to_string(9 + k));
  }
  return 2 * kTasks;
}

struct SoakResult {
  int workers = 0;
  int tasks = 0;
  int done = 0;
  int failed = 0;
  int crashes = 0;
  int restarts = 0;
  int64_t executed = 0;
  int64_t deduped = 0;
  double reopen_avg_ms = 0.0;
  double drain_wall_ms = 0.0;
  bool exactly_once = false;
  bool byte_identical = false;
  std::string metrics_json;
};

/// Runs the workload under a rate-based crash plan (rate 0 = crash-free
/// reference) and checks the recovery invariants. `reference` is the
/// crash-free replay fingerprint to compare against, or null for the
/// reference run itself. `keep` optionally receives the harness for
/// trace dumps.
SoakResult RunSoak(int workers, double crash_rate, uint64_t seed,
                   const server::ReplayFingerprint* reference,
                   server::ReplayFingerprint* fingerprint_out = nullptr,
                   std::unique_ptr<Harness>* keep = nullptr) {
  auto h = std::make_unique<Harness>(
      FreshDir("w" + std::to_string(workers) + "_r" +
               std::to_string(static_cast<int>(crash_rate * 100))));
  h->workers = workers;
  server::DaemonCrashPlan plan(seed, crash_rate, /*max_crashes=*/6);
  if (crash_rate > 0) h->plan = &plan;

  SoakResult r;
  r.workers = workers;
  if (!h->Boot().ok()) return r;
  r.tasks = SubmitWorkload(*h);
  int64_t start = WallMicros();
  auto restarts = h->Settle();
  r.drain_wall_ms = (WallMicros() - start) / 1000.0;
  if (!restarts.ok()) {
    std::fprintf(stderr, "soak failed: %s\n",
                 restarts.status().ToString().c_str());
    return r;
  }
  r.restarts = *restarts;
  r.crashes = plan.crashes_fired();
  r.done = static_cast<int>(h->daemon->queue().DoneCount());
  r.failed = static_cast<int>(h->daemon->queue().FailedCount());
  r.executed =
      h->metrics.FindOrCreateCounter(obs::kServerTasksExecuted)->value();
  r.deduped =
      h->metrics.FindOrCreateCounter(obs::kServerTasksDeduped)->value();
  r.reopen_avg_ms = h->boots > 0
                        ? h->reopen_wall_micros / 1000.0 / h->boots
                        : 0.0;
  r.exactly_once = r.done == r.tasks && r.failed == 0 &&
                   r.executed + r.deduped == r.tasks;
  r.metrics_json = h->metrics.ToJson();
  auto fingerprint =
      server::FingerprintSessions(h->daemon.get(), {"alpha", "beta"});
  std::string diff;
  if (!fingerprint.ok()) {
    diff = fingerprint.status().ToString();
  } else if (reference != nullptr) {
    diff = server::DiffFingerprints(*reference, *fingerprint);
  }
  if (!diff.empty()) std::fprintf(stderr, "not identical: %s\n", diff.c_str());
  r.byte_identical = diff.empty();
  if (fingerprint.ok() && fingerprint_out != nullptr) {
    *fingerprint_out = std::move(*fingerprint);
  }
  h->plan = nullptr;  // the stack plan dies with this scope
  if (keep != nullptr) *keep = std::move(h);
  return r;
}

void PrintTable(const std::vector<SoakResult>& rows) {
  std::printf("%-8s %-8s %-8s %-9s %-10s %-10s %-11s %-8s %s\n",
              "workers", "crashes", "restarts", "done", "executed",
              "deduped", "reopen(ms)", "1x-ok", "bytes-ok");
  for (const SoakResult& r : rows) {
    std::printf("%-8d %-8d %-8d %2d/%-6d %-10" PRId64 " %-10" PRId64
                " %-11.2f %-8s %s\n",
                r.workers, r.crashes, r.restarts, r.done, r.tasks,
                r.executed, r.deduped, r.reopen_avg_ms,
                r.exactly_once ? "yes" : "NO",
                r.byte_identical ? "yes" : "NO");
  }
  std::printf("\n");
}

void WriteJson(const std::string& path,
               const std::vector<SoakResult>& rows) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  out << "{\n  \"bench\": \"queue_recovery\",\n  \"scenarios\": [\n";
  for (size_t i = 0; i < rows.size(); ++i) {
    const SoakResult& r = rows[i];
    out << "    {\"workers\": " << r.workers
        << ", \"tasks\": " << r.tasks << ", \"done\": " << r.done
        << ", \"failed\": " << r.failed
        << ", \"crashes_injected\": " << r.crashes
        << ", \"restarts\": " << r.restarts
        << ", \"executed\": " << r.executed
        << ", \"deduped\": " << r.deduped
        << ", \"reopen_avg_ms\": " << r.reopen_avg_ms
        << ", \"drain_wall_ms\": " << r.drain_wall_ms
        << ", \"exactly_once\": " << (r.exactly_once ? "true" : "false")
        << ", \"byte_identical\": "
        << (r.byte_identical ? "true" : "false")
        << ",\n     \"metrics\": "
        << (r.metrics_json.empty() ? "{}" : r.metrics_json) << "}"
        << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  out << "  ],\n"
      // Regression floors enforced by tools/check_bench.py.
      << "  \"floors\": {\n"
      << "    \"scenarios/*/exactly_once\": {\"eq\": true},\n"
      << "    \"scenarios/*/byte_identical\": {\"eq\": true},\n"
      << "    \"scenarios/*/failed\": {\"max\": 0}\n"
      << "  }\n}\n";
  std::printf("wrote %s\n\n", path.c_str());
}

void BM_CrashRecoverySoak(benchmark::State& state) {
  int workers = static_cast<int>(state.range(0));
  uint64_t seed = 0xF00D;
  for (auto _ : state) {
    SoakResult r = RunSoak(workers, 0.15, seed++, nullptr);
    benchmark::DoNotOptimize(r);
  }
  state.counters["workers"] = workers;
}
BENCHMARK(BM_CrashRecoverySoak)->Arg(1)->Arg(4)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace papyrus::bench

int main(int argc, char** argv) {
  bool smoke = false;
  std::string json_path = "BENCH_queue_recovery.json";
  std::string trace_path;
  std::string metrics_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    }
    if (std::strcmp(argv[i], "--trace") == 0 && i + 1 < argc) {
      trace_path = argv[++i];
    }
    if (std::strcmp(argv[i], "--metrics") == 0 && i + 1 < argc) {
      metrics_path = argv[++i];
    }
  }

  papyrus::bench::Banner(
      "F-queue", "the multi-session daemon's crash-surviving job queue "
      "(journaled claims, virtual-time leases, applied-task ledger)",
      "kill the daemon at any instant and restart it on the same root: "
      "every journaled task commits exactly once and the final session "
      "state is byte-identical to a crash-free run at any pool size.");

  std::printf("chaos soak: seeded daemon crashes at rate 0.15 "
              "(max 6), supervisor reboots until drained\n\n");
  std::vector<papyrus::bench::SoakResult> rows;
  std::unique_ptr<papyrus::bench::Harness> chaos_harness;
  for (int workers : {1, 4}) {
    papyrus::server::ReplayFingerprint reference_fingerprint;
    papyrus::bench::SoakResult reference = papyrus::bench::RunSoak(
        workers, 0.0, 0, nullptr, &reference_fingerprint);
    rows.push_back(reference);
    std::printf("workers=%d: replay fingerprint compares %zu sections "
                "+ the ADG\n",
                workers, reference_fingerprint.sections.size());
    rows.push_back(papyrus::bench::RunSoak(
        workers, 0.15, 0xF00D + workers, &reference_fingerprint, nullptr,
        workers == 4 ? &chaos_harness : nullptr));
  }
  papyrus::bench::PrintTable(rows);

  bool ok = true;
  bool any_crash = false;
  for (const auto& r : rows) {
    if (!r.exactly_once || !r.byte_identical) ok = false;
    if (r.crashes > 0) any_crash = true;
  }
  if (!any_crash) ok = false;  // a soak that never crashed proved nothing
  std::printf("exactly-once and byte-identical across crashes: %s\n",
              ok ? "yes" : "NO");

  if (chaos_harness != nullptr) {
    if (!trace_path.empty()) {
      chaos_harness->trace.Finish();
      papyrus::Status st = chaos_harness->trace.WriteJson(trace_path);
      std::printf("trace: %s\n",
                  st.ok() ? trace_path.c_str() : st.ToString().c_str());
    }
    if (!metrics_path.empty()) {
      std::ofstream out(metrics_path, std::ios::trunc);
      out << chaos_harness->metrics.ToJson();
      std::printf("metrics: %s\n", metrics_path.c_str());
    }
  }

  if (!json_path.empty()) {
    papyrus::bench::WriteJson(json_path, rows);
  }
  if (smoke) {
    std::printf("smoke: %s\n", ok ? "PASS" : "FAIL");
    return ok ? 0 : 1;
  }

  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
