// Experiment F-scale — concurrent multi-client daemon scale: the
// Unix-domain-socket transport and the shared-queue worker pool, both
// new in the concurrent-transport PR, measured end to end.
//
// Part 1 (multi-process, the smoke gate): a real `papyrusd --socket
// --shared` front-end serves two concurrent WireClients submitting a
// two-session workload; after the front-end retires, two `papyrusd
// --worker` processes drain the shared queue, splitting the sessions
// between them via per-session file locks. The resulting session
// snapshots must be byte-identical to an in-process serial reference —
// the paper's history-determinism claim, now across processes.
//
// Part 2 (in-process scale matrix): one daemon dispatching fairly
// (weighted round-robin, per-session in-flight caps, LRU-bounded open
// sessions) over 100 / 1 000 / 10 000 sessions. Reported per scale:
// tasks/sec, p50/p99 per-task dispatch latency, and the fairness
// verdict from the queue's claim log — no session's consecutive claims
// further apart than the round-robin bound (starved_sessions == 0).
//
// Flags:
//   --smoke         multi-process gate + the 100-session scale row
//                   only; exit non-zero on any invariant failure
//   --papyrusd P    path to the papyrusd binary (default: sibling
//                   ../tools/papyrusd of this binary)
//   --json F        write the summary (default BENCH_daemon_scale.json;
//                   "" disables)
//   --trace F       dump the largest scale run's Chrome trace to F
//   --metrics F     dump its metrics-registry snapshot to F
//                   (both validated by tools/check_trace.py in CI)

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
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
#include <thread>
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
#include "server/transport.h"

namespace papyrus::bench {
namespace {

namespace fs = std::filesystem;

int64_t WallMicros() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::string FreshDir(const std::string& name) {
  fs::path dir = fs::temp_directory_path() / ("bench_scale_" + name);
  std::error_code ec;
  fs::remove_all(dir, ec);
  fs::create_directories(dir, ec);
  return dir.string();
}

pid_t Spawn(const std::vector<std::string>& args) {
  std::vector<char*> argv;
  argv.reserve(args.size() + 1);
  for (const std::string& a : args) {
    argv.push_back(const_cast<char*>(a.c_str()));
  }
  argv.push_back(nullptr);
  pid_t pid = ::fork();
  if (pid == 0) {
    ::execv(argv[0], argv.data());
    std::fprintf(stderr, "execv %s: %s\n", argv[0], std::strerror(errno));
    ::_exit(127);
  }
  return pid;
}

int WaitFor(pid_t pid) {
  int status = 0;
  while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  return WIFEXITED(status) ? WEXITSTATUS(status) : 128 + WTERMSIG(status);
}

// ---------------------------------------------------------------------------
// Part 1: multi-process smoke — 2 socket clients, 2 worker processes

/// The two-session workload both the serial reference and the
/// multi-process run submit, as wire lines in a fixed per-session
/// order (per-session order is what byte-identity depends on).
std::vector<std::string> AlphaLines() {
  std::vector<std::string> lines = {
      "checkin ~session=alpha ~path=/proj/shifter ~type=behav"
      " ~inputs=8 ~outputs=8 ~complexity=12 ~seed=77",
      "checkin ~session=alpha ~path=/proj/sim.cmd ~type=text"
      " ~text=run%20100"};
  for (int k = 0; k < 3; ++k) {
    lines.push_back(
        "submit ~session=alpha ~thread=synth"
        " ~template=Structure_Synthesis"
        " ~in=/proj/shifter ~in=/proj/sim.cmd"
        " ~out=s" + std::to_string(k) + ".layout"
        " ~out=s" + std::to_string(k) + ".stats"
        " ~seed=" + std::to_string(42 + k));
  }
  return lines;
}

std::vector<std::string> BetaLines() {
  std::vector<std::string> lines = {
      "checkin ~session=beta ~path=/proj/cell ~type=layout"
      " ~cells=12 ~area=1200 ~seed=3"};
  for (int k = 0; k < 3; ++k) {
    lines.push_back(
        "submit ~session=beta ~thread=pads ~template=Padp"
        " ~in=/proj/cell"
        " ~out=cell" + std::to_string(k) + ".padded"
        " ~seed=" + std::to_string(9 + k));
  }
  return lines;
}

struct MultiProcessResult {
  int clients = 0;
  int workers = 0;
  int tasks = 0;
  int done = 0;
  int failed = 0;
  bool byte_identical = false;
  bool ok = false;
  double wall_ms = 0.0;
};

/// The logical replay fingerprint of the two sessions under `root`, read
/// through an in-process daemon once every writer has exited.
Result<server::ReplayFingerprint> FingerprintRoot(const std::string& root) {
  server::DaemonOptions options;
  options.root = root;
  PAPYRUS_ASSIGN_OR_RETURN(auto daemon, server::PapyrusDaemon::Start(options));
  return server::FingerprintSessions(daemon.get(), {"alpha", "beta"});
}

/// Serial reference: one in-process daemon, same wire lines, FIFO-free
/// fair dispatch — the state every distributed run must reproduce.
Result<server::ReplayFingerprint> SerialReference(const std::string& root) {
  {
    server::DaemonOptions options;
    options.root = root;
    PAPYRUS_ASSIGN_OR_RETURN(auto daemon,
                             server::PapyrusDaemon::Start(options));
    for (const std::string& line : AlphaLines()) {
      (void)daemon->HandleLine(line);
    }
    for (const std::string& line : BetaLines()) {
      (void)daemon->HandleLine(line);
    }
    PAPYRUS_RETURN_IF_ERROR(daemon->Drain());
    PAPYRUS_RETURN_IF_ERROR(daemon->Shutdown());
  }
  return FingerprintRoot(root);
}

/// Sends every line, insisting on ok responses. Returns false on any
/// error (connection or daemon-side).
bool SendAll(server::WireClient& client,
             const std::vector<std::string>& lines) {
  for (const std::string& line : lines) {
    auto response = client.Call(line);
    if (!response.ok() || response->rfind("ok", 0) != 0) {
      std::fprintf(stderr, "wire error: %s -> %s\n", line.c_str(),
                   response.ok() ? response->c_str()
                                 : response.status().ToString().c_str());
      return false;
    }
  }
  return true;
}

MultiProcessResult RunMultiProcess(const std::string& papyrusd) {
  MultiProcessResult r;
  r.tasks = 6;
  std::string root = FreshDir("multiproc");
  std::string reference_root = FreshDir("multiproc_ref");
  auto reference = SerialReference(reference_root);
  if (!reference.ok()) {
    std::fprintf(stderr, "serial reference run failed: %s\n",
                 reference.status().ToString().c_str());
    return r;
  }

  std::string socket_path =
      "/tmp/bench_scale_" + std::to_string(::getpid()) + ".sock";
  std::error_code ec;
  fs::remove(socket_path, ec);

  int64_t start = WallMicros();
  // Front-end: accepts concurrent socket clients, journals their
  // submissions into the shared queue, executes nothing.
  pid_t front = Spawn({papyrusd, "--root", root, "--socket", socket_path,
                       "--shared"});

  // Both clients connect before either submits: two live connections
  // multiplexed by one poll loop.
  auto connect_with_retry =
      [&]() -> std::unique_ptr<server::WireClient> {
    for (int tries = 0; tries < 200; ++tries) {
      auto client = server::WireClient::Connect(socket_path);
      if (client.ok()) return std::move(*client);
      std::this_thread::sleep_for(std::chrono::milliseconds(25));
    }
    return nullptr;
  };
  auto c1 = connect_with_retry();
  auto c2 = connect_with_retry();
  if (c1 == nullptr || c2 == nullptr) {
    std::fprintf(stderr, "cannot connect to %s\n", socket_path.c_str());
    (void)WaitFor(front);
    return r;
  }
  r.clients = 2;
  bool submitted = SendAll(*c1, {"connect ~client=alpha-eng"}) &&
                   SendAll(*c2, {"connect ~client=beta-eng"}) &&
                   // Interleave across the two live connections; the
                   // per-session order stays fixed.
                   SendAll(*c1, AlphaLines()) &&
                   SendAll(*c2, BetaLines()) &&
                   SendAll(*c2, {"stat"}) && SendAll(*c1, {"shutdown"});
  c1.reset();
  c2.reset();
  int front_rc = WaitFor(front);
  if (!submitted || front_rc != 0) {
    std::fprintf(stderr, "front-end failed (rc=%d)\n", front_rc);
    return r;
  }

  // Two worker processes drain the shared queue the front-end left
  // behind, splitting the two sessions by file lock.
  pid_t w1 = Spawn({papyrusd, "--root", root, "--worker", "--inflight",
                    "1"});
  pid_t w2 = Spawn({papyrusd, "--root", root, "--worker", "--inflight",
                    "1"});
  int rc1 = WaitFor(w1);
  int rc2 = WaitFor(w2);
  r.wall_ms = (WallMicros() - start) / 1000.0;
  r.workers = 2;
  if (rc1 != 0 || rc2 != 0) {
    std::fprintf(stderr, "workers failed (rc=%d, rc=%d)\n", rc1, rc2);
    return r;
  }

  // Read the queue's final verdict from disk.
  {
    ManualClock clock(0);
    auto queue = server::PersistentQueue::Open(
        (fs::path(root) / "queue").string(), &clock);
    if (!queue.ok()) return r;
    r.done = static_cast<int>((*queue)->DoneCount());
    r.failed = static_cast<int>((*queue)->FailedCount());
  }

  auto fingerprint = FingerprintRoot(root);
  std::string diff = fingerprint.ok()
                         ? server::DiffFingerprints(*reference, *fingerprint)
                         : fingerprint.status().ToString();
  if (!diff.empty()) std::fprintf(stderr, "not identical: %s\n", diff.c_str());
  std::printf("replay fingerprint compares %zu sections + the ADG\n",
              reference->sections.size());
  r.byte_identical = diff.empty();
  r.ok = r.done == r.tasks && r.failed == 0 && r.byte_identical;
  return r;
}

// ---------------------------------------------------------------------------
// Part 2: in-process scale matrix with fair dispatch

struct ScaleResult {
  int sessions = 0;
  int tasks = 0;
  int done = 0;
  int failed = 0;
  double tasks_per_sec = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  int max_claim_gap = 0;
  int starved_sessions = 0;
  bool ok = false;
};

std::string SessionName(int i) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "s%05d", i);
  return buf;
}

/// Fairness audit over the queue's claim log: for every session, the
/// largest number of claims granted between two of its consecutive
/// claims. Under weighted round-robin with uniform weights that gap
/// cannot exceed the number of sessions still holding pending work, so
/// any session beyond `bound` was starved.
void AuditClaimLog(const std::vector<server::ClaimRecord>& log, int bound,
                   int* max_gap, int* starved) {
  std::map<std::string, int> last_position;
  std::map<std::string, int> worst;
  for (int i = 0; i < static_cast<int>(log.size()); ++i) {
    auto it = last_position.find(log[i].session);
    if (it != last_position.end()) {
      int gap = i - it->second;
      int& w = worst[log[i].session];
      if (gap > w) w = gap;
    }
    last_position[log[i].session] = i;
  }
  *max_gap = 0;
  *starved = 0;
  for (const auto& [session, gap] : worst) {
    if (gap > *max_gap) *max_gap = gap;
    if (gap > bound) ++*starved;
  }
}

ScaleResult RunScale(int sessions, int tasks_per_session,
                     obs::TraceRecorder* trace, ManualClock* clock,
                     obs::MetricsRegistry* metrics) {
  ScaleResult r;
  r.sessions = sessions;
  r.tasks = sessions * tasks_per_session;

  server::DaemonOptions options;
  options.root = FreshDir("matrix_" + std::to_string(sessions));
  options.fair_dispatch = true;
  options.max_inflight_per_session = 1;
  // The LRU cap is what lets one daemon face 10k sessions without 10k
  // live engines; claims rotating across sessions make this the
  // worst-case open/evict churn, and that cost is what p99 shows.
  options.max_open_sessions = 64;
  options.clock = clock;
  options.trace = trace;
  options.metrics = metrics;
  auto daemon = server::PapyrusDaemon::Start(options);
  if (!daemon.ok()) {
    std::fprintf(stderr, "scale start: %s\n",
                 daemon.status().ToString().c_str());
    return r;
  }

  for (int i = 0; i < sessions; ++i) {
    std::string response = (*daemon)->HandleLine(
        "checkin ~session=" + SessionName(i) +
        " ~path=/proj/cell ~type=layout ~cells=12 ~area=1200 ~seed=" +
        std::to_string(100 + i));
    if (response.rfind("ok", 0) != 0) {
      std::fprintf(stderr, "checkin: %s\n", response.c_str());
      return r;
    }
  }
  for (int k = 0; k < tasks_per_session; ++k) {
    for (int i = 0; i < sessions; ++i) {
      std::string response = (*daemon)->HandleLine(
          "submit ~session=" + SessionName(i) +
          " ~thread=pads ~template=Padp ~in=/proj/cell ~out=cell" +
          std::to_string(k) + ".padded ~seed=" +
          std::to_string(9 + k));
      if (response.rfind("ok", 0) != 0) {
        std::fprintf(stderr, "submit: %s\n", response.c_str());
        return r;
      }
    }
  }

  // Dispatch phase: every RunOne is one claim -> execute -> commit;
  // its wall duration is the per-task dispatch latency.
  std::vector<int64_t> latencies;
  latencies.reserve(r.tasks);
  int64_t start = WallMicros();
  while (true) {
    int64_t t0 = WallMicros();
    auto ran = (*daemon)->RunOne();
    if (!ran.ok()) {
      std::fprintf(stderr, "run: %s\n", ran.status().ToString().c_str());
      return r;
    }
    if (!*ran) break;
    latencies.push_back(WallMicros() - t0);
  }
  double wall_s = (WallMicros() - start) / 1e6;

  r.done = static_cast<int>((*daemon)->queue().DoneCount());
  r.failed = static_cast<int>((*daemon)->queue().FailedCount());
  r.tasks_per_sec = wall_s > 0 ? r.done / wall_s : 0.0;
  if (!latencies.empty()) {
    std::sort(latencies.begin(), latencies.end());
    r.p50_ms = latencies[latencies.size() / 2] / 1000.0;
    r.p99_ms = latencies[latencies.size() * 99 / 100] / 1000.0;
  }
  AuditClaimLog((*daemon)->queue().claim_log(), sessions, &r.max_claim_gap,
                &r.starved_sessions);
  r.ok = r.done == r.tasks && r.failed == 0 && r.starved_sessions == 0;
  if (!(*daemon)->Shutdown().ok()) r.ok = false;
  return r;
}

// ---------------------------------------------------------------------------
// Reporting

void WriteJson(const std::string& path, const MultiProcessResult& mp,
               const std::vector<ScaleResult>& scales) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  out << "{\n  \"bench\": \"daemon_scale\",\n";
  out << "  \"multiprocess\": {\"clients\": " << mp.clients
      << ", \"workers\": " << mp.workers << ", \"tasks\": " << mp.tasks
      << ", \"done\": " << mp.done << ", \"failed\": " << mp.failed
      << ", \"wall_ms\": " << mp.wall_ms << ", \"byte_identical\": "
      << (mp.byte_identical ? "true" : "false") << "},\n";
  out << "  \"scales\": [\n";
  for (size_t i = 0; i < scales.size(); ++i) {
    const ScaleResult& s = scales[i];
    out << "    {\"sessions\": " << s.sessions
        << ", \"tasks\": " << s.tasks << ", \"done\": " << s.done
        << ", \"failed\": " << s.failed << ", \"tasks_per_sec\": "
        << s.tasks_per_sec << ", \"p50_ms\": " << s.p50_ms
        << ", \"p99_ms\": " << s.p99_ms << ", \"max_claim_gap\": "
        << s.max_claim_gap << ", \"starved_sessions\": "
        << s.starved_sessions << "}"
        << (i + 1 < scales.size() ? "," : "") << "\n";
  }
  out << "  ],\n";
  // Regression floors enforced by tools/check_bench.py: paths into this
  // document, with min/max/eq constraints. The throughput floor is set
  // about 10x under the measured dev-machine rate so only a real
  // regression (or a pathological CI host) trips it.
  out << "  \"floors\": {\n"
      << "    \"multiprocess/clients\": {\"min\": 2},\n"
      << "    \"multiprocess/workers\": {\"min\": 2},\n"
      << "    \"multiprocess/failed\": {\"max\": 0},\n"
      << "    \"multiprocess/byte_identical\": {\"eq\": true},\n"
      << "    \"scales/*/failed\": {\"max\": 0},\n"
      << "    \"scales/*/starved_sessions\": {\"max\": 0},\n"
      << "    \"scales/*/tasks_per_sec\": {\"min\": 50}\n"
      << "  }\n}\n";
  std::printf("wrote %s\n", path.c_str());
}

}  // namespace
}  // namespace papyrus::bench

int main(int argc, char** argv) {
  bool smoke = false;
  std::string json_path = "BENCH_daemon_scale.json";
  std::string trace_path;
  std::string metrics_path;
  std::string papyrusd;
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
    if (std::strcmp(argv[i], "--papyrusd") == 0 && i + 1 < argc) {
      papyrusd = argv[++i];
    }
  }
  if (papyrusd.empty()) {
    std::error_code ec;
    std::filesystem::path self =
        std::filesystem::weakly_canonical(argv[0], ec);
    papyrusd =
        (self.parent_path().parent_path() / "tools" / "papyrusd").string();
  }

  papyrus::bench::Banner(
      "F-scale", "the concurrent multi-client daemon transport "
      "(Unix-domain socket + shared-queue worker pool)",
      "many socket clients and worker processes drive one design "
      "history concurrently; dispatch stays fair across sessions and "
      "the resulting snapshots are byte-identical to a serial run.");

  bool ok = true;

  std::printf("multi-process: 2 socket clients -> papyrusd --socket, "
              "then 2 papyrusd --worker drain the shared queue\n");
  papyrus::bench::MultiProcessResult mp;
  if (!std::filesystem::exists(papyrusd)) {
    std::fprintf(stderr, "papyrusd binary not found at %s\n",
                 papyrusd.c_str());
    ok = false;
  } else {
    mp = papyrus::bench::RunMultiProcess(papyrusd);
    std::printf("  clients=%d workers=%d done=%d/%d failed=%d "
                "byte-identical=%s wall=%.1fms\n\n",
                mp.clients, mp.workers, mp.done, mp.tasks, mp.failed,
                mp.byte_identical ? "yes" : "NO", mp.wall_ms);
    if (!mp.ok) ok = false;
  }

  std::vector<int> scale_sessions = smoke ? std::vector<int>{100}
                                          : std::vector<int>{100, 1000,
                                                             10000};
  std::printf("scale matrix: fair dispatch, in-flight cap 1, "
              "64-session LRU\n");
  std::printf("%-10s %-8s %-11s %-9s %-9s %-9s %s\n", "sessions",
              "tasks", "tasks/sec", "p50(ms)", "p99(ms)", "max-gap",
              "starved");
  std::vector<papyrus::bench::ScaleResult> scales;
  papyrus::ManualClock clock(0);
  papyrus::obs::MetricsRegistry metrics;
  papyrus::obs::TraceRecorder trace(&clock);
  trace.set_enabled(true);
  for (int sessions : scale_sessions) {
    int per_session = sessions >= 10000 ? 1 : (sessions >= 1000 ? 2 : 3);
    // Only the largest run feeds the trace/metrics artifacts.
    bool last = sessions == scale_sessions.back();
    papyrus::bench::ScaleResult r = papyrus::bench::RunScale(
        sessions, per_session, last ? &trace : nullptr,
        last ? &clock : nullptr, last ? &metrics : nullptr);
    std::printf("%-10d %-8d %-11.1f %-9.2f %-9.2f %-9d %d\n",
                r.sessions, r.tasks, r.tasks_per_sec, r.p50_ms, r.p99_ms,
                r.max_claim_gap, r.starved_sessions);
    if (!r.ok) ok = false;
    scales.push_back(r);
  }
  std::printf("\n");

  if (!trace_path.empty()) {
    trace.Finish();
    papyrus::Status st = trace.WriteJson(trace_path);
    std::printf("trace: %s\n",
                st.ok() ? trace_path.c_str() : st.ToString().c_str());
  }
  if (!metrics_path.empty()) {
    std::ofstream out(metrics_path, std::ios::trunc);
    out << metrics.ToJson();
    std::printf("metrics: %s\n", metrics_path.c_str());
  }
  if (!json_path.empty()) {
    papyrus::bench::WriteJson(json_path, mp, scales);
  }
  std::printf("concurrent clients + shared-queue workers, fair and "
              "byte-identical: %s\n", ok ? "yes" : "NO");
  return ok ? 0 : 1;
}
