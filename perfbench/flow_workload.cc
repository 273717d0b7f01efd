// flow_deep: one in-process Papyrus session per round; one design thread
// invokes a generated ~1,000-step flow on freshly checked-in inputs and
// commits the WAL after each invocation, so its history grows to about
// 10^4 steps. The engine runs in a forked child that is SIGKILLed after
// its last commit; the parent then times the reopen and checks that the
// recovered history and ADG equal the live ones.
#include <poll.h>
#include <sched.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <sstream>

#include "base/macros.h"
#include "common.h"
#include "core/papyrus.h"
#include "fingerprint.h"
#include "generators.h"
#include "lint/linter.h"
#include "obs/metrics.h"
#include "spans.h"
#include "workloads.h"

namespace perfbench {

namespace {

namespace fs = std::filesystem;
using papyrus::Status;

constexpr int kInvocationsPerRound = 10;
/// Set-ups timed per round (the last one is kept): setup_s is about a
/// millisecond, so one sample per round would be mostly noise.
constexpr int kSetupsPerRound = 5;
constexpr TailSpec kTail = {75.0, 40};
constexpr char kThreadName[] = "deep";

papyrus::SessionOptions FlowOptions() {
  papyrus::SessionOptions options;
  options.num_workstations = 4;
  options.cache_interval = 8;
  options.metadata_inference = true;
  options.standard_environment = true;
  options.step_cache = true;
  options.worker_threads = 1;
  return options;
}

/// The CPUs this process may run on, in ascending order.
std::vector<int> AllowedCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (::sched_getaffinity(0, sizeof(set), &set) != 0) return cpus;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &set)) cpus.push_back(cpu);
  }
  return cpus;
}

/// Restricts the calling thread (and threads it starts later) to `cpu`.
void PinTo(int cpu) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  (void)::sched_setaffinity(0, sizeof(set), &set);
}

/// Wall-clock marks of one invocation's step phase.
class StepMarks : public papyrus::task::TaskObserver {
 public:
  void OnStepReady(const std::string&, int, std::string*) override {
    if (first_ready == 0) first_ready = NowNanos();
  }
  void OnStepCompleted(const papyrus::task::StepRecord&) override {
    last_completed = NowNanos();
  }
  int64_t first_ready = 0;
  int64_t last_completed = 0;
};

/// Named sample lists, exchanged between the engine child and the parent
/// as text ("name v1 v2 ...", one line each).
using Samples = std::map<std::string, std::vector<double>>;

std::string Encode(const Samples& samples) {
  std::ostringstream out;
  out.precision(17);
  for (const auto& [name, values] : samples) {
    out << name;
    for (double v : values) out << ' ' << v;
    out << '\n';
  }
  return out.str();
}

Samples Decode(const std::string& text) {
  Samples samples;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream fields(line);
    std::string name;
    fields >> name;
    std::vector<double>& values = samples[name];
    double v = 0;
    while (fields >> v) values.push_back(v);
  }
  return samples;
}

double Sum(const Samples& s, const std::string& name) {
  auto it = s.find(name);
  return it == s.end() ? 0.0 : perfbench::Sum(it->second);
}

const std::vector<double>& Get(const Samples& s, const std::string& name) {
  static const std::vector<double> kEmpty;
  auto it = s.find(name);
  return it == s.end() ? kEmpty : it->second;
}

/// One round: set up a session, run the thread's invocations. Samples
/// are appended under `prefix` ("" untraced, "traced." traced). The
/// session is handed back through `keep` for the last round.
Status RunRound(const FlowSpec& flow, uint64_t seed, int round, const std::string& dir,
                const std::string& prefix, SpanRecorder* spans, Samples* out,
                std::unique_ptr<papyrus::Papyrus>* keep) {
  namespace obs = papyrus::obs;
  std::unique_ptr<papyrus::Papyrus> session;
  for (int i = 0; i < kSetupsPerRound; ++i) {
    session.reset();
    RemoveTree(dir);
    double t0 = NowSeconds();
    session = std::make_unique<papyrus::Papyrus>(FlowOptions());
    PAPYRUS_RETURN_IF_ERROR(session->AddTemplate(flow.script));
    PAPYRUS_RETURN_IF_ERROR(session->OpenStorage(dir));
    (*out)[prefix + "setup_s"].push_back(NowSeconds() - t0);
  }

  papyrus::obs::MetricsRegistry& reg = session->metrics();
  auto counter = [&](const char* name) {
    return static_cast<double>(reg.FindOrCreateCounter(name)->value());
  };
  auto* payload =
      reg.FindOrCreateHistogram(obs::kExecWallLatency, obs::WallLatencyBucketBounds());
  const char* kCounters[] = {obs::kWalSyncs,        obs::kWalBytesWritten,
                             obs::kSnapshotGenerations, obs::kSnapshotSectionsWritten,
                             obs::kOctVersionsCreated,  obs::kCacheHits,
                             obs::kCacheMisses};
  std::map<std::string, double> before;
  for (const char* name : kCounters) before[name] = counter(name);
  double payload_sum = static_cast<double>(payload->sum());
  double payload_count = static_cast<double>(payload->count());

  int thread = session->CreateThread(kThreadName);
  // Inputs depend on the round only, so a traced round repeats the
  // untraced round of the same index exactly.
  Rng rng(MixSeed(seed, 0x700 + static_cast<uint64_t>(round)));
  double round_start = NowSeconds();
  for (int k = 0; k < kInvocationsPerRound; ++k) {
    papyrus::oct::Layout input;
    input.num_cells = flow.input_cells;
    input.area = flow.input_area;
    input.seed = rng.Next();
    std::string path = "/flow/in" + std::to_string(k);
    int64_t t_checkin = NowNanos();
    PAPYRUS_RETURN_IF_ERROR(session->CheckInObject(path, input).status());
    int64_t t_checked = NowNanos();
    StepMarks marks;
    int64_t virtual_before = session->clock().NowMicros();
    int64_t t_invoke = NowNanos();
    auto node = session->Invoke(thread, flow.name, {path},
                                {"out" + std::to_string(k), "rep" + std::to_string(k)}, {},
                                spans != nullptr ? &marks : nullptr);
    int64_t t_return = NowNanos();
    PAPYRUS_RETURN_IF_ERROR(node.status());
    PAPYRUS_RETURN_IF_ERROR(session->CommitWal());
    int64_t t_end = NowNanos();
    PAPYRUS_ASSIGN_OR_RETURN(auto* t, session->activity().GetThread(thread));
    (*out)[prefix + "steps"].push_back(
        static_cast<double>(t->nodes().at(*node).record.steps.size()));
    (*out)[prefix + "latency_ms"].push_back(static_cast<double>(t_end - t_invoke) / 1e6);
    (*out)[prefix + "virtual_s"].push_back(
        static_cast<double>(session->clock().NowMicros() - virtual_before) / 1e6);
    if (spans != nullptr) {
      int64_t corr = round * kInvocationsPerRound + k;
      int64_t ready = marks.first_ready != 0 ? marks.first_ready : t_return;
      int64_t done = marks.last_completed != 0 ? marks.last_completed : ready;
      spans->Add("oct.checkin", t_checkin, t_checked, corr, -1);
      int root = spans->Add("task.invoke", t_invoke, t_return, corr, -1);
      spans->Add("task.preflight", t_invoke, ready, corr, root);
      spans->Add("task.steps", ready, done, corr, root);
      spans->Add("task.finish", done, t_return, corr, root);
      spans->Add("engine.commit_wal", t_return, t_end, corr, -1);
      auto ms = [](int64_t from, int64_t to) { return static_cast<double>(to - from) / 1e6; };
      (*out)[prefix + "preflight_ms"].push_back(ms(t_invoke, ready));
      (*out)[prefix + "steps_ms"].push_back(ms(ready, done));
      (*out)[prefix + "finish_ms"].push_back(ms(done, t_return));
      (*out)[prefix + "commit_ms"].push_back(ms(t_return, t_end));
    }
  }
  (*out)[prefix + "wall_s"].push_back(NowSeconds() - round_start);
  const std::vector<double>& steps = (*out)[prefix + "steps"];
  (*out)[prefix + "round_steps"].push_back(
      perfbench::Sum(std::vector<double>(steps.end() - kInvocationsPerRound, steps.end())));
  for (const char* name : kCounters) {
    (*out)[prefix + name].push_back(counter(name) - before[name]);
  }
  (*out)[prefix + "payload_us"].push_back(static_cast<double>(payload->sum()) - payload_sum);
  (*out)[prefix + "payloads"].push_back(static_cast<double>(payload->count()) -
                                        payload_count);
  *keep = std::move(session);
  return Status::OK();
}

/// Opens `dir` in a fresh session; `seconds` gets the OpenStorage time.
Status Reopen(const FlowSpec& flow, const std::string& dir, double* seconds,
              std::unique_ptr<papyrus::Papyrus>* out) {
  auto session = std::make_unique<papyrus::Papyrus>(FlowOptions());
  PAPYRUS_RETURN_IF_ERROR(session->AddTemplate(flow.script));
  double t0 = NowSeconds();
  Status st = session->OpenStorage(dir);
  *seconds = NowSeconds() - t0;
  PAPYRUS_RETURN_IF_ERROR(st);
  *out = std::move(session);
  return Status::OK();
}

/// Per-round rates (a round's invocations or steps over its wall time):
/// their median moves less than a run-wide ratio when the machine slows
/// for part of a run.
double MedianRate(const Samples& s, const std::string& prefix, bool steps) {
  const std::vector<double>& walls = Get(s, prefix + "wall_s");
  const std::vector<double>& round_steps = Get(s, prefix + "round_steps");
  std::vector<double> rates;
  for (size_t r = 0; r < walls.size(); ++r) {
    rates.push_back((steps ? round_steps[r] : kInvocationsPerRound) / walls[r]);
  }
  return Median(rates);
}

/// The engine process: rounds until the measured time and the tail's
/// minimum sample count are reached, then (traced) the same rounds again
/// under spans. Between rounds it times the reopen of the round just
/// finished, whose directory is then exactly what a SIGKILL after the
/// last CommitWal leaves; the last round's session stays live and is
/// really killed. Writes its samples and the live fingerprint, reports
/// through `ready_fd` and waits to be killed.
///
/// Round r, and the reopen after it, run on the r-th of `cpus` in turn
/// (the traced pass repeats the mapping). Left alone, the single-threaded
/// engine would stay on one CPU for the whole run and measure that core
/// only; on a shared host one core can be slower than the others for
/// minutes. Rotating samples every core, and the medians over rounds set
/// a slow one aside.
[[noreturn]] void EngineChild(const Args& args, const FlowSpec& flow, const std::string& dir,
                              const std::vector<int>& cpus, int ready_fd) {
  Samples samples;
  SpanRecorder spans;
  std::unique_ptr<papyrus::Papyrus> live;
  std::string last_dir;
  Status st;
  double start = NowSeconds();
  int rounds = 0;
  auto run = [&](int round, const std::string& prefix, SpanRecorder* recorder) {
    live.reset();  // teardown of the previous round is not measured
    if (!cpus.empty()) PinTo(cpus[static_cast<size_t>(round) % cpus.size()]);
    last_dir = dir + "/round" + std::to_string(round % 2);
    st = RunRound(flow, args.seed, round, last_dir, prefix, recorder, &samples, &live);
  };
  auto reopen = [&](const std::string& prefix) {
    live.reset();
    double seconds = 0.0;
    std::unique_ptr<papyrus::Papyrus> reopened;
    st = Reopen(flow, last_dir, &seconds, &reopened);
    samples[prefix + "recover_s"].push_back(seconds);
  };
  while (st.ok()) {
    run(rounds++, "", nullptr);
    double measured = Sum(samples, "wall_s");
    int64_t invocations = static_cast<int64_t>(Get(samples, "latency_ms").size());
    bool enough = (measured >= args.seconds && invocations >= kTail.min_tasks) ||
                  NowSeconds() - start > 6.0 * args.seconds;
    if (!st.ok() || (enough && !args.trace)) break;
    reopen("");
    if (enough) break;
  }
  for (int round = 0; args.trace && st.ok() && round < rounds; ++round) {
    run(round, "traced.", &spans);
    if (st.ok() && round + 1 < rounds) reopen("traced.");
  }
  if (st.ok()) {
    samples["rounds"].push_back(rounds);
    // Layer self times (the task.invoke root is fully covered by its
    // children), to be set against the traced rounds' wall time.
    double layer_ns = 0.0;
    for (const auto& [name, self] : spans.SelfTotals()) {
      if (name != "task.invoke") layer_ns += static_cast<double>(self);
    }
    samples["traced.layer_ns"].push_back(layer_ns);
    WriteFile(dir + "/samples.txt", Encode(samples));
    WriteFile(dir + "/live.fingerprint", ThreadFingerprint(live.get(), kThreadName));
    WriteFile(dir + "/last_dir", last_dir);
    spans.WriteJsonLines(args.workload + "-spans.jsonl");
  } else {
    WriteFile(dir + "/error", st.ToString());
  }
  char byte = st.ok() ? 'k' : 'e';
  (void)!::write(ready_fd, &byte, 1);
  while (true) ::pause();
}

}  // namespace

void RunFlowWorkload(const Args& args, Report* report) {
  const FlowSpec flow = MakeFlow(args.seed);
  const std::string dir = std::string(kTmpfsDir) + "/" + args.workload;
  RemoveTree(dir);
  fs::create_directories(dir);
  const std::vector<int> cpus = AllowedCpus();
  report->Note("options: worker_threads 1, num_workstations 4, cache_interval 8, " +
               std::to_string(kInvocationsPerRound) + " invocations per round, input " +
               std::to_string(flow.input_cells) + " cells, rounds rotate over " +
               std::to_string(cpus.size()) + " CPUs");
  report->Note("storage: " + Medium(dir));
  // The generated template must lint clean before anything is timed.
  auto tmpl = papyrus::tdl::ParseTemplateHeader(flow.script);
  if (!tmpl.ok()) {
    report->Fail("generated flow: " + tmpl.status().ToString());
    return;
  }
  papyrus::lint::LintResult lint;
  const double lint_ms = TimeLint(*tmpl, &lint);
  report->Note("flow: " + std::to_string(flow.steps) + " steps, lint " +
               std::to_string(lint.errors) + " errors " + std::to_string(lint.warnings) +
               " warnings");
  if (!lint.ok()) {
    report->Fail("generated flow does not lint clean");
    return;
  }

  int pipe_fds[2];
  if (::pipe(pipe_fds) != 0) {
    report->Fail("pipe failed");
    return;
  }
  std::fflush(stdout);
  pid_t child = ::fork();
  if (child < 0) {
    report->Fail("fork failed");
    return;
  }
  if (child == 0) {
    ::close(pipe_fds[0]);
    EngineChild(args, flow, dir, cpus, pipe_fds[1]);
  }
  ::close(pipe_fds[1]);
  struct pollfd pfd = {pipe_fds[0], POLLIN, 0};
  char byte = 0;
  bool signalled = ::poll(&pfd, 1, 150'000) == 1 && ::read(pipe_fds[0], &byte, 1) == 1;
  ::close(pipe_fds[0]);
  const double peak_rss_mb = PeakRssMiB(child);
  KillAndReap(child);
  if (!signalled || byte != 'k') {
    report->Fail("flow engine: " + (signalled ? ReadFile(dir + "/error") : "no report"));
    return;
  }
  Samples s = Decode(ReadFile(dir + "/samples.txt"));
  const std::string t = args.trace ? "traced." : "";
  const std::string last_dir = ReadFile(dir + "/last_dir");
  const double store_mb = static_cast<double>(TreeBytes(last_dir)) / (1024.0 * 1024.0);

  // Reopen the killed engine's session: one more recovery sample, and the
  // state the gate checks.
  double seconds = 0.0;
  std::unique_ptr<papyrus::Papyrus> recovered;
  Status reopened = Reopen(flow, last_dir, &seconds, &recovered);
  if (!reopened.ok()) {
    report->Fail("OpenStorage: " + reopened.ToString());
    return;
  }
  s[t + "recover_s"].push_back(seconds);
  double replayed = static_cast<double>(
      recovered->metrics().FindOrCreateCounter(papyrus::obs::kWalReplayedRecords)->value());
  Status reobserved = ReobserveHistory(recovered.get());
  report->Check(reobserved.ok(), "re-deriving the ADG: " + reobserved.ToString());
  std::string live = ReadFile(dir + "/live.fingerprint");
  std::string restored = ThreadFingerprint(recovered.get(), kThreadName);
  report->Check(!live.empty() && live == restored,
                "recovered history/ADG differ from the live ones");
  std::string flipped = live;
  if (!flipped.empty()) flipped[flipped.size() / 2] ^= 0x01;
  report->Check(flipped != restored, "self-test: a flipped byte went unnoticed");
  recovered.reset();

  const std::vector<double>& latencies = Get(s, "latency_ms");
  const double invocations = static_cast<double>(latencies.size());
  report->attempted = static_cast<int64_t>(invocations);
  report->Note("rounds: " + std::to_string(static_cast<int>(Sum(s, "rounds"))) + " of " +
               std::to_string(kInvocationsPerRound) + " invocations each; history " +
               std::to_string(static_cast<int64_t>(Sum(s, "steps") / Sum(s, "rounds"))) +
               " steps per thread; failed_frac 0");
  std::string rates = "round rates (invocations/s, one CPU after another):";
  for (double wall : Get(s, "wall_s")) {
    char rate[16];
    std::snprintf(rate, sizeof(rate), " %.2f", kInvocationsPerRound / wall);
    rates += rate;
  }
  report->Note(rates);
  if (!args.trace) {
    std::map<std::string, double> values;
    values["tasks_per_s"] = MedianRate(s, "", false);
    AddLatency(latencies, kTail, &values, report);
    values["steps_per_s"] = MedianRate(s, "", true);
    values["virtual_task_s"] = Mean(Get(s, "virtual_s"));
    values["setup_s"] = Median(Get(s, "setup_s"));
    values["recover_s"] = Median(Get(s, "recover_s"));
    values["peak_rss_mb"] = peak_rss_mb;
    values["store_mb"] = store_mb;
    AddMetrics(kEndToEnd, values, report);
    return;
  }

  namespace obs = papyrus::obs;
  const double traced_invocations = static_cast<double>(Get(s, t + "latency_ms").size());
  const double steps = Sum(s, t + "steps");
  const double untraced_virtual = Mean(Get(s, "virtual_s"));
  const double traced_virtual = Mean(Get(s, t + "virtual_s"));
  report->Check(traced_invocations == invocations &&
                    std::abs(untraced_virtual - traced_virtual) <= 1e-9 * untraced_virtual,
                "virtual_task_s differs between the traced and untraced runs");

  std::map<std::string, double> L;
  auto per_task = [&](const char* name) { return Sum(s, t + name) / traced_invocations; };
  const double steps_total_ms = Sum(s, t + "steps_ms");
  const double payload_us = Sum(s, t + "payload_us");
  L["engine.commit_wal_ms"] = Median(Get(s, t + "commit_ms"));
  L["engine.open_storage_ms"] = Median(Get(s, t + "recover_s")) * 1000.0;
  L["task.preflight_ms"] = Median(Get(s, t + "preflight_ms"));
  L["task.steps_ms"] = Median(Get(s, t + "steps_ms"));
  L["task.finish_ms"] = Median(Get(s, t + "finish_ms"));
  L["task.sched_us_per_step"] = (steps_total_ms * 1000.0 - payload_us) / steps;
  L["cadtools.payload_us_per_step"] = payload_us / Sum(s, t + "payloads");
  L["lint.template_ms"] = lint_ms;
  L["oct.versions_per_step"] = Sum(s, t + obs::kOctVersionsCreated) / steps;
  L["wal.syncs_per_task"] = per_task(obs::kWalSyncs);
  L["wal.bytes_per_task"] = per_task(obs::kWalBytesWritten);
  L["snapshot.generations_per_task"] = per_task(obs::kSnapshotGenerations);
  L["snapshot.sections_written_per_task"] = per_task(obs::kSnapshotSectionsWritten);
  L["wal.replayed_records_per_open"] = replayed;
  double hits = Sum(s, t + obs::kCacheHits), misses = Sum(s, t + obs::kCacheMisses);
  L["cache.hit_ratio"] = hits + misses > 0 ? hits / (hits + misses) : 0.0;
  // The denominator is the rounds' own clock, which no span shares: time
  // between the spans (the thread lookup, the harness's bookkeeping)
  // lowers coverage.
  L["trace.coverage_frac"] = Sum(s, t + "layer_ns") / (Sum(s, t + "wall_s") * 1e9);
  L["trace.overhead_frac"] = 1.0 - MedianRate(s, t, false) / MedianRate(s, "", false);
  report->Check(L["trace.coverage_frac"] >= kCoverageMin &&
                    L["trace.coverage_frac"] <= 1.0 + 1e-9,
                "layer self times cover " + std::to_string(L["trace.coverage_frac"]) +
                    " of the traced end-to-end time");
  AddMetrics(kPerLayer, L, report);
}

}  // namespace perfbench
