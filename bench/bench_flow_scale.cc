// Experiment flow-scale — the engine's cost per design step as the
// history grows (ROADMAP item 5: no hidden O(n^2)). A seeded generator
// emits one 1,000-step TDL flow of deep chains and diamond fan-outs over
// the standard layout tools. One design thread invokes it again and again
// on freshly checked-in layouts (so no step is served from the derivation
// cache) and commits the WAL after each invocation, until its history
// holds 10^5 steps. Reported per invocation: wall and process CPU
// microseconds per step of Invoke + CommitWal. `deep_over_shallow` is the
// median CPU µs/step of five more invocations of that thread over that of
// the first five invocations of a fresh session, run in alternation with
// them; a flat engine keeps it near 1. Measuring both ends side by side,
// and in CPU time, keeps a shared host's changing load and fsync waits out
// of the ratio; the wall ratio (`wall_deep_over_shallow`) is reported, not
// gated.
//
// Two counts that do not depend on timing are gated too:
// `wal_bytes_per_step`, the WAL bytes the deep end's commits wrote per
// step (papyrus.wal.bytes_written: a new history node is journaled
// without re-journaling its parent, as its section lines), and
// `extra_lints`, the pre-flight lints beyond one per session
// (papyrus.lint.templates_linted: a template is linted once per version,
// not once per invocation).
//
// `reopen_over_run` gates recovery against the work it recovers: the
// process CPU of OpenStorage on the deep end's store (its whole history
// replayed from the WAL) per history step, over the deep end's CPU per
// step of Invoke + CommitWal. Both are CPU time of the same process, so
// a shared host's load mostly cancels out of the ratio.
//
// Flags:
//   --smoke    stop at 2x10^4 steps (before the paired ends); exit
//              non-zero unless every invocation committed and the
//              reopen succeeded, deep_over_shallow <= 2.0,
//              wal_bytes_per_step and reopen_over_run are within their
//              floors and extra_lints is 0
//   --json F   write the per-invocation table to F (default
//              BENCH_flow_scale.json; "" disables)

#include <stdlib.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "base/macros.h"
#include "bench/bench_util.h"
#include "core/papyrus.h"
#include "obs/metrics.h"
#include "oct/design_data.h"

namespace papyrus::bench {
namespace {

constexpr uint64_t kSeed = 7;
constexpr int kFlowSteps = 1000;
constexpr int kChains = 50;
constexpr int kChainLength = 10;
constexpr int kDiamonds = 120;
constexpr int64_t kFullHistory = 100'000;
constexpr int64_t kSmokeHistory = 20'000;
constexpr double kMaxDeepOverShallow = 2.0;
/// 5% above the 463.7 WAL bytes per step that journaling only the new
/// node, as its section lines, writes at 10^5 steps (447.6 at the smoke
/// depth). Percent-encoding those lines into one field wrote 541.6
/// (525.6); re-journaling each invocation's parent node as well writes
/// about a third more again.
constexpr double kMaxWalBytesPerStep = 487.0;
/// 1.5x the 0.33 (median of 7 runs, 0.23-0.39) that replay through one
/// in-place line parser reads at 10^5 steps (0.21-0.36 at the smoke
/// depth); splitting every record into strings and decoding each node
/// block twice read 0.41-0.71 (median 0.62).
constexpr double kMaxReopenOverRun = 0.5;
constexpr int kEnds = 5;  // invocations per end of the ratio

/// Uniform in [lo, hi]. A modulo of the raw draw, not a std::
/// distribution, so every standard library generates the same flow.
int Range(std::mt19937_64* rng, int lo, int hi) {
  return lo + static_cast<int>((*rng)() % static_cast<uint64_t>(hi - lo + 1));
}

/// Accumulates `step` commands over fresh object names.
class FlowText {
 public:
  void Step(const std::string& kind, const std::string& inputs,
            const std::string& outputs, const std::string& command) {
    text_ << "step " << kind << '_' << ++steps_ << " {" << inputs << "} {"
          << outputs << "} {" << command << "}\n";
  }
  std::string Fresh() { return "o" + std::to_string(++objects_); }
  int steps() const { return steps_; }
  std::string str() const { return text_.str(); }

 private:
  std::ostringstream text_;
  int steps_ = 0;
  int objects_ = 0;
};

/// One step of a chain: a one-input tool that keeps the cell count.
std::string ChainStep(FlowText* f, int tool, const std::string& in,
                      std::mt19937_64* rng) {
  std::string out = f->Fresh();
  switch (tool % 3) {
    case 0:
      f->Step("Global_Route", in, out,
              "mosaicoGR " + in + " -r -e " + std::to_string(Range(rng, 1, 5)) +
                  " -ov " + out);
      break;
    case 1:
      f->Step("Via_Min", in, out, "mizer -o " + out + " " + in);
      break;
    default:
      f->Step("Place", in, out, "puppy -o " + out + " " + in);
      break;
  }
  return out;
}

/// The 1,000-step flow: detailed routing first (so every routing check
/// passes), then chain and diamond stages in seeded order. A diamond
/// forks the main line into two branches whose join only feeds a routing
/// check, so no layout grows past twice the input's cells.
std::string MakeFlow(uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<char> stages(kChains, 'c');
  stages.insert(stages.end(), kDiamonds, 'd');
  for (size_t i = stages.size(); i > 1; --i) {
    std::swap(stages[i - 1], stages[rng() % i]);
  }
  FlowText f;
  std::string main = f.Fresh();
  f.Step("Route", "In", main, "mosaicoDR -d -o " + main + " In");
  for (char stage : stages) {
    if (stage == 'c') {
      int tool = Range(&rng, 0, 2);
      for (int i = 0; i < kChainLength; ++i) {
        main = ChainStep(&f, tool + i, main, &rng);
      }
      continue;
    }
    std::string left = f.Fresh(), right = f.Fresh(), join = f.Fresh();
    f.Step("Fork_Left", main, left, "mizer -o " + left + " " + main);
    f.Step("Fork_Right", main, right, "vulcan " + main + " -o " + right);
    f.Step("Join", left + " " + right, join,
           "octflatten -r " + right + " -o " + join + " " + left);
    f.Step("Check", main + " " + join, "",
           "mosaicoRC -m " + std::to_string(Range(&rng, 10, 30)) + " -c " +
               main + " " + join);
    main = left;
  }
  int tool = Range(&rng, 0, 2);
  while (f.steps() < kFlowSteps - 2) main = ChainStep(&f, tool++, main, &rng);
  f.Step("Abstract", main, "Out", "vulcan " + main + " -o Out");
  f.Step("Statistics", "Out", "Report", "chipstats Out");
  return "task Scale_Flow {In} {Out Report}\n" + f.str();
}

struct Invocation {
  int index = 0;
  int64_t steps = 0;          // steps this invocation recorded
  int64_t history_steps = 0;  // thread history after it
  int64_t invoke_us = 0;
  int64_t commit_us = 0;
  int64_t cpu_us = 0;  // process CPU time of Invoke + CommitWal
  int64_t virtual_us = 0;
  int64_t wal_bytes = 0;  // written by this invocation's commit
  bool committed = false;

  double PerStep(int64_t us) const {
    return steps > 0 ? static_cast<double>(us) / static_cast<double>(steps)
                     : 0.0;
  }
  double us_per_step() const { return PerStep(invoke_us + commit_us); }
  double cpu_us_per_step() const { return PerStep(cpu_us); }
};

int64_t MicrosSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now() - start)
      .count();
}

/// CPU time of every thread of the process, user and system.
int64_t CpuMicros() {
  timespec ts{};
  ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1'000'000 + ts.tv_nsec / 1'000;
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v.empty() ? 0.0 : v[v.size() / 2];
}

/// One session with one design thread and its own storage directory.
class Driver {
 public:
  Driver() : session_(Options()) {}

  Status Open(const std::string& flow, const std::string& dir) {
    PAPYRUS_RETURN_IF_ERROR(session_.AddTemplate(flow));
    PAPYRUS_RETURN_IF_ERROR(session_.OpenStorage(dir));
    thread_ = session_.CreateThread("scale");
    return Status::OK();
  }

  /// Invokes the flow on a freshly checked-in layout and commits the WAL.
  /// `inv` is filled in also when this fails, with committed = false.
  Status InvokeOnce(Invocation* inv) {
    const int k = invocations_++;
    inv->index = k + 1;
    std::string path = "/scale/in" + std::to_string(k);
    PAPYRUS_RETURN_IF_ERROR(
        session_
            .CheckInObject(path, oct::Layout{.num_cells = 30,
                                             .area = 40000,
                                             .seed = inputs_()})
            .status());
    int64_t virtual0 = session_.clock().NowMicros();
    int64_t wal0 = wal_bytes_->value();
    int64_t cpu0 = CpuMicros();
    auto t0 = std::chrono::steady_clock::now();
    auto node = session_.Invoke(
        thread_, "Scale_Flow", {path},
        {"out" + std::to_string(k), "rep" + std::to_string(k)});
    inv->invoke_us = MicrosSince(t0);
    auto t1 = std::chrono::steady_clock::now();
    Status committed = node.ok() ? session_.CommitWal() : node.status();
    inv->commit_us = MicrosSince(t1);
    inv->cpu_us = CpuMicros() - cpu0;
    inv->virtual_us = session_.clock().NowMicros() - virtual0;
    inv->wal_bytes = wal_bytes_->value() - wal0;
    PAPYRUS_RETURN_IF_ERROR(committed);
    PAPYRUS_ASSIGN_OR_RETURN(auto* t, session_.activity().GetThread(thread_));
    inv->steps = static_cast<int64_t>(t->nodes().at(*node).record.steps.size());
    inv->committed = true;
    history_ += inv->steps;
    inv->history_steps = history_;
    return Status::OK();
  }

  int64_t history() const { return history_; }
  int64_t templates_linted() {
    return session_.task_manager().templates_linted();
  }

  static SessionOptions Options() {
    SessionOptions options;
    options.num_workstations = 4;
    options.worker_threads = 1;
    return options;
  }

 private:
  Papyrus session_;
  obs::Counter* wal_bytes_ =
      session_.metrics().FindOrCreateCounter(obs::kWalBytesWritten);
  int thread_ = -1;
  std::mt19937_64 inputs_{kSeed + 1};
  int invocations_ = 0;
  int64_t history_ = 0;
};

void Print(const char* label, const Invocation& inv) {
  std::printf("%4s %5d %14" PRId64 " %12" PRId64 " %12" PRId64
              " %12.1f %12.1f\n",
              label, inv.index, inv.history_steps, inv.invoke_us,
              inv.commit_us, inv.us_per_step(), inv.cpu_us_per_step());
  std::fflush(stdout);
}

/// Invokes the flow on one thread until its history holds
/// `target_steps`, recording each invocation in `deep`. Then measures the
/// two ends of the ratio in pairs: `kEnds` more invocations of that
/// thread alternate with the first `kEnds` invocations of a fresh session
/// (`fresh`, the shallow end), so a shared host's drifting load hits both
/// ends alike. `lints` gets the two sessions' pre-flight lint count.
Status Run(const std::string& flow, const std::string& dir,
           int64_t target_steps, std::vector<Invocation>* deep,
           std::vector<Invocation>* fresh, int64_t* lints) {
  Driver deep_driver;
  PAPYRUS_RETURN_IF_ERROR(deep_driver.Open(flow, dir + "/deep"));
  while (deep_driver.history() < target_steps) {
    Invocation inv;
    Status st = deep_driver.InvokeOnce(&inv);
    deep->push_back(inv);
    if (inv.index <= kEnds || inv.index % 10 == 0) Print("", inv);
    PAPYRUS_RETURN_IF_ERROR(st);
  }
  Driver fresh_driver;
  PAPYRUS_RETURN_IF_ERROR(fresh_driver.Open(flow, dir + "/fresh"));
  for (int i = 0; i < kEnds; ++i) {
    for (int side = 0; side < 2; ++side) {
      const bool shallow = (side + i) % 2 == 0;  // alternate who goes first
      Invocation inv;
      Status st = shallow ? fresh_driver.InvokeOnce(&inv)
                          : deep_driver.InvokeOnce(&inv);
      (shallow ? fresh : deep)->push_back(inv);
      Print(shallow ? "ref" : "", inv);
      PAPYRUS_RETURN_IF_ERROR(st);
    }
  }
  *lints = deep_driver.templates_linted() + fresh_driver.templates_linted();
  return Status::OK();
}

/// Process CPU µs per history step of OpenStorage on `dir`, a store of
/// `history_steps` steps that no session holds any more: the reopen
/// replays the whole history from the WAL.
Result<double> ReopenCpuPerStep(const std::string& flow,
                                const std::string& dir,
                                int64_t history_steps) {
  Papyrus session(Driver::Options());
  PAPYRUS_RETURN_IF_ERROR(session.AddTemplate(flow));
  const int64_t cpu0 = CpuMicros();
  PAPYRUS_RETURN_IF_ERROR(session.OpenStorage(dir));
  const int64_t cpu = CpuMicros() - cpu0;
  return history_steps > 0
             ? static_cast<double>(cpu) / static_cast<double>(history_steps)
             : 0.0;
}

/// Median µs/step of the fresh session's invocations (shallow) and of the
/// deep thread's last `kEnds` (deep), and their ratio (0 when the run
/// stopped before both ends were measured).
struct Ends {
  double shallow = 0.0;
  double deep = 0.0;
  double ratio = 0.0;
};

Ends MeasureEnds(const std::vector<Invocation>& deep,
                 const std::vector<Invocation>& fresh,
                 double (Invocation::*per_step)() const) {
  Ends ends;
  if (fresh.size() < static_cast<size_t>(kEnds) ||
      deep.size() < static_cast<size_t>(kEnds)) {
    return ends;
  }
  std::vector<double> first, last;
  for (const Invocation& inv : fresh) first.push_back((inv.*per_step)());
  for (size_t i = deep.size() - kEnds; i < deep.size(); ++i) {
    last.push_back((deep[i].*per_step)());
  }
  ends.shallow = Median(first);
  ends.deep = Median(last);
  ends.ratio = ends.shallow > 0.0 ? ends.deep / ends.shallow : 0.0;
  return ends;
}

/// WAL bytes per step written by the deep end's last `kEnds` commits.
double WalBytesPerStep(const std::vector<Invocation>& deep) {
  if (deep.size() < static_cast<size_t>(kEnds)) return 0.0;
  int64_t bytes = 0, steps = 0;
  for (size_t i = deep.size() - kEnds; i < deep.size(); ++i) {
    bytes += deep[i].wal_bytes;
    steps += deep[i].steps;
  }
  return steps > 0 ? static_cast<double>(bytes) / static_cast<double>(steps)
                   : 0.0;
}

/// µs/step of the first invocation whose history reached `depth`.
double UsPerStepAt(const std::vector<Invocation>& runs, int64_t depth) {
  for (const Invocation& inv : runs) {
    if (inv.history_steps >= depth) return inv.us_per_step();
  }
  return 0.0;
}

void WriteInvocations(std::ostream& out, const char* name,
                      const std::vector<Invocation>& runs) {
  out << "  \"" << name << "\": [\n";
  for (size_t i = 0; i < runs.size(); ++i) {
    const Invocation& r = runs[i];
    out << "    {\"index\": " << r.index << ", \"history_steps\": "
        << r.history_steps << ", \"steps\": " << r.steps
        << ", \"invoke_us\": " << r.invoke_us << ", \"commit_us\": "
        << r.commit_us << ", \"us_per_step\": " << r.us_per_step()
        << ", \"cpu_us\": " << r.cpu_us
        << ", \"cpu_us_per_step\": " << r.cpu_us_per_step()
        << ", \"virtual_us\": " << r.virtual_us
        << ", \"wal_bytes\": " << r.wal_bytes << ", \"committed\": "
        << (r.committed ? "true" : "false") << "}"
        << (i + 1 < runs.size() ? "," : "") << "\n";
  }
  out << "  ],\n";
}

/// The gated counts: WAL bytes per step at depth, and pre-flight lints
/// beyond one per session (two sessions run the one flow).
struct Counts {
  double wal_bytes_per_step = 0.0;
  int64_t lints = 0;
  int64_t extra_lints() const { return lints - 2; }
};

/// The deep end's reopen: CPU µs per history step, and that over the deep
/// end's CPU µs per step of Invoke + CommitWal.
struct Reopen {
  double cpu_us_per_step = 0.0;
  double over_run = 0.0;
};

void WriteJson(const std::string& path, const std::vector<Invocation>& runs,
               const std::vector<Invocation>& reference, const Ends& cpu,
               const Ends& wall, const Counts& counts, const Reopen& reopen,
               bool smoke) {
  std::ofstream out(path);
  out << "{\n  \"bench\": \"flow_scale\",\n"
      << "  \"flow\": {\"steps\": " << kFlowSteps << ", \"seed\": " << kSeed
      << ", \"chains\": " << kChains << ", \"diamonds\": " << kDiamonds
      << "},\n"
      << "  \"mode\": \"" << (smoke ? "smoke" : "full") << "\",\n"
      << "  \"us_per_step_at\": {\"1k\": " << UsPerStepAt(runs, 1'000)
      << ", \"10k\": " << UsPerStepAt(runs, 10'000);
  if (!smoke) out << ", \"100k\": " << UsPerStepAt(runs, 100'000);
  out << "},\n  \"shallow_cpu_us_per_step\": " << cpu.shallow
      << ",\n  \"deep_cpu_us_per_step\": " << cpu.deep
      << ",\n  \"deep_over_shallow\": " << cpu.ratio
      << ",\n  \"shallow_us_per_step\": " << wall.shallow
      << ",\n  \"deep_us_per_step\": " << wall.deep
      << ",\n  \"wall_deep_over_shallow\": " << wall.ratio
      << ",\n  \"wal_bytes_per_step\": " << counts.wal_bytes_per_step
      << ",\n  \"reopen_cpu_us_per_step\": " << reopen.cpu_us_per_step
      << ",\n  \"reopen_over_run\": " << reopen.over_run
      << ",\n  \"lints\": " << counts.lints << ", \"sessions\": 2"
      << ", \"extra_lints\": " << counts.extra_lints() << ",\n";
  WriteInvocations(out, "invocations", runs);
  WriteInvocations(out, "reference", reference);
  // Regression floors enforced by tools/check_bench.py: the engine's CPU
  // cost per step at the deep end stays within 2x the shallow end, a
  // commit journals no more than the new node, a reopen replays a step
  // in a bounded share of what running it cost, each session lints the
  // flow once, and every invocation of both sessions commits.
  out << "  \"floors\": {\n"
      << "    \"deep_over_shallow\": {\"max\": " << kMaxDeepOverShallow
      << "},\n"
      << "    \"wal_bytes_per_step\": {\"max\": " << kMaxWalBytesPerStep
      << "},\n"
      << "    \"reopen_over_run\": {\"max\": " << kMaxReopenOverRun
      << "},\n"
      << "    \"extra_lints\": {\"max\": 0},\n"
      << "    \"invocations/*/committed\": {\"eq\": true},\n"
      << "    \"reference/*/committed\": {\"eq\": true}\n"
      << "  }\n}\n";
}

}  // namespace
}  // namespace papyrus::bench

int main(int argc, char** argv) {
  using namespace papyrus::bench;
  bool smoke = false;
  std::string json_path = "BENCH_flow_scale.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    }
  }
  Banner("flow-scale",
         "ROADMAP item 5 (engine cost per step vs history depth)",
         "the cost of one design step does not grow with the history the "
         "session already holds: at 10^5 steps it stays within 2x of a "
         "fresh session's first steps.");

  const std::string flow = MakeFlow(kSeed);
  std::string dir_template =
      (std::filesystem::temp_directory_path() / "papyrus_flow_scale.XXXXXX")
          .string();
  if (::mkdtemp(dir_template.data()) == nullptr) {
    std::fprintf(stderr, "cannot create a storage directory\n");
    return 1;
  }
  const std::string dir = dir_template;
  std::printf("%10s %14s %12s %12s %12s %12s\n", "invocation",
              "history_steps", "invoke_us", "commit_us", "us_per_step",
              "cpu_us/step");
  std::vector<Invocation> runs, reference;
  Counts counts;
  papyrus::Status st = Run(flow, dir, smoke ? kSmokeHistory : kFullHistory,
                           &runs, &reference, &counts.lints);
  counts.wal_bytes_per_step = WalBytesPerStep(runs);
  const Ends cpu =
      MeasureEnds(runs, reference, &Invocation::cpu_us_per_step);
  const Ends wall = MeasureEnds(runs, reference, &Invocation::us_per_step);
  Reopen reopen;
  if (st.ok() && !runs.empty()) {
    auto per_step =
        ReopenCpuPerStep(flow, dir + "/deep", runs.back().history_steps);
    st = per_step.status();
    if (st.ok()) reopen.cpu_us_per_step = *per_step;
    if (cpu.deep > 0.0) reopen.over_run = reopen.cpu_us_per_step / cpu.deep;
  }
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  if (!st.ok()) {
    std::fprintf(stderr, "flow failed: %s\n", st.ToString().c_str());
  }
  const bool committed = st.ok() && !runs.empty();
  std::printf("\nwall us/step at 1k %.1f, 10k %.1f", UsPerStepAt(runs, 1'000),
              UsPerStepAt(runs, 10'000));
  if (!smoke) std::printf(", 100k %.1f", UsPerStepAt(runs, 100'000));
  std::printf(
      "\nwall_deep_over_shallow %.2f (%.1f / %.1f us/step, not gated)"
      "\ndeep_over_shallow %.2f (%.1f / %.1f CPU us/step, floor <= %.1f), "
      "committed %s\n",
      wall.ratio, wall.deep, wall.shallow, cpu.ratio, cpu.deep, cpu.shallow,
      kMaxDeepOverShallow, committed ? "yes" : "NO");
  std::printf(
      "wal_bytes_per_step %.1f (floor <= %.1f), pre-flight lints %" PRId64
      " for 2 sessions (extra_lints %" PRId64 ", floor <= 0)\n",
      counts.wal_bytes_per_step, kMaxWalBytesPerStep, counts.lints,
      counts.extra_lints());
  std::printf(
      "reopen_over_run %.3f (%.2f reopen / %.1f run CPU us/step, floor <= "
      "%.2f)\n",
      reopen.over_run, reopen.cpu_us_per_step, cpu.deep, kMaxReopenOverRun);
  if (!json_path.empty()) {
    WriteJson(json_path, runs, reference, cpu, wall, counts, reopen, smoke);
  }
  const bool ok = committed && cpu.ratio > 0.0 &&
                  cpu.ratio <= kMaxDeepOverShallow &&
                  counts.wal_bytes_per_step > 0.0 &&
                  counts.wal_bytes_per_step <= kMaxWalBytesPerStep &&
                  reopen.over_run > 0.0 &&
                  reopen.over_run <= kMaxReopenOverRun &&
                  counts.extra_lints() <= 0;
  if (smoke) std::printf("smoke: %s\n", ok ? "PASS" : "FAIL");
  return ok ? 0 : 1;
}
