#include <gtest/gtest.h>

#include <chrono>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "activity/persistence.h"
#include "core/papyrus.h"
#include "fault/fault_plan.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "oct/design_data.h"

namespace papyrus::obs {
namespace {

// ---------------------------------------------------------------------------
// Trace-structure helpers

/// Asserts the B/E invariant over a recorded event stream: per (pid, tid)
/// every E closes the most recent open B of the same name, and no span is
/// left open. Returns the number of matched pairs.
int CheckSpanBalance(const std::vector<TraceEvent>& events) {
  std::map<std::pair<int, int64_t>, std::vector<std::string>> stacks;
  int matched = 0;
  for (const TraceEvent& ev : events) {
    auto key = std::make_pair(ev.pid, ev.tid);
    if (ev.ph == 'B') {
      stacks[key].push_back(ev.name);
    } else if (ev.ph == 'E') {
      auto& stack = stacks[key];
      EXPECT_FALSE(stack.empty())
          << "E \"" << ev.name << "\" on pid=" << ev.pid
          << " tid=" << ev.tid << " with no open B";
      if (!stack.empty()) {
        EXPECT_EQ(stack.back(), ev.name)
            << "E closes the wrong span on pid=" << ev.pid
            << " tid=" << ev.tid;
        stack.pop_back();
        ++matched;
      }
    }
  }
  for (const auto& [key, stack] : stacks) {
    EXPECT_TRUE(stack.empty())
        << stack.size() << " unclosed span(s) on pid=" << key.first
        << " tid=" << key.second;
  }
  return matched;
}

int CountEvents(const std::vector<TraceEvent>& events, char ph,
                const std::string& name) {
  int n = 0;
  for (const TraceEvent& ev : events) {
    if (ev.ph == ph && ev.name == name) ++n;
  }
  return n;
}

/// Builds the Structure_Synthesis invocation once; repeated Invokes with
/// the same inputs hit the derivation cache after the first commit.
task::TaskInvocation SynthesisInvocation(Papyrus& session,
                                         int max_retries = 0) {
  auto spec = session.database().CreateVersion(
      "spec", oct::BehavioralSpec{8, 8, 12, 77});
  auto cmds = session.database().CreateVersion(
      "sim.cmd", oct::TextData{"run 100"});
  EXPECT_TRUE(spec.ok() && cmds.ok());
  task::TaskInvocation inv;
  inv.template_name = "Structure_Synthesis";
  inv.inputs = {*spec, *cmds};
  inv.output_names = {"spec.layout", "spec.stats"};
  inv.seed = 42;
  inv.max_step_retries = max_retries;
  return inv;
}

// ---------------------------------------------------------------------------
// Histogram semantics

TEST(HistogramTest, BucketBoundariesAreInclusiveUpperEdges) {
  Histogram h({10, 20});
  h.Observe(0);    // <= 10
  h.Observe(10);   // boundary: still the first bucket
  h.Observe(11);   // (10, 20]
  h.Observe(20);   // boundary: second bucket
  h.Observe(21);   // overflow
  h.Observe(-5);   // below all edges: first bucket
  std::vector<int64_t> counts = h.BucketCounts();
  ASSERT_EQ(counts.size(), 3u);  // two edges + overflow
  EXPECT_EQ(counts[0], 3);
  EXPECT_EQ(counts[1], 2);
  EXPECT_EQ(counts[2], 1);
  EXPECT_EQ(h.count(), 6);
  EXPECT_EQ(h.sum(), 0 + 10 + 11 + 20 + 21 - 5);
}

TEST(HistogramTest, LatencyBoundsAreAscending) {
  const std::vector<int64_t>& bounds = LatencyBucketBounds();
  ASSERT_FALSE(bounds.empty());
  for (size_t i = 1; i < bounds.size(); ++i) {
    EXPECT_LT(bounds[i - 1], bounds[i]);
  }
}

// ---------------------------------------------------------------------------
// Registry semantics

TEST(MetricsRegistryTest, PreRegistersTheWholeCatalogue) {
  MetricsRegistry registry;
  std::string json = registry.ToJson();
  for (const MetricInfo& info : MetricCatalogue()) {
    EXPECT_NE(json.find("\"" + std::string(info.name) + "\""),
              std::string::npos)
        << info.name << " missing from a fresh registry export";
  }
}

TEST(MetricsRegistryTest, FindOrCreateReturnsStablePointers) {
  MetricsRegistry registry;
  Counter* a = registry.FindOrCreateCounter("papyrus.test.counter");
  Counter* b = registry.FindOrCreateCounter("papyrus.test.counter");
  EXPECT_EQ(a, b);
  a->Increment(3);
  EXPECT_EQ(b->value(), 3);
  Histogram* h1 = registry.FindOrCreateHistogram("papyrus.test.h", {1, 2});
  Histogram* h2 =
      registry.FindOrCreateHistogram("papyrus.test.h", {7, 8, 9});
  EXPECT_EQ(h1, h2);  // later bounds are ignored
  EXPECT_EQ(h2->bounds().size(), 2u);
}

TEST(MetricsRegistryTest, SnapshotsAreIsolatedUnderConcurrentIncrements) {
  MetricsRegistry registry;
  Counter* counter = registry.FindOrCreateCounter(kStepsCompleted);
  Histogram* hist =
      registry.FindOrCreateHistogram(kStepVirtualLatency, {100, 1000});
  constexpr int kThreads = 4;
  constexpr int kIncrements = 25'000;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([counter, hist] {
      for (int i = 0; i < kIncrements; ++i) {
        counter->Increment();
        hist->Observe(i % 2000);
      }
    });
  }
  // Exports taken mid-flight must stay parseable point-in-time views:
  // never torn, never crashing, monotone in the counter they report.
  int64_t last_seen = 0;
  for (int i = 0; i < 50; ++i) {
    std::string json = registry.ToJson();
    EXPECT_NE(json.find("\"counters\""), std::string::npos);
    int64_t now = counter->value();
    EXPECT_GE(now, last_seen);
    last_seen = now;
  }
  for (std::thread& w : workers) w.join();
  EXPECT_EQ(counter->value(), int64_t{kThreads} * kIncrements);
  EXPECT_EQ(hist->count(), int64_t{kThreads} * kIncrements);
  std::vector<int64_t> buckets = hist->BucketCounts();
  int64_t total = 0;
  for (int64_t b : buckets) total += b;
  EXPECT_EQ(total, hist->count());
}

// ---------------------------------------------------------------------------
// Trace recorder semantics

TEST(TraceRecorderTest, EndWithoutOpenSpanIsANoOp) {
  ManualClock clock(0);
  TraceRecorder trace(&clock);
  trace.set_enabled(true);
  trace.End(1, 1);  // mid-session `trace start`: the B predates recording
  EXPECT_EQ(trace.event_count(), 0u);
  trace.Begin(1, 1, "span", "test");
  trace.End(1, 1);
  trace.End(1, 1);
  EXPECT_EQ(trace.event_count(), 2u);
  EXPECT_EQ(trace.open_spans(), 0);
}

TEST(TraceRecorderTest, SealedRecorderDropsAndCountsEvents) {
  ManualClock clock(0);
  TraceRecorder trace(&clock);
  trace.set_enabled(true);
  trace.Instant(1, 0, "before", "test");
  trace.Finish();
  EXPECT_TRUE(trace.sealed());
  size_t sealed_count = trace.event_count();
  trace.Instant(1, 0, "after", "test");
  trace.Begin(1, 0, "late", "test");
  EXPECT_EQ(trace.event_count(), sealed_count);
  EXPECT_EQ(trace.dropped_events(), 2);
  // The session-end marker is the last recorded event.
  EXPECT_EQ(trace.events().back().name, "papyrus.session.end");
}

// ---------------------------------------------------------------------------
// Engine integration: spans under cache hits and retries

TEST(ObsIntegrationTest, TraceNestsAndBalancesUnderCacheHits) {
  Papyrus session;
  session.trace().set_enabled(true);

  task::TaskInvocation inv = SynthesisInvocation(session);
  auto cold = session.task_manager().Invoke(inv);
  ASSERT_TRUE(cold.ok());
  size_t cold_end = session.trace().event_count();
  auto warm = session.task_manager().Invoke(inv);
  ASSERT_TRUE(warm.ok());

  const std::vector<TraceEvent>& events = session.trace().events();
  EXPECT_GT(CheckSpanBalance(events), 0);
  EXPECT_EQ(session.trace().open_spans(), 0);

  // The cold run opened real step spans; the fully-cached rerun elides
  // every tool process, so it adds cache_hit instants and no step spans.
  std::vector<TraceEvent> rerun(events.begin() + cold_end, events.end());
  EXPECT_GT(CountEvents(rerun, 'i', "cache_hit"), 0);
  for (const TraceEvent& ev : rerun) {
    EXPECT_FALSE(ev.ph == 'B' && ev.cat == "step")
        << "cached rerun dispatched step " << ev.name;
  }
  EXPECT_GT(
      session.metrics().FindOrCreateCounter(kCacheHits)->value(), 0);
  EXPECT_GT(
      session.metrics().FindOrCreateCounter(kStepsElided)->value(), 0);
}

TEST(ObsIntegrationTest, TraceBalancesUnderRetriedSteps) {
  // Scan fault seeds until transient injections force at least one retry;
  // the trace must stay balanced through requeue/re-dispatch cycles.
  for (uint64_t seed = 1; seed <= 30; ++seed) {
    SessionOptions opts;
    opts.metadata_inference = false;
    Papyrus session(opts);
    session.trace().set_enabled(true);
    fault::FaultPlanOptions fopt;
    fopt.seed = seed;
    fopt.tool_transient_rate = 0.3;
    fault::FaultPlan plan(fopt);
    plan.set_observability(session.observability());
    ASSERT_TRUE(plan.Apply(&session.network(), &session.tools()).ok());

    auto rec = session.task_manager().Invoke(
        SynthesisInvocation(session, /*max_retries=*/6));
    if (!rec.ok() || rec->steps_retried == 0) continue;

    const std::vector<TraceEvent>& events = session.trace().events();
    EXPECT_GT(CheckSpanBalance(events), 0);
    EXPECT_EQ(session.trace().open_spans(), 0);
    EXPECT_GT(CountEvents(events, 'i', "retry_scheduled"), 0);
    EXPECT_GT(CountEvents(events, 'i', "retry"), 0);
    EXPECT_GT(CountEvents(events, 'i', "transient_injection"), 0);
    EXPECT_EQ(
        session.metrics().FindOrCreateCounter(kStepsRetried)->value(),
        rec->steps_retried);
    EXPECT_GT(
        session.metrics()
            .FindOrCreateCounter(kFaultTransientInjections)
            ->value(),
        0);
    return;
  }
  FAIL() << "no fault seed in [1,30] produced a retried step";
}

// ---------------------------------------------------------------------------
// Golden trace for a small two-step flow

TEST(ObsIntegrationTest, GoldenTwoStepFlowTrace) {
  Papyrus session;
  session.trace().set_enabled(true);

  task::TaskInvocation inv;
  inv.template_name = "Create_Logic_Description";
  inv.output_names = {"cell.logic"};
  inv.seed = 7;
  auto rec = session.task_manager().Invoke(inv);
  ASSERT_TRUE(rec.ok());

  // The task- and step-category (ph, name) sequence is the golden
  // contract: task span wrapping two serial step spans in template
  // order. Host/oct/cache events ride on other categories and may
  // evolve; this shape must not.
  std::vector<std::pair<char, std::string>> shape;
  for (const TraceEvent& ev : session.trace().events()) {
    if (ev.cat == "task" || ev.cat == "step" ||
        (ev.ph == 'E' && (ev.name == "Create_Logic_Description" ||
                          ev.name == "Enter_Logic" ||
                          ev.name == "Format_Transformation"))) {
      shape.emplace_back(ev.ph, ev.name);
    }
  }
  const std::vector<std::pair<char, std::string>> golden = {
      {'B', "Create_Logic_Description"},
      {'B', "Enter_Logic"},
      {'E', "Enter_Logic"},
      {'B', "Format_Transformation"},
      {'E', "Format_Transformation"},
      {'E', "Create_Logic_Description"},
  };
  EXPECT_EQ(shape, golden);
}

// ---------------------------------------------------------------------------
// Session export plumbing

TEST(ObsIntegrationTest, HeadlessCaptureWritesTraceAndMetrics) {
  std::string dir = ::testing::TempDir();
  std::string trace_path = dir + "/obs_test_trace.json";
  std::string metrics_path = dir + "/obs_test_metrics.json";
  {
    SessionOptions opts;
    opts.trace_path = trace_path;
    opts.metrics_path = metrics_path;
    Papyrus session(opts);
    EXPECT_TRUE(session.trace().enabled());
    auto rec = session.task_manager().Invoke(SynthesisInvocation(session));
    EXPECT_TRUE(rec.ok());
  }
  std::ifstream trace_in(trace_path);
  ASSERT_TRUE(trace_in.good());
  std::stringstream trace_buf;
  trace_buf << trace_in.rdbuf();
  EXPECT_NE(trace_buf.str().find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(trace_buf.str().find("papyrus.session.end"),
            std::string::npos);
  std::ifstream metrics_in(metrics_path);
  ASSERT_TRUE(metrics_in.good());
  std::stringstream metrics_buf;
  metrics_buf << metrics_in.rdbuf();
  EXPECT_NE(metrics_buf.str().find("papyrus.steps.completed"),
            std::string::npos);
}

// ---------------------------------------------------------------------------
// Parallel-executor determinism at the session level

/// Everything a worker count could conceivably perturb, rendered to
/// comparable strings: full task histories, the ADG, and the serialized
/// database and derivation-cache snapshots.
struct SessionFingerprint {
  std::string histories;
  std::string adg;
  std::map<std::string, std::string> snapshot;  // snapshot -> bytes
  int64_t steps_pool = 0;
  int64_t steps_inline = 0;
};

std::string SerializeHistory(const task::TaskHistoryRecord& rec) {
  std::ostringstream out;
  out << rec.task_name << '|' << rec.invoke_micros << '|'
      << rec.commit_micros << '|' << rec.restarts << '|' << rec.steps_lost
      << '|' << rec.steps_retried << '|' << rec.steps_elided << '\n';
  for (const task::StepRecord& s : rec.steps) {
    out << "  " << s.internal_id << '|' << s.step_name << '|' << s.tool
        << '|' << s.invocation << '|' << s.dispatch_micros << '|'
        << s.completion_micros << '|' << s.host << '|' << s.exit_status
        << '|' << s.cache_hit << '|';
    for (const oct::ObjectId& id : s.inputs) out << id.ToString() << ',';
    out << '|';
    for (const oct::ObjectId& id : s.outputs) out << id.ToString() << ',';
    out << '\n';
  }
  return out.str();
}

/// Registers `soak`: a deterministic tool that *wall-blocks* for a few
/// milliseconds (like a real CAD tool stuck on a license server or NFS)
/// before producing a seed-derived output. The block gives pool workers
/// real wall-clock room to pick speculative jobs up, independent of how
/// the OS schedules threads on a loaded machine.
void RegisterSoakTool(Papyrus& session) {
  cadtools::ToolDescriptor desc;
  desc.name = "soak";
  desc.description = "wall-blocking deterministic test tool";
  desc.base_cost_micros = 4000;
  desc.min_inputs = 1;
  desc.max_inputs = 1;
  desc.num_outputs = 1;
  session.tools().Register(std::make_unique<cadtools::Tool>(
      desc, [](const cadtools::ToolRunContext& ctx) {
        std::this_thread::sleep_for(std::chrono::milliseconds(3));
        cadtools::ToolRunResult res;
        res.outputs.push_back(
            oct::TextData{"soak " + std::to_string(ctx.seed)});
        return res;
      }));
}

constexpr char kSoakTemplate[] =
    "task Soak_Fanout {In} {O1 O2 O3 O4 O5 O6 O7 O8}\n"
    "step S1 {In} {O1} {soak In}\n"
    "step S2 {In} {O2} {soak In}\n"
    "step S3 {In} {O3} {soak In}\n"
    "step S4 {In} {O4} {soak In}\n"
    "step S5 {In} {O5} {soak In}\n"
    "step S6 {In} {O6} {soak In}\n"
    "step S7 {In} {O7} {soak In}\n"
    "step S8 {In} {O8} {soak In}\n";

/// Runs a fixed seeded workload — two full Structure_Synthesis flows, a
/// Padp task, and an 8-wide wall-blocking fan-out, interleaved by
/// InvokeMany — in a fresh session with `workers` executor threads, feeds
/// the metadata engine, and snapshots the session.
SessionFingerprint RunSessionWorkload(int workers) {
  SessionOptions opts;
  opts.worker_threads = workers;
  Papyrus session(opts);
  RegisterSoakTool(session);
  EXPECT_TRUE(session.AddTemplate(kSoakTemplate).ok());

  std::vector<task::TaskInvocation> invocations;
  invocations.push_back(SynthesisInvocation(session));
  invocations.push_back(SynthesisInvocation(session));
  auto cell = session.database().CreateVersion(
      "cell", oct::Layout{.num_cells = 12, .area = 1200.0, .seed = 3});
  EXPECT_TRUE(cell.ok());
  task::TaskInvocation padp;
  padp.template_name = "Padp";
  padp.inputs = {*cell};
  padp.output_names = {"cell.padded"};
  padp.seed = 9;
  invocations.push_back(padp);
  auto net = session.database().CreateVersion(
      "soak.in", oct::TextData{"payload"});
  EXPECT_TRUE(net.ok());
  task::TaskInvocation soak;
  soak.template_name = "Soak_Fanout";
  soak.inputs = {*net};
  soak.output_names = {"s1", "s2", "s3", "s4", "s5", "s6", "s7", "s8"};
  soak.seed = 13;
  invocations.push_back(soak);

  SessionFingerprint fp;
  auto results = session.task_manager().InvokeMany(invocations);
  EXPECT_EQ(results.size(), invocations.size());
  for (auto& r : results) {
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    if (!r.ok()) continue;
    fp.histories += SerializeHistory(*r);
    EXPECT_TRUE(session.metadata().Observe(*r).ok());
  }
  EXPECT_EQ(session.task_manager().flow_violations(), 0);

  std::ostringstream adg;
  for (const auto& [id, e] : session.metadata().adg().edges()) {
    adg << id << '|' << e.tool << '|' << e.options << '|' << e.micros
        << '|' << e.reuse << '|';
    for (const oct::ObjectId& oid : e.inputs) adg << oid.ToString() << ',';
    adg << '|';
    for (const oct::ObjectId& oid : e.outputs) adg << oid.ToString() << ',';
    adg << '\n';
  }
  fp.adg = adg.str();

  fp.snapshot["database"] = activity::SerializeDatabase(session.database());
  fp.snapshot["cache"] =
      activity::SerializeDerivationCache(session.step_cache());
  fp.steps_pool =
      session.metrics().FindOrCreateCounter(kExecStepsPool)->value();
  fp.steps_inline =
      session.metrics().FindOrCreateCounter(kExecStepsInline)->value();
  return fp;
}

TEST(ObsIntegrationTest, SessionIsByteIdenticalAtAnyWorkerCount) {
  SessionFingerprint serial = RunSessionWorkload(1);
  ASSERT_FALSE(serial.histories.empty());
  ASSERT_FALSE(serial.adg.empty());
  // Serial mode runs every payload inline on the engine thread.
  EXPECT_EQ(serial.steps_pool, 0);
  EXPECT_GT(serial.steps_inline, 0);

  for (int workers : {2, 8}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    SessionFingerprint pool = RunSessionWorkload(workers);
    EXPECT_EQ(pool.histories, serial.histories);
    EXPECT_EQ(pool.adg, serial.adg);
    EXPECT_EQ(pool.snapshot, serial.snapshot);
    // The pool genuinely executed speculative payloads: parallelism is
    // real, not a serial fallback in disguise.
    EXPECT_GT(pool.steps_pool, 0);
  }
}

}  // namespace
}  // namespace papyrus::obs
