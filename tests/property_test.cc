// Property-style parameterized sweeps over the system's core invariants,
// driven by deterministic seeds.

#include <gtest/gtest.h>

#include <filesystem>
#include <set>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "activity/design_thread.h"
#include "base/clock.h"
#include "base/strings.h"
#include "core/papyrus.h"
#include "server/fingerprint.h"
#include "tcl/interp.h"
#include "tcl/parser.h"

namespace papyrus {
namespace {

/// Small deterministic PRNG so properties are reproducible per seed.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed * 2654435769u + 1) {}
  uint64_t Next() {
    state_ = state_ * 6364136223846793005ull + 1442695040888963407ull;
    return state_ >> 17;
  }
  int Below(int n) { return static_cast<int>(Next() % n); }

 private:
  uint64_t state_;
};

// --- Tcl list round-trip -------------------------------------------------

class ListRoundTripProperty : public ::testing::TestWithParam<int> {};

TEST_P(ListRoundTripProperty, FormatParseIsIdentity) {
  Rng rng(GetParam());
  const std::string alphabet = "ab {}$[]\\\";%\t~z";
  std::vector<std::string> elements;
  int n = rng.Below(12);
  for (int i = 0; i < n; ++i) {
    std::string e;
    int len = rng.Below(10);
    for (int k = 0; k < len; ++k) {
      e.push_back(alphabet[rng.Below(alphabet.size())]);
    }
    elements.push_back(e);
  }
  auto parsed = tcl::ParseList(tcl::FormatList(elements));
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(*parsed, elements);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ListRoundTripProperty,
                         ::testing::Range(0, 24));

// --- percent-encoding round-trip ------------------------------------------

class EncodingProperty : public ::testing::TestWithParam<int> {};

TEST_P(EncodingProperty, DecodeEncodeIsIdentity) {
  Rng rng(GetParam());
  std::string s;
  int len = rng.Below(64);
  for (int i = 0; i < len; ++i) {
    s.push_back(static_cast<char>(rng.Below(256)));
  }
  EXPECT_EQ(PercentDecode(PercentEncode(s)), s);
}

INSTANTIATE_TEST_SUITE_P(Seeds, EncodingProperty, ::testing::Range(0, 16));

// --- Tcl expression evaluator vs a reference ------------------------------

class ExprProperty : public ::testing::TestWithParam<int> {};

TEST_P(ExprProperty, MatchesReferenceEvaluator) {
  Rng rng(GetParam());
  // Random left-leaning integer expression a OP b OP c ... with C
  // semantics, avoiding division by zero.
  int64_t acc = rng.Below(100);
  std::string text = std::to_string(acc);
  for (int i = 0; i < 6; ++i) {
    int op = rng.Below(4);
    int64_t v = rng.Below(9) + 1;
    switch (op) {
      case 0:
        acc += v;
        text += " + ";
        break;
      case 1:
        acc -= v;
        text += " - ";
        break;
      case 2:
        acc *= v;
        text += " * ";
        break;
      default:
        acc /= v;
        text += " / ";
        break;
    }
    text += std::to_string(v);
  }
  // NOTE: the reference applies operators left-to-right; regenerate the
  // expected value honoring * / precedence with a mini parser instead.
  // Simpler: wrap every partial result in parentheses.
  // Rebuild as fully parenthesized so both sides agree:
  Rng rng2(GetParam());
  acc = rng2.Below(100);
  text = std::to_string(acc);
  for (int i = 0; i < 6; ++i) {
    int op = rng2.Below(4);
    int64_t v = rng2.Below(9) + 1;
    const char* sym = op == 0 ? "+" : op == 1 ? "-" : op == 2 ? "*" : "/";
    switch (op) {
      case 0:
        acc += v;
        break;
      case 1:
        acc -= v;
        break;
      case 2:
        acc *= v;
        break;
      default:
        acc /= v;
        break;
    }
    text = "(" + text + " " + sym + " " + std::to_string(v) + ")";
  }
  tcl::Interp in;
  auto r = in.Eval("expr {" + text + "}");
  ASSERT_TRUE(r.ok()) << text;
  EXPECT_EQ(*r, std::to_string(acc)) << text;
}

INSTANTIATE_TEST_SUITE_P(Seeds, ExprProperty, ::testing::Range(0, 24));

// --- Design-thread structural invariants -----------------------------------

class ThreadInvariantProperty : public ::testing::TestWithParam<int> {};

TEST_P(ThreadInvariantProperty, RandomOperationSequencePreservesInvariants) {
  Rng rng(GetParam());
  ManualClock clock(0);
  activity::DesignThread thread(1, "t", &clock);
  thread.set_cache_interval(1 + rng.Below(6));
  int object_counter = 0;
  for (int op = 0; op < 60; ++op) {
    clock.AdvanceSeconds(1);
    int kind = rng.Below(10);
    if (kind < 6 || thread.size() == 0) {
      // Append a record consuming a random in-scope object.
      task::TaskHistoryRecord rec;
      rec.task_name = "t" + std::to_string(op);
      auto scope = thread.DataScope();
      ASSERT_TRUE(scope.ok());
      if (!scope->empty()) {
        auto it = scope->begin();
        std::advance(it, rng.Below(scope->size()));
        rec.inputs.push_back(*it);
      }
      rec.outputs.push_back({"o" + std::to_string(object_counter++), 1});
      ASSERT_TRUE(
          thread.Append(std::move(rec), thread.current_cursor()).ok());
    } else if (kind < 9) {
      // Rework to a random existing point.
      std::vector<activity::NodeId> ids = {activity::kInitialPoint};
      for (const auto& [id, node] : thread.nodes()) ids.push_back(id);
      ASSERT_TRUE(thread.MoveCursor(ids[rng.Below(ids.size())]).ok());
    } else {
      // Rework with erase.
      std::vector<activity::NodeId> ids = {activity::kInitialPoint};
      for (const auto& [id, node] : thread.nodes()) ids.push_back(id);
      std::vector<oct::ObjectId> gone;
      ASSERT_TRUE(
          thread.MoveCursorAndErase(ids[rng.Below(ids.size())], &gone)
              .ok());
    }

    // Invariant 1: the cursor always points at an existing node.
    ASSERT_TRUE(thread.HasNode(thread.current_cursor()));
    // Invariant 2: parent/child links are symmetric and alive.
    for (const auto& [id, node] : thread.nodes()) {
      for (activity::NodeId p : node.parents) {
        auto parent = thread.GetNode(p);
        ASSERT_TRUE(parent.ok());
        bool linked = false;
        for (activity::NodeId c : (*parent)->children) {
          if (c == id) linked = true;
        }
        ASSERT_TRUE(linked);
      }
      for (activity::NodeId c : node.children) {
        ASSERT_TRUE(thread.GetNode(c).ok());
      }
    }
    // Invariant 3: the data scope is a subset of the workspace.
    auto scope = thread.DataScope();
    auto ws = thread.Workspace();
    ASSERT_TRUE(scope.ok());
    ASSERT_TRUE(ws.ok());
    for (const oct::ObjectId& id : *scope) {
      ASSERT_EQ(ws->count(id), 1u) << id.ToString();
    }
    // Invariant 4: cached and uncached scopes agree.
    activity::DesignThread* t = &thread;
    int saved = t->cache_interval();
    // (Uncached comparison via a fresh traversal: temporarily disable the
    // cache-install path; existing caches still hold — invalidate by
    // checking against a recompute from an uncached twin is done in the
    // dedicated cache tests. Here: frontier states must union to the
    // workspace minus check-ins.)
    t->set_cache_interval(saved);
    std::set<oct::ObjectId> frontier_union;
    for (activity::NodeId f : thread.FrontierCursors()) {
      auto st = thread.ThreadState(f);
      ASSERT_TRUE(st.ok());
      frontier_union.insert(st->begin(), st->end());
    }
    ASSERT_EQ(frontier_union, *ws);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ThreadInvariantProperty,
                         ::testing::Range(0, 12));

// --- Task-manager visibility invariant --------------------------------------

class TaskVisibilityProperty : public ::testing::TestWithParam<int> {};

TEST_P(TaskVisibilityProperty, CommitOrAbortLeavesCleanDatabase) {
  uint64_t seed = GetParam();
  Papyrus session;
  std::string in = "/prop/macro" + std::to_string(seed);
  (void)session.CheckInObject(in, oct::Layout{.num_cells = 30,
                                              .area = 21000.0,
                                              .style = "macro",
                                              .seed = seed});
  int t = session.CreateThread("t");
  activity::ActivityInvocation inv;
  inv.template_name = "Mosaico";
  inv.input_refs = {in};
  inv.output_names = {"chip", "chip.stats"};
  inv.max_restarts = 0;  // let both-fail seeds abort
  auto point = session.activity().InvokeTask(t, inv);

  std::set<std::string> visible;
  session.database().ForEach([&](const oct::ObjectRecord& rec) {
    if (rec.visible) visible.insert(rec.id.ToString());
  });
  if (point.ok()) {
    // Committed: exactly the input and the two task outputs are visible
    // (intermediates discarded, §3.3.2).
    EXPECT_EQ(visible.size(), 3u);
    EXPECT_TRUE(visible.count(in + "@1"));
    EXPECT_TRUE(visible.count("chip@1"));
    EXPECT_TRUE(visible.count("chip.stats@1"));
  } else {
    // Aborted: every side effect removed.
    EXPECT_EQ(visible.size(), 1u);
    EXPECT_TRUE(visible.count(in + "@1"));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TaskVisibilityProperty,
                         ::testing::Range(0, 24));

// --- Sprite work conservation -------------------------------------------------

class SpriteConservationProperty : public ::testing::TestWithParam<int> {};

TEST_P(SpriteConservationProperty, CompletedWorkEqualsRequestedWork) {
  Rng rng(GetParam());
  ManualClock clock(0);
  sprite::Network net(&clock, 1 + rng.Below(6));
  int64_t total_work = 0;
  int spawned = 0;
  for (int i = 0; i < 12; ++i) {
    int64_t work = 1000 + rng.Below(50000);
    auto host = rng.Below(net.num_hosts());
    if (net.Spawn(sprite::kNoProcess, "p", work, host, true).ok()) {
      total_work += work;
      ++spawned;
    }
  }
  net.RunUntilQuiescent();
  int64_t done = 0;
  for (const auto& p : net.GetPcbInfo()) {
    EXPECT_EQ(p.state, sprite::ProcessState::kCompleted);
    EXPECT_EQ(p.done_micros, p.work_micros);
    EXPECT_GE(p.finish_micros, p.spawn_micros);
    done += p.done_micros;
  }
  EXPECT_EQ(done, total_work);
  // Makespan bounds: at least the largest job, at most the serial sum
  // (hosts all have speed 1).
  EXPECT_LE(clock.NowMicros(), total_work);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SpriteConservationProperty,
                         ::testing::Range(0, 12));

// --- Metadata is a function of the surviving history ------------------------

/// What a reopened session must derive again: the rendered ADG, every
/// relationship and every inferred type, by object version.
std::string RenderMetadata(Papyrus& session) {
  meta::MetadataEngine& engine = session.metadata();
  std::set<oct::ObjectId> ids;
  session.database().ForEach(
      [&](const oct::ObjectRecord& rec) { ids.insert(rec.id); });
  std::ostringstream out;
  out << server::RenderAdg(engine.adg());
  for (const oct::ObjectId& id : ids) {
    if (auto type = engine.TypeOf(id); type.ok()) {
      out << id.ToString() << " : " << *type << ' ' << *engine.FormatOf(id)
          << '\n';
    }
    for (const meta::Relationship* rel : engine.relationships().Of(id)) {
      if (rel->from != id) continue;  // listed once, under its `from`
      out << rel->id << ' ' << meta::RelKindToString(rel->kind) << ' '
          << rel->from.ToString() << " -> " << rel->to.ToString() << " via "
          << rel->via_tool << '\n';
    }
  }
  return out.str();
}

/// (seed, executor workers)
class MetadataDerivationProperty
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(MetadataDerivationProperty, LiveSessionReadsWhatItsStoreReopensTo) {
  namespace fs = std::filesystem;
  const auto [seed, workers] = GetParam();
  Rng rng(seed + 1000);
  const fs::path root =
      fs::path(::testing::TempDir()) /
      ("metadata_derivation_" + std::to_string(seed) + "_w" +
       std::to_string(workers));
  fs::remove_all(root);
  const std::string dir = (root / "store").string();
  SessionOptions options;
  options.worker_threads = workers;
  Papyrus live(options);
  ASSERT_TRUE(live.OpenStorage(dir).ok());
  live.reclamation().AddFilteredTask("Logic_Simulation");
  std::vector<int> threads = {live.CreateThread("A"),
                              live.CreateThread("B")};
  auto thread = [&](int id) { return *live.activity().GetThread(id); };
  auto any_thread = [&] { return threads[rng.Below(threads.size())]; };

  // Reads the live metadata, and what a session reopened from a copy of
  // the store derives.
  int checkpoints = 0;
  auto checkpoint = [&] {
    ASSERT_TRUE(live.CommitWal().ok());
    const fs::path copy = root / ("reopen" + std::to_string(++checkpoints));
    fs::copy(dir, copy, fs::copy_options::recursive);
    Papyrus reopened(options);
    ASSERT_TRUE(reopened.OpenStorage(copy.string()).ok());
    EXPECT_EQ(RenderMetadata(live), RenderMetadata(reopened))
        << "checkpoint " << checkpoints;
  };
  // Output names come from small pools, and a rerun with the same names
  // (and seed) is served by the step cache in either thread: every step
  // elided, at one virtual instant.
  auto create = [&](int t, int k) {
    (void)live.Invoke(t, "Create_Logic_Description", {},
                      {"c" + std::to_string(k) + ".logic"});
  };
  auto derive = [&](int t) {
    const std::string logic = "c" + std::to_string(rng.Below(3)) + ".logic";
    if (rng.Below(2) == 0) {
      (void)live.Invoke(t, "PLA_Generation", {logic}, {logic + ".pla"});
    } else {
      (void)live.Invoke(t, "Standard_Cell_Place_and_Route", {logic},
                        {logic + ".sc"});
    }
  };
  auto random_point = [&](int t) {
    std::vector<activity::NodeId> points = {activity::kInitialPoint};
    for (const auto& [id, node] : thread(t)->nodes()) points.push_back(id);
    return points[rng.Below(points.size())];
  };
  // Erases the node at the thread's cursor (with everything after it).
  auto erase_cursor = [&](int t) {
    auto node = thread(t)->GetNode(thread(t)->current_cursor());
    if (!node.ok()) return;
    activity::NodeId parent = (*node)->parents.empty()
                                  ? activity::kInitialPoint
                                  : (*node)->parents.front();
    ASSERT_TRUE(live.MoveCursor(t, parent, /*erase=*/true).ok());
  };

  enum Op {
    kTiedReruns,      // two threads rerun one task at one instant
    kEraseObserved,   // an erasing rework of a node already read
    kFork,
    kFiltered,        // a §5.4-filtered task
    kReclaim,         // the one reclamation pass
    kCreate,
    kDerive,
    kRework,
    kReworkErase,
    kCommit,
    kSave,
    kCheckpoint,
  };
  std::vector<Op> ops = {kTiedReruns, kEraseObserved, kFork, kFiltered,
                         kReclaim};
  for (int i = 0; i < 24; ++i) ops.push_back(Op(kCreate + rng.Below(7)));
  for (size_t i = ops.size() - 1; i > 0; --i) {
    std::swap(ops[i], ops[rng.Below(static_cast<int>(i) + 1)]);
  }
  for (Op op : ops) {
    const int t = any_thread();
    switch (op) {
      case kTiedReruns:
        // The second thread's rerun is read before the first thread's
        // lands at the same instant, which sorts before it.
        create(threads[0], 3);
        create(threads[1], 3);
        checkpoint();
        create(threads[0], 3);
        checkpoint();
        break;
      case kEraseObserved:
        derive(t);
        create(t, rng.Below(3));
        checkpoint();
        erase_cursor(t);
        checkpoint();
        break;
      case kFork: {
        const size_t edges = live.metadata().adg().edge_count();
        ASSERT_TRUE(live.activity()
                        .ForkThread(t, "F" + std::to_string(threads.size()))
                        .ok());
        threads.push_back(live.activity().ThreadIds().back());
        // The copies carry their source records' edges: counted once.
        EXPECT_EQ(live.metadata().adg().edge_count(), edges);
        break;
      }
      case kFiltered:
        (void)live.Invoke(t, "Logic_Simulation",
                          {"c" + std::to_string(rng.Below(3)) + ".logic"},
                          {});
        break;
      case kReclaim:
        if (rng.Below(2) == 0) {
          ASSERT_TRUE(live.reclamation()
                          .VerticalAge(thread(t), live.clock().NowMicros())
                          .ok());
        } else {
          ASSERT_TRUE(
              live.reclamation().PruneDeadBranches(thread(t), 0).ok());
        }
        break;
      case kCreate:
        create(t, rng.Below(3));
        break;
      case kDerive:
        derive(t);
        break;
      case kRework:
        ASSERT_TRUE(live.MoveCursor(t, random_point(t)).ok());
        break;
      case kReworkErase:
        ASSERT_TRUE(live.MoveCursor(t, random_point(t), true).ok());
        break;
      case kCommit:
        ASSERT_TRUE(live.CommitWal().ok());
        break;
      case kSave:
        ASSERT_TRUE(live.SaveGeneration().ok());
        break;
      case kCheckpoint:
        checkpoint();
        break;
    }
    if (HasFatalFailure()) return;
  }
  checkpoint();

  // Observation is idempotent: observing every surviving node again
  // changes nothing.
  const std::string derived = RenderMetadata(live);
  for (int id : live.activity().ThreadIds()) {
    for (const auto& [node_id, node] : thread(id)->nodes()) {
      ASSERT_TRUE(live.metadata().Observe(node.record).ok());
    }
  }
  EXPECT_EQ(RenderMetadata(live), derived);
  fs::remove_all(root);
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, MetadataDerivationProperty,
    ::testing::Combine(::testing::Range(0, 8), ::testing::Values(1, 4)));

}  // namespace
}  // namespace papyrus
