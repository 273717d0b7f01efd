#include <gtest/gtest.h>

#include "activity/activity_manager.h"
#include "activity/design_thread.h"
#include "activity/display.h"
#include "activity/thread_ops.h"
#include "base/clock.h"
#include "cadtools/registry.h"
#include "oct/database.h"
#include "sprite/network.h"
#include "task/task_manager.h"
#include "tdl/template.h"

namespace papyrus::activity {
namespace {

using oct::BehavioralSpec;
using oct::Layout;
using oct::LogicNetwork;
using oct::ObjectId;

/// Builds a synthetic history record without running any tools — for unit
/// tests of the control-stream machinery.
task::TaskHistoryRecord FakeRecord(const std::string& name,
                                   std::vector<ObjectId> inputs,
                                   std::vector<ObjectId> outputs) {
  task::TaskHistoryRecord rec;
  rec.task_name = name;
  rec.inputs = std::move(inputs);
  rec.outputs = std::move(outputs);
  return rec;
}

class DesignThreadTest : public ::testing::Test {
 protected:
  DesignThreadTest() : clock_(0), thread_(1, "ALU", &clock_) {}

  NodeId MustAppend(const std::string& name, std::vector<ObjectId> in,
                    std::vector<ObjectId> out, NodeId cursor = -1) {
    auto node = thread_.Append(
        FakeRecord(name, std::move(in), std::move(out)),
        cursor < 0 ? thread_.current_cursor() : cursor);
    EXPECT_TRUE(node.ok());
    return node.ok() ? *node : kInitialPoint;
  }

  ManualClock clock_;
  DesignThread thread_;
};

TEST_F(DesignThreadTest, LinearAppendAdvancesCursor) {
  EXPECT_EQ(thread_.current_cursor(), kInitialPoint);
  NodeId a = MustAppend("t1", {}, {{"x", 1}});
  EXPECT_EQ(thread_.current_cursor(), a);
  NodeId b = MustAppend("t2", {{"x", 1}}, {{"y", 1}});
  EXPECT_EQ(thread_.current_cursor(), b);
  EXPECT_EQ(thread_.size(), 2);
  auto frontier = thread_.FrontierCursors();
  ASSERT_EQ(frontier.size(), 1u);
  EXPECT_EQ(frontier[0], b);
}

TEST_F(DesignThreadTest, ThreadStateAccumulatesAlongPath) {
  NodeId a = MustAppend("t1", {}, {{"x", 1}});
  MustAppend("t2", {{"x", 1}}, {{"y", 1}});
  auto scope = thread_.DataScope();
  ASSERT_TRUE(scope.ok());
  EXPECT_EQ(scope->size(), 2u);
  auto state_a = thread_.ThreadState(a);
  ASSERT_TRUE(state_a.ok());
  EXPECT_EQ(state_a->size(), 1u);
  auto initial = thread_.ThreadState(kInitialPoint);
  ASSERT_TRUE(initial.ok());
  EXPECT_TRUE(initial->empty());
}

TEST_F(DesignThreadTest, ReworkCreatesBranch) {
  NodeId a = MustAppend("t1", {}, {{"x", 1}});
  MustAppend("t2", {{"x", 1}}, {{"y", 1}});
  ASSERT_TRUE(thread_.MoveCursor(a).ok());
  EXPECT_EQ(thread_.current_cursor(), a);
  // Objects of the other branch are not visible from here.
  auto scope = thread_.DataScope();
  ASSERT_TRUE(scope.ok());
  EXPECT_EQ(scope->count({"y", 1}), 0u);
  // A new task from this point starts a second branch.
  NodeId c = MustAppend("t3", {{"x", 1}}, {{"z", 1}});
  EXPECT_EQ(thread_.current_cursor(), c);
  EXPECT_EQ(thread_.FrontierCursors().size(), 2u);
  // Branch contents are mutually invisible (§3.3.3).
  auto scope_c = thread_.DataScope();
  ASSERT_TRUE(scope_c.ok());
  EXPECT_EQ(scope_c->count({"y", 1}), 0u);
  EXPECT_EQ(scope_c->count({"z", 1}), 1u);
}

TEST_F(DesignThreadTest, WorkspaceIsUnionOfFrontierStates) {
  NodeId a = MustAppend("t1", {}, {{"x", 1}});
  MustAppend("t2", {{"x", 1}}, {{"y", 1}});
  ASSERT_TRUE(thread_.MoveCursor(a).ok());
  MustAppend("t3", {{"x", 1}}, {{"z", 1}});
  auto ws = thread_.Workspace();
  ASSERT_TRUE(ws.ok());
  EXPECT_EQ(ws->size(), 3u);  // x, y, z
}

TEST_F(DesignThreadTest, ResolveInScopePicksLatestVersion) {
  MustAppend("t1", {}, {{"x", 1}});
  MustAppend("t2", {{"x", 1}}, {{"x", 2}});
  auto id = thread_.ResolveInScope("x");
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(id->version, 2);
  EXPECT_TRUE(thread_.ResolveInScope("nope").status().IsNotFound());
}

TEST_F(DesignThreadTest, MoveCursorValidation) {
  EXPECT_TRUE(thread_.MoveCursor(kInitialPoint).ok());
  EXPECT_TRUE(thread_.MoveCursor(42).IsNotFound());
}

TEST_F(DesignThreadTest, EraseBranchRemovesRecordsAndObjects) {
  NodeId a = MustAppend("t1", {}, {{"x", 1}});
  MustAppend("t2", {{"x", 1}}, {{"y", 1}});
  MustAppend("t3", {{"y", 1}}, {{"z", 1}});
  std::vector<ObjectId> gone;
  ASSERT_TRUE(thread_.MoveCursorAndErase(a, &gone).ok());
  EXPECT_EQ(thread_.current_cursor(), a);
  EXPECT_EQ(thread_.size(), 1);
  // y and z are no longer referenced anywhere; x remains.
  EXPECT_EQ(gone.size(), 2u);
  auto ws = thread_.Workspace();
  ASSERT_TRUE(ws.ok());
  EXPECT_EQ(ws->size(), 1u);
}

TEST_F(DesignThreadTest, EraseKeepsSharedObjects) {
  NodeId a = MustAppend("t1", {}, {{"x", 1}});
  MustAppend("t2", {{"x", 1}}, {{"y", 1}});
  ASSERT_TRUE(thread_.MoveCursor(a).ok());
  MustAppend("t3", {{"x", 1}}, {{"z", 1}});  // x shared across branches
  ASSERT_TRUE(thread_.MoveCursor(a).ok());
  // Erase nothing: cursor is already upstream of both branches.
  std::vector<ObjectId> gone;
  ASSERT_TRUE(thread_.MoveCursorAndErase(a, &gone).ok());
  EXPECT_TRUE(gone.empty());
}

TEST_F(DesignThreadTest, InsertionSplicesBeforeBranchingRecord) {
  // Build: a -> b with b having two children (c, d).
  NodeId a = MustAppend("a", {}, {{"x", 1}});
  NodeId b = MustAppend("b", {{"x", 1}}, {{"y", 1}});
  MustAppend("c", {{"y", 1}}, {{"c", 1}});
  ASSERT_TRUE(thread_.MoveCursor(b).ok());
  MustAppend("d", {{"y", 1}}, {{"d", 1}});
  // Now invoke "n" with an invocation cursor at `a`: the walk from `a`
  // reaches `b`, which branches, so `n` is spliced between a and b.
  auto n =
      thread_.Append(FakeRecord("n", {{"x", 1}}, {{"n", 1}}), a, false);
  ASSERT_TRUE(n.ok());
  auto node_b = thread_.GetNode(b);
  ASSERT_TRUE(node_b.ok());
  ASSERT_EQ((*node_b)->parents.size(), 1u);
  EXPECT_EQ((*node_b)->parents[0], *n);
  auto node_n = thread_.GetNode(*n);
  ASSERT_TRUE(node_n.ok());
  ASSERT_EQ((*node_n)->parents.size(), 1u);
  EXPECT_EQ((*node_n)->parents[0], a);
  // Downstream thread states now include n's output.
  auto state_c = thread_.ThreadState(thread_.FrontierCursors()[0]);
  ASSERT_TRUE(state_c.ok());
  EXPECT_EQ(state_c->count({"n", 1}), 1u);
}

TEST_F(DesignThreadTest, ConcurrentAppendsChainOnTheSamePath) {
  // Two tasks invoked from the same cursor complete one after another:
  // the second lands after the first (Figure 5.6's simple case).
  NodeId a = MustAppend("a", {}, {{"x", 1}});
  auto r1 = thread_.Append(FakeRecord("t1", {}, {{"p", 1}}), a, false);
  auto r2 = thread_.Append(FakeRecord("t2", {}, {{"q", 1}}), a, false);
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r2.ok());
  auto node = thread_.GetNode(*r2);
  ASSERT_TRUE(node.ok());
  ASSERT_EQ((*node)->parents.size(), 1u);
  EXPECT_EQ((*node)->parents[0], *r1);  // chained, not branched
}

TEST_F(DesignThreadTest, CachingReducesTraversalWork) {
  thread_.set_cache_interval(4);
  for (int i = 1; i <= 32; ++i) {
    MustAppend("t", {}, {{"x", i}});
  }
  (void)thread_.DataScope();  // installs a cache at the tip
  int64_t before = thread_.traversal_visits();
  (void)thread_.DataScope();  // cache hit
  EXPECT_EQ(thread_.traversal_visits(), before + 1);

  // Uncached ablation does full backward traversals every time.
  DesignThread slow(2, "slow", &clock_);
  slow.set_cache_interval(0);
  for (int i = 1; i <= 32; ++i) {
    (void)slow.Append(FakeRecord("t", {}, {{"x", i}}),
                      slow.current_cursor());
  }
  (void)slow.DataScope();
  int64_t slow_before = slow.traversal_visits();
  (void)slow.DataScope();
  EXPECT_EQ(slow.traversal_visits(), slow_before + 32);
}

TEST_F(DesignThreadTest, CachedStateMatchesUncached) {
  thread_.set_cache_interval(3);
  DesignThread plain(2, "plain", &clock_);
  plain.set_cache_interval(0);
  for (int i = 1; i <= 20; ++i) {
    MustAppend("t", {{"x", i > 1 ? i - 1 : 1}}, {{"x", i}});
    (void)plain.Append(
        FakeRecord("t", {{"x", i > 1 ? i - 1 : 1}}, {{"x", i}}),
        plain.current_cursor());
    // Interleave queries so caches get installed mid-stream.
    auto a = thread_.DataScope();
    auto b = plain.DataScope();
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    EXPECT_EQ(*a, *b) << "divergence at step " << i;
  }
}

TEST_F(DesignThreadTest, SpliceUpdatesCachedStates) {
  thread_.set_cache_interval(2);
  NodeId a = MustAppend("a", {}, {{"x", 1}});
  NodeId b = MustAppend("b", {{"x", 1}}, {{"y", 1}});
  NodeId c = MustAppend("c", {{"y", 1}}, {{"z", 1}});
  (void)thread_.ThreadState(c);  // cache installed at c
  // Make b a branching record.
  ASSERT_TRUE(thread_.MoveCursor(b).ok());
  MustAppend("d", {{"y", 1}}, {{"d", 1}});
  // Splice n between a and b; c's cached state must gain n's output.
  auto n = thread_.Append(FakeRecord("n", {}, {{"n", 7}}), a, false);
  ASSERT_TRUE(n.ok());
  auto state = thread_.ThreadState(c);
  ASSERT_TRUE(state.ok());
  EXPECT_EQ(state->count({"n", 7}), 1u);
}

TEST_F(DesignThreadTest, AnnotationAccess) {
  NodeId a = MustAppend("pla", {}, {{"x", 1}});
  ASSERT_TRUE(thread_.Annotate(a, "The Start of PLA Approach").ok());
  auto found = thread_.FindAnnotation("The Start of PLA Approach");
  ASSERT_TRUE(found.ok());
  EXPECT_EQ(*found, a);
  EXPECT_TRUE(thread_.FindAnnotation("missing").status().IsNotFound());
  EXPECT_TRUE(thread_.Annotate(99, "x").IsNotFound());
}

TEST_F(DesignThreadTest, TimeAccessIsHourResolution) {
  clock_.SetMicros(0);
  NodeId a = MustAppend("t1", {}, {{"x", 1}});
  clock_.AdvanceSeconds(3600);  // next hour
  NodeId b = MustAppend("t2", {}, {{"x", 2}});
  clock_.AdvanceSeconds(7200);  // two hours later
  NodeId c = MustAppend("t3", {}, {{"x", 3}});

  auto f0 = thread_.FindByTime(10);
  ASSERT_TRUE(f0.ok());
  EXPECT_EQ(*f0, a);
  auto f1 = thread_.FindByTime(3600ll * 1000000ll + 5);
  ASSERT_TRUE(f1.ok());
  EXPECT_EQ(*f1, b);
  // Empty hour: the next closest record after it is returned.
  auto f2 = thread_.FindByTime(2 * 3600ll * 1000000ll);
  ASSERT_TRUE(f2.ok());
  EXPECT_EQ(*f2, c);
  EXPECT_TRUE(
      thread_.FindByTime(100 * 3600ll * 1000000ll).status().IsNotFound());
}

// --- Thread combination operators ---------------------------------------

class ThreadOpsTest : public ::testing::Test {
 protected:
  ThreadOpsTest()
      : clock_(0),
        shifter_(1, "Shifter", &clock_),
        arith_(2, "Arith", &clock_) {}

  void Fill(DesignThread* t, const std::string& prefix, int n) {
    for (int i = 1; i <= n; ++i) {
      (void)t->Append(FakeRecord(prefix + std::to_string(i), {},
                                 {{prefix, i}}),
                      t->current_cursor());
    }
  }

  ManualClock clock_;
  DesignThread shifter_;
  DesignThread arith_;
};

TEST_F(ThreadOpsTest, ForkWholeWorkspace) {
  Fill(&shifter_, "s", 3);
  DesignThread copy(3, "copy", &clock_);
  ASSERT_TRUE(
      ThreadCombinator::Fork(shifter_, std::nullopt, &copy).ok());
  EXPECT_EQ(copy.size(), 3);
  auto ws = copy.Workspace();
  ASSERT_TRUE(ws.ok());
  EXPECT_EQ(ws->size(), 3u);
  // Independence: appending to the fork does not affect the source.
  (void)copy.Append(FakeRecord("new", {}, {{"n", 1}}),
                    copy.current_cursor());
  EXPECT_EQ(shifter_.size(), 3);
  EXPECT_EQ(copy.size(), 4);
}

TEST_F(ThreadOpsTest, ForkFromDesignPointCopiesAncestorsOnly) {
  Fill(&shifter_, "s", 4);
  // Fork from the second design point.
  NodeId second = 2;
  DesignThread copy(3, "copy", &clock_);
  ASSERT_TRUE(ThreadCombinator::Fork(shifter_, second, &copy).ok());
  EXPECT_EQ(copy.size(), 2);
  auto scope = copy.DataScope();
  ASSERT_TRUE(scope.ok());
  EXPECT_EQ(scope->size(), 2u);  // s@1, s@2 only
}

TEST_F(ThreadOpsTest, JoinMergesWorkspacesAtConnectors) {
  Fill(&shifter_, "s", 2);
  Fill(&arith_, "a", 3);
  DesignThread alu(3, "ALU", &clock_);
  NodeId ca = shifter_.FrontierCursors()[0];
  NodeId cb = arith_.FrontierCursors()[0];
  ASSERT_TRUE(
      ThreadCombinator::Join(shifter_, ca, arith_, cb, &alu).ok());
  // 2 + 3 records plus the junction point.
  EXPECT_EQ(alu.size(), 6);
  auto ws = alu.Workspace();
  ASSERT_TRUE(ws.ok());
  EXPECT_EQ(ws->size(), 5u);
  // The cursor sits on the junction; the scope sees both sides.
  auto scope = alu.DataScope();
  ASSERT_TRUE(scope.ok());
  EXPECT_EQ(scope->count({"s", 2}), 1u);
  EXPECT_EQ(scope->count({"a", 3}), 1u);
  // The combined thread works like one built from scratch: rework into
  // the copied history is allowed.
  ASSERT_TRUE(alu.MoveCursor(1).ok());
  (void)alu.Append(FakeRecord("alt", {}, {{"alt", 1}}),
                   alu.current_cursor());
  EXPECT_EQ(alu.size(), 7);
  // Originals evolve independently after the merge.
  (void)shifter_.Append(FakeRecord("s-more", {}, {{"s", 9}}),
                        shifter_.current_cursor());
  auto alu_ws = alu.Workspace();
  ASSERT_TRUE(alu_ws.ok());
  EXPECT_EQ(alu_ws->count({"s", 9}), 0u);
}

TEST_F(ThreadOpsTest, JoinRequiresFrontierConnectors) {
  Fill(&shifter_, "s", 2);
  Fill(&arith_, "a", 2);
  DesignThread alu(3, "ALU", &clock_);
  // Node 1 of shifter has a child: not a frontier.
  EXPECT_TRUE(ThreadCombinator::Join(shifter_, 1, arith_,
                                     arith_.FrontierCursors()[0], &alu)
                  .IsFailedPrecondition());
}

TEST_F(ThreadOpsTest, CascadeAppendsTrailingStream) {
  Fill(&shifter_, "s", 2);
  Fill(&arith_, "a", 2);
  DesignThread combined(3, "combined", &clock_);
  ASSERT_TRUE(ThreadCombinator::Cascade(
                  shifter_, shifter_.FrontierCursors()[0], arith_,
                  &combined)
                  .ok());
  EXPECT_EQ(combined.size(), 4);
  // One linear chain: a single frontier whose state holds everything.
  auto frontier = combined.FrontierCursors();
  ASSERT_EQ(frontier.size(), 1u);
  auto state = combined.ThreadState(frontier[0]);
  ASSERT_TRUE(state.ok());
  EXPECT_EQ(state->size(), 4u);
}

// --- DisplayTransform (§5.2) ---------------------------------------------

TEST(DisplayTransformTest, ThesisExampleCompresses) {
  // [50,0] {2} {2} [100,0] {0.5} [-20,0] [0,50]
  DisplayTransform t;
  t.Pan(50, 0);
  t.Zoom(2);
  t.Zoom(2);
  t.Pan(100, 0);
  t.Zoom(0.5);
  t.Pan(-20, 0);
  t.Pan(0, 50);
  EXPECT_DOUBLE_EQ(t.magnification(), 2.0);
  EXPECT_DOUBLE_EQ(t.tx(), 65.0);
  EXPECT_DOUBLE_EQ(t.ty(), 25.0);
  EXPECT_EQ(t.events_logged(), 7);
}

TEST(DisplayTransformTest, CompressedEqualsEagerApplication) {
  // Apply a random-ish event sequence both ways and compare.
  struct Ev {
    bool zoom;
    double a, b;
  };
  std::vector<Ev> events = {{false, 10, -5}, {true, 2, 0},  {false, 3, 7},
                            {true, 0.25, 0}, {false, -9, 2}, {true, 4, 0},
                            {false, 1, 1}};
  double x = 12.5;
  double y = -3.25;
  double ex = x;
  double ey = y;
  DisplayTransform t;
  for (const Ev& e : events) {
    if (e.zoom) {
      ex *= e.a;
      ey *= e.a;
      t.Zoom(e.a);
    } else {
      ex += e.a;
      ey += e.b;
      t.Pan(e.a, e.b);
    }
  }
  auto [cx, cy] = t.Apply(x, y);
  EXPECT_NEAR(cx, ex, 1e-9);
  EXPECT_NEAR(cy, ey, 1e-9);
}

TEST(DisplayTransformTest, ResetClearsState) {
  DisplayTransform t;
  t.Pan(5, 5);
  t.Zoom(3);
  t.Reset();
  EXPECT_DOUBLE_EQ(t.magnification(), 1.0);
  EXPECT_DOUBLE_EQ(t.tx(), 0.0);
  EXPECT_EQ(t.events_logged(), 0);
}

// --- End-to-end: the Figure 3.7 Shifter-synthesis scenario ---------------

class ActivityManagerTest : public ::testing::Test {
 protected:
  ActivityManagerTest()
      : clock_(0),
        db_(&clock_),
        network_(&clock_, 4),
        registry_(cadtools::CreateStandardRegistry()),
        task_manager_(&db_, registry_.get(), &network_, &library_),
        activity_(&db_, &task_manager_, &clock_) {
    EXPECT_TRUE(tdl::RegisterThesisTemplates(&library_).ok());
  }

  ManualClock clock_;
  oct::OctDatabase db_;
  sprite::Network network_;
  std::unique_ptr<cadtools::ToolRegistry> registry_;
  tdl::TemplateLibrary library_;
  task::TaskManager task_manager_;
  ActivityManager activity_;
};

TEST_F(ActivityManagerTest, ShifterSynthesisExploration) {
  int tid = activity_.CreateThread("Shifter-synthesis");

  // 1. create-logic-description (edit + bdsyn).
  ActivityInvocation create;
  create.template_name = "Create_Logic_Description";
  create.output_names = {"shifter.logic"};
  auto p1 = activity_.InvokeTask(tid, create);
  ASSERT_TRUE(p1.ok()) << p1.status().ToString();

  // 2. logic simulation against the created description.
  ActivityInvocation sim;
  sim.template_name = "Logic_Simulation";
  sim.input_refs = {"shifter.logic"};
  auto p2 = activity_.InvokeTask(tid, sim);
  ASSERT_TRUE(p2.ok()) << p2.status().ToString();

  // 3-4. standard-cell place and route, then pads.
  ActivityInvocation scpr;
  scpr.template_name = "Standard_Cell_Place_and_Route";
  scpr.input_refs = {"shifter.logic"};
  scpr.output_names = {"shifter.sc"};
  auto p3 = activity_.InvokeTask(tid, scpr);
  ASSERT_TRUE(p3.ok()) << p3.status().ToString();

  ActivityInvocation pads;
  pads.template_name = "Place_Pads";
  pads.input_refs = {"shifter.sc"};
  pads.output_names = {"shifter.sc.padded"};
  auto p4 = activity_.InvokeTask(tid, pads);
  ASSERT_TRUE(p4.ok()) << p4.status().ToString();

  auto thread = activity_.GetThread(tid);
  ASSERT_TRUE(thread.ok());
  EXPECT_EQ((*thread)->current_cursor(), *p4);

  // 5. Not satisfied with standard cells: rework to design point 2 and
  // explore the PLA alternative.
  ASSERT_TRUE(activity_.MoveCursor(tid, *p2).ok());

  ActivityInvocation pla;
  pla.template_name = "PLA_Generation";
  pla.input_refs = {"shifter.logic"};
  pla.output_names = {"shifter.pla"};
  auto p5 = activity_.InvokeTask(tid, pla);
  ASSERT_TRUE(p5.ok()) << p5.status().ToString();

  ActivityInvocation pads2;
  pads2.template_name = "Place_Pads";
  pads2.input_refs = {"shifter.pla"};
  pads2.output_names = {"shifter.pla.padded"};
  auto p6 = activity_.InvokeTask(tid, pads2);
  ASSERT_TRUE(p6.ok()) << p6.status().ToString();

  // The control stream now has two branches from design point 2.
  EXPECT_EQ((*thread)->FrontierCursors().size(), 2u);

  // From the PLA branch, the standard-cell objects are invisible.
  auto scope = (*thread)->DataScope();
  ASSERT_TRUE(scope.ok());
  bool sees_sc = false;
  bool sees_pla = false;
  for (const ObjectId& id : *scope) {
    if (id.name == "shifter.sc.padded") sees_sc = true;
    if (id.name == "shifter.pla.padded") sees_pla = true;
  }
  EXPECT_FALSE(sees_sc);
  EXPECT_TRUE(sees_pla);

  // Jumping back to the standard-cell frontier restores that context.
  ASSERT_TRUE(activity_.MoveCursor(tid, *p4).ok());
  scope = (*thread)->DataScope();
  ASSERT_TRUE(scope.ok());
  sees_sc = false;
  for (const ObjectId& id : *scope) {
    if (id.name == "shifter.sc.padded") sees_sc = true;
    if (id.name == "shifter.pla.padded") sees_pla = false;
  }
  EXPECT_TRUE(sees_sc);

  // The rendered control stream shows both branches and the cursor.
  std::string rendered = RenderControlStream(**thread);
  EXPECT_NE(rendered.find("PLA_Generation"), std::string::npos);
  EXPECT_NE(rendered.find("Standard_Cell_Place_and_Route"),
            std::string::npos);
  EXPECT_NE(rendered.find("*"), std::string::npos);

  std::string scope_view = RenderDataScope(*thread);
  EXPECT_NE(scope_view.find("shifter.logic"), std::string::npos);
}

TEST_F(ActivityManagerTest, PlainNamesResolveInDataScopeOnly) {
  int tid = activity_.CreateThread("T");
  // An object exists in the database but not in this thread's scope.
  ASSERT_TRUE(db_.CreateVersion("orphan", LogicNetwork{}).ok());
  ActivityInvocation inv;
  inv.template_name = "Logic_Simulation";
  inv.input_refs = {"orphan"};
  auto r = activity_.InvokeTask(tid, inv);
  EXPECT_TRUE(r.status().IsNotFound());
}

TEST_F(ActivityManagerTest, AbsolutePathPerformsImplicitCheckIn) {
  int tid = activity_.CreateThread("T");
  ASSERT_TRUE(
      db_.CreateVersion("/user/chiueh/shifter.logic",
                        LogicNetwork{.minterms = 8, .seed = 3})
          .ok());
  ActivityInvocation inv;
  inv.template_name = "Logic_Simulation";
  inv.input_refs = {"/user/chiueh/shifter.logic"};
  auto r = activity_.InvokeTask(tid, inv);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  auto thread = activity_.GetThread(tid);
  ASSERT_TRUE(thread.ok());
  auto ws = (*thread)->Workspace();
  ASSERT_TRUE(ws.ok());
  EXPECT_EQ(ws->count({"/user/chiueh/shifter.logic", 1}), 1u);
}

TEST_F(ActivityManagerTest, ExplicitVersionBypassesResolution) {
  int tid = activity_.CreateThread("T");
  ASSERT_TRUE(db_.CreateVersion("/c", LogicNetwork{.seed = 1}).ok());
  ASSERT_TRUE(db_.CreateVersion("/c", LogicNetwork{.seed = 2}).ok());
  ActivityInvocation inv;
  inv.template_name = "Logic_Simulation";
  inv.input_refs = {"/c@1"};
  // "/c@1" parses as an absolute path (leading slash); use a non-path
  // name instead.
  ASSERT_TRUE(db_.CreateVersion("c", LogicNetwork{.seed = 1}).ok());
  ASSERT_TRUE(db_.CreateVersion("c", LogicNetwork{.seed = 2}).ok());
  inv.input_refs = {"c@1"};
  auto r = activity_.InvokeTask(tid, inv);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  auto thread = activity_.GetThread(tid);
  ASSERT_TRUE(thread.ok());
  auto node = (*thread)->GetNode(*r);
  ASSERT_TRUE(node.ok());
  ASSERT_EQ((*node)->record.inputs.size(), 1u);
  EXPECT_EQ((*node)->record.inputs[0].version, 1);
}

TEST_F(ActivityManagerTest, AbortedTaskLeavesNoHistoryRecord) {
  int tid = activity_.CreateThread("T");
  ASSERT_TRUE(db_.CreateVersion("/cell", LogicNetwork{.num_inputs = 8,
                                                      .num_outputs = 4,
                                                      .minterms = 50,
                                                      .seed = 4})
                  .ok());
  ActivityInvocation inv;
  inv.template_name = "PLA_Generation";
  inv.input_refs = {"/cell"};
  inv.output_names = {"cell.layout"};
  inv.option_overrides["Array_Layout"] = "-maxarea 1";
  inv.max_restarts = 2;
  auto r = activity_.InvokeTask(tid, inv);
  EXPECT_FALSE(r.ok());
  auto thread = activity_.GetThread(tid);
  ASSERT_TRUE(thread.ok());
  EXPECT_EQ((*thread)->size(), 0);
  EXPECT_EQ(activity_.records_appended(), 0);
}

TEST_F(ActivityManagerTest, InvocationAtReworkedInitialPointStartsNewRoot) {
  int tid = activity_.CreateThread("T");
  ActivityInvocation create;
  create.template_name = "Create_Logic_Description";
  create.output_names = {"cell.logic"};
  auto first = activity_.InvokeTask(tid, create);
  ASSERT_TRUE(first.ok()) << first.status().ToString();

  // Rework back to the very beginning (§5.3): the initial point already
  // has a following record, so the next invocation starts a fresh root
  // branch instead of chaining after the first record.
  ASSERT_TRUE(activity_.MoveCursor(tid, kInitialPoint).ok());
  auto second = activity_.InvokeTask(tid, create);
  ASSERT_TRUE(second.ok()) << second.status().ToString();

  auto thread = activity_.GetThread(tid);
  ASSERT_TRUE(thread.ok());
  EXPECT_EQ((*thread)->roots(), (std::vector<NodeId>{*first, *second}));
  auto node = (*thread)->GetNode(*second);
  ASSERT_TRUE(node.ok());
  EXPECT_TRUE((*node)->parents.empty());
  auto head = (*thread)->GetNode(*first);
  ASSERT_TRUE(head.ok());
  EXPECT_TRUE((*head)->children.empty());
  EXPECT_EQ((*thread)->current_cursor(), *second);
}

TEST_F(ActivityManagerTest, EraseBranchMakesObjectsInvisible) {
  int tid = activity_.CreateThread("T");
  ActivityInvocation create;
  create.template_name = "Create_Logic_Description";
  create.output_names = {"cell.logic"};
  auto p1 = activity_.InvokeTask(tid, create);
  ASSERT_TRUE(p1.ok());

  ActivityInvocation scpr;
  scpr.template_name = "Standard_Cell_Place_and_Route";
  scpr.input_refs = {"cell.logic"};
  scpr.output_names = {"cell.sc"};
  auto p2 = activity_.InvokeTask(tid, scpr);
  ASSERT_TRUE(p2.ok());

  auto sc_id = db_.LatestVisible("cell.sc");
  ASSERT_TRUE(sc_id.ok());

  // Rework to p1 with erase: the standard-cell branch disappears and its
  // objects become invisible in the database (Figure 3.6).
  ASSERT_TRUE(activity_.MoveCursor(tid, *p1, /*erase=*/true).ok());
  EXPECT_TRUE(db_.LatestVisible("cell.sc").status().IsNotFound());
  // The shared upstream object survives.
  EXPECT_TRUE(db_.LatestVisible("cell.logic").ok());
}

TEST_F(ActivityManagerTest, ForkJoinCascadeThroughManager) {
  int a = activity_.CreateThread("Shifter");
  int b = activity_.CreateThread("Arith");
  for (int tid : {a, b}) {
    ActivityInvocation create;
    create.template_name = "Create_Logic_Description";
    create.output_names = {std::string(tid == a ? "s" : "r") + ".logic"};
    ASSERT_TRUE(activity_.InvokeTask(tid, create).ok());
  }
  auto ta = activity_.GetThread(a);
  auto tb = activity_.GetThread(b);
  ASSERT_TRUE(ta.ok());
  ASSERT_TRUE(tb.ok());

  auto fork = activity_.ForkThread(a, "Shifter-v2");
  ASSERT_TRUE(fork.ok());
  auto forked = activity_.GetThread(*fork);
  ASSERT_TRUE(forked.ok());
  EXPECT_EQ((*forked)->size(), (*ta)->size());

  auto join = activity_.JoinThreads(a, (*ta)->FrontierCursors()[0], b,
                                    (*tb)->FrontierCursors()[0], "ALU");
  ASSERT_TRUE(join.ok());
  auto alu = activity_.GetThread(*join);
  ASSERT_TRUE(alu.ok());
  auto scope = (*alu)->DataScope();
  ASSERT_TRUE(scope.ok());
  EXPECT_EQ(scope->count({"s.logic", 1}), 1u);
  EXPECT_EQ(scope->count({"r.logic", 1}), 1u);

  auto cascade = activity_.CascadeThreads(a, (*ta)->FrontierCursors()[0],
                                          b, "chain");
  ASSERT_TRUE(cascade.ok());

  EXPECT_EQ(activity_.ThreadIds().size(), 5u);
  EXPECT_TRUE(activity_.RemoveThread(*cascade).ok());
  EXPECT_TRUE(activity_.RemoveThread(999).IsNotFound());
}

TEST_F(ActivityManagerTest, StreamLayoutAssignsGridCells) {
  int tid = activity_.CreateThread("T");
  ActivityInvocation create;
  create.template_name = "Create_Logic_Description";
  create.output_names = {"x.logic"};
  auto p1 = activity_.InvokeTask(tid, create);
  ASSERT_TRUE(p1.ok());
  ActivityInvocation scpr;
  scpr.template_name = "Standard_Cell_Place_and_Route";
  scpr.input_refs = {"x.logic"};
  scpr.output_names = {"x.sc"};
  ASSERT_TRUE(activity_.InvokeTask(tid, scpr).ok());
  ASSERT_TRUE(activity_.MoveCursor(tid, *p1).ok());
  ActivityInvocation pla;
  pla.template_name = "PLA_Generation";
  pla.input_refs = {"x.logic"};
  pla.output_names = {"x.pla"};
  ASSERT_TRUE(activity_.InvokeTask(tid, pla).ok());

  auto thread = activity_.GetThread(tid);
  ASSERT_TRUE(thread.ok());
  StreamLayout layout = ComputeStreamLayout(**thread);
  EXPECT_EQ(layout.cells.size(), 3u);
  EXPECT_EQ(layout.width, 2);   // two levels deep
  EXPECT_EQ(layout.height, 2);  // two branch lanes
}

}  // namespace
}  // namespace papyrus::activity
