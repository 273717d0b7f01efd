// Tests for the extension subsystems: the retracing executor, session
// save/load, and the task progress view.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "core/papyrus.h"
#include "meta/retrace.h"
#include "task/progress_view.h"

namespace papyrus {
namespace {

using oct::Layout;
using oct::LogicNetwork;
using oct::ObjectId;

// --- Retracing (VOV-style consistency maintenance) ------------------------

class RetraceTest : public ::testing::Test {
 protected:
  RetraceTest() : retracer_(&session_.database(), &session_.tools()) {}

  /// Runs the PLA flow so the ADG records logic -> min -> fold -> layout.
  void BuildFlow() {
    thread_ = session_.CreateThread("T");
    ASSERT_TRUE(session_
                    .Invoke(thread_, "Create_Logic_Description", {},
                            {"cell.logic"})
                    .ok());
    ASSERT_TRUE(session_
                    .Invoke(thread_, "PLA_Generation", {"cell.logic"},
                            {"cell.layout"})
                    .ok());
  }

  Papyrus session_;
  meta::Retracer retracer_;
  int thread_ = 0;
};

TEST_F(RetraceTest, RegeneratesDerivedObjectsAsNewVersions) {
  BuildFlow();
  auto old_layout = session_.database().LatestVisible("cell.layout");
  ASSERT_TRUE(old_layout.ok());
  EXPECT_EQ(old_layout->version, 1);

  // The designer modifies the logic description: a new version appears.
  auto v2 = session_.database().CreateVersion(
      "cell.logic", LogicNetwork{.num_inputs = 8,
                                 .num_outputs = 8,
                                 .minterms = 120,
                                 .literals = 150,
                                 .format = oct::DesignFormat::kBlif,
                                 .seed = 999});
  ASSERT_TRUE(v2.ok());

  auto result =
      retracer_.Retrace(session_.metadata().adg(), "cell.logic");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // PLA_Generation's three steps are downstream of cell.logic.
  EXPECT_EQ(result->invocations_rerun, 3);
  EXPECT_EQ(result->invocations_skipped, 0);
  // The layout was regenerated as version 2; version 1 survives
  // (single-assignment retracing, unlike VOV's in-place updates).
  auto new_layout = session_.database().LatestVisible("cell.layout");
  ASSERT_TRUE(new_layout.ok());
  EXPECT_EQ(new_layout->version, 2);
  EXPECT_TRUE(session_.database().Get(*old_layout).ok());
  // The regenerated layout reflects the new logic (different minterms →
  // different cell count).
  auto old_rec = session_.database().Get(*old_layout);
  auto new_rec = session_.database().Get(*new_layout);
  EXPECT_NE(std::get<Layout>((*old_rec)->payload).num_cells,
            std::get<Layout>((*new_rec)->payload).num_cells);
}

TEST_F(RetraceTest, RecordFeedsBackIntoTheEngine) {
  BuildFlow();
  ASSERT_TRUE(session_.database()
                  .CreateVersion("cell.logic",
                                 LogicNetwork{.minterms = 80,
                                              .format =
                                                  oct::DesignFormat::kBlif,
                                              .seed = 5})
                  .ok());
  auto result =
      retracer_.Retrace(session_.metadata().adg(), "cell.logic");
  ASSERT_TRUE(result.ok());
  size_t edges_before = session_.metadata().adg().edge_count();
  ASSERT_TRUE(session_.metadata().Observe(result->record).ok());
  EXPECT_EQ(session_.metadata().adg().edge_count(),
            edges_before + result->invocations_rerun);
  // The regenerated layout's type is inferred like any other creation.
  auto layout = session_.database().LatestVisible("cell.layout");
  ASSERT_TRUE(layout.ok());
  auto type = session_.metadata().TypeOf(*layout);
  ASSERT_TRUE(type.ok());
  EXPECT_EQ(*type, "layout");
}

TEST_F(RetraceTest, NothingToRetraceForLeafObjects) {
  BuildFlow();
  auto result =
      retracer_.Retrace(session_.metadata().adg(), "cell.layout");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->invocations_rerun, 0);
  EXPECT_TRUE(result->regenerated.empty());
}

TEST_F(RetraceTest, SkipsInvocationsWithReclaimedInputs) {
  BuildFlow();
  // Reclaim every version of cell.logic: the whole chain is unrunnable.
  for (int v = 1; v <= session_.database().VersionCount("cell.logic");
       ++v) {
    ASSERT_TRUE(session_.database().Reclaim({"cell.logic", v}).ok());
  }
  auto result =
      retracer_.Retrace(session_.metadata().adg(), "cell.logic");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->invocations_rerun, 0);
  EXPECT_GT(result->invocations_skipped, 0);
}

// --- Session persistence through the storage engine -------------------------

class SessionPersistenceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("papyrus_session_" + std::to_string(::getpid()));
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }
  std::filesystem::path dir_;
};

TEST_F(SessionPersistenceTest, SaveAndReloadFullSession) {
  int p2_point = 0;
  {
    Papyrus session;
    ASSERT_TRUE(session.OpenStorage(dir_.string()).ok());
    int t1 = session.CreateThread("Shifter");
    auto p1 = session.Invoke(t1, "Create_Logic_Description", {},
                             {"s.logic"});
    ASSERT_TRUE(p1.ok());
    auto p2 = session.Invoke(t1, "Standard_Cell_Place_and_Route",
                             {"s.logic"}, {"s.sc"});
    ASSERT_TRUE(p2.ok());
    p2_point = *p2;
    int t2 = session.CreateThread("Arith");
    ASSERT_TRUE(
        session.Invoke(t2, "Create_Logic_Description", {}, {"a.logic"})
            .ok());
    ASSERT_TRUE(session.CommitWal().ok());
  }  // "crash": only the WAL commit is durable

  Papyrus recovered;
  ASSERT_TRUE(recovered.OpenStorage(dir_.string()).ok());
  ASSERT_EQ(recovered.activity().ThreadIds().size(), 2u);
  auto thread = recovered.activity().GetThread(1);
  ASSERT_TRUE(thread.ok());
  EXPECT_EQ((*thread)->name(), "Shifter");
  EXPECT_EQ((*thread)->size(), 2);
  EXPECT_EQ((*thread)->current_cursor(), p2_point);
  // Name resolution works: invoking continues seamlessly.
  auto p3 = recovered.Invoke(1, "Place_Pads", {"s.sc"}, {"s.padded"});
  ASSERT_TRUE(p3.ok()) << p3.status().ToString();
  EXPECT_TRUE(recovered.database().LatestVisible("s.padded").ok());
  // Fresh threads get ids beyond the recovered ones.
  EXPECT_GT(recovered.CreateThread("new"), 2);
}

TEST_F(SessionPersistenceTest, LoadRequiresFreshSession) {
  {
    Papyrus session;
    ASSERT_TRUE(session.OpenStorage(dir_.string()).ok());
    (void)session.CreateThread("T");
    ASSERT_TRUE(session.SaveGeneration().ok());
  }
  Papyrus dirty;
  (void)dirty.CheckInObject("/x", LogicNetwork{});
  EXPECT_TRUE(dirty.OpenStorage(dir_.string()).IsFailedPrecondition());
}

TEST_F(SessionPersistenceTest, LoadFromMissingDirectoryFails) {
  // A directory that is missing and cannot be created (its parent is a
  // regular file) is an error, not a fresh session.
  std::filesystem::create_directories(dir_);
  std::ofstream(dir_ / "file") << "not a directory";
  Papyrus session;
  EXPECT_FALSE(session.OpenStorage((dir_ / "file" / "sub").string()).ok());
}

// --- Progress view -------------------------------------------------------------

TEST(ProgressViewTest, TracksStepStates) {
  Papyrus session;
  auto tmpl = session.templates().Find("Structure_Synthesis");
  ASSERT_TRUE(tmpl.ok());
  task::ProgressView view(**tmpl, &session.templates());

  (void)session.CheckInObject("/spec", oct::BehavioralSpec{8, 8, 12, 3});
  (void)session.CheckInObject("/sim.cmd", oct::TextData{"run"});
  int t = session.CreateThread("T");
  activity::ActivityInvocation inv;
  inv.template_name = "Structure_Synthesis";
  inv.input_refs = {"/spec", "/sim.cmd"};
  inv.output_names = {"out", "stats"};
  inv.observer = &view;
  ASSERT_TRUE(session.activity().InvokeTask(t, inv).ok());

  EXPECT_EQ(view.completed_steps(), 6);
  EXPECT_EQ(view.failed_steps(), 0);
  std::string rendered = view.Render();
  EXPECT_NE(rendered.find("[x] NetlistCompile"), std::string::npos);
  EXPECT_NE(rendered.find("[x] Pads_Placement"), std::string::npos);
  EXPECT_NE(rendered.find("Messages:"), std::string::npos);
  EXPECT_EQ(rendered.find("[ ]"), std::string::npos);  // nothing pending
}

TEST(ProgressViewTest, ShowsFailuresAndRestarts) {
  Papyrus session;
  auto tmpl = session.templates().Find("PLA_Generation");
  ASSERT_TRUE(tmpl.ok());
  task::ProgressView view(**tmpl, &session.templates());
  (void)session.CheckInObject(
      "/cell", LogicNetwork{.num_inputs = 8,
                            .num_outputs = 4,
                            .minterms = 60,
                            .format = oct::DesignFormat::kBlif,
                            .seed = 21});
  int t = session.CreateThread("T");
  activity::ActivityInvocation inv;
  inv.template_name = "PLA_Generation";
  inv.input_refs = {"/cell"};
  inv.output_names = {"lay"};
  inv.observer = &view;
  inv.option_overrides["Array_Layout"] = "-maxarea 1";
  inv.max_restarts = 2;
  auto point = session.activity().InvokeTask(t, inv);
  EXPECT_FALSE(point.ok());
  EXPECT_GE(view.restarts(), 1);
  EXPECT_FALSE(view.messages().empty());
}

TEST(ProgressViewTest, ManPageLookup) {
  Papyrus session;
  std::string page =
      task::ProgressView::ManPage(session.tools(), "espresso");
  EXPECT_NE(page.find("Two-level minimizer"), std::string::npos);
  EXPECT_NE(task::ProgressView::ManPage(session.tools(), "nope")
                .find("no manual entry"),
            std::string::npos);
}

}  // namespace
}  // namespace papyrus
