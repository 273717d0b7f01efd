#include <gtest/gtest.h>

#include "activity/display.h"
#include "core/papyrus.h"

namespace papyrus {
namespace {

using oct::BehavioralSpec;
using oct::Layout;
using oct::LogicNetwork;

TEST(PapyrusSessionTest, ConstructsStandardEnvironment) {
  Papyrus session;
  EXPECT_GE(session.tools().size(), 20u);
  EXPECT_GE(session.templates().size(), 9u);
  EXPECT_GE(session.tsds().size(), 20u);
  EXPECT_EQ(session.network().num_hosts(), 4);
}

TEST(PapyrusSessionTest, OptionsControlEnvironment) {
  SessionOptions opts;
  opts.num_workstations = 8;
  opts.standard_environment = false;
  Papyrus session(opts);
  EXPECT_EQ(session.network().num_hosts(), 8);
  EXPECT_EQ(session.tools().size(), 0u);
  EXPECT_EQ(session.templates().size(), 0u);
}

TEST(PapyrusSessionTest, QuickstartFlow) {
  Papyrus session;
  int thread = session.CreateThread("Shifter");
  auto p1 = session.Invoke(thread, "Create_Logic_Description", {},
                           {"shifter.logic"});
  ASSERT_TRUE(p1.ok()) << p1.status().ToString();
  auto p2 = session.Invoke(thread, "Standard_Cell_Place_and_Route",
                           {"shifter.logic"}, {"shifter.layout"});
  ASSERT_TRUE(p2.ok()) << p2.status().ToString();
  // The output exists and time advanced in the simulated network.
  EXPECT_TRUE(session.database().LatestVisible("shifter.layout").ok());
  EXPECT_GT(session.clock().NowMicros(), 0);
}

TEST(PapyrusSessionTest, MetadataInferenceWiredIn) {
  Papyrus session;
  int thread = session.CreateThread("T");
  ASSERT_TRUE(
      session.Invoke(thread, "Create_Logic_Description", {}, {"c.logic"})
          .ok());
  auto id = session.database().LatestVisible("c.logic");
  ASSERT_TRUE(id.ok());
  // Type inferred from bdsyn's TSD without any user declaration.
  auto type = session.metadata().TypeOf(*id);
  ASSERT_TRUE(type.ok());
  EXPECT_EQ(*type, "logic");
  EXPECT_GT(session.metadata().adg().edge_count(), 0u);
}

TEST(PapyrusSessionTest, MetadataInferenceCanBeDisabled) {
  SessionOptions opts;
  opts.metadata_inference = false;
  Papyrus session(opts);
  int thread = session.CreateThread("T");
  ASSERT_TRUE(
      session.Invoke(thread, "Create_Logic_Description", {}, {"c.logic"})
          .ok());
  EXPECT_EQ(session.metadata().adg().edge_count(), 0u);
}

TEST(PapyrusSessionTest, FilteredTasksLeaveNoHistory) {
  Papyrus session;
  session.reclamation().AddFilteredTask("Logic_Simulation");
  int thread = session.CreateThread("T");
  ASSERT_TRUE(
      session.Invoke(thread, "Create_Logic_Description", {}, {"c.logic"})
          .ok());
  ASSERT_TRUE(
      session.Invoke(thread, "Logic_Simulation", {"c.logic"}, {}).ok());
  auto t = session.activity().GetThread(thread);
  ASSERT_TRUE(t.ok());
  EXPECT_EQ((*t)->size(), 1);  // only the creation task recorded
  EXPECT_EQ(session.activity().records_filtered(), 1);
  // Metadata is derived from the surviving history, so the filtered
  // invocation leaves no ADG edge either.
  bool saw_musa = false;
  for (const auto& [id, edge] : session.metadata().adg().edges()) {
    if (edge.tool == "musa") saw_musa = true;
  }
  EXPECT_FALSE(saw_musa);
}

TEST(PapyrusSessionTest, CheckInAndUseExternalObject) {
  Papyrus session;
  auto id = session.CheckInObject(
      "/user/mary/alu.logic",
      LogicNetwork{.num_inputs = 8, .minterms = 40, .seed = 3});
  ASSERT_TRUE(id.ok());
  EXPECT_FALSE(session.CheckInObject("relative", LogicNetwork{}).ok());
  int thread = session.CreateThread("T");
  auto point = session.Invoke(thread, "Logic_Simulation",
                              {"/user/mary/alu.logic"}, {});
  ASSERT_TRUE(point.ok()) << point.status().ToString();
}

TEST(PapyrusSessionTest, ThreadCacheIntervalFromOptions) {
  SessionOptions opts;
  opts.cache_interval = 3;
  Papyrus session(opts);
  int thread = session.CreateThread("T");
  auto t = session.activity().GetThread(thread);
  ASSERT_TRUE(t.ok());
  EXPECT_EQ((*t)->cache_interval(), 3);
}

TEST(PapyrusSessionTest, EndToEndExplorationWithReclamation) {
  Papyrus session;
  int thread = session.CreateThread("ALU");
  auto p1 =
      session.Invoke(thread, "Create_Logic_Description", {}, {"alu.logic"});
  ASSERT_TRUE(p1.ok());
  auto p2 = session.Invoke(thread, "Standard_Cell_Place_and_Route",
                           {"alu.logic"}, {"alu.sc"});
  ASSERT_TRUE(p2.ok());
  // Explore a PLA alternative from p1, abandon the standard-cell branch.
  ASSERT_TRUE(session.MoveCursor(thread, *p1).ok());
  auto p3 =
      session.Invoke(thread, "PLA_Generation", {"alu.logic"}, {"alu.pla"});
  ASSERT_TRUE(p3.ok()) << p3.status().ToString();

  // Time passes; the standard-cell branch goes dead and is reclaimed.
  session.clock().AdvanceSeconds(1000000);
  ASSERT_TRUE(session.MoveCursor(thread, *p3).ok());
  auto t = session.activity().GetThread(thread);
  ASSERT_TRUE(t.ok());
  auto report = session.reclamation().PruneDeadBranches(
      *t, /*unaccessed=*/500000ll * 1000000ll);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->records_affected, 1);
  EXPECT_GT(report->bytes_reclaimed, 0);
  EXPECT_FALSE(session.database().Get({"alu.sc", 1}).ok());
  EXPECT_TRUE(session.database().LatestVisible("alu.pla").ok());
}

}  // namespace
}  // namespace papyrus
