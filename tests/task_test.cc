#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "base/clock.h"
#include "cache/derivation_cache.h"
#include "cadtools/registry.h"
#include "cadtools/tool.h"
#include "fault/fault_plan.h"
#include "lint/diagnostics.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "oct/database.h"
#include "oct/design_data.h"
#include "sprite/network.h"
#include "storage/cas.h"
#include "task/task_manager.h"
#include "tdl/template.h"

namespace papyrus::task {
namespace {

using oct::BehavioralSpec;
using oct::DesignPayload;
using oct::Layout;
using oct::LogicNetwork;
using oct::ObjectId;
using oct::TextData;

class TaskManagerTest : public ::testing::Test {
 protected:
  TaskManagerTest()
      : clock_(0),
        db_(&clock_),
        network_(&clock_, 4),
        registry_(cadtools::CreateStandardRegistry()),
        manager_(&db_, registry_.get(), &network_, &library_) {
    EXPECT_TRUE(tdl::RegisterThesisTemplates(&library_).ok());
  }

  ObjectId MustCreate(const std::string& name, DesignPayload payload) {
    auto id = db_.CreateVersion(name, std::move(payload));
    EXPECT_TRUE(id.ok());
    return *id;
  }

  ManualClock clock_;
  oct::OctDatabase db_;
  sprite::Network network_;
  std::unique_ptr<cadtools::ToolRegistry> registry_;
  tdl::TemplateLibrary library_;
  TaskManager manager_;
};

TEST_F(TaskManagerTest, SingleStepTaskCommits) {
  ObjectId in = MustCreate("alu", Layout{.num_cells = 5, .area = 900.0});
  TaskInvocation inv;
  inv.template_name = "Padp";
  inv.inputs = {in};
  inv.output_names = {"alu.padded"};
  auto rec = manager_.Invoke(inv);
  ASSERT_TRUE(rec.ok()) << rec.status().ToString();
  EXPECT_EQ(rec->task_name, "Padp");
  ASSERT_EQ(rec->outputs.size(), 1u);
  EXPECT_EQ(rec->outputs[0].name, "alu.padded");
  ASSERT_EQ(rec->steps.size(), 1u);
  EXPECT_EQ(rec->steps[0].tool, "padplace");
  EXPECT_EQ(rec->steps[0].exit_status, 0);
  // The output is visible and padded.
  auto out = db_.Get(rec->outputs[0]);
  ASSERT_TRUE(out.ok());
  EXPECT_TRUE(std::get<Layout>((*out)->payload).has_pads);
  EXPECT_EQ(manager_.tasks_committed(), 1);
}

TEST_F(TaskManagerTest, InvocationValidation) {
  TaskInvocation inv;
  inv.template_name = "NoSuchTask";
  EXPECT_TRUE(manager_.Invoke(inv).status().IsNotFound());

  inv.template_name = "Padp";
  inv.inputs = {};  // needs 1
  inv.output_names = {"x"};
  EXPECT_TRUE(manager_.Invoke(inv).status().IsInvalidArgument());

  ObjectId in = MustCreate("alu", Layout{});
  inv.inputs = {in};
  inv.output_names = {};  // needs 1
  EXPECT_TRUE(manager_.Invoke(inv).status().IsInvalidArgument());
}

TEST_F(TaskManagerTest, MissingInputIsRefusedBeforeAnyStepRuns) {
  TaskInvocation inv;
  inv.template_name = "Padp";
  inv.inputs = {ObjectId{"nothere", 3}};
  inv.output_names = {"nothere.padded"};
  auto rec = manager_.Invoke(inv);
  ASSERT_TRUE(rec.status().IsNotFound()) << rec.status().ToString();
  EXPECT_NE(rec.status().message().find("nothere@3"), std::string::npos)
      << rec.status().ToString();
  EXPECT_EQ(clock_.NowMicros(), 0);
  EXPECT_EQ(manager_.steps_executed(), 0);
}

TEST_F(TaskManagerTest, InvisibleInputIsRefusedBeforeAnyStepRuns) {
  // Erased by rework: the version exists, but no step may read it.
  ObjectId cell = MustCreate("cell", Layout{.num_cells = 5, .area = 900.0});
  ASSERT_TRUE(db_.MarkInvisible(cell).ok());
  TaskInvocation inv;
  inv.template_name = "Padp";
  inv.inputs = {cell};
  inv.output_names = {"cell.padded"};
  auto rec = manager_.Invoke(inv);
  ASSERT_TRUE(rec.status().IsNotFound()) << rec.status().ToString();
  EXPECT_NE(rec.status().message().find("object is not visible: cell@1"),
            std::string::npos)
      << rec.status().ToString();
  EXPECT_EQ(clock_.NowMicros(), 0);
  EXPECT_EQ(manager_.steps_executed(), 0);
}

TEST_F(TaskManagerTest, ReclaimedInputIsRefusedBeforeAnyStepRuns) {
  // Reclamation frees the payload and hides the version; Get reports the
  // latter first, so the refusal reads as the invisible case does.
  ObjectId cell = MustCreate("cell", Layout{.num_cells = 5, .area = 900.0});
  ASSERT_TRUE(db_.Reclaim(cell).ok());
  TaskInvocation inv;
  inv.template_name = "Padp";
  inv.inputs = {cell};
  inv.output_names = {"cell.padded"};
  auto rec = manager_.Invoke(inv);
  ASSERT_TRUE(rec.status().IsNotFound()) << rec.status().ToString();
  EXPECT_NE(rec.status().message().find("object is not visible: cell@1"),
            std::string::npos)
      << rec.status().ToString();
  EXPECT_EQ(clock_.NowMicros(), 0);
  EXPECT_EQ(manager_.steps_executed(), 0);
}

TEST_F(TaskManagerTest, StructureSynthesisFullFlow) {
  ObjectId in = MustCreate("shifter", BehavioralSpec{8, 8, 12, 77});
  ObjectId cmds = MustCreate("sim.cmd", TextData{"run 100"});
  TaskInvocation inv;
  inv.template_name = "Structure_Synthesis";
  inv.inputs = {in, cmds};
  inv.output_names = {"shifter.layout", "shifter.stats"};
  auto rec = manager_.Invoke(inv);
  ASSERT_TRUE(rec.ok()) << rec.status().ToString();
  // Six steps: NetlistCompile, Logic_Synthesis, Pads_Placement (from the
  // Padp subtask), Place_and_Route, Simulate, Chip_Statistics_Collection.
  ASSERT_EQ(rec->steps.size(), 6u);
  std::set<std::string> names;
  for (const StepRecord& s : rec->steps) names.insert(s.step_name);
  EXPECT_TRUE(names.count("NetlistCompile"));
  EXPECT_TRUE(names.count("Logic_Synthesis"));
  EXPECT_TRUE(names.count("Pads_Placement"));  // subtask expanded in-line
  EXPECT_TRUE(names.count("Place_and_Route"));
  EXPECT_TRUE(names.count("Simulate"));
  EXPECT_TRUE(names.count("Chip_Statistics_Collection"));
  // History is ordered by completion time (§3.3.2).
  for (size_t i = 1; i < rec->steps.size(); ++i) {
    EXPECT_LE(rec->steps[i - 1].completion_micros,
              rec->steps[i].completion_micros);
  }
  // Outputs exist; layout is padded (pads placed before place&route in
  // this flow) and stats are text.
  auto layout = db_.Get(rec->outputs[0]);
  ASSERT_TRUE(layout.ok());
  EXPECT_TRUE(std::holds_alternative<Layout>((*layout)->payload));
  auto stats = db_.Get(rec->outputs[1]);
  ASSERT_TRUE(stats.ok());
  EXPECT_TRUE(std::holds_alternative<TextData>((*stats)->payload));
}

TEST_F(TaskManagerTest, IntermediatesAreDiscardedAfterCommit) {
  ObjectId in = MustCreate("shifter", BehavioralSpec{8, 8, 12, 77});
  ObjectId cmds = MustCreate("sim.cmd", TextData{"run"});
  TaskInvocation inv;
  inv.template_name = "Structure_Synthesis";
  inv.inputs = {in, cmds};
  inv.output_names = {"out.layout", "out.stats"};
  auto rec = manager_.Invoke(inv);
  ASSERT_TRUE(rec.ok()) << rec.status().ToString();
  // Every object other than the task inputs/outputs is invisible.
  int visible = 0;
  db_.ForEach([&](const oct::ObjectRecord& r) {
    if (r.visible) ++visible;
  });
  EXPECT_EQ(visible, 4);  // 2 inputs + 2 outputs
  // But the intermediate versions still exist (invisibly) for history.
  EXPECT_GT(db_.TotalVersionCount(), 4);
}

TEST_F(TaskManagerTest, ControlDependencyOrdersSimulateAfterPlaceAndRoute) {
  ObjectId in = MustCreate("shifter", BehavioralSpec{8, 8, 12, 77});
  ObjectId cmds = MustCreate("sim.cmd", TextData{"run"});
  TaskInvocation inv;
  inv.template_name = "Structure_Synthesis";
  inv.inputs = {in, cmds};
  inv.output_names = {"o1", "o2"};
  auto rec = manager_.Invoke(inv);
  ASSERT_TRUE(rec.ok());
  int64_t pr_completion = -1;
  int64_t sim_dispatch = -1;
  for (const StepRecord& s : rec->steps) {
    if (s.step_name == "Place_and_Route") pr_completion = s.completion_micros;
    if (s.step_name == "Simulate") sim_dispatch = s.dispatch_micros;
  }
  ASSERT_GE(pr_completion, 0);
  ASSERT_GE(sim_dispatch, 0);
  // Simulate is control-dependent on Place_and_Route: it may not start
  // before P&R completes, even though there is no data dependency.
  EXPECT_GE(sim_dispatch, pr_completion);
}

TEST_F(TaskManagerTest, ParallelStepsOverlapAcrossWorkstations) {
  ASSERT_TRUE(library_
                  .Add("task Fanout {In} {O1 O2 O3}\n"
                       "step A {In} {O1} {espresso In}\n"
                       "step B {In} {O2} {espresso In}\n"
                       "step C {In} {O3} {espresso In}\n")
                  .ok());
  ObjectId in = MustCreate("cell", LogicNetwork{.minterms = 500,
                                                .literals = 900,
                                                .seed = 9});
  TaskInvocation inv;
  inv.template_name = "Fanout";
  inv.inputs = {in};
  inv.output_names = {"a", "b", "c"};
  auto rec = manager_.Invoke(inv);
  ASSERT_TRUE(rec.ok()) << rec.status().ToString();
  // The three steps were dispatched to distinct hosts and their execution
  // intervals overlap.
  std::set<sprite::HostId> hosts;
  for (const StepRecord& s : rec->steps) hosts.insert(s.host);
  EXPECT_EQ(hosts.size(), 3u);
  int64_t min_completion = rec->steps[0].completion_micros;
  int64_t max_dispatch = 0;
  for (const StepRecord& s : rec->steps) {
    min_completion = std::min(min_completion, s.completion_micros);
    max_dispatch = std::max(max_dispatch, s.dispatch_micros);
  }
  EXPECT_LT(max_dispatch, min_completion);  // out-of-order issue overlap
}

TEST_F(TaskManagerTest, NonMigratableStepRunsOnHomeHost) {
  TaskInvocation inv;
  inv.template_name = "Create_Logic_Description";
  inv.inputs = {};
  inv.output_names = {"shifter.logic"};
  auto rec = manager_.Invoke(inv);
  ASSERT_TRUE(rec.ok()) << rec.status().ToString();
  ASSERT_EQ(rec->steps.size(), 2u);
  for (const StepRecord& s : rec->steps) {
    if (s.step_name == "Enter_Logic") {
      EXPECT_EQ(s.host, network_.home_host());
    }
  }
  auto out = db_.Get(rec->outputs[0]);
  ASSERT_TRUE(out.ok());
  EXPECT_TRUE(std::holds_alternative<LogicNetwork>((*out)->payload));
}

TEST_F(TaskManagerTest, OptionOverridesReachTheTool) {
  ObjectId in = MustCreate("cell", LogicNetwork{.minterms = 100, .seed = 3});
  TaskInvocation inv;
  inv.template_name = "PLA_Generation";
  inv.inputs = {in};
  inv.output_names = {"cell.layout"};
  // Force espresso to emit equation format: pleasure then rejects it.
  inv.option_overrides["Two_Level_Minimization"] = "-o equitott cell";
  auto rec = manager_.Invoke(inv);
  EXPECT_FALSE(rec.ok());
  EXPECT_TRUE(rec.status().IsAborted());
}

// --- Programmable abort semantics (Figures 3.4, 3.7, 4.3) ----------------

/// Observer that changes a step's options on each restart — the thesis'
/// "try different parameters after restart" workflow.
class RetryObserver : public TaskObserver {
 public:
  RetryObserver(std::string step, std::string options_pattern)
      : step_(std::move(step)), pattern_(std::move(options_pattern)) {}

  void OnStepReady(const std::string& step_name, int restart_count,
                   std::string* options) override {
    if (step_name == step_ && restart_count > 0) {
      std::string opts = pattern_;
      size_t pos = opts.find("%d");
      if (pos != std::string::npos) {
        opts.replace(pos, 2, std::to_string(restart_count));
      }
      *options = opts;
    }
  }
  void OnTaskRestarted(const std::string&, int resumed) override {
    restarts_.push_back(resumed);
  }

  std::vector<int> restarts_;

 private:
  std::string step_;
  std::string pattern_;
};

TEST_F(TaskManagerTest, PlaGenerationRestartPreservesEspressoWork) {
  ObjectId in = MustCreate(
      "cell", LogicNetwork{.num_inputs = 8,
                           .num_outputs = 4,
                           .minterms = 60,
                           .literals = 120,
                           .format = oct::DesignFormat::kBlif,
                           .seed = 21});
  // First dispatch of Array_Layout gets an impossible area constraint; on
  // restart the observer drops it.
  class PandaObserver : public TaskObserver {
   public:
    void OnStepReady(const std::string& step, int restart_count,
                     std::string* options) override {
      if (step == "Array_Layout") {
        *options = restart_count == 0 ? "-maxarea 1" : "";
      }
      if (step == "Two_Level_Minimization") ++espresso_runs_;
      if (step == "Pla_Folding") ++folding_runs_;
    }
    int espresso_runs_ = 0;
    int folding_runs_ = 0;
  } observer;

  TaskInvocation inv;
  inv.template_name = "PLA_Generation";
  inv.inputs = {in};
  inv.output_names = {"cell.layout"};
  auto rec = manager_.Invoke(inv, &observer);
  ASSERT_TRUE(rec.ok()) << rec.status().ToString();
  EXPECT_EQ(rec->restarts, 1);
  // Espresso ran once (its work was preserved across the restart);
  // folding was re-executed (§3.3.3 Figure 3.7 dotted line).
  EXPECT_EQ(observer.espresso_runs_, 1);
  EXPECT_EQ(observer.folding_runs_, 2);
  // The final history contains each step exactly once.
  ASSERT_EQ(rec->steps.size(), 3u);
  std::set<std::string> names;
  for (const StepRecord& s : rec->steps) names.insert(s.step_name);
  EXPECT_EQ(names.size(), 3u);
}

TEST_F(TaskManagerTest, RestartLimitAbortsAndCleansUp) {
  ObjectId in = MustCreate("cell",
                           LogicNetwork{.num_inputs = 8,
                                        .num_outputs = 4,
                                        .minterms = 60,
                                        .format = oct::DesignFormat::kBlif,
                                        .seed = 21});
  TaskInvocation inv;
  inv.template_name = "PLA_Generation";
  inv.inputs = {in};
  inv.output_names = {"cell.layout"};
  // Impossible constraint with no observer relief: restarts until the cap.
  inv.option_overrides["Array_Layout"] = "-maxarea 1";
  inv.max_restarts = 3;
  auto rec = manager_.Invoke(inv);
  ASSERT_FALSE(rec.ok());
  EXPECT_TRUE(rec.status().IsAborted());
  // All side effects removed: only the input remains visible.
  int visible = 0;
  db_.ForEach([&](const oct::ObjectRecord& r) {
    if (r.visible) ++visible;
  });
  EXPECT_EQ(visible, 1);
  EXPECT_EQ(manager_.tasks_aborted(), 1);
}

TEST_F(TaskManagerTest, MacroPlaceAndRouteResumesAfterPlacement) {
  // Detailed routing has a wire budget; the observer raises the global
  // router's effort on each restart, changing the wire length until it
  // fits (Figure 3.4: rework global routing, keep floorplan+placement).
  class Fig34Observer : public TaskObserver {
   public:
    void OnStepReady(const std::string& step, int restart_count,
                     std::string* options) override {
      ++runs_[step];
      if (step == "Global_Routing" && restart_count > 0) {
        *options = "-e effort" + std::to_string(restart_count);
      }
      if (step == "Detailed_Routing") {
        *options = "-d -maxwire 5200";
      }
    }
    std::map<std::string, int> runs_;
  };

  // Sweep input seeds until one makes the first global route exceed the
  // wire budget (failure injection is deterministic per seed).
  for (uint64_t seed = 1; seed < 40; ++seed) {
    Fig34Observer observer;
    ObjectId in = MustCreate("chip" + std::to_string(seed),
                             Layout{.num_cells = 50,
                                    .area = 30000.0,
                                    .style = "macro",
                                    .seed = seed});
    TaskInvocation inv;
    inv.template_name = "Macro_Place_and_Route";
    inv.inputs = {in};
    inv.output_names = {"chip.routed" + std::to_string(seed)};
    inv.max_restarts = 16;
    auto rec = manager_.Invoke(inv, &observer);
    if (!rec.ok() || rec->restarts == 0) continue;
    // Floor planning and placement ran exactly once: their work was
    // preserved across every restart.
    EXPECT_EQ(observer.runs_["Floor_Planning"], 1);
    EXPECT_EQ(observer.runs_["Placement"], 1);
    EXPECT_GT(observer.runs_["Global_Routing"], 1);
    return;
  }
  FAIL() << "no seed triggered a detailed-routing failure";
}

TEST_F(TaskManagerTest, MosaicoCompactionFallback) {
  // Sweep input seeds until we see both behaviours: horizontal-first
  // succeeding (no Vertical_Compaction step) and horizontal failing with
  // vertical succeeding (fallback taken via $status).
  bool saw_direct = false;
  bool saw_fallback = false;
  for (uint64_t seed = 0; seed < 40 && !(saw_direct && saw_fallback);
       ++seed) {
    ObjectId in = MustCreate(
        "chip" + std::to_string(seed),
        Layout{.num_cells = 30, .area = 20000.0, .style = "macro",
               .seed = seed});
    TaskInvocation inv;
    inv.template_name = "Mosaico";
    inv.inputs = {in};
    inv.output_names = {"out" + std::to_string(seed),
                        "stats" + std::to_string(seed)};
    inv.max_restarts = 0;  // don't retry both-fail seeds here
    auto rec = manager_.Invoke(inv);
    if (!rec.ok()) continue;  // both compactions failed for this seed
    bool has_vertical = false;
    bool has_horizontal = false;
    for (const StepRecord& s : rec->steps) {
      if (s.step_name == "Vertical_Compaction") has_vertical = true;
      if (s.step_name == "Horizontal_Compaction" && s.exit_status == 0) {
        has_horizontal = true;
      }
    }
    if (has_horizontal && !has_vertical) saw_direct = true;
    if (has_vertical) {
      saw_fallback = true;
      // The failed horizontal attempt stays in the history trace.
      bool failed_horizontal = false;
      for (const StepRecord& s : rec->steps) {
        if (s.step_name == "Horizontal_Compaction" && s.exit_status != 0) {
          failed_horizontal = true;
        }
      }
      EXPECT_TRUE(failed_horizontal);
    }
  }
  EXPECT_TRUE(saw_direct);
  EXPECT_TRUE(saw_fallback);
}

TEST_F(TaskManagerTest, MosaicoBothFailRestartsFromPowerGround) {
  // Find a seed where both compaction directions fail, then recover by
  // retrying channel routing with a different router (per §4.2.3: after
  // restart users try different parameters for the following steps).
  for (uint64_t seed = 0; seed < 200; ++seed) {
    ObjectId in = MustCreate(
        "chip" + std::to_string(seed),
        Layout{.num_cells = 30, .area = 20000.0, .style = "macro",
               .seed = seed});
    TaskInvocation probe;
    probe.template_name = "Mosaico";
    probe.inputs = {in};
    probe.output_names = {"p.out" + std::to_string(seed),
                          "p.stats" + std::to_string(seed)};
    probe.max_restarts = 0;
    if (manager_.Invoke(probe).ok()) continue;  // not a both-fail seed

    RetryObserver observer("Channel_Routing", "-d -r YACR%d");
    TaskInvocation inv = probe;
    inv.output_names = {"r.out", "r.stats"};
    inv.max_restarts = 8;
    auto rec = manager_.Invoke(inv, &observer);
    ASSERT_TRUE(rec.ok()) << rec.status().ToString();
    EXPECT_GE(rec->restarts, 1);
    // Channel definition and global routing were not re-executed: every
    // restart resumed after Power/Ground current calculation.
    int channel_defs = 0;
    for (const StepRecord& s : rec->steps) {
      if (s.step_name == "Channel_Definition") ++channel_defs;
    }
    EXPECT_EQ(channel_defs, 1);
    return;
  }
  FAIL() << "no both-fail seed found in 200 tries";
}

TEST_F(TaskManagerTest, AbortCommandRemovesAllSideEffects) {
  ASSERT_TRUE(library_
                  .Add("task Doomed {In} {Out}\n"
                       "step A {In} {tmp} {espresso In}\n"
                       "abort\n"
                       "step B {tmp} {Out} {pleasure tmp}\n")
                  .ok());
  ObjectId in = MustCreate("cell", LogicNetwork{.minterms = 10});
  TaskInvocation inv;
  inv.template_name = "Doomed";
  inv.inputs = {in};
  inv.output_names = {"never"};
  auto rec = manager_.Invoke(inv);
  ASSERT_FALSE(rec.ok());
  EXPECT_TRUE(rec.status().IsAborted());
  int visible = 0;
  db_.ForEach([&](const oct::ObjectRecord& r) {
    if (r.visible) ++visible;
  });
  EXPECT_EQ(visible, 1);  // only the input
}

TEST_F(TaskManagerTest, StatusVariableDrivesConditionalFlow) {
  ASSERT_TRUE(library_
                  .Add("task Cond {In} {Out}\n"
                       "step Try {In} {Out} {panda -maxarea 1 In}\n"
                       "if {$status} {step Fallback {In} {Out} {panda In}}\n")
                  .ok());
  ObjectId in = MustCreate("cell",
                           LogicNetwork{.num_inputs = 4,
                                        .num_outputs = 2,
                                        .minterms = 20,
                                        .format = oct::DesignFormat::kPla,
                                        .seed = 2});
  TaskInvocation inv;
  inv.template_name = "Cond";
  inv.inputs = {in};
  inv.output_names = {"lay"};
  auto rec = manager_.Invoke(inv);
  ASSERT_TRUE(rec.ok()) << rec.status().ToString();
  ASSERT_EQ(rec->steps.size(), 2u);
  EXPECT_NE(rec->steps[0].exit_status, 0);
  EXPECT_EQ(rec->steps[1].step_name, "Fallback");
  EXPECT_EQ(rec->steps[1].exit_status, 0);
}

TEST_F(TaskManagerTest, AttributeCommandBranchesOnObjectProperties) {
  // §4.2.2: design flow decisions based on a design object's attributes.
  ASSERT_TRUE(
      library_
          .Add("task AttrFlow {In} {Out}\n"
               "if {[attribute In minterms] > 50} {\n"
               "  step Minimize {In} {Out} {espresso -o pleasure In}\n"
               "} else {\n"
               "  step Passthrough {In} {Out} {espresso -o equitott In}\n"
               "}\n")
          .ok());
  ObjectId big = MustCreate("big", LogicNetwork{.minterms = 100, .seed = 1});
  TaskInvocation inv;
  inv.template_name = "AttrFlow";
  inv.inputs = {big};
  inv.output_names = {"big.out"};
  auto rec = manager_.Invoke(inv);
  ASSERT_TRUE(rec.ok()) << rec.status().ToString();
  EXPECT_EQ(rec->steps[0].step_name, "Minimize");

  ObjectId small = MustCreate("small",
                              LogicNetwork{.minterms = 10, .seed = 1});
  inv.inputs = {small};
  inv.output_names = {"small.out"};
  rec = manager_.Invoke(inv);
  ASSERT_TRUE(rec.ok()) << rec.status().ToString();
  EXPECT_EQ(rec->steps[0].step_name, "Passthrough");
}

TEST_F(TaskManagerTest, AttributeValuesAreCachedInTheStore) {
  ASSERT_TRUE(library_
                  .Add("task A {In} {}\n"
                       "if {[attribute In minterms] > 0} {}\n")
                  .ok());
  ObjectId in = MustCreate("c", LogicNetwork{.minterms = 42});
  oct::AttributeStore store;
  TaskInvocation inv;
  inv.template_name = "A";
  inv.inputs = {in};
  inv.attribute_store = &store;
  ASSERT_TRUE(manager_.Invoke(inv).ok());
  auto cached = store.GetValue(in, "minterms");
  ASSERT_TRUE(cached.ok());
  EXPECT_EQ(*cached, "42");
  auto entry = store.Get(in, "minterms");
  ASSERT_TRUE(entry.ok());
  EXPECT_EQ(entry->compute_tool, "espresso");
}

TEST_F(TaskManagerTest, UnknownToolAbortsTask) {
  ASSERT_TRUE(library_
                  .Add("task Bad {In} {Out}\n"
                       "step S {In} {Out} {no_such_tool In}\n")
                  .ok());
  ObjectId in = MustCreate("c", LogicNetwork{});
  TaskInvocation inv;
  inv.template_name = "Bad";
  inv.inputs = {in};
  inv.output_names = {"o"};
  auto rec = manager_.Invoke(inv);
  EXPECT_FALSE(rec.ok());
}

TEST_F(TaskManagerTest, UnsatisfiableDependencyAborts) {
  ASSERT_TRUE(library_
                  .Add("task Stuck {In} {Out}\n"
                       "step S {ghost} {Out} {espresso ghost}\n")
                  .ok());
  ObjectId in = MustCreate("c", LogicNetwork{});
  TaskInvocation inv;
  inv.template_name = "Stuck";
  inv.inputs = {in};
  inv.output_names = {"o"};
  // Pre-flight lint already refuses this template (undefined-input);
  // override it so the scheduler's own unsatisfiable-dependency abort
  // path stays exercised.
  inv.override_lint = true;
  auto rec = manager_.Invoke(inv);
  ASSERT_FALSE(rec.ok());
  EXPECT_TRUE(rec.status().IsAborted());
  EXPECT_NE(rec.status().message().find("unsatisfiable"),
            std::string::npos);
}

TEST_F(TaskManagerTest, PreflightLintRefusesBrokenTemplateByDefault) {
  ASSERT_TRUE(library_
                  .Add("task Stuck2 {In} {Out}\n"
                       "step S {ghost} {Out} {espresso ghost}\n")
                  .ok());
  ObjectId in = MustCreate("c2", LogicNetwork{});
  TaskInvocation inv;
  inv.template_name = "Stuck2";
  inv.inputs = {in};
  inv.output_names = {"o2"};
  auto rec = manager_.Invoke(inv);
  ASSERT_FALSE(rec.ok());
  EXPECT_TRUE(rec.status().IsFailedPrecondition())
      << rec.status().ToString();
  EXPECT_NE(rec.status().message().find("undefined-input"),
            std::string::npos)
      << rec.status().message();
  // Refusal happens before any step or side effect.
  EXPECT_EQ(manager_.steps_executed(), 0);
}

// --- template plans: one parse and one lint per template version --------

/// Records the rule of every pre-flight finding an invocation reports.
class LintRules : public TaskObserver {
 public:
  void OnLintDiagnostic(const lint::Diagnostic& d) override {
    rules.push_back(d.rule);
  }
  std::vector<std::string> rules;
};

TEST_F(TaskManagerTest, TemplatePlanLintsOncePerTemplateVersion) {
  // Step B's output is never used: a dead-step warning, not a refusal.
  ASSERT_TRUE(library_
                  .Add("task Warned {In} {Out}\n"
                       "step A {In} {Out} {espresso In}\n"
                       "step B {In} {spare} {espresso In}\n")
                  .ok());
  auto invoke = [&](int k, LintRules* seen) {
    TaskInvocation inv;
    inv.template_name = "Warned";
    inv.inputs = {MustCreate("w" + std::to_string(k),
                             LogicNetwork{.minterms = 16 + k})};
    inv.output_names = {"w" + std::to_string(k) + ".min"};
    return manager_.Invoke(inv, seen);
  };
  for (int k = 0; k < 4; ++k) {
    LintRules seen;
    auto rec = invoke(k, &seen);
    ASSERT_TRUE(rec.ok()) << rec.status().ToString();
    // Every invocation still hears the stored findings.
    EXPECT_EQ(seen.rules, std::vector<std::string>{lint::rules::kDeadStep})
        << "invocation " << k;
  }
  EXPECT_EQ(manager_.templates_linted(), 1);

  // New text under the same name is a new version: linted once more.
  ASSERT_TRUE(library_
                  .Add("task Warned {In} {Out}\n"
                       "step A {In} {Out} {espresso In}\n")
                  .ok());
  for (int k = 4; k < 6; ++k) {
    LintRules seen;
    ASSERT_TRUE(invoke(k, &seen).ok());
    EXPECT_TRUE(seen.rules.empty());
  }
  EXPECT_EQ(manager_.templates_linted(), 2);
}

TEST_F(TaskManagerTest, TemplatePlanRelintsWhenAToolIsRegistered) {
  ASSERT_TRUE(library_
                  .Add("task Fresh {In} {Out}\n"
                       "step S {In} {Out} {newtool -o Out In}\n")
                  .ok());
  TaskInvocation inv;
  inv.template_name = "Fresh";
  inv.inputs = {MustCreate("f", LogicNetwork{.minterms = 8})};
  inv.output_names = {"f.out"};
  for (int k = 0; k < 2; ++k) {
    auto rec = manager_.Invoke(inv);
    ASSERT_TRUE(rec.status().IsFailedPrecondition())
        << rec.status().ToString();
    EXPECT_NE(rec.status().message().find(lint::rules::kUnknownTool),
              std::string::npos);
  }
  EXPECT_EQ(manager_.templates_linted(), 1);

  cadtools::ToolDescriptor d;
  d.name = "newtool";
  d.man_page = "x";
  registry_->Register(std::make_unique<cadtools::Tool>(
      d, [](const cadtools::ToolRunContext& ctx) {
        cadtools::ToolRunResult r;
        r.outputs.push_back(*ctx.inputs[0]);
        return r;
      }));
  auto rec = manager_.Invoke(inv);
  ASSERT_TRUE(rec.ok()) << rec.status().ToString();
  EXPECT_EQ(manager_.templates_linted(), 2);
}

TEST_F(TaskManagerTest, TemplatePlanFollowsSubtaskLibraryChanges) {
  ASSERT_TRUE(library_
                  .Add("task Outer3 {P} {Q}\n"
                       "subtask Inner3 {P} {Q}\n")
                  .ok());
  TaskInvocation inv;
  inv.template_name = "Outer3";
  inv.inputs = {MustCreate("s", LogicNetwork{.minterms = 32})};
  inv.output_names = {"s.min"};
  LintRules missing;
  auto refused = manager_.Invoke(inv, &missing);
  ASSERT_TRUE(refused.status().IsFailedPrecondition());
  const std::vector<std::string> unresolved = {
      lint::rules::kUnproducedOutput, lint::rules::kUnresolvedSubtask};
  EXPECT_EQ(missing.rules, unresolved);
  EXPECT_EQ(manager_.templates_linted(), 1);

  // Adding the subtask template moves the library: the findings follow.
  ASSERT_TRUE(library_
                  .Add("task Inner3 {A} {B}\n"
                       "step I {A} {B} {espresso A}\n")
                  .ok());
  for (int k = 0; k < 2; ++k) {
    LintRules seen;
    auto rec = manager_.Invoke(inv, &seen);
    ASSERT_TRUE(rec.ok()) << rec.status().ToString();
    EXPECT_TRUE(seen.rules.empty());
    ASSERT_EQ(rec->steps.size(), 1u);
    EXPECT_EQ(rec->steps[0].step_name, "I");
  }
  EXPECT_EQ(manager_.templates_linted(), 2);
  // Expanding Inner3 as a subtask parsed it but did not lint it: its own
  // first invocation as a task is its first lint.
  TaskInvocation inner = inv;
  inner.template_name = "Inner3";
  inner.output_names = {"s.inner"};
  ASSERT_TRUE(manager_.Invoke(inner).ok());
  EXPECT_EQ(manager_.templates_linted(), 3);

  ASSERT_TRUE(library_.Remove("Inner3"));
  LintRules removed;
  refused = manager_.Invoke(inv, &removed);
  ASSERT_TRUE(refused.status().IsFailedPrecondition());
  EXPECT_EQ(removed.rules, unresolved);
  EXPECT_EQ(manager_.templates_linted(), 4);
}

TEST_F(TaskManagerTest, TemplatePlanRefusesAnErroneousTemplateEveryTime) {
  ASSERT_TRUE(library_
                  .Add("task Stuck3 {In} {Out}\n"
                       "step S {ghost} {Out} {espresso ghost}\n")
                  .ok());
  TaskInvocation inv;
  inv.template_name = "Stuck3";
  inv.inputs = {MustCreate("g", LogicNetwork{})};
  inv.output_names = {"g.out"};
  LintRules first;
  ASSERT_TRUE(manager_.Invoke(inv, &first).status().IsFailedPrecondition());
  ASSERT_FALSE(first.rules.empty());
  for (int k = 0; k < 2; ++k) {
    LintRules seen;
    auto rec = manager_.Invoke(inv, &seen);
    EXPECT_TRUE(rec.status().IsFailedPrecondition());
    EXPECT_EQ(seen.rules, first.rules);
  }
  // The override still runs it (into the scheduler's own abort) and
  // still reports the findings.
  inv.override_lint = true;
  LintRules overridden;
  auto rec = manager_.Invoke(inv, &overridden);
  ASSERT_FALSE(rec.ok());
  EXPECT_TRUE(rec.status().IsAborted()) << rec.status().ToString();
  EXPECT_EQ(overridden.rules, first.rules);
  EXPECT_EQ(manager_.templates_linted(), 1);
  EXPECT_EQ(manager_.steps_executed(), 0);
}

TEST_F(TaskManagerTest, FailedStepWithoutHandlerAbortsAtCommit) {
  ASSERT_TRUE(library_
                  .Add("task F {In} {}\n"
                       "step Check {In} {} {mosaicoRC In}\n")
                  .ok());
  // Unrouted layout: mosaicoRC fails; nothing handles it.
  ObjectId in = MustCreate("c", Layout{.routed = false});
  TaskInvocation inv;
  inv.template_name = "F";
  inv.inputs = {in};
  auto rec = manager_.Invoke(inv);
  ASSERT_FALSE(rec.ok());
  EXPECT_NE(rec.status().message().find("not fully routed"),
            std::string::npos);
}

TEST_F(TaskManagerTest, NestedSubtasksExpandInline) {
  ASSERT_TRUE(library_
                  .Add("task Inner {A} {B}\n"
                       "step I1 {A} {B} {espresso A}\n")
                  .ok());
  ASSERT_TRUE(library_
                  .Add("task Middle {X} {Y}\n"
                       "subtask Inner {X} {mid}\n"
                       "step M1 {mid} {Y} {espresso mid}\n")
                  .ok());
  ASSERT_TRUE(library_
                  .Add("task Outer {P} {Q}\n"
                       "subtask Middle {P} {out}\n"
                       "step O1 {out} {Q} {espresso out}\n")
                  .ok());
  ObjectId in = MustCreate("c", LogicNetwork{.minterms = 64, .seed = 5});
  TaskInvocation inv;
  inv.template_name = "Outer";
  inv.inputs = {in};
  inv.output_names = {"c.min"};
  auto rec = manager_.Invoke(inv);
  ASSERT_TRUE(rec.ok()) << rec.status().ToString();
  ASSERT_EQ(rec->steps.size(), 3u);
  std::set<std::string> names;
  for (const StepRecord& s : rec->steps) names.insert(s.step_name);
  EXPECT_TRUE(names.count("I1"));
  EXPECT_TRUE(names.count("M1"));
  EXPECT_TRUE(names.count("O1"));
}

TEST_F(TaskManagerTest, SubtaskArityMismatchAbortsContainingTask) {
  ASSERT_TRUE(library_.Add("task Inner {A B} {C}\nstep S {A} {C} "
                           "{espresso A}\n")
                  .ok());
  ASSERT_TRUE(library_
                  .Add("task Outer {P} {Q}\n"
                       "subtask Inner {P} {Q}\n")  // Inner wants 2 inputs
                  .ok());
  ObjectId in = MustCreate("c", LogicNetwork{});
  TaskInvocation inv;
  inv.template_name = "Outer";
  inv.inputs = {in};
  inv.output_names = {"q"};
  // The linter catches this statically (subtask-arity); override so the
  // interpreter's own run-time arity abort stays exercised.
  inv.override_lint = true;
  auto rec = manager_.Invoke(inv);
  ASSERT_FALSE(rec.ok());
  EXPECT_TRUE(rec.status().IsInvalidArgument());
}

TEST_F(TaskManagerTest, InvokeManyRunsTasksConcurrently) {
  std::vector<TaskInvocation> invocations;
  for (int i = 0; i < 3; ++i) {
    ObjectId in = MustCreate("cell" + std::to_string(i),
                             Layout{.num_cells = 10,
                                    .area = 1000.0 + i,
                                    .seed = static_cast<uint64_t>(i)});
    TaskInvocation inv;
    inv.template_name = "Padp";
    inv.inputs = {in};
    inv.output_names = {"out" + std::to_string(i)};
    invocations.push_back(inv);
  }
  auto results = manager_.InvokeMany(invocations);
  ASSERT_EQ(results.size(), 3u);
  for (auto& r : results) {
    ASSERT_TRUE(r.ok()) << r.status().ToString();
  }
  // Three padplace runs overlapped: the tasks used different hosts.
  std::set<sprite::HostId> hosts;
  for (auto& r : results) hosts.insert(r->steps[0].host);
  EXPECT_GT(hosts.size(), 1u);
  EXPECT_EQ(manager_.tasks_committed(), 3);
}

TEST_F(TaskManagerTest, RemigrationMovesStuckProcesses) {
  // All remote hosts are owner-active at dispatch, so steps start on the
  // home node; owners leave mid-run and re-migration picks the work up.
  for (sprite::HostId h = 1; h < 4; ++h) {
    ASSERT_TRUE(network_.SetOwnerActive(h, true).ok());
    ASSERT_TRUE(network_.ScheduleOwnerEvent(h, 50000, false).ok());
  }
  ASSERT_TRUE(library_
                  .Add("task Wide {In} {O1 O2 O3 O4}\n"
                       "step A {In} {O1} {wolfe In}\n"
                       "step B {In} {O2} {wolfe In}\n"
                       "step C {In} {O3} {wolfe In}\n"
                       "step D {In} {O4} {wolfe In}\n")
                  .ok());
  ObjectId in = MustCreate("cell", LogicNetwork{.literals = 2000,
                                                .levels = 6,
                                                .seed = 8});
  TaskInvocation inv;
  inv.template_name = "Wide";
  inv.inputs = {in};
  inv.output_names = {"a", "b", "c", "d"};
  auto rec = manager_.Invoke(inv);
  ASSERT_TRUE(rec.ok()) << rec.status().ToString();
  EXPECT_GT(manager_.remigrations(), 0);
}

TEST_F(TaskManagerTest, HistoryRecordsActualInvocationStrings) {
  ObjectId in = MustCreate("alu", Layout{.num_cells = 5, .area = 900.0});
  TaskInvocation inv;
  inv.template_name = "Padp";
  inv.inputs = {in};
  inv.output_names = {"alu.padded"};
  auto rec = manager_.Invoke(inv);
  ASSERT_TRUE(rec.ok());
  // Formal names in the template's invocation line were replaced by the
  // actual object names.
  EXPECT_NE(rec->steps[0].invocation.find("alu.padded"),
            std::string::npos);
  EXPECT_NE(rec->steps[0].invocation.find("padplace"), std::string::npos);
  EXPECT_EQ(rec->steps[0].invocation.find("Outcell"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Parallel-executor determinism (task/step_executor.h)

/// Every field of a step record, rendered into one line. Any divergence
/// between worker-pool sizes — ordering, timestamps, hosts, payload-derived
/// output versions — shows up as a string mismatch.
std::string SerializeStep(const StepRecord& s) {
  std::ostringstream out;
  out << s.internal_id << '|' << s.step_name << '|' << s.tool << '|'
      << s.invocation << '|';
  for (const ObjectId& id : s.inputs) out << id.ToString() << ',';
  out << '|';
  for (const ObjectId& id : s.outputs) out << id.ToString() << ',';
  out << '|' << s.dispatch_micros << '|' << s.completion_micros << '|'
      << s.host << '|' << s.exit_status << '|' << s.message << '|'
      << s.cache_hit;
  return out.str();
}

std::string SerializeHistory(const TaskHistoryRecord& rec) {
  std::ostringstream out;
  out << rec.task_name << '|';
  for (const ObjectId& id : rec.inputs) out << id.ToString() << ',';
  out << '|';
  for (const ObjectId& id : rec.outputs) out << id.ToString() << ',';
  out << '|' << rec.invoke_micros << '|' << rec.commit_micros << '|'
      << rec.restarts << '|' << rec.steps_lost << '|' << rec.steps_retried
      << '|' << rec.backoff_micros_total << '|' << rec.steps_elided << '\n';
  for (const StepRecord& s : rec.steps) out << "  " << SerializeStep(s)
                                            << '\n';
  return out.str();
}

/// Runs a fixed multi-task workload (two 6-step Structure_Synthesis flows
/// plus two Padp tasks, interleaved by InvokeMany across 4 hosts) on a
/// fresh stack with `workers` executor threads, and renders everything the
/// task manager produced.
std::string RunSeededWorkload(int workers) {
  ManualClock clock(0);
  oct::OctDatabase db(&clock);
  sprite::Network network(&clock, 4);
  auto registry = cadtools::CreateStandardRegistry();
  tdl::TemplateLibrary library;
  EXPECT_TRUE(tdl::RegisterThesisTemplates(&library).ok());
  TaskManager manager(&db, registry.get(), &network, &library);
  manager.set_worker_threads(workers);

  std::vector<TaskInvocation> invocations;
  for (int i = 0; i < 2; ++i) {
    auto spec = db.CreateVersion("spec" + std::to_string(i),
                                 BehavioralSpec{8, 8, 12, 70u + i});
    auto cmds = db.CreateVersion("cmd" + std::to_string(i),
                                 TextData{"run 100"});
    EXPECT_TRUE(spec.ok() && cmds.ok());
    TaskInvocation inv;
    inv.template_name = "Structure_Synthesis";
    inv.inputs = {*spec, *cmds};
    inv.output_names = {"layout" + std::to_string(i),
                        "stats" + std::to_string(i)};
    inv.seed = 42 + i;
    invocations.push_back(inv);
  }
  for (int i = 0; i < 2; ++i) {
    auto in = db.CreateVersion(
        "cell" + std::to_string(i),
        Layout{.num_cells = 10 + i,
               .area = 900.0 + i,
               .seed = static_cast<uint64_t>(i)});
    EXPECT_TRUE(in.ok());
    TaskInvocation inv;
    inv.template_name = "Padp";
    inv.inputs = {*in};
    inv.output_names = {"cell" + std::to_string(i) + ".padded"};
    inv.seed = 7 + i;
    invocations.push_back(inv);
  }

  auto results = manager.InvokeMany(invocations);
  EXPECT_EQ(results.size(), invocations.size());
  std::ostringstream out;
  for (auto& r : results) {
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    if (r.ok()) out << SerializeHistory(*r);
  }
  // Database end state: every surviving version with its payload bytes.
  db.ForEach([&](const oct::ObjectRecord& rec) {
    if (rec.reclaimed) return;
    out << rec.id.ToString() << '|' << rec.visible << '|'
        << rec.size_bytes << '|' << oct::PayloadToString(rec.payload)
        << '\n';
  });
  out << "committed=" << manager.tasks_committed()
      << " executed=" << manager.steps_executed()
      << " violations=" << manager.flow_violations() << '\n';
  EXPECT_EQ(manager.flow_violations(), 0);
  return out.str();
}

TEST(ParallelDeterminismTest, HistoriesAreIdenticalAtAnyWorkerCount) {
  // The worker pool only changes *where* tool payloads burn CPU; every
  // observable — step order, timestamps, hosts, versions, payloads — is
  // decided by the virtual-time schedule and must not move.
  std::string serial = RunSeededWorkload(1);
  ASSERT_FALSE(serial.empty());
  EXPECT_EQ(RunSeededWorkload(2), serial);
  EXPECT_EQ(RunSeededWorkload(8), serial);
}

TEST(ParallelDeterminismTest, WorkerCountIsReconfigurable) {
  ManualClock clock(0);
  oct::OctDatabase db(&clock);
  sprite::Network network(&clock, 2);
  auto registry = cadtools::CreateStandardRegistry();
  tdl::TemplateLibrary library;
  ASSERT_TRUE(tdl::RegisterThesisTemplates(&library).ok());
  TaskManager manager(&db, registry.get(), &network, &library);
  manager.set_worker_threads(4);
  EXPECT_EQ(manager.worker_threads(), 4);
  manager.set_worker_threads(0);  // clamped to serial
  EXPECT_EQ(manager.worker_threads(), 1);
}

TEST_F(TaskManagerTest, SingleAssignmentCreatesNewVersions) {
  ObjectId in = MustCreate("alu", Layout{.num_cells = 5, .area = 900.0});
  TaskInvocation inv;
  inv.template_name = "Padp";
  inv.inputs = {in};
  inv.output_names = {"alu.padded"};
  auto r1 = manager_.Invoke(inv);
  auto r2 = manager_.Invoke(inv);
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r1->outputs[0].version, 1);
  EXPECT_EQ(r2->outputs[0].version, 2);
  // Both versions visible: updates never overwrite (§3.2).
  EXPECT_TRUE(db_.Get(r1->outputs[0]).ok());
  EXPECT_TRUE(db_.Get(r2->outputs[0]).ok());
}

// ---------------------------------------------------------------------------
// Step lifecycle golden (tests/data/step_lifecycle_v1/)

/// Logs every observer callback, in order, one line each. A restarted step
/// that was dispatched with the impossible "-maxarea 1" constraint gets it
/// dropped, so the ResumedStep scenario recovers.
class CallbackLog : public TaskObserver {
 public:
  void OnStepReady(const std::string& step_name, int restart_count,
                   std::string* options) override {
    out << "ready " << step_name << " restarts=" << restart_count
        << " options=" << *options << '\n';
    if (restart_count > 0 && *options == "-maxarea 1") options->clear();
  }
  void OnStepCompleted(const StepRecord& record) override {
    out << "completed " << SerializeStep(record) << '\n';
  }
  void OnTaskRestarted(const std::string& task_name,
                       int resumed_internal_id) override {
    out << "restarted " << task_name << " at=" << resumed_internal_id
        << '\n';
  }
  void OnStepRetried(const std::string& step_name, int attempt,
                     int64_t backoff_micros) override {
    out << "retried " << step_name << " attempt=" << attempt
        << " backoff=" << backoff_micros << '\n';
  }
  void OnHostFailed(sprite::HostId host,
                    const std::string& step_name) override {
    out << "host_failed " << host << ' ' << step_name << '\n';
  }
  void OnLintDiagnostic(const lint::Diagnostic& diagnostic) override {
    out << "lint " << diagnostic.ToString() << '\n';
  }
  void OnCacheHit(const std::string& step_name,
                  int64_t micros_saved) override {
    out << "cache_hit " << step_name << " saved=" << micros_saved << '\n';
  }

  std::ostringstream out;
};

/// What one lifecycle run leaves behind, rendered for byte comparison.
struct LifecycleRun {
  std::string log;    // per invocation: result, then its callbacks
  std::string trace;  // the virtual trace (Chrome JSON)
};

/// Drives one TaskManager — derivation cache, a temp-dir shared store and
/// a seeded fault plan attached — through every way a design step can
/// settle: tool completions, a failure read through $status, a ResumedStep
/// restart, `abort` of one step and of the whole task, session-cache and
/// shared-store hits, lost-host and transient-failure retries, and
/// exhausted retries.
LifecycleRun RunStepLifecycle(int workers) {
  namespace fs = std::filesystem;
  ManualClock clock(0);
  oct::OctDatabase db(&clock);
  sprite::Network network(&clock, 4);
  auto registry = cadtools::CreateStandardRegistry();
  tdl::TemplateLibrary library;
  EXPECT_TRUE(tdl::RegisterThesisTemplates(&library).ok());
  EXPECT_TRUE(library
                  .Add("task Cond {In} {Out}\n"
                       "step Try {In} {Out} {panda -maxarea 1 In}\n"
                       "if {$status} {step Fallback {In} {Out} {panda In}}\n")
                  .ok());
  // `abort B` kills the still-running B and resumes after A (B's
  // ResumedStep); the interpreter keeps `n`, so the second pass commits.
  EXPECT_TRUE(library
                  .Add("task Abort_Step {In} {Out}\n"
                       "set n 0\n"
                       "step {1 A} {In} {tmp} {espresso In}\n"
                       "step {2 B} {In} {Out} {espresso -o equitott In} "
                       "{ResumedStep 1}\n"
                       "incr n\n"
                       "if {$n < 2} {abort B}\n")
                  .ok());
  EXPECT_TRUE(library
                  .Add("task Doomed {In} {Out}\n"
                       "step A {In} {tmp} {espresso In}\n"
                       "abort\n"
                       "step B {tmp} {Out} {pleasure tmp}\n")
                  .ok());

  fault::FaultPlan plan([] {
    fault::FaultPlanOptions opt;
    opt.seed = 8;
    opt.host_crash_rate = 0.9;
    opt.horizon_micros = 2'500'000;
    opt.reboot_delay_micros = 60'000;
    opt.max_crashes_per_host = 3;
    opt.spare_home = false;
    opt.tool_transient_rate = 0.2;
    return opt;
  }());
  EXPECT_TRUE(plan.Apply(&network, registry.get()).ok());

  TaskManager manager(&db, registry.get(), &network, &library);
  manager.set_worker_threads(workers);
  cache::DerivationCache cache(&db);
  manager.set_derivation_cache(&cache);
  fs::path store_dir = fs::path(::testing::TempDir()) /
                       ("step_lifecycle_cas_" + std::to_string(workers));
  std::error_code ec;
  fs::remove_all(store_dir, ec);
  auto store = storage::ContentStore::Open(store_dir.string());
  EXPECT_TRUE(store.ok());
  cache.AttachSharedStore(store->get(), /*auto_publish=*/true);
  obs::TraceRecorder trace(&clock);
  trace.set_enabled(true);
  obs::MetricsRegistry metrics;
  manager.set_observability(obs::Observability{&trace, &metrics});
  plan.set_observability(obs::Observability{&trace, &metrics});

  auto spec = db.CreateVersion("shifter", BehavioralSpec{8, 8, 12, 77});
  auto cmds = db.CreateVersion("sim.cmd", TextData{"run 100"});
  auto logic = db.CreateVersion(
      "pla", LogicNetwork{.num_inputs = 8,
                          .num_outputs = 4,
                          .minterms = 60,
                          .literals = 120,
                          .format = oct::DesignFormat::kBlif,
                          .seed = 21});
  auto plain = db.CreateVersion(
      "plain", LogicNetwork{.num_inputs = 4,
                            .num_outputs = 2,
                            .minterms = 20,
                            .format = oct::DesignFormat::kPla,
                            .seed = 2});
  auto cell = db.CreateVersion(
      "cell", Layout{.num_cells = 5, .area = 900.0, .seed = 3});
  EXPECT_TRUE(spec.ok() && cmds.ok() && logic.ok() && plain.ok() &&
              cell.ok());

  auto invocation = [](const std::string& tmpl,
                       std::vector<ObjectId> inputs,
                       std::vector<std::string> outputs) {
    TaskInvocation inv;
    inv.template_name = tmpl;
    inv.inputs = std::move(inputs);
    inv.output_names = std::move(outputs);
    inv.seed = 42;
    inv.max_step_retries = 6;
    return inv;
  };
  TaskInvocation synthesis = invocation("Structure_Synthesis",
                                        {*spec, *cmds},
                                        {"shifter.layout", "shifter.stats"});
  TaskInvocation pla =
      invocation("PLA_Generation", {*logic}, {"pla.layout"});
  pla.option_overrides["Array_Layout"] = "-maxarea 1";

  std::ostringstream log;
  auto run = [&](const std::string& label,
                 std::vector<TaskInvocation> invocations) {
    std::vector<CallbackLog> observers(invocations.size());
    std::vector<TaskObserver*> observer_ptrs;
    for (CallbackLog& o : observers) observer_ptrs.push_back(&o);
    auto results = manager.InvokeMany(invocations, observer_ptrs);
    for (size_t i = 0; i < results.size(); ++i) {
      log << "== " << label << ' ' << i << '\n';
      if (results[i].ok()) {
        log << SerializeHistory(*results[i]);
      } else {
        log << "status " << results[i].status().ToString() << '\n';
      }
      log << observers[i].out.str();
    }
  };
  auto run_one = [&](const std::string& label, const TaskInvocation& inv) {
    CallbackLog observer;
    auto result = manager.Invoke(inv, &observer);
    log << "== " << label << '\n';
    if (result.ok()) {
      log << SerializeHistory(*result);
    } else {
      log << "status " << result.status().ToString() << '\n';
    }
    log << observer.out.str();
  };

  // Concurrent tool runs under host crashes and transient failures.
  run("concurrent",
      {synthesis, invocation("Padp", {*cell}, {"cell.padded"}),
       invocation("Cond", {*plain}, {"cond.out"})});
  run_one("resumed_step", pla);
  run_one("abort_step", invocation("Abort_Step", {*logic}, {"ab.out"}));
  run_one("abort_task", invocation("Doomed", {*logic}, {"never"}));
  run_one("session_hit", synthesis);
  // Identical bytes under fresh version ids: the session cache misses,
  // the shared store serves every step.
  auto spec2 = db.CreateVersion("shifter", BehavioralSpec{8, 8, 12, 77});
  auto cmds2 = db.CreateVersion("sim.cmd", TextData{"run 100"});
  EXPECT_TRUE(spec2.ok() && cmds2.ok());
  run_one("cas_hit", invocation("Structure_Synthesis", {*spec2, *cmds2},
                                {"shifter.layout", "shifter.stats"}));
  TaskInvocation exhausted = invocation("Mosaico", {*cell}, {"m.out",
                                                             "m.stats"});
  exhausted.max_step_retries = 0;
  exhausted.max_restarts = 2;
  run_one("exhausted", exhausted);

  db.ForEach([&](const oct::ObjectRecord& rec) {
    log << rec.id.ToString() << '|' << rec.visible << '|' << rec.reclaimed
        << '|' << rec.size_bytes << '|' << rec.last_access_micros << '|'
        << oct::PayloadToString(rec.payload) << '\n';
  });
  cache::CacheStats stats = cache.stats();
  log << "committed=" << manager.tasks_committed()
      << " aborted=" << manager.tasks_aborted()
      << " executed=" << manager.steps_executed()
      << " lost=" << manager.steps_lost()
      << " retried=" << manager.steps_retried()
      << " elided=" << manager.steps_elided()
      << " violations=" << manager.flow_violations()
      << " cache_hits=" << stats.hits << " shared_hits=" << stats.shared_hits
      << " recorded=" << stats.recorded
      << " transients=" << plan.transient_injections()
      << " crashes=" << network.total_crashes() << '\n';
  trace.Finish();
  LifecycleRun result;
  result.log = log.str();
  result.trace = trace.ToJson();
  return result;
}

/// Compares `actual` against tests/data/step_lifecycle_v1/`file`; on a
/// mismatch writes the actual bytes next to the test's temp files.
void ExpectMatchesLifecycleGolden(const std::string& actual,
                                  const std::string& file, int workers) {
  std::ifstream in(std::string(PAPYRUS_SOURCE_DIR) +
                   "/tests/data/step_lifecycle_v1/" + file);
  std::stringstream golden;
  golden << in.rdbuf();
  if (actual != golden.str()) {
    const std::string out = ::testing::TempDir() + "step_lifecycle." +
                            std::to_string(workers) + "." + file;
    std::ofstream(out) << actual;
    ADD_FAILURE() << "tests/data/step_lifecycle_v1/" << file
                  << " differs at " << workers
                  << " worker(s); this run's bytes are in " << out;
  }
}

// Pins every observable of the step lifecycle — histories, the observer
// callback order, the virtual trace and the database end state — to a
// golden written by the task manager before its settling paths were
// unified, at one worker and at four.
TEST(StepLifecycleGoldenTest, EverySettlingPathMatchesTheGolden) {
  for (int workers : {1, 4}) {
    SCOPED_TRACE("workers " + std::to_string(workers));
    LifecycleRun run = RunStepLifecycle(workers);
    ExpectMatchesLifecycleGolden(run.log, "lifecycle.log", workers);
    ExpectMatchesLifecycleGolden(run.trace, "trace.json", workers);
    // The scenario exercises every path it claims to.
    for (const char* marker :
         {"host_failed ", "retried ", "restarted PLA_Generation",
          "restarted Abort_Step", "status Aborted: task aborted by abort",
          "cache_hit ", "(retries exhausted)", "completed ", "|1\n",
          "\"cas_hit\"", "\"killed\": true", "\"lost\": true",
          "\"transient\": true", "\"step_failed\""}) {
      EXPECT_NE((run.log + run.trace).find(marker), std::string::npos)
          << marker;
    }
  }
}

}  // namespace
}  // namespace papyrus::task
