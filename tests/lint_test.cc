#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "base/clock.h"
#include "cadtools/registry.h"
#include "lint/linter.h"
#include "lint/runtime_checker.h"
#include "lint/wire_analyzer.h"
#include "oct/database.h"
#include "oct/design_data.h"
#include "server/queue.h"
#include "server/wire.h"
#include "sprite/network.h"
#include "task/task_manager.h"
#include "tdl/template.h"

namespace papyrus::lint {
namespace {

std::string TemplatesDir() {
  return std::string(PAPYRUS_SOURCE_DIR) + "/templates";
}

std::string BadTemplatesDir() {
  return std::string(PAPYRUS_SOURCE_DIR) + "/tests/data/bad_templates";
}

std::string BadWireDir() {
  return std::string(PAPYRUS_SOURCE_DIR) + "/tests/data/bad_wire";
}

std::string CiWireDir() {
  return std::string(PAPYRUS_SOURCE_DIR) + "/ci";
}

class LintTest : public ::testing::Test {
 protected:
  LintTest() : registry_(cadtools::CreateStandardRegistry()) {
    EXPECT_TRUE(tdl::RegisterThesisTemplates(&library_).ok());
  }

  LintOptions Options() const {
    LintOptions options;
    options.tools = registry_.get();
    options.library = &library_;
    return options;
  }

  std::unique_ptr<cadtools::ToolRegistry> registry_;
  tdl::TemplateLibrary library_;
};

// Acceptance criterion for the shipped template set: every template the
// repo ships lints with zero findings of any severity.
TEST_F(LintTest, ShippedTemplatesLintClean) {
  int linted = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator(TemplatesDir())) {
    if (entry.path().extension() != ".tdl") continue;
    SCOPED_TRACE(entry.path().string());
    LintResult result = LintFile(entry.path().string(), Options());
    EXPECT_EQ(result.errors, 0);
    EXPECT_EQ(result.warnings, 0);
    for (const Diagnostic& d : result.diagnostics) {
      ADD_FAILURE() << d.ToString();
    }
    ++linted;
  }
  EXPECT_EQ(linted, 9);
}

// The in-library thesis templates (same flows, registered by name) must
// also pass the task manager's pre-flight hook.
TEST_F(LintTest, ThesisLibraryTemplatesLintClean) {
  for (const std::string& name : library_.TemplateNames()) {
    SCOPED_TRACE(name);
    auto tmpl = library_.Find(name);
    ASSERT_TRUE(tmpl.ok());
    LintResult result = LintTemplate(**tmpl, Options());
    EXPECT_EQ(result.errors, 0);
    for (const Diagnostic& d : result.diagnostics) {
      if (d.severity == Severity::kError) ADD_FAILURE() << d.ToString();
    }
  }
}

struct GoldenCase {
  const char* file;       // under tests/data/bad_templates/
  const char* rule;       // the one rule the template must trigger
  Severity severity;
  int line;               // 1-based; 0 = whole file
};

// One bad template per rule in the catalogue; each must trigger exactly
// its intended rule, at the expected line.
TEST_F(LintTest, GoldenDiagnosticsOneRulePerBadTemplate) {
  const std::vector<GoldenCase> cases = {
      {"write-race.tdl", rules::kWriteRace, Severity::kError, 3},
      {"undefined-input.tdl", rules::kUndefinedInput, Severity::kError, 2},
      {"unknown-tool.tdl", rules::kUnknownTool, Severity::kError, 2},
      {"tool-arity.tdl", rules::kToolArity, Severity::kError, 2},
      {"dead-step.tdl", rules::kDeadStep, Severity::kWarning, 2},
      {"unproduced-output.tdl", rules::kUnproducedOutput, Severity::kError,
       0},
      {"dependency-cycle.tdl", rules::kDependencyCycle, Severity::kError,
       2},
      {"unresolved-subtask.tdl", rules::kUnresolvedSubtask,
       Severity::kError, 3},
      {"subtask-arity.tdl", rules::kSubtaskArity, Severity::kError, 3},
      {"duplicate-step-id.tdl", rules::kDuplicateStepId, Severity::kError,
       3},
      {"undefined-step-ref.tdl", rules::kUndefinedStepRef,
       Severity::kError, 2},
      {"parse-error.tdl", rules::kParseError, Severity::kError, 3},
  };
  for (const GoldenCase& c : cases) {
    const std::string path = BadTemplatesDir() + "/" + c.file;
    SCOPED_TRACE(path);
    LintResult result = LintFile(path, Options());
    ASSERT_EQ(result.diagnostics.size(), 1u)
        << [&] {
             std::string all;
             for (const Diagnostic& d : result.diagnostics) {
               all += d.ToString() + "\n";
             }
             return all;
           }();
    const Diagnostic& d = result.diagnostics.front();
    EXPECT_EQ(d.rule, c.rule);
    EXPECT_EQ(d.severity, c.severity);
    EXPECT_EQ(d.line, c.line);
    EXPECT_EQ(d.file, path);
  }
}

TEST_F(LintTest, BadHeaderYieldsSingleParseError) {
  LintResult result = LintScript("this is not a template", Options());
  ASSERT_EQ(result.diagnostics.size(), 1u);
  EXPECT_EQ(result.diagnostics.front().rule, rules::kParseError);
  EXPECT_EQ(result.diagnostics.front().line, 1);
  EXPECT_FALSE(result.ok());
}

TEST_F(LintTest, DiagnosticRenderingIsStable) {
  LintResult result =
      LintFile(BadTemplatesDir() + "/undefined-input.tdl", Options());
  ASSERT_EQ(result.diagnostics.size(), 1u);
  const Diagnostic& d = result.diagnostics.front();
  // gcc-style: file:line:col: severity[rule]: message
  EXPECT_NE(d.ToString().find(":2:"), std::string::npos);
  EXPECT_NE(d.ToString().find("error[undefined-input]"),
            std::string::npos);
  // JSON form carries the same fields.
  const std::string json = d.ToJson();
  EXPECT_NE(json.find("\"rule\":\"undefined-input\""), std::string::npos);
  EXPECT_NE(json.find("\"severity\":\"error\""), std::string::npos);
  EXPECT_NE(json.find("\"line\":2"), std::string::npos);
}

/// The reference the line index must agree with: a scan from byte 0.
void NaiveLineColumn(const std::string& text, size_t offset, int* line,
                     int* column) {
  int l = 1;
  int c = 1;
  for (size_t i = 0; i < offset && i < text.size(); ++i) {
    if (text[i] == '\n') {
      ++l;
      c = 1;
    } else {
      ++c;
    }
  }
  *line = l;
  *column = c;
}

TEST(LineIndexTest, MatchesANaiveScanAtEveryOffset) {
  const std::vector<std::string> texts = {
      "",
      "\n",
      "x",
      "no trailing newline",
      "one\ntwo\n",
      "\n\n\nempty lines first\n\n",
      "a\n\n\nb\nlast line without newline",
      "crlf\r\nline two\r\n\r\nafter an empty crlf line",
      "\r\n",
  };
  for (const std::string& text : texts) {
    SCOPED_TRACE(::testing::PrintToString(text));
    LineIndex index(text);
    // Offsets past the end clamp to the end, like the scan.
    for (size_t offset = 0; offset <= text.size() + 3; ++offset) {
      int line = 0, column = 0, want_line = 0, want_column = 0;
      index.LineColumnAt(offset, &line, &column);
      NaiveLineColumn(text, offset, &want_line, &want_column);
      EXPECT_EQ(line, want_line) << "offset " << offset;
      EXPECT_EQ(column, want_column) << "offset " << offset;
    }
  }
}

// A finding on the last line of a 2,000-step template reports that line
// and column exactly.
TEST_F(LintTest, GoldenPositionAtTheLastLineOfA2000StepTemplate) {
  std::string script = "task Long_Flow {In} {Out}\n";
  std::string prev = "In";
  for (int i = 1; i < 2000; ++i) {
    if (i % 100 == 1) script += "# stage " + std::to_string(i / 100) + "\n\n";
    std::string out = "n" + std::to_string(i);
    script += "step Via_" + std::to_string(i) + " {" + prev + "} {" + out +
              "} {mizer -o " + out + " " + prev + "}\n";
    prev = out;
  }
  script += "  step Last {" + prev + "} {Out} {nosuchtool " + prev + "}";
  LintResult result = LintScript(script, Options());
  ASSERT_EQ(result.diagnostics.size(), 1u);
  const Diagnostic& d = result.diagnostics.front();
  EXPECT_EQ(d.rule, rules::kUnknownTool);
  // 1 header line + 20 stages of (comment, blank line) + 1,999 steps.
  EXPECT_EQ(d.line, 2041);
  EXPECT_EQ(d.column, 3);
  EXPECT_EQ(d.step_name, "Last");
}

// Deterministic unit coverage of the happens-before checker: feed it a
// dispatch trace by hand against the graph of a two-step chain.
TEST_F(LintTest, RuntimeCheckerFlagsConcurrentWritersAndOrderedPairs) {
  LintResult result = LintScript(
      "task Chain {In} {Out}\n"
      "step A {In} {mid} {espresso In}\n"
      "step B {mid} {Out} {pleasure mid}\n",
      Options());
  ASSERT_TRUE(result.ok());
  ASSERT_NE(result.graph, nullptr);

  {
    // Legal serial execution: no findings.
    RuntimeFlowChecker checker(result.graph);
    checker.OnDispatch(1, "", "A", {"mid"});
    checker.OnSettle(1);
    checker.OnDispatch(2, "", "B", {"Out"});
    checker.OnSettle(2);
    EXPECT_EQ(checker.violations(), 0);
  }
  {
    // A and B are statically ordered (B consumes A's output); dispatching
    // them concurrently contradicts the flow graph.
    RuntimeFlowChecker checker(result.graph);
    checker.OnDispatch(1, "", "A", {"mid"});
    checker.OnDispatch(2, "", "B", {"Out"});
    EXPECT_GT(checker.violations(), 0);
    ASSERT_FALSE(checker.violation_messages().empty());
    EXPECT_NE(checker.violation_messages().front().find("statically"),
              std::string::npos);
  }
  {
    // Two concurrently-active writers of one object name race.
    RuntimeFlowChecker checker(result.graph);
    checker.OnDispatch(1, "", "W0", {"clash"});
    checker.OnDispatch(2, "", "W1", {"clash"});
    EXPECT_GT(checker.violations(), 0);
    EXPECT_NE(checker.violation_messages().front().find(
                  "concurrent writers"),
              std::string::npos);
  }
}

// End-to-end: a loop-generated template whose step names are substituted
// at run time evades the static write-race rule (the linter demotes flow
// rules to warnings), but the runtime checker catches the two concurrent
// writers the moment the scheduler dispatches them.
TEST_F(LintTest, RuntimeCheckerCatchesRaceThatStaticAnalysisCannotSee) {
  ManualClock clock(0);
  oct::OctDatabase db(&clock);
  sprite::Network network(&clock, 4);
  ASSERT_TRUE(library_
                  .Add("task Racy {In} {Out}\n"
                       "for {set i 0} {$i < 2} {incr i} {\n"
                       "step W$i {In} {clash} {espresso In}\n"
                       "}\n"
                       "step Final {clash} {Out} {pleasure clash}\n")
                  .ok());
  // Static analysis cannot prove the race: the writers only exist after
  // run-time substitution, so pre-flight must not refuse the template.
  auto tmpl = library_.Find("Racy");
  ASSERT_TRUE(tmpl.ok());
  EXPECT_TRUE(LintTemplate(**tmpl, Options()).ok());

  task::TaskManager manager(&db, registry_.get(), &network, &library_);
  auto in = db.CreateVersion(
      "net", oct::LogicNetwork{.num_inputs = 4, .num_outputs = 2,
                               .minterms = 9, .seed = 5});
  ASSERT_TRUE(in.ok());
  task::TaskInvocation inv;
  inv.template_name = "Racy";
  inv.inputs = {*in};
  inv.output_names = {"net.out"};
  manager.Invoke(inv);
  EXPECT_GT(manager.flow_violations(), 0);
}

// The fault-free thesis flow dispatches in static order: the checker must
// stay silent end to end.
TEST_F(LintTest, RuntimeCheckerSilentOnCleanThesisFlow) {
  ManualClock clock(0);
  oct::OctDatabase db(&clock);
  sprite::Network network(&clock, 4);
  task::TaskManager manager(&db, registry_.get(), &network, &library_);
  auto behav =
      db.CreateVersion("shifter", oct::BehavioralSpec{8, 8, 12, 77});
  auto cmds = db.CreateVersion("sim.cmd", oct::TextData{"run 100"});
  ASSERT_TRUE(behav.ok() && cmds.ok());
  task::TaskInvocation inv;
  inv.template_name = "Structure_Synthesis";
  inv.inputs = {*behav, *cmds};
  inv.output_names = {"shifter.layout", "shifter.stats"};
  auto rec = manager.Invoke(inv);
  ASSERT_TRUE(rec.ok()) << rec.status().ToString();
  EXPECT_EQ(manager.flow_violations(), 0);
}

class WireLintTest : public LintTest {
 protected:
  WireAnalyzerOptions WireOptions() const {
    WireAnalyzerOptions options;
    options.tools = registry_.get();
    options.library = &library_;
    return options;
  }
};

// One bad script per wire rule; each must trigger exactly its intended
// rule, at the expected line, with a stable id.
TEST_F(WireLintTest, GoldenDiagnosticsOneRulePerBadScript) {
  const std::vector<GoldenCase> cases = {
      {"parse_error.wire", rules::kWireParseError, Severity::kError, 2},
      {"unknown_verb.wire", rules::kWireUnknownVerb, Severity::kError, 2},
      {"missing_field.wire", rules::kWireMissingField, Severity::kError,
       2},
      {"bad_field.wire", rules::kWireBadField, Severity::kError, 2},
      {"unknown_session.wire", rules::kWireUnknownSession,
       Severity::kError, 3},
      {"unknown_template.wire", rules::kWireUnknownTemplate,
       Severity::kError, 4},
      {"task_arity.wire", rules::kWireTaskArity, Severity::kError, 5},
      {"run_before_checkin.wire", rules::kWireRunBeforeCheckin,
       Severity::kError, 4},
      {"cross_session_input.wire", rules::kWireCrossSessionInput,
       Severity::kError, 5},
      {"write_race.wire", rules::kWireWriteRace, Severity::kError, 7},
      {"duplicate_task.wire", rules::kWireDuplicateTask,
       Severity::kWarning, 6},
      {"after_shutdown.wire", rules::kWireAfterShutdown, Severity::kError,
       4},
      {"drain_misuse.wire", rules::kWireDrainMisuse, Severity::kWarning,
       4},
  };
  // The corpus and the case table must cover each other exactly.
  size_t corpus_files = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator(BadWireDir())) {
    if (entry.path().extension() == ".wire") ++corpus_files;
  }
  EXPECT_EQ(corpus_files, cases.size());

  for (const GoldenCase& c : cases) {
    const std::string path = BadWireDir() + "/" + c.file;
    SCOPED_TRACE(path);
    WireAnalysis analysis = AnalyzeWireFile(path, WireOptions());
    ASSERT_EQ(analysis.diagnostics.size(), 1u)
        << [&] {
             std::string all;
             for (const Diagnostic& d : analysis.diagnostics) {
               all += d.ToString() + "\n";
             }
             return all;
           }();
    const Diagnostic& d = analysis.diagnostics.front();
    EXPECT_EQ(d.rule, c.rule);
    EXPECT_EQ(d.severity, c.severity);
    EXPECT_EQ(d.line, c.line);
    EXPECT_EQ(d.file, path);
    EXPECT_EQ(analysis.errors, c.severity == Severity::kError ? 1 : 0);
    EXPECT_EQ(analysis.warnings, c.severity == Severity::kWarning ? 1 : 0);
    EXPECT_EQ(analysis.ok(), c.severity != Severity::kError);
  }
}

// The CI workloads drive the real daemon; the analyzer must pass them
// with zero errors and zero warnings (notes are fine — the drain-only
// script legitimately drains a root it cannot see).
TEST_F(WireLintTest, CiWorkloadsAnalyzeClean) {
  int analyzed = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator(CiWireDir())) {
    if (entry.path().extension() != ".wire") continue;
    SCOPED_TRACE(entry.path().string());
    WireAnalysis analysis =
        AnalyzeWireFile(entry.path().string(), WireOptions());
    EXPECT_EQ(analysis.errors, 0);
    EXPECT_EQ(analysis.warnings, 0);
    for (const Diagnostic& d : analysis.diagnostics) {
      if (d.severity != Severity::kNote) ADD_FAILURE() << d.ToString();
    }
    ++analyzed;
  }
  EXPECT_GE(analyzed, 2);
}

// An unreadable path is itself a finding, not a crash.
TEST_F(WireLintTest, MissingFileIsAParseError) {
  WireAnalysis analysis =
      AnalyzeWireFile(BadWireDir() + "/no_such.wire", WireOptions());
  ASSERT_EQ(analysis.diagnostics.size(), 1u);
  EXPECT_EQ(analysis.diagnostics.front().rule, rules::kWireParseError);
  EXPECT_FALSE(analysis.ok());
}

// JSON output round-trip: every diagnostic renders as one JSON object
// carrying the schema fields machine consumers key on.
TEST_F(WireLintTest, DiagnosticsJsonCarriesSchemaFields) {
  WireAnalysis analysis =
      AnalyzeWireFile(BadWireDir() + "/write_race.wire", WireOptions());
  ASSERT_EQ(analysis.diagnostics.size(), 1u);
  const std::string json = DiagnosticsToJson(analysis.diagnostics);
  // One array, one element per diagnostic.
  size_t objects = 0;
  for (size_t at = json.find("{\"severity\""); at != std::string::npos;
       at = json.find("{\"severity\"", at + 1)) {
    ++objects;
  }
  EXPECT_EQ(objects, analysis.diagnostics.size());
  EXPECT_EQ(json.front(), '[');
  EXPECT_EQ(json.back(), ']');
  EXPECT_NE(json.find("\"rule\":\"wire-write-race\""), std::string::npos);
  EXPECT_NE(json.find("\"severity\":\"error\""), std::string::npos);
  EXPECT_NE(json.find("\"line\":7"), std::string::npos);
  EXPECT_NE(json.find("\"file\":"), std::string::npos);
}

// The rule catalogue is the docs/LINT.md source of truth: ids must be
// unique, every wire rule must appear with scope "wire", and every
// golden-tested template rule with scope "template".
TEST_F(WireLintTest, RuleCatalogueCoversEveryRuleOnce) {
  const std::vector<RuleInfo>& catalogue = RuleCatalogue();
  std::set<std::string> ids;
  for (const RuleInfo& info : catalogue) {
    EXPECT_TRUE(ids.insert(info.id).second)
        << "duplicate catalogue id " << info.id;
    EXPECT_TRUE(std::string(info.scope) == "template" ||
                std::string(info.scope) == "wire")
        << info.id;
    EXPECT_NE(std::string(info.summary), "") << info.id;
  }
  const std::vector<std::pair<const char*, const char*>> expected = {
      {rules::kParseError, "template"},
      {rules::kWriteRace, "template"},
      {rules::kUndefinedInput, "template"},
      {rules::kUnknownTool, "template"},
      {rules::kToolArity, "template"},
      {rules::kDeadStep, "template"},
      {rules::kUnproducedOutput, "template"},
      {rules::kDependencyCycle, "template"},
      {rules::kUnresolvedSubtask, "template"},
      {rules::kSubtaskArity, "template"},
      {rules::kDuplicateStepId, "template"},
      {rules::kUndefinedStepRef, "template"},
      {rules::kWireParseError, "wire"},
      {rules::kWireUnknownVerb, "wire"},
      {rules::kWireMissingField, "wire"},
      {rules::kWireBadField, "wire"},
      {rules::kWireUnknownSession, "wire"},
      {rules::kWireUnknownTemplate, "wire"},
      {rules::kWireTaskArity, "wire"},
      {rules::kWireRunBeforeCheckin, "wire"},
      {rules::kWireCrossSessionInput, "wire"},
      {rules::kWireWriteRace, "wire"},
      {rules::kWireDuplicateTask, "wire"},
      {rules::kWireAfterShutdown, "wire"},
      {rules::kWireDrainMisuse, "wire"},
  };
  EXPECT_EQ(catalogue.size(), expected.size());
  for (const auto& [id, scope] : expected) {
    auto it = std::find_if(
        catalogue.begin(), catalogue.end(),
        [id = id](const RuleInfo& info) {
          return std::string(info.id) == id;
        });
    ASSERT_NE(it, catalogue.end()) << id << " missing from catalogue";
    EXPECT_EQ(std::string(it->scope), scope) << id;
  }
}

// Daemon startup pre-flight: findings over a recovered queue are
// warnings (the daemon still drains), keyed to queue task ids.
TEST_F(WireLintTest, PreflightFlagsBadQueuedTasks) {
  auto encode = [](const std::string& session,
                   const std::string& template_name,
                   const std::vector<std::string>& ins,
                   const std::vector<std::string>& outs) {
    server::TaskDescription desc;
    desc.session = session;
    desc.thread = "main";
    desc.template_name = template_name;
    desc.input_refs = ins;
    desc.output_names = outs;
    return desc.Encode();
  };
  std::vector<server::QueueTask> tasks;
  server::QueueTask ok_task;
  ok_task.id = 1;
  ok_task.description = encode("alpha", "Padp", {"/a"}, {"x"});
  tasks.push_back(ok_task);
  server::QueueTask ghost;
  ghost.id = 2;
  ghost.description = encode("alpha", "NoSuchFlow", {"/a"}, {"y"});
  tasks.push_back(ghost);
  server::QueueTask arity;
  arity.id = 3;
  arity.description = encode("alpha", "Padp", {"/a", "/b"}, {"z"});
  tasks.push_back(arity);
  server::QueueTask racer;
  racer.id = 4;
  racer.description = encode("alpha", "Padp", {"/b"}, {"x"});
  tasks.push_back(racer);
  server::QueueTask done;  // settled tasks are out of scope
  done.id = 5;
  done.state = server::TaskState::kDone;
  done.description = encode("alpha", "NoSuchFlow", {"/a"}, {"x"});
  tasks.push_back(done);

  std::vector<Diagnostic> findings =
      PreflightQueuedTasks(tasks, &library_, "queue");
  ASSERT_EQ(findings.size(), 3u) << [&] {
    std::string all;
    for (const Diagnostic& d : findings) all += d.ToString() + "\n";
    return all;
  }();
  EXPECT_EQ(findings[0].rule, rules::kWireUnknownTemplate);
  EXPECT_EQ(findings[1].rule, rules::kWireTaskArity);
  EXPECT_EQ(findings[2].rule, rules::kWireWriteRace);
  for (const Diagnostic& d : findings) {
    EXPECT_EQ(d.severity, Severity::kWarning) << d.ToString();
    EXPECT_EQ(d.file, "queue");
  }
  EXPECT_NE(findings[2].message.find("queued task 4"), std::string::npos);
  EXPECT_NE(findings[2].message.find("task 1"), std::string::npos);
}

}  // namespace
}  // namespace papyrus::lint
