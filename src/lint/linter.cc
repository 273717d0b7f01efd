#include "lint/linter.h"

#include <algorithm>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

namespace papyrus::lint {
namespace {

std::string JoinNames(const std::vector<std::string>& names) {
  std::string out;
  for (size_t i = 0; i < names.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + names[i] + "\"";
  }
  return out;
}

class Linter {
 public:
  Linter(const tdl::TaskTemplate& tmpl, const LintOptions& options)
      : tmpl_(tmpl),
        options_(options),
        file_(options.file.empty() ? tmpl.name : options.file) {}

  LintResult Run() {
    auto graph = std::make_shared<FlowGraph>(
        BuildFlowGraph(tmpl_, options_.library, file_, &diags_));
    graph_ = graph.get();

    CheckTools();
    CheckUndefinedInputs();
    CheckWriteRaces();
    CheckUnproducedOutputs();
    CheckDeadSteps();
    CheckCycles();
    CheckDuplicateIds();
    CheckStepRefs();

    std::stable_sort(diags_.begin(), diags_.end(),
                     [](const Diagnostic& a, const Diagnostic& b) {
                       if (a.line != b.line) return a.line < b.line;
                       return a.column < b.column;
                     });
    LintResult result;
    result.graph = std::move(graph);
    for (const Diagnostic& d : diags_) {
      if (d.severity == Severity::kError) ++result.errors;
      if (d.severity == Severity::kWarning) ++result.warnings;
    }
    result.diagnostics = std::move(diags_);
    return result;
  }

 private:
  /// Rules whose model assumes every step is statically known soften to
  /// warnings when the template builds steps with run-time substitution
  /// (loop-generated step chains): the flow may still be correct.
  Severity FlowSeverity() const {
    return graph_->has_dynamic() ? Severity::kWarning : Severity::kError;
  }

  void Emit(Severity severity, const char* rule, const StepNode* node,
            std::string message) {
    Diagnostic d;
    d.severity = severity;
    d.rule = rule;
    d.message = std::move(message);
    d.file = node == nullptr ? file_ : DiagnosticFile(*node);
    d.template_name = node == nullptr ? tmpl_.name : node->template_name;
    if (node != nullptr) {
      d.line = node->line;
      d.column = node->column;
      d.step_name = node->name;
    }
    diags_.push_back(std::move(d));
  }

  /// Steps expanded out of a library subtask report under the subtask's
  /// template name, not the root file: their text is not in this file.
  std::string DiagnosticFile(const StepNode& node) const {
    return node.template_name == tmpl_.name ? file_ : node.template_name;
  }

  /// Rule unknown-tool / tool-arity: every static invocation must name a
  /// registered tool and respect its declared call signature.
  void CheckTools() {
    if (options_.tools == nullptr) return;
    for (const StepNode& node : graph_->nodes()) {
      if (node.tool.empty()) continue;  // dynamic invocation
      auto tool = options_.tools->Find(node.tool);
      if (!tool.ok()) {
        Emit(Severity::kError, rules::kUnknownTool, &node,
             "step \"" + node.name + "\" invokes unknown tool \"" +
                 node.tool + "\"");
        continue;
      }
      if (node.dynamic) continue;  // object counts unreliable
      const cadtools::ToolDescriptor& desc = (*tool)->descriptor();
      const int ins = static_cast<int>(node.inputs.size());
      const int outs = static_cast<int>(node.outputs.size());
      if (ins < desc.min_inputs) {
        // Too few inputs: the tool is guaranteed to fail at run time.
        Emit(Severity::kError, rules::kToolArity, &node,
             "step \"" + node.name + "\" passes " + std::to_string(ins) +
                 " input(s) to " + node.tool + ", which needs at least " +
                 std::to_string(desc.min_inputs));
      } else if (desc.max_inputs >= 0 && ins > desc.max_inputs) {
        // Extra inputs are legal as pure data-flow joins (the step waits
        // for them but the tool ignores them) — flag, don't refuse.
        Emit(Severity::kWarning, rules::kToolArity, &node,
             "step \"" + node.name + "\" passes " + std::to_string(ins) +
                 " input(s) to " + node.tool + ", which reads at most " +
                 std::to_string(desc.max_inputs) +
                 " (extra inputs act only as synchronization)");
      }
      if (desc.num_outputs >= 0 && outs != desc.num_outputs) {
        // The task manager enforces the declared output count exactly, so
        // a mismatch always fails the step.
        Emit(Severity::kError, rules::kToolArity, &node,
             "step \"" + node.name + "\" declares " + std::to_string(outs) +
                 " output(s) but " + node.tool + " produces " +
                 std::to_string(desc.num_outputs));
      }
    }
  }

  /// True when a step produces `name`. `exclude` skips one node id (a
  /// step cannot satisfy its own input — that's a deadlock).
  bool HasProducer(const std::string& name, int exclude) const {
    for (int id : graph_->Producers(name)) {
      if (id != exclude) return true;
    }
    return false;
  }

  /// Rule undefined-input: a consumed name must be a formal input or some
  /// other step's output, else the scheduler suspends the step forever.
  void CheckUndefinedInputs() {
    std::set<std::string> initial(graph_->formal_inputs().begin(),
                                  graph_->formal_inputs().end());
    for (const StepNode& node : graph_->nodes()) {
      for (const std::string& in : node.inputs) {
        if (initial.count(in) > 0 || HasProducer(in, node.id)) continue;
        Emit(FlowSeverity(), rules::kUndefinedInput, &node,
             "step \"" + node.name + "\" consumes \"" + in +
                 "\", which is neither a formal input nor produced by "
                 "any step");
      }
    }
  }

  /// Rule write-race: two steps with no happens-before path both writing
  /// one object name race on its next version. Guarded steps (conditional
  /// branches) are exempt — the if/else fallback pattern writes the same
  /// name from mutually exclusive arms.
  void CheckWriteRaces() {
    std::map<std::string, std::vector<const StepNode*>> writers;
    for (const StepNode& node : graph_->nodes()) {
      if (node.guarded || node.dynamic) continue;
      for (const std::string& out : node.outputs) {
        writers[out].push_back(&node);
      }
    }
    for (const auto& [name, nodes] : writers) {
      for (size_t i = 0; i < nodes.size(); ++i) {
        for (size_t j = i + 1; j < nodes.size(); ++j) {
          const StepNode* a = nodes[i];
          const StepNode* b = nodes[j];
          if (graph_->Ordered(a->id, b->id) ||
              graph_->Ordered(b->id, a->id)) {
            continue;
          }
          const StepNode* at = b->line >= a->line ? b : a;
          Emit(Severity::kError, rules::kWriteRace, at,
               "steps \"" + a->name + "\" (line " +
                   std::to_string(a->line) + ") and \"" + b->name +
                   "\" (line " + std::to_string(b->line) +
                   ") both produce \"" + name +
                   "\" with no ordering between them");
        }
      }
    }
  }

  /// Rule unproduced-output: a formal output no step writes can never be
  /// delivered, so the task would abort at finalization every time.
  void CheckUnproducedOutputs() {
    for (const std::string& out : graph_->formal_outputs()) {
      if (HasProducer(out, /*exclude=*/-1)) continue;
      Emit(FlowSeverity(), rules::kUnproducedOutput, nullptr,
           "formal output \"" + out + "\" is never produced by any step");
    }
  }

  /// Rule dead-step: an unconditional step none of whose outputs are
  /// consumed, exported, or awaited does work the flow throws away.
  void CheckDeadSteps() {
    std::set<std::string> consumed;
    std::set<std::string> formals(graph_->formal_outputs().begin(),
                                  graph_->formal_outputs().end());
    for (const StepNode& node : graph_->nodes()) {
      consumed.insert(node.inputs.begin(), node.inputs.end());
    }
    for (const StepNode& node : graph_->nodes()) {
      if (node.guarded || node.dynamic || node.outputs.empty()) continue;
      bool useful = false;
      for (const std::string& out : node.outputs) {
        if (consumed.count(out) > 0 || formals.count(out) > 0) {
          useful = true;
          break;
        }
      }
      if (!useful && node.user_id > 0) {
        // Another step may order itself after this one.
        for (const StepNode& other : graph_->nodes()) {
          if (other.scope == node.scope &&
              (std::count(other.control_deps.begin(),
                          other.control_deps.end(), node.user_id) > 0 ||
               (other.has_resumed &&
                other.resumed_user_id == node.user_id))) {
            useful = true;
            break;
          }
        }
      }
      if (useful) continue;
      Emit(graph_->has_dynamic() ? Severity::kNote : Severity::kWarning,
           rules::kDeadStep, &node,
           "step \"" + node.name + "\" is dead: none of its outputs (" +
               JoinNames(node.outputs) +
               ") are consumed or formal outputs");
    }
  }

  /// Rule dependency-cycle: steps on a cycle of data/control/barrier
  /// constraints can never all become ready — guaranteed deadlock.
  void CheckCycles() {
    std::vector<int> members = graph_->CycleMembers();
    if (members.empty()) return;
    std::vector<std::string> names;
    for (int id : members) names.push_back(graph_->nodes()[id].name);
    Emit(Severity::kError, rules::kDependencyCycle,
         &graph_->nodes()[members.front()],
         "dependency cycle among steps " + JoinNames(names) +
             ": the scheduler can never dispatch them");
  }

  /// Rule duplicate-step-id: two unconditional steps claiming one user id
  /// make ResumedStep/ControlDependency references ambiguous. Guarded
  /// duplicates (if/else arms) are the documented branch pattern.
  void CheckDuplicateIds() {
    std::map<std::pair<std::string, int>, std::vector<const StepNode*>>
        by_id;
    for (const StepNode& node : graph_->nodes()) {
      if (node.user_id <= 0 || node.guarded || node.dynamic) continue;
      by_id[{node.scope, node.user_id}].push_back(&node);
    }
    for (const auto& [key, nodes] : by_id) {
      if (nodes.size() < 2) continue;
      Emit(Severity::kError, rules::kDuplicateStepId, nodes.back(),
           "step id " + std::to_string(key.second) +
               " is declared by multiple unconditional steps (first at "
               "line " +
               std::to_string(nodes.front()->line) + ")");
    }
  }

  /// Rule undefined-step-ref: ResumedStep/ControlDependency ids must name
  /// a step declared in the same scope.
  void CheckStepRefs() {
    for (const StepNode& node : graph_->nodes()) {
      std::vector<int> refs = node.control_deps;
      // `ResumedStep 0` means "restart the whole task from scratch"
      // (§4.3.4) and references no step.
      if (node.has_resumed && node.resumed_user_id != 0) {
        refs.push_back(node.resumed_user_id);
      }
      for (int ref : refs) {
        bool found = false;
        for (const StepNode& other : graph_->nodes()) {
          if (other.scope == node.scope && other.user_id == ref) {
            found = true;
            break;
          }
        }
        if (found) continue;
        Emit(graph_->has_dynamic() ? Severity::kWarning : Severity::kError,
             rules::kUndefinedStepRef, &node,
             "step \"" + node.name + "\" references step id " +
                 std::to_string(ref) + ", which no step in this " +
                 (node.scope.empty() ? "task" : "subtask") + " declares");
      }
    }
  }

  const tdl::TaskTemplate& tmpl_;
  const LintOptions& options_;
  std::string file_;
  std::vector<Diagnostic> diags_;
  const FlowGraph* graph_ = nullptr;
};

}  // namespace

LintResult LintTemplate(const tdl::TaskTemplate& tmpl,
                        const LintOptions& options) {
  return Linter(tmpl, options).Run();
}

LintResult LintScript(const std::string& script,
                      const LintOptions& options) {
  auto tmpl = tdl::ParseTemplateHeader(script);
  if (!tmpl.ok()) {
    LintResult result;
    Diagnostic d;
    d.severity = Severity::kError;
    d.rule = rules::kParseError;
    d.message = tmpl.status().message();
    d.file = options.file.empty() ? "<script>" : options.file;
    d.line = 1;
    result.diagnostics.push_back(std::move(d));
    result.errors = 1;
    return result;
  }
  return LintTemplate(*tmpl, options);
}

LintResult LintFile(const std::string& path, const LintOptions& options) {
  std::ifstream in(path);
  if (!in) {
    LintResult result;
    Diagnostic d;
    d.severity = Severity::kError;
    d.rule = rules::kParseError;
    d.message = "cannot read file";
    d.file = path;
    result.diagnostics.push_back(std::move(d));
    result.errors = 1;
    return result;
  }
  std::ostringstream contents;
  contents << in.rdbuf();
  LintOptions file_options = options;
  file_options.file = path;
  return LintScript(contents.str(), file_options);
}

}  // namespace papyrus::lint
