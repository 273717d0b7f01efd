#ifndef PAPYRUS_LINT_FLOW_GRAPH_H_
#define PAPYRUS_LINT_FLOW_GRAPH_H_

#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "lint/diagnostics.h"
#include "tdl/template.h"

namespace papyrus::lint {

/// One design step as the static analyzer sees it: names resolved through
/// the subtask formal/actual maps, plus everything needed to reason about
/// ordering (control dependencies, guards, barriers).
struct StepNode {
  int id = -1;
  std::string template_name;  // template whose text declares the step
  std::string scope;          // subtask scope, "" for the root task
  std::string name;
  int user_id = 0;  // 0 = none
  std::vector<std::string> inputs;   // resolved object names
  std::vector<std::string> outputs;  // resolved object names
  std::string tool;  // empty when the invocation is dynamic
  int line = 0;
  int column = 0;
  /// Inside an `if`/`while`/`for`/`foreach` body: may not execute, or may
  /// execute under a scheduler barrier. Guarded steps are exempt from the
  /// write-race rule (the Mosaico compaction-fallback pattern).
  bool guarded = false;
  /// The step uses run-time substitution ($var / [cmd]) in its name or
  /// object lists, so the static model of it is incomplete.
  bool dynamic = false;
  bool has_resumed = false;
  int resumed_user_id = 0;
  std::vector<int> control_deps;  // user ids within `scope`
};

/// The step-level data-flow graph of one task template, subtasks expanded
/// in-line exactly as the task manager does (§4.2.2). Edges are
/// happens-before constraints the scheduler enforces:
///
///   - data: the producer of an object name precedes its consumers,
///   - control: `{ControlDependency N}` steps follow step N,
///   - barrier: a command the interpreter synchronizes on ($status or
///     attribute reads force quiescence, `tdl::NeedsSync`) orders every
///     earlier step before every later one.
class FlowGraph {
 public:
  const std::vector<StepNode>& nodes() const { return nodes_; }
  const std::vector<std::vector<int>>& successors() const { return succ_; }

  /// True when step `a` happens-before step `b` (strict; transitive).
  bool Ordered(int a, int b) const;

  /// Finds the node with this scope + step name. Returns -1 when absent,
  /// -2 when the pair is ambiguous (declared more than once).
  int FindNode(const std::string& scope, const std::string& name) const;

  /// Ids of the steps whose outputs include the resolved object `name`,
  /// in id order; empty when no step produces it.
  const std::vector<int>& Producers(const std::string& name) const;

  /// Ids of nodes that sit on a dependency cycle.
  std::vector<int> CycleMembers() const;

  /// Any step used run-time substitution: flow rules that assume the
  /// model is complete must downgrade their findings.
  bool has_dynamic() const { return has_dynamic_; }

  /// Resolved names of the root task's formal outputs.
  const std::vector<std::string>& formal_outputs() const {
    return formal_outputs_;
  }
  /// Resolved names available before any step runs (formal inputs).
  const std::vector<std::string>& formal_inputs() const {
    return formal_inputs_;
  }

 private:
  friend class GraphBuilder;

  void Finalize();  // data/control edges + reachability closure

  std::vector<StepNode> nodes_;
  std::vector<std::vector<int>> succ_;
  std::vector<std::vector<bool>> reach_;  // strict reachability closure
  /// scope -> step name -> id, or -2 when ambiguous. Nested, so a
  /// lookup builds no combined key.
  std::unordered_map<std::string, std::unordered_map<std::string, int>>
      by_scope_name_;
  std::map<std::string, std::vector<int>> producers_;  // name -> ids
  std::vector<std::string> formal_inputs_;
  std::vector<std::string> formal_outputs_;
  bool has_dynamic_ = false;
};

/// Builds the flow graph for `tmpl`, expanding subtasks through `library`
/// (may be null: every subtask is then reported unresolved). Structural
/// problems found during construction (bad step syntax, unresolved or
/// arity-mismatched subtasks, unparsable nested scripts) are appended to
/// `diagnostics`; `file` is used as the diagnostic source for the root
/// template, expanded subtasks report under their own template name.
FlowGraph BuildFlowGraph(const tdl::TaskTemplate& tmpl,
                         const tdl::TemplateLibrary* library,
                         const std::string& file,
                         std::vector<Diagnostic>* diagnostics);

}  // namespace papyrus::lint

#endif  // PAPYRUS_LINT_FLOW_GRAPH_H_
