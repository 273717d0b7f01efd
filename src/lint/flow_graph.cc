#include "lint/flow_graph.h"

#include <algorithm>
#include <cctype>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "tcl/parser.h"

namespace papyrus::lint {
namespace {

// Matches the runtime interpreter's recursion tolerance without letting a
// self-invoking template expand forever.
constexpr int kMaxSubtaskDepth = 16;

bool ParseIntStrict(const std::string& s, int* out) {
  if (s.empty()) return false;
  size_t i = (s[0] == '-' || s[0] == '+') ? 1 : 0;
  if (i == s.size()) return false;
  long long v = 0;
  for (; i < s.size(); ++i) {
    if (!std::isdigit(static_cast<unsigned char>(s[i]))) return false;
    v = v * 10 + (s[i] - '0');
    if (v > 1'000'000'000) return false;
  }
  *out = static_cast<int>(s[0] == '-' ? -v : v);
  return true;
}

std::string FirstToken(const std::string& text) {
  size_t b = text.find_first_not_of(" \t\n");
  if (b == std::string::npos) return "";
  size_t e = text.find_first_of(" \t\n", b);
  return text.substr(b, e == std::string::npos ? std::string::npos : e - b);
}

/// A word whose text is substituted at eval time ($var or [cmd]) has no
/// static value. Brace-quoted words are literal in Tcl, so they are never
/// dynamic no matter what characters they contain.
bool IsDynamicWord(const tcl::RawWord& w) {
  if (w.kind == tcl::WordKind::kBraced) return false;
  return w.text.find('$') != std::string::npos ||
         w.text.find('[') != std::string::npos;
}

bool IsControlCommand(const std::string& name) {
  return name == "if" || name == "while" || name == "for" ||
         name == "foreach";
}

/// One template instantiation being expanded (the root task or a subtask
/// call site), mirroring the interpreter's FrameCtx.
struct Frame {
  std::string template_name;
  const std::string* source = nullptr;  // template script text
  const LineIndex* lines = nullptr;     // line index of *source
  std::string file;                     // diagnostic source label
  std::map<std::string, std::string> name_map;
  std::string scope;
  int depth = 0;
};

}  // namespace

class GraphBuilder {
 public:
  GraphBuilder(const tdl::TemplateLibrary* library, std::string file,
               std::vector<Diagnostic>* diagnostics)
      : library_(library), file_(std::move(file)), diags_(diagnostics) {}

  FlowGraph Build(const tdl::TaskTemplate& tmpl) {
    graph_.formal_inputs_ = tmpl.formal_inputs;
    graph_.formal_outputs_ = tmpl.formal_outputs;

    LineIndex lines(tmpl.script);
    Frame root;
    root.template_name = tmpl.name;
    root.source = &tmpl.script;
    root.lines = &lines;
    root.file = file_;
    for (const std::string& f : tmpl.formal_inputs) root.name_map[f] = f;
    for (const std::string& f : tmpl.formal_outputs) root.name_map[f] = f;

    auto cmds = tcl::ParseScript(tmpl.script);
    if (!cmds.ok()) {
      Emit(Severity::kError, rules::kParseError, root, 0, 0,
           cmds.status().message());
    } else {
      ExpandCommands(*cmds, /*first=*/1, root, /*base_offset=*/0,
                     /*frame_level=*/true, /*guarded=*/false,
                     /*frame_cmd_idx=*/0);
    }
    graph_.Finalize();
    return std::move(graph_);
  }

 private:
  /// Walks a command sequence. `frame_level` is true for the commands of a
  /// task/subtask body (where the interpreter applies sync barriers) and
  /// false inside control-structure bodies. `base_offset` positions the
  /// commands' script_offsets within frame.source for line computation;
  /// `frame_cmd_idx` is the frame-level command index used for subtask
  /// scope naming (nested commands keep their enclosing top-level index,
  /// exactly like the interpreter's current_cmd_idx_).
  void ExpandCommands(const std::vector<tcl::RawCommand>& cmds, size_t first,
                      Frame& frame, size_t base_offset, bool frame_level,
                      bool guarded, int frame_cmd_idx) {
    for (size_t i = first; i < cmds.size(); ++i) {
      const tcl::RawCommand& cmd = cmds[i];
      if (cmd.words.empty()) continue;
      if (frame_level && tdl::NeedsSync(cmd)) {
        barrier_watermark_ = static_cast<int>(graph_.nodes_.size());
      }
      int cmd_idx = frame_level ? static_cast<int>(i) : frame_cmd_idx;
      size_t abs = base_offset + cmd.script_offset;
      const std::string& head = cmd.words[0].text;
      if (head == "step") {
        AddStep(cmd, frame, abs, guarded);
      } else if (head == "subtask") {
        AddSubtask(cmd, frame, abs, guarded, cmd_idx);
      } else if (IsControlCommand(head)) {
        ExpandControlBodies(cmd, frame, abs, cmd_idx);
      }
      // Everything else (set/incr/attribute/abort/...) creates no steps.
    }
  }

  /// Re-parses each brace-quoted argument of if/while/for/foreach as a
  /// script and walks it with guarded=true: its steps may never run, or
  /// run under a sync barrier, so flow rules must not treat them as
  /// unconditional.
  void ExpandControlBodies(const tcl::RawCommand& cmd, Frame& frame,
                           size_t cmd_offset, int frame_cmd_idx) {
    for (size_t wi = 1; wi < cmd.words.size(); ++wi) {
      const tcl::RawWord& w = cmd.words[wi];
      if (w.kind != tcl::WordKind::kBraced) continue;
      if (w.text.find("step") == std::string::npos &&
          w.text.find("subtask") == std::string::npos &&
          !IsControlCommand(FirstToken(w.text))) {
        continue;  // condition / init / list argument, not a body
      }
      auto body = tcl::ParseScript(w.text);
      if (!body.ok()) {
        int line = 0, col = 0;
        frame.lines->LineColumnAt(cmd_offset, &line, &col);
        Emit(Severity::kError, rules::kParseError, frame, line, col,
             "unparsable control-structure body: " +
                 body.status().message());
        continue;
      }
      size_t body_offset = frame.source->find(w.text, cmd_offset);
      if (body_offset == std::string::npos) body_offset = cmd_offset;
      ExpandCommands(*body, /*first=*/0, frame, body_offset,
                     /*frame_level=*/false, /*guarded=*/true, frame_cmd_idx);
    }
  }

  void AddStep(const tcl::RawCommand& cmd, Frame& frame, size_t abs,
               bool guarded) {
    int line = 0, col = 0;
    frame.lines->LineColumnAt(abs, &line, &col);
    if (cmd.words.size() < 5) {
      Emit(Severity::kError, rules::kParseError, frame, line, col,
           "wrong # args: step [ID] Name {In} {Out} {Invocation} "
           "?options?");
      return;
    }
    StepNode node;
    node.id = static_cast<int>(graph_.nodes_.size());
    node.template_name = frame.template_name;
    node.scope = frame.scope;
    node.line = line;
    node.column = col;
    node.guarded = guarded;

    // Name field: `Name` or `{ID Name}`.
    if (IsDynamicWord(cmd.words[1])) {
      node.dynamic = true;
      node.name = cmd.words[1].text;
    } else {
      auto head = tcl::ParseList(cmd.words[1].text);
      if (!head.ok() || head->empty() || head->size() > 2) {
        Emit(Severity::kError, rules::kParseError, frame, line, col,
             "bad step name field: " + cmd.words[1].text);
        return;
      }
      if (head->size() == 2) {
        if (!ParseIntStrict((*head)[0], &node.user_id)) {
          Emit(Severity::kError, rules::kParseError, frame, line, col,
               "bad step name field: " + cmd.words[1].text);
          return;
        }
        node.name = (*head)[1];
      } else {
        node.name = (*head)[0];
      }
    }

    ReadNameList(cmd.words[2], frame, &node, &node.inputs);
    ReadNameList(cmd.words[3], frame, &node, &node.outputs);

    // Invocation: first token is the tool.
    if (IsDynamicWord(cmd.words[4])) {
      node.dynamic = true;
    } else {
      node.tool = FirstToken(cmd.words[4].text);
      if (node.tool.empty()) {
        Emit(Severity::kError, rules::kParseError, frame, line, col,
             "empty invocation in step " + node.name);
      }
    }

    // Optional self-identified fields.
    for (size_t i = 5; i < cmd.words.size(); ++i) {
      if (IsDynamicWord(cmd.words[i])) {
        node.dynamic = true;
        continue;
      }
      auto field = tcl::ParseList(cmd.words[i].text);
      if (!field.ok() || field->empty()) {
        Emit(Severity::kError, rules::kParseError, frame, line, col,
             "bad optional step field: " + cmd.words[i].text);
        continue;
      }
      const std::string& kind = (*field)[0];
      if (kind == "NonMigrate") {
        // Placement-only; no flow meaning.
      } else if (kind == "ResumedStep") {
        if (field->size() != 2 ||
            !ParseIntStrict((*field)[1], &node.resumed_user_id)) {
          Emit(Severity::kError, rules::kParseError, frame, line, col,
               "ResumedStep requires an integer id");
        } else {
          node.has_resumed = true;
        }
      } else if (kind == "ControlDependency") {
        for (size_t j = 1; j < field->size(); ++j) {
          int dep = 0;
          if (!ParseIntStrict((*field)[j], &dep)) {
            Emit(Severity::kError, rules::kParseError, frame, line, col,
                 "ControlDependency requires integer ids");
          } else {
            node.control_deps.push_back(dep);
          }
        }
      } else {
        Emit(Severity::kError, rules::kParseError, frame, line, col,
             "unknown step field \"" + kind + "\"")
            .step_name = node.name;
      }
    }

    if (node.dynamic) graph_.has_dynamic_ = true;
    graph_.succ_.emplace_back();
    // Barrier: every step issued before the last sync point precedes this
    // one.
    for (int p = 0; p < barrier_watermark_; ++p) {
      graph_.succ_[p].push_back(node.id);
    }
    graph_.nodes_.push_back(std::move(node));
  }

  /// Parses one step object-name list word into resolved names. A
  /// substituted word (or element) leaves the node dynamic instead.
  void ReadNameList(const tcl::RawWord& word, const Frame& frame,
                    StepNode* node, std::vector<std::string>* out) {
    if (IsDynamicWord(word)) {
      node->dynamic = true;
      return;
    }
    auto elems = tcl::ParseList(word.text);
    if (!elems.ok()) {
      node->dynamic = true;  // unparsable statically; runtime will report
      return;
    }
    for (const std::string& e : *elems) out->push_back(Resolve(frame, e));
  }

  void AddSubtask(const tcl::RawCommand& cmd, Frame& frame, size_t abs,
                  bool guarded, int frame_cmd_idx) {
    int line = 0, col = 0;
    frame.lines->LineColumnAt(abs, &line, &col);
    if (cmd.words.size() != 4) {
      Emit(Severity::kError, rules::kParseError, frame, line, col,
           "wrong # args: subtask [ID] Name {In} {Out}");
      return;
    }
    if (IsDynamicWord(cmd.words[1])) {
      graph_.has_dynamic_ = true;
      Emit(Severity::kNote, rules::kUnresolvedSubtask, frame, line, col,
           "subtask name \"" + cmd.words[1].text +
               "\" is substituted at run time; not analyzed");
      return;
    }
    auto head = tcl::ParseList(cmd.words[1].text);
    if (!head.ok() || head->empty()) {
      Emit(Severity::kError, rules::kParseError, frame, line, col,
           "bad subtask name field: " + cmd.words[1].text);
      return;
    }
    const std::string name = head->back();
    const tdl::TaskTemplate* sub = nullptr;
    if (library_ != nullptr) {
      auto found = library_->Find(name);
      if (found.ok()) sub = *found;
    }
    if (sub == nullptr) {
      Emit(Severity::kError, rules::kUnresolvedSubtask, frame, line, col,
           "subtask \"" + name + "\" not found in the template library");
      return;
    }
    if (frame.depth + 1 > kMaxSubtaskDepth) {
      Emit(Severity::kError, rules::kUnresolvedSubtask, frame, line, col,
           "subtask \"" + name + "\" exceeds the expansion depth limit (" +
               std::to_string(kMaxSubtaskDepth) +
               "); recursive template invocation?");
      return;
    }
    auto ins = tcl::ParseList(cmd.words[2].text);
    auto outs = tcl::ParseList(cmd.words[3].text);
    if (!ins.ok() || !outs.ok()) {
      Emit(Severity::kError, rules::kParseError, frame, line, col,
           "bad subtask argument list");
      return;
    }
    if (IsDynamicWord(cmd.words[2]) || IsDynamicWord(cmd.words[3])) {
      graph_.has_dynamic_ = true;
      return;
    }
    if (ins->size() != sub->formal_inputs.size() ||
        outs->size() != sub->formal_outputs.size()) {
      Emit(Severity::kError, rules::kSubtaskArity, frame, line, col,
           "subtask " + name + " takes " +
               std::to_string(sub->formal_inputs.size()) + " inputs / " +
               std::to_string(sub->formal_outputs.size()) +
               " outputs, invoked with " + std::to_string(ins->size()) +
               " / " + std::to_string(outs->size()))
          .step_name = name;
      return;
    }
    auto cmds = tcl::ParseScript(sub->script);
    if (!cmds.ok()) {
      Emit(Severity::kError, rules::kParseError, frame, line, col,
           "subtask " + name +
               " has an unparsable script: " + cmds.status().message());
      return;
    }

    LineIndex lines(sub->script);
    Frame child;
    child.template_name = sub->name;
    child.source = &sub->script;
    child.lines = &lines;
    child.file = sub->name;  // in-library template: report under its name
    child.depth = frame.depth + 1;
    child.scope = tdl::SubtaskScope(
        frame.scope, static_cast<size_t>(frame_cmd_idx), child.depth);
    for (size_t i = 0; i < ins->size(); ++i) {
      child.name_map[sub->formal_inputs[i]] = Resolve(frame, (*ins)[i]);
    }
    for (size_t i = 0; i < outs->size(); ++i) {
      child.name_map[sub->formal_outputs[i]] = Resolve(frame, (*outs)[i]);
    }
    ExpandCommands(*cmds, /*first=*/1, child, /*base_offset=*/0,
                   /*frame_level=*/true, guarded, /*frame_cmd_idx=*/0);
  }

  /// Static twin of Execution::ResolveName: formals map through the
  /// subtask's actual arguments; intermediates are unique per scope.
  std::string Resolve(const Frame& frame, const std::string& formal) {
    auto it = frame.name_map.find(formal);
    if (it != frame.name_map.end()) return it->second;
    if (frame.scope.empty()) return formal;
    return formal + "@" + frame.scope;
  }

  Diagnostic& Emit(Severity severity, const char* rule, const Frame& frame,
                   int line, int col, std::string message) {
    Diagnostic d;
    d.severity = severity;
    d.rule = rule;
    d.message = std::move(message);
    d.file = frame.file;
    d.line = line;
    d.column = col;
    d.template_name = frame.template_name;
    diags_->push_back(std::move(d));
    return diags_->back();
  }

  const tdl::TemplateLibrary* library_;
  std::string file_;
  std::vector<Diagnostic>* diags_;
  FlowGraph graph_;
  int barrier_watermark_ = 0;
};

void FlowGraph::Finalize() {
  const int n = static_cast<int>(nodes_.size());
  succ_.resize(n);

  for (const StepNode& node : nodes_) {
    auto& in_scope = by_scope_name_[node.scope];
    auto [it, inserted] = in_scope.emplace(node.name, node.id);
    if (!inserted) it->second = -2;  // ambiguous
  }

  // Data edges: each producer of an object name precedes its consumers —
  // except names available before any step runs (formal inputs): the
  // scheduler's readiness test (`StepIsReady`) is mere existence, so a
  // consumer of an initial name never waits for its re-writers.
  std::set<std::string> initial(formal_inputs_.begin(),
                                formal_inputs_.end());
  for (const StepNode& node : nodes_) {
    for (const std::string& out : node.outputs) {
      producers_[out].push_back(node.id);
    }
  }
  for (const StepNode& node : nodes_) {
    for (const std::string& in : node.inputs) {
      if (initial.count(in) > 0) continue;
      for (int p : Producers(in)) {
        if (p != node.id) succ_[p].push_back(node.id);
      }
    }
  }

  // Control edges: `{ControlDependency N}` orders step N first.
  for (const StepNode& node : nodes_) {
    for (int dep : node.control_deps) {
      for (const StepNode& other : nodes_) {
        if (other.id != node.id && other.scope == node.scope &&
            other.user_id == dep) {
          succ_[other.id].push_back(node.id);
        }
      }
    }
  }

  // Strict transitive closure by DFS from every node (graphs are tiny).
  reach_.assign(n, std::vector<bool>(n, false));
  for (int s = 0; s < n; ++s) {
    std::vector<int> stack(succ_[s]);
    while (!stack.empty()) {
      int v = stack.back();
      stack.pop_back();
      if (reach_[s][v]) continue;
      reach_[s][v] = true;
      for (int w : succ_[v]) {
        if (!reach_[s][w]) stack.push_back(w);
      }
    }
  }
}

bool FlowGraph::Ordered(int a, int b) const {
  if (a < 0 || b < 0 || a >= static_cast<int>(nodes_.size()) ||
      b >= static_cast<int>(nodes_.size())) {
    return false;
  }
  return reach_[a][b];
}

int FlowGraph::FindNode(const std::string& scope,
                        const std::string& name) const {
  auto in_scope = by_scope_name_.find(scope);
  if (in_scope == by_scope_name_.end()) return -1;
  auto it = in_scope->second.find(name);
  return it == in_scope->second.end() ? -1 : it->second;
}

const std::vector<int>& FlowGraph::Producers(const std::string& name) const {
  static const std::vector<int> kNone;
  auto it = producers_.find(name);
  return it == producers_.end() ? kNone : it->second;
}

std::vector<int> FlowGraph::CycleMembers() const {
  std::vector<int> members;
  for (int i = 0; i < static_cast<int>(nodes_.size()); ++i) {
    if (reach_[i][i]) members.push_back(i);
  }
  return members;
}

FlowGraph BuildFlowGraph(const tdl::TaskTemplate& tmpl,
                         const tdl::TemplateLibrary* library,
                         const std::string& file,
                         std::vector<Diagnostic>* diagnostics) {
  GraphBuilder builder(library, file, diagnostics);
  return builder.Build(tmpl);
}

}  // namespace papyrus::lint
