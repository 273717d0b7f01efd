#ifndef PAPYRUS_TDL_TEMPLATE_H_
#define PAPYRUS_TDL_TEMPLATE_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "base/result.h"
#include "base/status.h"

namespace papyrus::tcl {
struct RawCommand;
}  // namespace papyrus::tcl

namespace papyrus::tdl {

/// A task template: a TDL script plus the formal input/output lists
/// declared by its leading `task` command (§4.2.2).
///
/// Templates are plain scripts stored as text — the thesis' "interpretive
/// approach": adding or deleting templates never touches the design
/// database, and the task manager re-interprets the text on every
/// invocation, so conditional flows and loops are evaluated against the
/// run-time state.
struct TaskTemplate {
  std::string name;
  std::vector<std::string> formal_inputs;
  std::vector<std::string> formal_outputs;
  std::string script;  // full template text, including the task command
};

/// Parses just the `task Name {Inputs} {Outputs}` header of a template and
/// validates that it is the first command.
Result<TaskTemplate> ParseTemplateHeader(const std::string& script);

/// Stores task templates by name. Expert designers or system managers add
/// templates; circuit designers only invoke them (§3.3.2).
class TemplateLibrary {
 public:
  /// Parses the script's task header and registers the template under the
  /// declared name. Replaces an existing template of the same name.
  Status Add(const std::string& script);

  /// Loads one template from a file ("Each task template is stored as a
  /// UNIX file", §4.2.2).
  Status AddFromFile(const std::string& path);

  /// Loads every `*.tdl` file in a directory; returns how many templates
  /// were registered. Files that fail to parse abort the load.
  Result<int> LoadDirectory(const std::string& directory);

  Result<const TaskTemplate*> Find(const std::string& name) const;
  bool Has(const std::string& name) const {
    return templates_.count(name) > 0;
  }
  bool Remove(const std::string& name) {
    if (templates_.erase(name) == 0) return false;
    ++generation_;
    return true;
  }
  std::vector<std::string> TemplateNames() const;
  size_t size() const { return templates_.size(); }

  /// Bumped by every Add and successful Remove. A template's pre-flight
  /// lint expands its subtasks from this library, so it is stale once
  /// the library moves, even when its own text did not change.
  uint64_t generation() const { return generation_; }

 private:
  std::map<std::string, TaskTemplate> templates_;
  uint64_t generation_ = 0;
};

// --- interpretation rules ---------------------------------------------
// Stated once for the task manager, which follows them when it
// interprets a template, and for the linter, which models them in the
// template's static flow graph. The runtime flow checker matches each
// dispatched step to its lint node by scope, so the two must agree.

/// True when `cmd` reads `$status`, the exit status of the latest
/// settled step (§4.2.3).
bool ReadsStatus(const tcl::RawCommand& cmd);

/// True when the interpreter waits, before evaluating the frame-level
/// command `cmd`, until every dispatched step has settled: the command
/// reads `$status` or computes an attribute (§4.3.6). Steps are totally
/// ordered across such a command.
bool NeedsSync(const tcl::RawCommand& cmd);

/// The scope of a subtask frame expanded by command `cmd_idx` of a frame
/// whose scope is `parent_scope` ("" for the root task), `depth` levels
/// below the root: "3.1/", then "3.1/2.2/" one level further down.
std::string SubtaskScope(const std::string& parent_scope, size_t cmd_idx,
                         int depth);

/// Registers the example templates from the thesis (Padp §4.2.3,
/// Structure_Synthesis Figure 4.2, Mosaico Figure 4.3, plus the tasks of
/// the Shifter-synthesis scenario in Figure 3.7). Adapted only where the
/// thesis text is abbreviated (e.g. `create-logic-description`'s editor
/// step takes option-driven inputs).
Status RegisterThesisTemplates(TemplateLibrary* library);

}  // namespace papyrus::tdl

#endif  // PAPYRUS_TDL_TEMPLATE_H_
