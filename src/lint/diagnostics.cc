#include "lint/diagnostics.h"

#include <algorithm>
#include <sstream>

namespace papyrus::lint {

const char* SeverityToString(Severity severity) {
  switch (severity) {
    case Severity::kNote:
      return "note";
    case Severity::kWarning:
      return "warning";
    case Severity::kError:
      return "error";
  }
  return "unknown";
}

namespace {

std::string JsonEscape(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  return out;
}

}  // namespace

std::string Diagnostic::ToString() const {
  std::ostringstream os;
  os << (file.empty() ? "<template>" : file);
  if (line > 0) {
    os << ":" << line;
    if (column > 0) os << ":" << column;
  }
  os << ": " << SeverityToString(severity) << "[" << rule
     << "]: " << message;
  return os.str();
}

std::string Diagnostic::ToJson() const {
  std::ostringstream os;
  os << "{\"severity\":\"" << SeverityToString(severity) << "\",\"rule\":\""
     << JsonEscape(rule) << "\",\"file\":\"" << JsonEscape(file)
     << "\",\"line\":" << line << ",\"column\":" << column
     << ",\"template\":\"" << JsonEscape(template_name) << "\",\"step\":\""
     << JsonEscape(step_name) << "\",\"message\":\"" << JsonEscape(message)
     << "\"}";
  return os.str();
}

std::string DiagnosticsToJson(const std::vector<Diagnostic>& diagnostics) {
  std::string out = "[";
  for (size_t i = 0; i < diagnostics.size(); ++i) {
    out += i == 0 ? "\n  " : ",\n  ";
    out += diagnostics[i].ToJson();
  }
  out += diagnostics.empty() ? "]" : "\n]";
  return out;
}

const std::vector<RuleInfo>& RuleCatalogue() {
  static const std::vector<RuleInfo> catalogue = {
      // --- template rules (papyrus-lint over .tdl) ---------------------
      {rules::kParseError, Severity::kError, "template",
       "The template header or script cannot be parsed."},
      {rules::kWriteRace, Severity::kError, "template",
       "Two steps with no ordering between them write the same object, "
       "so the committed value depends on scheduling."},
      {rules::kUndefinedInput, Severity::kError, "template",
       "A step reads an object that no formal input or earlier step "
       "provides."},
      {rules::kUnknownTool, Severity::kError, "template",
       "A step invokes a CAD tool the registry does not know."},
      {rules::kToolArity, Severity::kError, "template",
       "A step passes a tool more or fewer inputs/outputs than it "
       "accepts."},
      {rules::kDeadStep, Severity::kWarning, "template",
       "A step's outputs are never consumed and never leave the task."},
      {rules::kUnproducedOutput, Severity::kError, "template",
       "A declared formal output is produced by no step."},
      {rules::kDependencyCycle, Severity::kError, "template",
       "The step data-flow graph contains a cycle, so no execution "
       "order exists."},
      {rules::kUnresolvedSubtask, Severity::kError, "template",
       "A subtask invocation names a template missing from the "
       "library."},
      {rules::kSubtaskArity, Severity::kError, "template",
       "A subtask invocation's actual inputs/outputs do not match the "
       "callee's formals."},
      {rules::kDuplicateStepId, Severity::kError, "template",
       "Two steps declare the same step id."},
      {rules::kUndefinedStepRef, Severity::kError, "template",
       "An option override or step reference names a step that does "
       "not exist."},
      // --- wire rules (papyrus-lint --wire over .wire) -----------------
      {rules::kWireParseError, Severity::kError, "wire",
       "The line is not a well-formed wire request (malformed ~key=value "
       "field or percent escape)."},
      {rules::kWireUnknownVerb, Severity::kError, "wire",
       "The verb is not part of the papyrusd protocol."},
      {rules::kWireMissingField, Severity::kError, "wire",
       "A required field of the verb is absent."},
      {rules::kWireBadField, Severity::kError, "wire",
       "A field value is malformed (non-numeric seed or id, unknown "
       "checkin type)."},
      {rules::kWireUnknownSession, Severity::kError, "wire",
       "A submit targets a session the script never checked anything "
       "into."},
      {rules::kWireUnknownTemplate, Severity::kError, "wire",
       "A submit names a task template the daemon's library does not "
       "hold."},
      {rules::kWireTaskArity, Severity::kError, "wire",
       "A submit's ~in/~out counts do not match the template's formal "
       "inputs/outputs."},
      {rules::kWireRunBeforeCheckin, Severity::kError, "wire",
       "A submitted task reads an object that was never checked in and "
       "that no earlier task produces — it will fail at execution."},
      {rules::kWireCrossSessionInput, Severity::kError, "wire",
       "A submitted task reads an object bound in a different session; "
       "sessions share nothing."},
      {rules::kWireWriteRace, Severity::kError, "wire",
       "Two queued tasks in the same session write the same object, so "
       "the first task's output is clobbered before anyone can read "
       "it."},
      {rules::kWireDuplicateTask, Severity::kWarning, "wire",
       "A submit repeats an earlier submit byte-for-byte (same session, "
       "thread, template, refs, and seed)."},
      {rules::kWireAfterShutdown, Severity::kError, "wire",
       "A task-bearing verb (checkin/submit/run) follows shutdown; a "
       "crash-free daemon exits at the first shutdown and never reads "
       "it."},
      {rules::kWireDrainMisuse, Severity::kWarning, "wire",
       "Queued tasks are never drained (or a drain/run has nothing to "
       "do), so commits silently wait for a later incarnation."},
  };
  return catalogue;
}

LineIndex::LineIndex(std::string_view text) : size_(text.size()) {
  line_starts_.push_back(0);
  for (size_t i = 0; i < text.size(); ++i) {
    if (text[i] == '\n') line_starts_.push_back(i + 1);
  }
}

void LineIndex::LineColumnAt(size_t offset, int* line, int* column) const {
  offset = std::min(offset, size_);
  // The last line starting at or before `offset`.
  auto next = std::upper_bound(line_starts_.begin(), line_starts_.end(),
                               offset);
  *line = static_cast<int>(next - line_starts_.begin());
  *column = static_cast<int>(offset - *(next - 1)) + 1;
}

}  // namespace papyrus::lint
