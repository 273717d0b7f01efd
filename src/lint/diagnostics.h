#ifndef PAPYRUS_LINT_DIAGNOSTICS_H_
#define PAPYRUS_LINT_DIAGNOSTICS_H_

#include <string>
#include <string_view>
#include <vector>

namespace papyrus::lint {

/// Diagnostic severities. Only kError findings make `papyrus-lint` exit
/// nonzero and make the task manager's pre-flight hook refuse a template.
enum class Severity {
  kNote,
  kWarning,
  kError,
};

const char* SeverityToString(Severity severity);

/// Stable rule identifiers — the catalogue of checks the static analyzer
/// implements. Templates are linted against all of them; golden tests key
/// on these strings, so treat them as API.
namespace rules {
inline constexpr const char* kParseError = "parse-error";
inline constexpr const char* kWriteRace = "write-race";
inline constexpr const char* kUndefinedInput = "undefined-input";
inline constexpr const char* kUnknownTool = "unknown-tool";
inline constexpr const char* kToolArity = "tool-arity";
inline constexpr const char* kDeadStep = "dead-step";
inline constexpr const char* kUnproducedOutput = "unproduced-output";
inline constexpr const char* kDependencyCycle = "dependency-cycle";
inline constexpr const char* kUnresolvedSubtask = "unresolved-subtask";
inline constexpr const char* kSubtaskArity = "subtask-arity";
inline constexpr const char* kDuplicateStepId = "duplicate-step-id";
inline constexpr const char* kUndefinedStepRef = "undefined-step-ref";

// Wire-script rules (`papyrus-lint --wire`): whole-deployment checks over
// papyrusd protocol scripts — the daemon protocol itself plus the
// cross-task data flow of everything the script queues.
inline constexpr const char* kWireParseError = "wire-parse-error";
inline constexpr const char* kWireUnknownVerb = "wire-unknown-verb";
inline constexpr const char* kWireMissingField = "wire-missing-field";
inline constexpr const char* kWireBadField = "wire-bad-field";
inline constexpr const char* kWireUnknownSession = "wire-unknown-session";
inline constexpr const char* kWireUnknownTemplate =
    "wire-unknown-template";
inline constexpr const char* kWireTaskArity = "wire-task-arity";
inline constexpr const char* kWireRunBeforeCheckin =
    "wire-run-before-checkin";
inline constexpr const char* kWireCrossSessionInput =
    "wire-cross-session-input";
inline constexpr const char* kWireWriteRace = "wire-write-race";
inline constexpr const char* kWireDuplicateTask = "wire-duplicate-task";
inline constexpr const char* kWireAfterShutdown = "wire-after-shutdown";
inline constexpr const char* kWireDrainMisuse = "wire-drain-misuse";
}  // namespace rules

/// One catalogue entry: a stable rule id, the severity its findings
/// normally carry, which analyzer emits it, and a one-line summary.
/// `papyrus-lint --catalogue` renders the list as docs/LINT.md; CI keeps
/// the checked-in file in sync (the docs/METRICS.md pattern).
struct RuleInfo {
  const char* id;
  Severity severity;
  const char* scope;  // "template" or "wire"
  const char* summary;
};

/// Every rule either analyzer can emit, template rules first, in a
/// stable order. Golden tests and docs key on ids; treat them as API.
const std::vector<RuleInfo>& RuleCatalogue();

/// One structured finding: severity, rule ID, message, and a file:line:col
/// span. `file` is the template's source file when linting from disk, or
/// the template name when linting an in-memory library entry.
struct Diagnostic {
  Severity severity = Severity::kError;
  std::string rule;
  std::string message;
  std::string file;
  int line = 0;  // 1-based; 0 = whole file
  int column = 0;  // 1-based; 0 = whole line
  std::string template_name;
  std::string step_name;  // offending step, when applicable

  /// `file:line:col: severity[rule]: message` — the gcc-style rendering.
  std::string ToString() const;
  /// One JSON object (no trailing newline).
  std::string ToJson() const;
};

/// Renders a diagnostic list as a JSON array (pretty, one object per
/// line) for `papyrus-lint --json`.
std::string DiagnosticsToJson(const std::vector<Diagnostic>& diagnostics);

/// Maps byte offsets within one source text to 1-based line and column.
/// Built once per text in one pass; each lookup is a binary search over
/// the line starts. Columns count bytes, so a `\r` before a `\n` is the
/// line's last column. Offsets past the end map to the end of the text.
class LineIndex {
 public:
  explicit LineIndex(std::string_view text);

  void LineColumnAt(size_t offset, int* line, int* column) const;

 private:
  size_t size_;
  std::vector<size_t> line_starts_;  // offset of each line's first byte
};

}  // namespace papyrus::lint

#endif  // PAPYRUS_LINT_DIAGNOSTICS_H_
