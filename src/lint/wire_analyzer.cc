#include "lint/wire_analyzer.h"

#include <algorithm>
#include <deque>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>

#include "base/strings.h"
#include "lint/linter.h"
#include "server/wire.h"

namespace papyrus::lint {

namespace {

/// The protocol verbs papyrusd answers. Everything else is
/// wire-unknown-verb.
bool KnownVerb(const std::string& verb) {
  static const std::set<std::string> kVerbs = {
      "ping", "connect", "attach", "checkin", "submit", "run",
      "drain", "stat", "task", "sessions", "checkpoint", "shutdown"};
  return kVerbs.count(verb) != 0;
}

/// One queued-but-not-yet-executed task in the simulation.
struct SimTask {
  int line = 0;
  std::string session;
  std::string template_name;
  std::vector<std::string> outputs;
};

/// The line-by-line daemon simulation behind script analysis.
class WireSimulator {
 public:
  WireSimulator(const WireAnalyzerOptions& options, WireAnalysis* out)
      : options_(options), out_(out) {}

  void Line(int line, const std::string& text) {
    std::string trimmed(Trim(text));
    if (trimmed.empty() || trimmed[0] == '#') return;
    auto parsed = server::WireMessage::Parse(trimmed);
    if (!parsed.ok()) {
      Emit(Severity::kError, rules::kWireParseError, line,
           parsed.status().message());
      return;
    }
    Handle(line, *parsed);
  }

  void Finish(int last_line) {
    if (!pending_.empty() && shutdown_line_ == 0) {
      Emit(Severity::kWarning, rules::kWireDrainMisuse, last_line,
           "script ends with " + std::to_string(pending_.size()) +
               " queued task(s) never drained; they commit only when a "
               "later incarnation drains the same root");
    }
    LintReferencedTemplates();
    std::stable_sort(out_->diagnostics.begin(), out_->diagnostics.end(),
                     [](const Diagnostic& a, const Diagnostic& b) {
                       return a.line < b.line;
                     });
  }

 private:
  void Emit(Severity severity, const char* rule, int line,
            const std::string& message,
            const std::string& template_name = "") {
    Diagnostic d;
    d.severity = severity;
    d.rule = rule;
    d.message = message;
    d.file = options_.file;
    d.line = line;
    d.template_name = template_name;
    out_->diagnostics.push_back(std::move(d));
    if (severity == Severity::kError) ++out_->errors;
    if (severity == Severity::kWarning) ++out_->warnings;
    if (severity == Severity::kNote) ++out_->notes;
  }

  /// Collects the fields of `keys` missing from `msg` into one
  /// diagnostic. True when all are present.
  bool RequireFields(const server::WireMessage& msg, int line,
                     std::initializer_list<const char*> keys) {
    std::string missing;
    for (const char* key : keys) {
      if (msg.Find(key) == nullptr) {
        if (!missing.empty()) missing += ", ";
        missing += std::string("~") + key;
      }
    }
    if (missing.empty()) return true;
    Emit(Severity::kError, rules::kWireMissingField, line,
         msg.verb + " needs " + missing);
    return false;
  }

  void Handle(int line, const server::WireMessage& msg) {
    if (!KnownVerb(msg.verb)) {
      Emit(Severity::kError, rules::kWireUnknownVerb, line,
           "unknown verb \"" + msg.verb + "\"");
      return;
    }
    // After shutdown only task-bearing verbs are dead: control verbs
    // (drain/stat/shutdown/...) are the crash-restart supervisor idiom —
    // they address the next incarnation on the same root.
    bool task_bearing = msg.verb == "checkin" || msg.verb == "submit" ||
                        msg.verb == "run";
    if (shutdown_line_ != 0 && task_bearing) {
      Emit(Severity::kError, rules::kWireAfterShutdown, line,
           msg.verb + " after shutdown (line " +
               std::to_string(shutdown_line_) +
               ") is never read by a crash-free daemon");
      return;
    }
    if (msg.verb == "attach") {
      // Pins the connection to a session; later checkin/submit lines may
      // omit ~session. The daemon opens the session eagerly, so the lint
      // only needs the field itself.
      if (const std::string* session = msg.Find("session")) {
        attached_session_ = *session;
      } else {
        Emit(Severity::kError, rules::kWireMissingField, line,
             "attach needs ~session");
      }
    } else if (msg.verb == "checkin") {
      HandleCheckin(line, msg);
    } else if (msg.verb == "submit") {
      HandleSubmit(line, msg);
    } else if (msg.verb == "run") {
      if (pending_.empty()) {
        Emit(Severity::kNote, rules::kWireDrainMisuse, line,
             "run with no queued task; executes nothing unless the root "
             "holds tasks from an earlier incarnation");
      } else {
        pending_.pop_front();
      }
    } else if (msg.verb == "drain") {
      if (pending_.empty() && !any_submit_) {
        Emit(Severity::kNote, rules::kWireDrainMisuse, line,
             "drain with nothing submitted; executes nothing unless the "
             "root holds tasks from an earlier incarnation");
      }
      pending_.clear();
    } else if (msg.verb == "task") {
      const std::string* id = msg.Find("id");
      if (id == nullptr) {
        Emit(Severity::kError, rules::kWireMissingField, line,
             "task needs a numeric ~id");
      } else if (int64_t v = 0; !ParseInt64(*id, &v)) {
        Emit(Severity::kError, rules::kWireBadField, line,
             "task ~id \"" + *id + "\" is not numeric");
      }
    } else if (msg.verb == "shutdown") {
      if (!pending_.empty()) {
        Emit(Severity::kWarning, rules::kWireDrainMisuse, line,
             "shutdown with " + std::to_string(pending_.size()) +
                 " queued task(s) never drained; they commit only when "
                 "a later incarnation drains the same root");
      }
      if (shutdown_line_ == 0) shutdown_line_ = line;
    }
    // ping/stat/sessions/checkpoint carry no checkable obligations.
  }

  /// The session a task-bearing line targets: its explicit ~session
  /// field, else the session a preceding attach pinned. Mirrors the
  /// daemon's SessionField fallback.
  const std::string* ResolveSession(const server::WireMessage& msg,
                                    int line) {
    if (const std::string* session = msg.Find("session")) return session;
    if (!attached_session_.empty()) return &attached_session_;
    Emit(Severity::kError, rules::kWireMissingField, line,
         msg.verb + " needs ~session (or a preceding attach)");
    return nullptr;
  }

  void HandleCheckin(int line, const server::WireMessage& msg) {
    const std::string* session = ResolveSession(msg, line);
    if (session == nullptr) return;
    if (!RequireFields(msg, line, {"path", "type"})) return;
    // The daemon's own judgement: a refused check-in binds nothing.
    auto payload = server::CheckinPayload(msg);
    if (!payload.ok()) {
      Emit(Severity::kError, rules::kWireBadField, line,
           payload.status().message());
      return;
    }
    bound_[*session][*msg.Find("path")] = line;
  }

  void HandleSubmit(int line, const server::WireMessage& msg) {
    const std::string* resolved = ResolveSession(msg, line);
    if (resolved == nullptr) return;
    if (!RequireFields(msg, line, {"thread", "template"})) {
      return;
    }
    any_submit_ = true;
    const std::string& session = *resolved;
    const std::string& template_name = *msg.Find("template");
    if (const std::string* seed = msg.Find("seed")) {
      if (int64_t v = 0; !ParseInt64(*seed, &v) || v < 0) {
        Emit(Severity::kError, rules::kWireBadField, line,
             "bad ~seed \"" + *seed + "\"", template_name);
      }
    }

    auto session_it = bound_.find(session);
    bool session_known = session_it != bound_.end();
    if (!session_known) {
      Emit(Severity::kError, rules::kWireUnknownSession, line,
           "submit to session \"" + session +
               "\" which the script never checked anything into",
           template_name);
      // Create the session so one diagnostic covers the whole flow
      // instead of cascading into every later line.
      session_it =
          bound_.emplace(session, std::map<std::string, int>()).first;
    }
    std::map<std::string, int>& names = session_it->second;

    std::vector<std::string> inputs = msg.FindAll("in");
    std::vector<std::string> outputs = msg.FindAll("out");

    // Template resolution + arity against the formals; the template
    // itself is linted in Finish so flow errors inside it surface too.
    if (options_.library != nullptr) {
      auto tmpl = options_.library->Find(template_name);
      if (!tmpl.ok()) {
        Emit(Severity::kError, rules::kWireUnknownTemplate, line,
             "template \"" + template_name +
                 "\" is not in the daemon's library",
             template_name);
      } else {
        referenced_templates_.insert(template_name);
        const auto& formals_in = (*tmpl)->formal_inputs;
        const auto& formals_out = (*tmpl)->formal_outputs;
        if (inputs.size() != formals_in.size()) {
          Emit(Severity::kError, rules::kWireTaskArity, line,
               template_name + " takes " +
                   std::to_string(formals_in.size()) +
                   " input(s), submit passes " +
                   std::to_string(inputs.size()),
               template_name);
        }
        if (outputs.size() != formals_out.size()) {
          Emit(Severity::kError, rules::kWireTaskArity, line,
               template_name + " produces " +
                   std::to_string(formals_out.size()) +
                   " output(s), submit names " +
                   std::to_string(outputs.size()),
               template_name);
        }
      }
    }

    // Cross-task data flow: the queue is FIFO, so everything bound by
    // earlier lines (checkins and earlier tasks' outputs) exists by the
    // time this task runs. An unknown session already got its
    // diagnostic; per-input findings there would just be echoes.
    for (const std::string& ref : inputs) {
      if (!session_known) break;
      if (names.count(ref) != 0) continue;
      std::string other;
      for (const auto& [other_session, other_names] : bound_) {
        if (other_session != session && other_names.count(ref) != 0) {
          other = other_session;
          break;
        }
      }
      if (!other.empty()) {
        Emit(Severity::kError, rules::kWireCrossSessionInput, line,
             "input \"" + ref + "\" is bound in session \"" + other +
                 "\", not \"" + session + "\"; sessions share nothing",
             template_name);
      } else {
        Emit(Severity::kError, rules::kWireRunBeforeCheckin, line,
             "input \"" + ref + "\" was never checked into session \"" +
                 session + "\" and no earlier task produces it",
             template_name);
      }
    }

    // Write-race: a queued-but-undrained task in the same session
    // already writes one of our outputs — FIFO order makes the clobber
    // deterministic, but the earlier task's output is dead on arrival.
    for (const std::string& out : outputs) {
      for (const SimTask& task : pending_) {
        if (task.session != session) continue;
        if (std::find(task.outputs.begin(), task.outputs.end(), out) ==
            task.outputs.end()) {
          continue;
        }
        Emit(Severity::kError, rules::kWireWriteRace, line,
             "output \"" + out +
                 "\" is already written by the task queued at line " +
                 std::to_string(task.line) + " in session \"" + session +
                 "\"",
             template_name);
        break;
      }
    }

    // Byte-identical resubmits: same verb line modulo field order.
    if (!submitted_keys_.insert(msg.Format()).second) {
      Emit(Severity::kWarning, rules::kWireDuplicateTask, line,
           "submit repeats an earlier identical submit", template_name);
    }

    for (const std::string& out : outputs) names[out] = line;
    pending_.push_back({line, session, template_name, outputs});
  }

  /// Lints every template the script queues, so template-level findings
  /// ride along with the script's (labeled "script -> template").
  void LintReferencedTemplates() {
    if (options_.library == nullptr) return;
    for (const std::string& name : referenced_templates_) {
      auto tmpl = options_.library->Find(name);
      if (!tmpl.ok()) continue;
      LintOptions lint_options;
      lint_options.tools = options_.tools;
      lint_options.library = options_.library;
      lint_options.file = options_.file + " -> " + name;
      LintResult result = LintTemplate(**tmpl, lint_options);
      out_->errors += result.errors;
      out_->warnings += result.warnings;
      for (Diagnostic& d : result.diagnostics) {
        if (d.severity == Severity::kNote) ++out_->notes;
        out_->diagnostics.push_back(std::move(d));
      }
    }
  }

  const WireAnalyzerOptions& options_;
  WireAnalysis* out_;
  /// session -> (bound object name -> binding line).
  std::map<std::string, std::map<std::string, int>> bound_;
  std::deque<SimTask> pending_;
  std::set<std::string> submitted_keys_;
  std::set<std::string> referenced_templates_;
  int shutdown_line_ = 0;
  bool any_submit_ = false;
  /// Session pinned by the most recent attach; "" until one runs.
  std::string attached_session_;
};

}  // namespace

WireAnalysis AnalyzeWireScript(const std::string& text,
                               const WireAnalyzerOptions& options) {
  WireAnalysis analysis;
  WireSimulator sim(options, &analysis);
  std::istringstream in(text);
  std::string line;
  int number = 0;
  while (std::getline(in, line)) sim.Line(++number, line);
  sim.Finish(number == 0 ? 1 : number);
  return analysis;
}

WireAnalysis AnalyzeWireFile(const std::string& path,
                             const WireAnalyzerOptions& options) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    WireAnalysis analysis;
    Diagnostic d;
    d.severity = Severity::kError;
    d.rule = rules::kWireParseError;
    d.message = "cannot read " + path;
    d.file = path;
    analysis.diagnostics.push_back(std::move(d));
    analysis.errors = 1;
    return analysis;
  }
  std::stringstream buffer;
  buffer << in.rdbuf();
  WireAnalyzerOptions file_options = options;
  if (file_options.file.empty()) file_options.file = path;
  return AnalyzeWireScript(buffer.str(), file_options);
}

std::vector<Diagnostic> PreflightQueuedTasks(
    const std::vector<server::QueueTask>& tasks,
    const tdl::TemplateLibrary* library, const std::string& file) {
  std::vector<Diagnostic> out;
  // Report-only, so every finding is a warning: the daemon drains the
  // queue regardless, findings just fail fast at execution.
  auto emit = [&](const char* rule, int64_t task_id,
                  const std::string& message,
                  const std::string& template_name = "") {
    Diagnostic d;
    d.severity = Severity::kWarning;
    d.rule = rule;
    d.message = "queued task " + std::to_string(task_id) + ": " + message;
    d.file = file;
    d.template_name = template_name;
    out.push_back(std::move(d));
  };

  // session -> output name -> queue task id, over live tasks only.
  std::map<std::string, std::map<std::string, int64_t>> writers;
  for (const server::QueueTask& task : tasks) {
    if (task.state != server::TaskState::kPending &&
        task.state != server::TaskState::kClaimed) {
      continue;
    }
    auto desc = server::TaskDescription::Decode(task.description);
    if (!desc.ok()) {
      emit(rules::kWireParseError, task.id, desc.status().message());
      continue;
    }
    if (library != nullptr) {
      auto tmpl = library->Find(desc->template_name);
      if (!tmpl.ok()) {
        emit(rules::kWireUnknownTemplate, task.id,
             "template \"" + desc->template_name +
                 "\" is not in the daemon's library",
             desc->template_name);
      } else if (desc->input_refs.size() !=
                     (*tmpl)->formal_inputs.size() ||
                 desc->output_names.size() !=
                     (*tmpl)->formal_outputs.size()) {
        emit(rules::kWireTaskArity, task.id,
             "in/out arity does not match " + desc->template_name +
                 "'s formals",
             desc->template_name);
      }
    }
    for (const std::string& name : desc->output_names) {
      auto [it, inserted] = writers[desc->session].emplace(name, task.id);
      if (!inserted) {
        emit(rules::kWireWriteRace, task.id,
             "output \"" + name + "\" is also written by queued task " +
                 std::to_string(it->second) + " in session \"" +
                 desc->session + "\"",
             desc->template_name);
      }
    }
  }
  return out;
}

}  // namespace papyrus::lint
