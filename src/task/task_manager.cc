#include "task/task_manager.h"
#include "base/macros.h"
#include "base/thread_annotations.h"

#include <algorithm>
#include <deque>
#include <limits>
#include <memory>
#include <optional>
#include <set>
#include <unordered_map>

#include "base/strings.h"
#include "cache/derivation_cache.h"
#include "cadtools/measurements.h"
#include "lint/linter.h"
#include "lint/runtime_checker.h"
#include "oct/design_data.h"
#include "tcl/interp.h"
#include "tcl/parser.h"

namespace papyrus::task {
namespace internal {

namespace {

/// Offset so execution tokens (used as Sprite parent pids) never collide
/// with real process ids.
constexpr sprite::ProcessId kExecTokenBase = 1000000;

}  // namespace

/// A subtask expansion frame: maps the subtask template's formal names to
/// actual object names and carries the frame's parsed command list. Frames
/// form a chain from the root template down through nested subtasks
/// (§4.2.2: subtasks are expanded in-line, to arbitrary depth).
struct FrameCtx {
  std::shared_ptr<FrameCtx> parent;
  std::map<std::string, std::string> name_map;  // formal -> actual
  std::string scope;        // "" for the root task, "3.1/" style below
  size_t push_site_idx = 0;  // parent's command index of the subtask cmd
  std::shared_ptr<const std::vector<tcl::RawCommand>> cmds;
  int depth = 0;
  /// Interned uniquifier appended to intermediate object names resolved in
  /// this frame (".p<exec>" plus the sanitized scope), built once at frame
  /// creation so ResolveName is a single concatenation per formal.
  std::string intermediate_suffix;
};

/// A step command after name resolution, ready for dispatch.
struct ResolvedStep {
  int internal_id = -1;
  std::string scope;
  int user_id = 0;  // 0 = none
  std::string name;
  std::vector<std::string> input_names;   // actual object names
  std::vector<std::string> output_names;  // actual object names
  std::string tool;
  std::string options;  // option string after the tool name
  bool migratable = true;
  bool has_explicit_resumed = false;
  int resumed_user_id = 0;
  std::vector<int> control_deps;  // user ids within `scope`
  /// Environmental retries already consumed by this step (host crashes and
  /// transient tool failures; programmable-abort restarts reset it).
  int attempt = 0;
};

/// One in-flight (or suspended) task invocation: the state machine that
/// interprets a template and tracks the Active / Suspending / Result lists
/// of §4.3.2.
class Execution {
 public:
  Execution(TaskManager* mgr, const TaskInvocation& invocation,
            TaskObserver* observer, int exec_id)
      : mgr_(mgr),
        invocation_(invocation),
        observer_(observer),
        exec_id_(exec_id),
        exec_token_(kExecTokenBase + exec_id) {}

  ~Execution() {
    base::AssertEngineThread("Execution::~Execution");
    // Defensive: drop any leftover router entries and executor jobs.
    for (const auto& [pid, entry] : active_) {
      mgr_->pid_router_.erase(pid);
      mgr_->executor_->Discard(entry.job_id);
    }
  }

  Status Init();
  /// Makes as much interpretation progress as currently possible.
  /// Returns true when any progress happened.
  bool Advance();
  bool done() const { return done_; }
  bool remigration() const { return invocation_.remigration; }
  void OnProcessComplete(const sprite::ProcessInfo& pinfo);
  /// Routed from the network's failure handler: the host running this
  /// step crashed. Schedules an environmental retry (or fails the step
  /// when retries are exhausted).
  void OnProcessLost(const sprite::ProcessInfo& pinfo);
  /// Called by the driver when the whole system is wedged.
  void OnDeadlock();
  /// Earliest virtual time at which a backed-off retry becomes
  /// dispatchable, or INT64_MAX when none is pending. The driver advances
  /// the clock here when the network itself has no events left.
  int64_t NextRetryMicros() const;
  Result<TaskHistoryRecord> TakeResult();

 private:
  /// Derivation-cache key parts of one dispatch, derived once in
  /// DispatchStep and carried to whichever path stages the derivation.
  struct DerivationKeys {
    std::string tool_version;
    std::string canonical_options;
    uint64_t seed_salt = 0;
    std::string key;
    /// Content-addressed key for the shared store (empty when no store is
    /// attached or an input's content hash was unavailable).
    std::string content_key;
  };
  struct ActiveEntry {
    ResolvedStep step;
    std::vector<oct::ObjectId> input_ids;
    int64_t dispatch_micros = 0;
    /// The step executor job running this step's tool.
    uint64_t job_id = 0;
    /// Set when a derivation cache is attached.
    std::optional<DerivationKeys> keys;
  };
  struct ResultEntry {
    oct::ObjectId id;
    int creating_internal_id = -1;  // -1: task input
    /// Bound from the derivation cache, not produced by a tool run. Undo
    /// must not hide a reused version the task did not create — unless the
    /// hit rematerialized it (see `restored_visibility`).
    bool reused = false;
    /// The cache hit made a previously-invisible intermediate visible
    /// again; undo and commit-time discard re-hide it.
    bool restored_visibility = false;
  };
  struct StackEntry {
    std::shared_ptr<FrameCtx> ctx;
    size_t idx;
  };
  struct StreamEntry {
    std::shared_ptr<FrameCtx> ctx;
    size_t idx;
  };
  /// Suspended-step seqs by the object name or scope#uid they wait on.
  using Waiters = std::unordered_map<std::string, std::vector<int>>;
  /// A step waiting out its exponential backoff before re-dispatch.
  struct PendingRetry {
    ResolvedStep step;
    int64_t ready_micros = 0;
    int64_t backoff_micros = 0;
  };

  void RegisterTdlCommands();
  void ResetInterp();

  // TDL command handlers.
  tcl::EvalResult CmdStep(const std::vector<std::string>& argv);
  tcl::EvalResult CmdSubtask(const std::vector<std::string>& argv);
  tcl::EvalResult CmdAttribute(const std::vector<std::string>& argv);
  tcl::EvalResult CmdAbort(const std::vector<std::string>& argv);

  std::string ResolveName(const std::string& formal) const;
  std::string StepKey(const std::string& scope, int user_id) const {
    return scope + "#" + std::to_string(user_id);
  }
  bool Quiescent() const {
    return active_.empty() && suspended_.empty() && ready_queue_.empty() &&
           retry_queue_.empty();
  }

  Status DispatchStep(const ResolvedStep& step);
  void IssueStep(ResolvedStep step);
  /// Dispatches one ready step, routing Unavailable into the
  /// environmental-retry path and other errors into a task abort.
  void DispatchNow(ResolvedStep step);
  // --- incremental ready-set --------------------------------------------
  // Pending steps are indexed by their unsatisfied inputs/control-deps
  // (one waiter entry per unsatisfied occurrence); completions decrement
  // instead of rescanning every pending step, making dispatch O(edges)
  // per task instead of O(steps^2).
  int CountUnsatisfied(const ResolvedStep& step) const;
  /// Parks `step` in the ready-set index (or the ready queue when nothing
  /// is unsatisfied). Does not dispatch.
  void ParkStep(ResolvedStep step);
  /// Binds `name` into the Result list and credits steps waiting on it.
  void BindResult(const std::string& name, ResultEntry entry);
  /// Marks scope#uid complete and credits steps waiting on the control
  /// dependency.
  void MarkStepCompleted(const std::string& key);
  /// Credits every suspended step waiting on `key` in `waiters`; a step
  /// left with nothing unsatisfied moves to the ready queue.
  void ReleaseWaiters(Waiters* waiters, const std::string& key);
  /// Dispatches everything in the ready queue (hits may cascade: a served
  /// step's outputs can make further steps ready mid-drain).
  void DrainReady();
  /// Serves `step` from the derivation cache when an identical committed
  /// derivation is recorded and still servable. On a hit the step
  /// completes instantly: outputs bound, history appended with the
  /// cache_hit marker, no process spawned. Returns false on a miss.
  bool TryCompleteFromCache(const ResolvedStep& step,
                            const std::vector<oct::ObjectId>& input_ids,
                            const DerivationKeys& keys);
  /// Second-level elision: on a session-cache miss, probes the shared
  /// content-addressed store. A verified hit re-binds the stored payloads
  /// into this session's OCT namespace as freshly created versions — the
  /// step completes at zero virtual cost without spawning a process, and
  /// the derivation is staged for the session cache (with no content key,
  /// so a warm hit is never republished). Returns false on a miss.
  bool TryCompleteFromShared(const ResolvedStep& step,
                             const std::vector<oct::ObjectId>& input_ids,
                             const DerivationKeys& keys);
  /// Completes `step` without running its tool, for both elision levels:
  /// binds `outputs` (one per output name), records the step instantly
  /// with the cache_hit marker, settles it with the flow checker under a
  /// synthetic token, and reports `instant` with the cost it saved.
  void CompleteWithoutRunning(const ResolvedStep& step,
                              const std::vector<oct::ObjectId>& input_ids,
                              std::vector<ResultEntry> outputs,
                              int64_t micros_saved, const char* instant);
  /// Stages the derivation `step` just produced (`outputs` from `inputs`)
  /// for the cache; it is recorded only if the task commits and no
  /// restart unwinds past this step.
  void StageDerivation(const ResolvedStep& step, DerivationKeys keys,
                       std::vector<oct::ObjectId> inputs,
                       const std::vector<oct::ObjectId>& outputs,
                       int64_t cost_micros);
  /// Binds a successful step's outputs (one per output name), sets
  /// $status to 0, credits its waiters and appends `record`, which gets
  /// the output ids. Returns the appended record.
  const StepRecord& RecordSuccess(const ResolvedStep& step,
                                  std::vector<ResultEntry> outputs,
                                  StepRecord record);
  /// The history record of a settled step, without inputs, outputs or the
  /// cache_hit marker.
  StepRecord MakeRecord(const ResolvedStep& step, int64_t dispatch_micros,
                        int64_t completion_micros, sprite::HostId host,
                        int exit_status, std::string message) const;
  /// Takes the active step running as `pid` off the active list, the pid
  /// router and the flow checker (nullopt when `pid` is not active).
  std::optional<ActiveEntry> Deactivate(sprite::ProcessId pid);
  /// Queues an environmental retry with exponential backoff. Returns
  /// false when the step has exhausted its retry budget (the caller then
  /// surfaces the failure through the normal step-failure path).
  bool RequeueEnvironmental(const ResolvedStep& step);
  /// Dispatches retries whose backoff has elapsed. Returns true when any
  /// step was re-dispatched.
  bool DispatchDueRetries();
  /// Appends a failed step's `record`, sets $status to its exit status and
  /// runs the §4.3.4 failure policy (ResumedStep restart or $status
  /// surfacing). `span_open`: the step's tool span is still open and ends
  /// with the failure; otherwise the failure is a `step_failed` instant.
  void FailStep(const ResolvedStep& step, StepRecord record, bool span_open);
  void HandleStepFailure(const ResolvedStep& step);
  void ScheduleRestart(int resumed_internal_id);
  void DoRestart(int resumed_internal_id);
  /// §4.3.4 undo: kills the active processes, drops the pending steps and
  /// staged derivations, and removes the Result entries and history
  /// records of every step with internal ID greater than `j` (-1: the
  /// whole task), then re-dispatches the surviving ready steps.
  void Unwind(int j);
  void AbortTask(Status status);
  void Commit();

  // --- observability ----------------------------------------------------
  /// The recorder when it is enabled, else null: call sites build their
  /// event arguments only behind this check. A sealed recorder is still
  /// enabled, so it keeps counting the events it drops.
  obs::TraceRecorder* trace() const {
    obs::TraceRecorder* tr = mgr_->obs_.trace;
    return tr != nullptr && tr->enabled() ? tr : nullptr;
  }
  /// This execution's Chrome process-group id: thread 0 is the task span,
  /// one thread per step internal id carries that step's spans.
  int trace_pid() const { return obs::kTaskPidBase + exec_id_; }
  /// Labels the step's thread track (idempotent per track).
  void NameStepTrack(const ResolvedStep& step);

  TaskManager* mgr_;
  TaskInvocation invocation_;
  TaskObserver* observer_;
  int exec_id_;
  sprite::ProcessId exec_token_;

  const tdl::TaskTemplate* template_ = nullptr;
  /// Armed by a successful Init, so present whenever steps run.
  std::unique_ptr<lint::RuntimeFlowChecker> checker_;
  std::unique_ptr<tcl::Interp> interp_;
  std::shared_ptr<FrameCtx> root_ctx_;
  std::vector<StackEntry> stack_;
  std::vector<StreamEntry> stream_;  // internal id -> interpreted command
  std::shared_ptr<FrameCtx> current_frame_;
  int current_internal_id_ = -1;
  size_t current_cmd_idx_ = 0;

  /// A pending step plus its count of unsatisfied inputs/control-deps.
  struct SuspendedStep {
    ResolvedStep step;
    int unsatisfied = 0;
  };
  /// A successful step execution staged for cache population; fed to the
  /// derivation cache only if the task commits (and the step survives all
  /// restarts), so aborted tasks and superseded attempts never pollute it.
  struct StagedCacheEntry {
    int internal_id = -1;
    std::string key;
    cache::CacheEntry entry;
  };

  std::map<sprite::ProcessId, ActiveEntry> active_;
  std::map<int, SuspendedStep> suspended_;  // seq -> pending step
  // Waiters by object name and by scope#uid: only looked up, never
  // iterated, so hashed.
  Waiters input_waiters_;
  Waiters dep_waiters_;
  std::deque<ResolvedStep> ready_queue_;
  int next_suspend_seq_ = 0;
  std::vector<PendingRetry> retry_queue_;
  std::map<std::string, ResultEntry> result_;  // actual name -> entry
  std::set<std::string> completed_keys_;       // scope#uid, successful
  std::map<std::string, int> key_internal_ids_;  // scope#uid -> internal id
  std::vector<StepRecord> step_records_;       // completion order

  oct::AttributeStore local_attr_store_;
  std::optional<int> pending_restart_;  // resumed internal id; -1 = scratch
  bool pending_abort_ = false;
  Status abort_status_;
  bool any_failed_ = false;
  std::string failure_messages_;
  int restarts_ = 0;
  int64_t steps_lost_ = 0;
  int64_t steps_retried_ = 0;
  int64_t backoff_micros_total_ = 0;
  int64_t steps_elided_ = 0;
  std::vector<StagedCacheEntry> staged_cache_;
  /// Synthetic flow-checker tokens for cache hits (negative, so they never
  /// collide with real Sprite pids or execution tokens).
  int64_t cache_token_seq_ = 0;
  int64_t invoke_micros_ = 0;
  bool done_ = false;
  Status result_status_;
  std::optional<TaskHistoryRecord> record_;
};

Status Execution::Init() {
  base::AssertEngineThread("Execution::Init");
  auto tmpl = mgr_->templates_->Find(invocation_.template_name);
  if (!tmpl.ok()) return tmpl.status();
  template_ = *tmpl;
  if (invocation_.inputs.size() != template_->formal_inputs.size()) {
    return Status::InvalidArgument(
        "task " + template_->name + " expects " +
        std::to_string(template_->formal_inputs.size()) + " inputs, got " +
        std::to_string(invocation_.inputs.size()));
  }
  if (invocation_.output_names.size() != template_->formal_outputs.size()) {
    return Status::InvalidArgument(
        "task " + template_->name + " expects " +
        std::to_string(template_->formal_outputs.size()) +
        " outputs, got " +
        std::to_string(invocation_.output_names.size()));
  }
  // Every input must name a version a step can read before anything
  // runs. CheckReadable, not Get: Get bumps the record's access time,
  // which journals.
  for (const oct::ObjectId& id : invocation_.inputs) {
    Status readable = mgr_->db_->CheckReadable(id);
    if (!readable.ok()) {
      return Status::NotFound("task " + template_->name + " input: " +
                              readable.message());
    }
  }
  // Pre-flight static verification: lint the template against the tool
  // registry and template library before any step is dispatched. Error
  // findings refuse the invocation unless explicitly overridden; the
  // resulting flow graph arms the runtime cross-checker either way. The
  // parse and the lint are the template plan's, run once per template
  // version; every invocation still reports and enforces the findings.
  const TaskManager::TemplatePlan& plan =
      mgr_->PlanFor(*template_, /*lint=*/true);
  if (!plan.parse_status.ok()) return plan.parse_status;
  const lint::LintResult& preflight = *plan.preflight;
  if (observer_ != nullptr) {
    for (const lint::Diagnostic& d : preflight.diagnostics) {
      observer_->OnLintDiagnostic(d);
    }
  }
  if (!preflight.ok() && !invocation_.override_lint) {
    std::string first;
    for (const lint::Diagnostic& d : preflight.diagnostics) {
      if (d.severity == lint::Severity::kError) {
        first = d.ToString();
        break;
      }
    }
    return Status::FailedPrecondition(
        "template " + template_->name + " failed pre-flight lint with " +
        std::to_string(preflight.errors) + " error(s); first: " + first +
        " (set TaskInvocation::override_lint to run anyway)");
  }
  checker_ = std::make_unique<lint::RuntimeFlowChecker>(preflight.graph);

  root_ctx_ = std::make_shared<FrameCtx>();
  root_ctx_->intermediate_suffix = ".p" + std::to_string(exec_id_);
  root_ctx_->cmds = plan.cmds;
  for (size_t i = 0; i < template_->formal_inputs.size(); ++i) {
    root_ctx_->name_map[template_->formal_inputs[i]] =
        invocation_.inputs[i].name;
    // Task inputs enter the Result list up front: they are available to
    // every step from the start.
    result_[invocation_.inputs[i].name] =
        ResultEntry{invocation_.inputs[i], -1};
  }
  for (size_t i = 0; i < template_->formal_outputs.size(); ++i) {
    root_ctx_->name_map[template_->formal_outputs[i]] =
        invocation_.output_names[i];
  }
  stack_.push_back(StackEntry{root_ctx_, 1});  // skip the task header
  current_frame_ = root_ctx_;
  invoke_micros_ = mgr_->network_->clock()->NowMicros();
  ResetInterp();
  if (obs::TraceRecorder* tr = trace()) {
    tr->SetProcessName(trace_pid(), "task " + std::to_string(exec_id_) +
                                        ": " + template_->name);
    tr->SetThreadName(trace_pid(), 0, "task");
    tr->Begin(trace_pid(), 0, template_->name, "task",
              {obs::TraceArg::Int("execution", exec_id_)});
  }
  return Status::OK();
}

void Execution::NameStepTrack(const ResolvedStep& step) {
  base::AssertEngineThread("Execution::NameStepTrack");
  if (obs::TraceRecorder* tr = trace()) {
    tr->SetThreadName(trace_pid(), step.internal_id, "step " + step.name);
  }
}

void Execution::ResetInterp() {
  interp_ = std::make_unique<tcl::Interp>();
  RegisterTdlCommands();
  interp_->SetVar("status", "0");
}

void Execution::RegisterTdlCommands() {
  interp_->RegisterCommand(
      "step", [this](tcl::Interp&, const std::vector<std::string>& argv) {
        return CmdStep(argv);
      });
  interp_->RegisterCommand(
      "subtask",
      [this](tcl::Interp&, const std::vector<std::string>& argv) {
        return CmdSubtask(argv);
      });
  interp_->RegisterCommand(
      "attribute",
      [this](tcl::Interp&, const std::vector<std::string>& argv) {
        return CmdAttribute(argv);
      });
  interp_->RegisterCommand(
      "abort", [this](tcl::Interp&, const std::vector<std::string>& argv) {
        return CmdAbort(argv);
      });
  interp_->RegisterCommand(
      "task", [](tcl::Interp&, const std::vector<std::string>&) {
        return tcl::EvalResult::Error(
            "task command is only valid as a template header");
      });
}

std::string Execution::ResolveName(const std::string& formal) const {
  auto it = current_frame_->name_map.find(formal);
  if (it != current_frame_->name_map.end()) return it->second;
  // Intermediate object: uniquified per task-manager instance (§4.3.4 —
  // the thesis appends the task manager's process id; we append the
  // execution id) and per subtask scope. The suffix is interned on the
  // frame at creation time, so resolution is a single concatenation.
  return formal + current_frame_->intermediate_suffix;
}

bool Execution::Advance() {
  if (done_) return false;
  bool progress = false;
  if (pending_abort_) {
    AbortTask(abort_status_);
    return true;
  }
  if (DispatchDueRetries()) progress = true;
  if (!ready_queue_.empty()) {
    DrainReady();
    progress = true;
  }
  if (done_) return true;
  if (pending_abort_) {
    AbortTask(abort_status_);
    return true;
  }
  if (pending_restart_.has_value()) {
    if (restarts_ >= invocation_.max_restarts) {
      AbortTask(Status::Aborted("restart limit exceeded (" +
                                std::to_string(invocation_.max_restarts) +
                                "); last failures: " + failure_messages_));
      return true;
    }
    DoRestart(*pending_restart_);
    // Restart re-dispatches surviving ready steps, which can fail hard.
    if (pending_abort_) {
      AbortTask(abort_status_);
      return true;
    }
    progress = true;
  }
  // Interpret top-level commands until blocked (or finished).
  while (!stack_.empty()) {
    StackEntry& top = stack_.back();
    if (top.idx >= top.ctx->cmds->size()) {
      stack_.pop_back();
      progress = true;
      continue;
    }
    const tcl::RawCommand& cmd = (*top.ctx->cmds)[top.idx];
    if (tdl::NeedsSync(cmd) && !Quiescent()) {
      return progress;  // wait for outstanding steps to settle
    }
    const bool observes_status = tdl::ReadsStatus(cmd);
    current_internal_id_ = static_cast<int>(stream_.size());
    stream_.push_back(StreamEntry{top.ctx, top.idx});
    current_frame_ = top.ctx;
    current_cmd_idx_ = top.idx;
    top.idx++;
    // NOTE: evaluating the command may push a subtask frame, which can
    // reallocate stack_; `top` must not be used past this point.
    tcl::EvalResult r = interp_->EvalCommand(cmd);
    progress = true;
    if (done_) return true;
    if (observes_status) {
      // The template inspected $status: any earlier step failure has been
      // observed and handled by the script, so it no longer forces an
      // abort at finalization. (Failures after this point still do.)
      any_failed_ = false;
    }
    if (r.code == tcl::EvalCode::kError) {
      AbortTask(Status::InvalidArgument("template error in task " +
                                        template_->name + ": " + r.value));
      return true;
    }
    if (pending_abort_ || pending_restart_.has_value()) {
      return true;  // handled at the next Advance
    }
  }
  // Interpretation complete; finalize once all dispatched work settles
  // (including steps still waiting out a retry backoff).
  if (!active_.empty() || !retry_queue_.empty()) return progress;
  if (pending_abort_ || pending_restart_.has_value()) return progress;
  if (!ready_queue_.empty()) {
    DrainReady();
    return true;
  }
  if (!suspended_.empty()) {
    std::string names;
    for (const auto& [seq, s] : suspended_) names += " " + s.step.name;
    AbortTask(Status::Aborted("unsatisfiable step dependencies:" + names +
                              (failure_messages_.empty()
                                   ? ""
                                   : "; failures: " + failure_messages_)));
    return true;
  }
  if (any_failed_) {
    AbortTask(Status::Aborted("design step failed: " + failure_messages_));
    return true;
  }
  Commit();
  return true;
}

tcl::EvalResult Execution::CmdStep(const std::vector<std::string>& argv) {
  if (argv.size() < 5) {
    return tcl::EvalResult::Error(
        "wrong # args: step [ID] Name {In} {Out} {Invocation} ?options?");
  }
  ResolvedStep step;
  step.internal_id = current_internal_id_;
  step.scope = current_frame_->scope;

  auto head = tcl::ParseList(argv[1]);
  if (!head.ok()) return tcl::EvalResult::Error(head.status().message());
  int64_t uid = 0;
  if (head->size() == 2 && ParseInt64((*head)[0], &uid)) {
    step.user_id = static_cast<int>(uid);
    step.name = (*head)[1];
  } else if (head->size() == 1) {
    step.name = (*head)[0];
  } else {
    return tcl::EvalResult::Error("bad step name field: " + argv[1]);
  }

  auto inputs = tcl::ParseList(argv[2]);
  auto outputs = tcl::ParseList(argv[3]);
  if (!inputs.ok() || !outputs.ok()) {
    return tcl::EvalResult::Error("bad step input/output list");
  }
  std::map<std::string, std::string> formal_to_actual;
  for (const std::string& formal : *inputs) {
    std::string actual = ResolveName(formal);
    step.input_names.push_back(actual);
    formal_to_actual[formal] = actual;
  }
  for (const std::string& formal : *outputs) {
    std::string actual = ResolveName(formal);
    step.output_names.push_back(actual);
    formal_to_actual[formal] = actual;
  }

  std::vector<std::string> words = SplitWhitespace(argv[4]);
  if (words.empty()) {
    return tcl::EvalResult::Error("empty invocation in step " + step.name);
  }
  step.tool = words[0];
  std::vector<std::string> option_words;
  for (size_t i = 1; i < words.size(); ++i) {
    auto it = formal_to_actual.find(words[i]);
    option_words.push_back(it == formal_to_actual.end() ? words[i]
                                                        : it->second);
  }
  step.options = Join(option_words, " ");

  // Optional self-identified fields (§4.2.2).
  for (size_t i = 5; i < argv.size(); ++i) {
    auto field = tcl::ParseList(argv[i]);
    if (!field.ok() || field->empty()) {
      return tcl::EvalResult::Error("bad optional step field: " + argv[i]);
    }
    const std::string& kind = (*field)[0];
    if (kind == "NonMigrate") {
      step.migratable = false;
    } else if (kind == "ResumedStep") {
      int64_t rid = 0;
      if (field->size() != 2 || !ParseInt64((*field)[1], &rid)) {
        return tcl::EvalResult::Error("ResumedStep requires an integer id");
      }
      step.has_explicit_resumed = true;
      step.resumed_user_id = static_cast<int>(rid);
    } else if (kind == "ControlDependency") {
      for (size_t j = 1; j < field->size(); ++j) {
        int64_t dep = 0;
        if (!ParseInt64((*field)[j], &dep)) {
          return tcl::EvalResult::Error(
              "ControlDependency requires integer ids");
        }
        step.control_deps.push_back(static_cast<int>(dep));
      }
    } else {
      return tcl::EvalResult::Error("unknown step field \"" + kind + "\"");
    }
  }

  if (step.user_id > 0) {
    key_internal_ids_[StepKey(step.scope, step.user_id)] =
        step.internal_id;
  }
  IssueStep(std::move(step));
  return tcl::EvalResult::Ok();
}

tcl::EvalResult Execution::CmdSubtask(
    const std::vector<std::string>& argv) {
  if (argv.size() != 4) {
    return tcl::EvalResult::Error(
        "wrong # args: subtask [ID] Name {In} {Out}");
  }
  auto head = tcl::ParseList(argv[1]);
  if (!head.ok()) return tcl::EvalResult::Error(head.status().message());
  std::string name = head->empty() ? "" : head->back();
  auto tmpl = mgr_->templates_->Find(name);
  if (!tmpl.ok()) {
    return tcl::EvalResult::Error(tmpl.status().message());
  }
  auto ins = tcl::ParseList(argv[2]);
  auto outs = tcl::ParseList(argv[3]);
  if (!ins.ok() || !outs.ok()) {
    return tcl::EvalResult::Error("bad subtask argument list");
  }
  // §4.2.2: mismatched input/output lists force the containing task to
  // abort.
  if (ins->size() != (*tmpl)->formal_inputs.size() ||
      outs->size() != (*tmpl)->formal_outputs.size()) {
    pending_abort_ = true;
    abort_status_ = Status::InvalidArgument(
        "subtask " + name + " argument lists do not match its template");
    return tcl::EvalResult::Ok();
  }
  const TaskManager::TemplatePlan& plan =
      mgr_->PlanFor(**tmpl, /*lint=*/false);
  if (!plan.parse_status.ok()) {
    return tcl::EvalResult::Error(plan.parse_status.message());
  }

  auto ctx = std::make_shared<FrameCtx>();
  ctx->parent = current_frame_;
  ctx->depth = current_frame_->depth + 1;
  ctx->push_site_idx = current_cmd_idx_;
  ctx->scope =
      tdl::SubtaskScope(current_frame_->scope, current_cmd_idx_, ctx->depth);
  {
    std::string sanitized = ctx->scope;
    for (char& c : sanitized) {
      if (c == '/') c = '_';
    }
    ctx->intermediate_suffix =
        ".p" + std::to_string(exec_id_) + ".s" + sanitized;
  }
  ctx->cmds = plan.cmds;
  for (size_t i = 0; i < ins->size(); ++i) {
    ctx->name_map[(*tmpl)->formal_inputs[i]] = ResolveName((*ins)[i]);
  }
  for (size_t i = 0; i < outs->size(); ++i) {
    ctx->name_map[(*tmpl)->formal_outputs[i]] = ResolveName((*outs)[i]);
  }
  stack_.push_back(StackEntry{ctx, 1});  // skip the subtask's task header
  return tcl::EvalResult::Ok();
}

tcl::EvalResult Execution::CmdAttribute(
    const std::vector<std::string>& argv) {
  base::AssertEngineThread("Execution::CmdAttribute");
  if (argv.size() != 3) {
    return tcl::EvalResult::Error(
        "wrong # args: attribute Object_Name Attribute_Name");
  }
  std::string actual = ResolveName(argv[1]);
  auto resolve = [&]() -> std::optional<oct::ObjectId> {
    auto it = result_.find(actual);
    if (it != result_.end()) return it->second.id;
    auto latest = mgr_->db_->LatestVisible(actual);
    if (latest.ok()) return *latest;
    return std::nullopt;
  };
  std::optional<oct::ObjectId> resolved = resolve();
  // §4.3.6: attribute computation is synchronous. When the object is the
  // output of a still-running step (e.g. inside a while-loop body), drain
  // the network until it materializes or nothing can make progress.
  while (!resolved.has_value() && !active_.empty() &&
         !pending_abort_ && !pending_restart_.has_value()) {
    if (!mgr_->network_->Step()) break;
    resolved = resolve();
  }
  if (!resolved.has_value()) {
    return tcl::EvalResult::Error("attribute: no such object \"" + actual +
                                  "\"");
  }
  oct::ObjectId id = *resolved;
  oct::AttributeStore* store = invocation_.attribute_store != nullptr
                                   ? invocation_.attribute_store
                                   : &local_attr_store_;
  if (auto cached = store->GetValue(id, argv[2]); cached.ok()) {
    mgr_->c_attrs_cached_->Increment();
    return tcl::EvalResult::Ok(*cached);
  }
  auto rec = mgr_->db_->Get(id);
  if (!rec.ok()) {
    return tcl::EvalResult::Error(rec.status().message());
  }
  auto value = cadtools::MeasureAttribute((*rec)->payload, argv[2]);
  if (!value.ok()) {
    return tcl::EvalResult::Error(value.status().message());
  }
  // Cache for subsequent queries (§4.3.6: the task manager caches computed
  // results in the attribute database).
  store->Attach(id, argv[2], cadtools::MeasurementToolFor(argv[2]),
                oct::AttributeMode::kLazy);
  (void)store->SetComputed(id, argv[2], *value);
  mgr_->c_attrs_computed_->Increment();
  return tcl::EvalResult::Ok(*value);
}

tcl::EvalResult Execution::CmdAbort(const std::vector<std::string>& argv) {
  if (argv.size() > 2) {
    return tcl::EvalResult::Error("wrong # args: abort ?Step_Identifier?");
  }
  if (argv.size() == 1) {
    // Abort the entire task: clean up side effects and exit (§4.2.2).
    pending_abort_ = true;
    abort_status_ = Status::Aborted("task aborted by abort command");
    return tcl::EvalResult::Ok();
  }
  // Abort a specific step, identified by step ID or symbolic name.
  int64_t uid = 0;
  bool by_id = ParseInt64(argv[1], &uid);
  const ResolvedStep* target = nullptr;
  for (const auto& [pid, entry] : active_) {
    if (entry.step.scope != current_frame_->scope) continue;
    if ((by_id && entry.step.user_id == uid) ||
        (!by_id && entry.step.name == argv[1])) {
      target = &entry.step;
    }
  }
  // Also allow aborting an already-issued (possibly completed) step: the
  // restart machinery undoes its effects.
  std::optional<ResolvedStep> record_copy;
  if (target == nullptr && !by_id) {
    for (auto rit = step_records_.rbegin(); rit != step_records_.rend();
         ++rit) {
      if (rit->step_name == argv[1]) {
        // Reconstruct enough of the step for restart resolution.
        ResolvedStep s;
        s.name = rit->step_name;
        s.scope = current_frame_->scope;
        s.internal_id = rit->internal_id;
        record_copy = s;
        target = &*record_copy;
        break;
      }
    }
  }
  if (target == nullptr && by_id) {
    auto it = key_internal_ids_.find(
        StepKey(current_frame_->scope, static_cast<int>(uid)));
    if (it != key_internal_ids_.end()) {
      ResolvedStep s;
      s.user_id = static_cast<int>(uid);
      s.scope = current_frame_->scope;
      s.internal_id = it->second;
      record_copy = s;
      target = &*record_copy;
    }
  }
  if (target == nullptr) {
    return tcl::EvalResult::Error("abort: no such step \"" + argv[1] +
                                  "\"");
  }
  if (target->has_explicit_resumed && target->resumed_user_id > 0) {
    auto it = key_internal_ids_.find(
        StepKey(target->scope, target->resumed_user_id));
    if (it == key_internal_ids_.end()) {
      return tcl::EvalResult::Error("abort: resumed step " +
                                    std::to_string(target->resumed_user_id) +
                                    " was never issued");
    }
    ScheduleRestart(it->second);
  } else {
    ScheduleRestart(-1);  // default: restart from scratch (§3.3.2)
  }
  return tcl::EvalResult::Ok();
}

int Execution::CountUnsatisfied(const ResolvedStep& step) const {
  int unsatisfied = 0;
  for (const std::string& input : step.input_names) {
    if (result_.count(input) == 0) ++unsatisfied;
  }
  for (int dep : step.control_deps) {
    if (completed_keys_.count(StepKey(step.scope, dep)) == 0) ++unsatisfied;
  }
  return unsatisfied;
}

void Execution::ParkStep(ResolvedStep step) {
  int unsatisfied = CountUnsatisfied(step);
  if (unsatisfied == 0) {
    ready_queue_.push_back(std::move(step));
    return;
  }
  int seq = next_suspend_seq_++;
  // One waiter entry per unsatisfied occurrence, so repeated input names
  // decrement once per binding event.
  for (const std::string& input : step.input_names) {
    if (result_.count(input) == 0) input_waiters_[input].push_back(seq);
  }
  for (int dep : step.control_deps) {
    std::string key = StepKey(step.scope, dep);
    if (completed_keys_.count(key) == 0) dep_waiters_[key].push_back(seq);
  }
  suspended_[seq] = SuspendedStep{std::move(step), unsatisfied};
}

void Execution::BindResult(const std::string& name, ResultEntry entry) {
  result_[name] = std::move(entry);
  ReleaseWaiters(&input_waiters_, name);
}

void Execution::MarkStepCompleted(const std::string& key) {
  completed_keys_.insert(key);
  ReleaseWaiters(&dep_waiters_, key);
}

void Execution::ReleaseWaiters(Waiters* waiters, const std::string& key) {
  auto it = waiters->find(key);
  if (it == waiters->end()) return;
  std::vector<int> seqs = std::move(it->second);
  waiters->erase(it);
  for (int seq : seqs) {
    auto sit = suspended_.find(seq);
    if (sit == suspended_.end()) continue;  // dropped by restart/abort
    if (--sit->second.unsatisfied == 0) {
      ready_queue_.push_back(std::move(sit->second.step));
      suspended_.erase(sit);
    }
  }
}

void Execution::DispatchNow(ResolvedStep step) {
  Status st = DispatchStep(step);
  if (st.IsUnavailable()) {
    // Environmental: no host can take the process right now (e.g. the
    // home node is down). Back off and retry rather than aborting.
    if (!RequeueEnvironmental(step)) {
      int64_t now = mgr_->network_->clock()->NowMicros();
      FailStep(step,
               MakeRecord(step, now, now, sprite::kNoHost,
                          cadtools::kToolExitTransient,
                          st.message() + " (retries exhausted)"),
               /*span_open=*/false);
    }
  } else if (!st.ok()) {
    pending_abort_ = true;
    abort_status_ = st;
  }
}

void Execution::DrainReady() {
  while (!ready_queue_.empty() && !pending_abort_ &&
         !pending_restart_.has_value()) {
    ResolvedStep step = std::move(ready_queue_.front());
    ready_queue_.pop_front();
    DispatchNow(std::move(step));
  }
}

void Execution::IssueStep(ResolvedStep step) {
  if (CountUnsatisfied(step) == 0) {
    DispatchNow(std::move(step));
    // A cache hit binds outputs immediately, which can make queued steps
    // ready before any network event fires.
    DrainReady();
  } else {
    ParkStep(std::move(step));
  }
}

Status Execution::DispatchStep(const ResolvedStep& step) {
  base::AssertEngineThread("Execution::DispatchStep");
  auto tool = mgr_->tools_->Find(step.tool);
  if (!tool.ok()) return tool.status();

  ResolvedStep dispatched = step;
  // Apply user option overrides (the "New Options:" interaction, §4.3.1).
  auto ov = invocation_.option_overrides.find(step.name);
  if (ov != invocation_.option_overrides.end()) {
    dispatched.options = ov->second;
  }
  if (observer_ != nullptr) {
    observer_->OnStepReady(step.name, restarts_, &dispatched.options);
  }

  std::vector<oct::ObjectId> input_ids;
  int64_t total_bytes = 0;
  for (const std::string& input : dispatched.input_names) {
    const ResultEntry& entry = result_.at(input);
    input_ids.push_back(entry.id);
    // O(1) cached size lookup: the byte footprint was computed when the
    // version was created; dispatch never re-serializes payloads.
    total_bytes += mgr_->db_->PayloadBytes(entry.id);
  }

  // Derivation-cache key parts are derived once here: the cache probe,
  // the shared-store probe and the staging of whichever derivation the
  // step produces all use these.
  std::optional<DerivationKeys> keys;
  if (mgr_->cache_ != nullptr) {
    DerivationKeys& k = keys.emplace();
    k.tool_version = (*tool)->descriptor().version;
    k.canonical_options = cache::DerivationCache::CanonicalizeOptions(
        dispatched.options, dispatched.input_names, dispatched.output_names);
    k.seed_salt = invocation_.seed ^
                  Fnv1a(dispatched.scope + dispatched.name +
                        k.canonical_options);
    k.key = cache::DerivationCache::MakeKey(dispatched.tool, k.tool_version,
                                            k.canonical_options, k.seed_salt,
                                            input_ids);
    if (mgr_->cache_->shared_store() != nullptr) {
      // Content-addressed key: identical bytes-in (not just identical
      // version ids) derive the same key in any session or daemon epoch.
      std::vector<std::string> input_hashes;
      input_hashes.reserve(input_ids.size());
      bool hashed = true;
      for (const oct::ObjectId& id : input_ids) {
        auto h = mgr_->db_->ContentHash(id);
        if (!h.ok()) {
          hashed = false;
          break;
        }
        input_hashes.push_back(std::move(*h));
      }
      if (hashed) {
        k.content_key = cache::DerivationCache::MakeContentKey(
            dispatched.tool, k.tool_version, k.canonical_options, k.seed_salt,
            input_hashes);
      }
    }
    // History-based elision: an identical committed derivation completes
    // the step instantly from its recorded outputs, spawning no process.
    if (TryCompleteFromCache(dispatched, input_ids, k)) return Status::OK();
  }

  bool migratable =
      dispatched.migratable && !(*tool)->descriptor().interactive;
  sprite::HostId host = mgr_->network_->home_host();
  if (migratable) {
    // §4.3.2: find an idle workstation; execute locally when none exists.
    auto idle = mgr_->network_->FindIdleHost();
    if (idle.ok()) host = *idle;
  }
  int64_t work = (*tool)->CostMicros(total_bytes);
  auto pid = mgr_->network_->Spawn(exec_token_, dispatched.tool, work,
                                   host, migratable);
  if (!pid.ok()) return pid.status();

  // Every tool run goes through the step executor: snapshot the input
  // payloads (immutable under single-assignment update) and submit the
  // run, which a worker may compute while virtual time advances (serial
  // mode runs it inline at Take). The result is consumed — and every side
  // effect applied — at the step's virtual completion event, keeping
  // execution byte-identical at any worker count. Init refuses inputs
  // that do not exist and the database never erases a record, so every
  // input has its snapshot; the completion-time Get revalidates
  // visibility and discards the job unrun when an input went invisible.
  std::vector<oct::DesignPayload> payloads;
  std::vector<std::string> payload_names;
  payloads.reserve(input_ids.size());
  payload_names.reserve(input_ids.size());
  for (const oct::ObjectId& id : input_ids) {
    auto rec = mgr_->db_->Peek(id);
    if (!rec.ok()) continue;
    payloads.push_back((*rec)->payload);
    payload_names.push_back(id.name);
  }
  ActiveEntry entry;
  entry.job_id = mgr_->executor_->Submit(
      *tool, std::move(payloads), std::move(payload_names),
      cadtools::ToolOptions::Parse(SplitWhitespace(dispatched.options)),
      invocation_.seed ^
          Fnv1a(dispatched.scope + dispatched.name + dispatched.options),
      dispatched.attempt);
  entry.step = std::move(dispatched);
  entry.input_ids = std::move(input_ids);
  entry.dispatch_micros = mgr_->network_->clock()->NowMicros();
  entry.keys = std::move(keys);
  const ResolvedStep& placed =
      active_.emplace(*pid, std::move(entry)).first->second.step;
  mgr_->pid_router_[*pid] = this;
  checker_->OnDispatch(*pid, placed.scope, placed.name, placed.output_names);
  if (obs::TraceRecorder* tr = trace()) {
    NameStepTrack(placed);
    tr->Begin(trace_pid(), placed.internal_id, placed.name, "step",
              {obs::TraceArg::Str("tool", placed.tool),
               obs::TraceArg::Int("host", host),
               obs::TraceArg::Int("attempt", placed.attempt)});
  }
  return Status::OK();
}

bool Execution::TryCompleteFromCache(
    const ResolvedStep& step, const std::vector<oct::ObjectId>& input_ids,
    const DerivationKeys& keys) {
  base::AssertEngineThread("Execution::TryCompleteFromCache");
  if (invocation_.disable_step_cache) return false;
  const cache::CacheEntry* hit =
      mgr_->cache_->Probe(keys.key, step.output_names);
  if (hit == nullptr) {
    // Session-cache miss: fall through to the shared content-addressed
    // store, where another session (or a previous daemon epoch) may have
    // committed this exact derivation.
    return TryCompleteFromShared(step, input_ids, keys);
  }

  std::vector<ResultEntry> outputs;
  for (const cache::CachedOutput& out : hit->outputs) {
    ResultEntry entry;
    entry.id = out.id;
    entry.creating_internal_id = step.internal_id;
    entry.reused = true;
    // Recorded intermediates were hidden when their task committed;
    // rematerialize them for this task's consumers. Undo re-hides.
    auto rec = mgr_->db_->Peek(out.id);
    if (rec.ok() && !(*rec)->visible) {
      (void)mgr_->db_->MarkVisible(out.id);
      entry.restored_visibility = true;
    }
    outputs.push_back(std::move(entry));
  }
  CompleteWithoutRunning(step, input_ids, std::move(outputs),
                         hit->cost_micros, "cache_hit");
  return true;
}

bool Execution::TryCompleteFromShared(
    const ResolvedStep& step, const std::vector<oct::ObjectId>& input_ids,
    const DerivationKeys& keys) {
  base::AssertEngineThread("Execution::TryCompleteFromShared");
  if (keys.content_key.empty()) return false;
  auto fetched = mgr_->cache_->ProbeShared(keys.content_key);
  if (!fetched.has_value()) return false;
  if (fetched->outputs.size() != step.output_names.size()) return false;

  // The stored payloads do not exist in this session's namespace; re-bind
  // them as freshly created versions. A cold run of this step would create
  // byte-identical versions here (the content key pins tool, version,
  // options, salt, and input bytes), so elision stays invisible to
  // everything downstream except the clock.
  oct::Transaction txn(mgr_->db_);
  for (size_t i = 0; i < fetched->outputs.size(); ++i) {
    txn.StageCreate(step.output_names[i],
                    std::move(fetched->outputs[i].payload), step.tool);
  }
  auto created = txn.Commit();
  if (!created.ok()) return false;  // fall back to running the tool

  // Stage the derivation so later probes in this session hit locally,
  // without its content key: a shared hit is never republished back into
  // the store it came from.
  DerivationKeys staged = keys;
  staged.content_key.clear();
  StageDerivation(step, std::move(staged), input_ids, *created,
                  fetched->cost_micros);

  std::vector<ResultEntry> outputs;
  for (const oct::ObjectId& id : *created) {
    outputs.push_back(ResultEntry{id, step.internal_id});
  }
  CompleteWithoutRunning(step, input_ids, std::move(outputs),
                         fetched->cost_micros, "cas_hit");
  return true;
}

void Execution::CompleteWithoutRunning(
    const ResolvedStep& step, const std::vector<oct::ObjectId>& input_ids,
    std::vector<ResultEntry> outputs, int64_t micros_saved,
    const char* instant) {
  int64_t now = mgr_->network_->clock()->NowMicros();
  // Instant in virtual time, and no process ran anywhere.
  StepRecord record = MakeRecord(step, now, now, sprite::kNoHost, 0, "");
  record.inputs = input_ids;
  record.cache_hit = true;
  const StepRecord& recorded =
      RecordSuccess(step, std::move(outputs), std::move(record));
  // The flow checker still sees the step (so happens-before coverage
  // stays complete) under a synthetic token that settles immediately.
  const int64_t token = -(++cache_token_seq_);
  checker_->OnDispatch(token, step.scope, step.name, step.output_names);
  checker_->OnSettle(token);
  ++steps_elided_;
  mgr_->c_steps_elided_->Increment();
  if (obs::TraceRecorder* tr = trace()) {
    NameStepTrack(step);
    tr->Instant(trace_pid(), step.internal_id, instant, "cache",
                {obs::TraceArg::Str("step", step.name),
                 obs::TraceArg::Int("micros_saved", micros_saved)});
  }
  if (observer_ != nullptr) {
    observer_->OnCacheHit(step.name, micros_saved);
    observer_->OnStepCompleted(recorded);
  }
}

void Execution::StageDerivation(const ResolvedStep& step,
                                DerivationKeys keys,
                                std::vector<oct::ObjectId> inputs,
                                const std::vector<oct::ObjectId>& outputs,
                                int64_t cost_micros) {
  StagedCacheEntry staged;
  staged.internal_id = step.internal_id;
  staged.key = std::move(keys.key);
  cache::CacheEntry& ce = staged.entry;
  ce.tool = step.tool;
  ce.tool_version = std::move(keys.tool_version);
  ce.canonical_options = std::move(keys.canonical_options);
  ce.seed_salt = keys.seed_salt;
  ce.content_key = std::move(keys.content_key);
  ce.inputs = std::move(inputs);
  for (const oct::ObjectId& id : outputs) {
    ce.outputs.push_back(cache::CachedOutput{id, true});
  }
  ce.cost_micros = cost_micros;
  staged_cache_.push_back(std::move(staged));
}

const StepRecord& Execution::RecordSuccess(const ResolvedStep& step,
                                           std::vector<ResultEntry> outputs,
                                           StepRecord record) {
  for (size_t i = 0; i < outputs.size(); ++i) {
    record.outputs.push_back(outputs[i].id);
    BindResult(step.output_names[i], std::move(outputs[i]));
  }
  interp_->SetVar("status", "0");
  if (step.user_id > 0) {
    MarkStepCompleted(StepKey(step.scope, step.user_id));
  }
  return step_records_.emplace_back(std::move(record));
}

StepRecord Execution::MakeRecord(const ResolvedStep& step,
                                 int64_t dispatch_micros,
                                 int64_t completion_micros,
                                 sprite::HostId host, int exit_status,
                                 std::string message) const {
  StepRecord record;
  record.step_name = step.name;
  record.tool = step.tool;
  record.invocation =
      step.tool + (step.options.empty() ? "" : " " + step.options);
  record.dispatch_micros = dispatch_micros;
  record.completion_micros = completion_micros;
  record.host = host;
  record.exit_status = exit_status;
  record.message = std::move(message);
  record.internal_id = step.internal_id;
  return record;
}

bool Execution::RequeueEnvironmental(const ResolvedStep& step) {
  if (step.attempt >= invocation_.max_step_retries) return false;
  PendingRetry retry;
  retry.step = step;
  retry.step.attempt = step.attempt + 1;
  // Exponential backoff in virtual time, capped so the shift stays sane.
  int shift = std::min(step.attempt, 20);
  retry.backoff_micros = invocation_.retry_backoff_micros << shift;
  retry.ready_micros =
      mgr_->network_->clock()->NowMicros() + retry.backoff_micros;
  backoff_micros_total_ += retry.backoff_micros;
  mgr_->h_retry_backoff_->Observe(retry.backoff_micros);
  if (obs::TraceRecorder* tr = trace()) {
    tr->Instant(
        trace_pid(), step.internal_id, "retry_scheduled", "step",
        {obs::TraceArg::Str("step", step.name),
         obs::TraceArg::Int("attempt", retry.step.attempt),
         obs::TraceArg::Int("backoff_micros", retry.backoff_micros)});
  }
  retry_queue_.push_back(std::move(retry));
  return true;
}

bool Execution::DispatchDueRetries() {
  bool dispatched = false;
  int64_t now = mgr_->network_->clock()->NowMicros();
  for (size_t i = 0; i < retry_queue_.size();) {
    if (retry_queue_[i].ready_micros > now) {
      ++i;
      continue;
    }
    PendingRetry retry = std::move(retry_queue_[i]);
    retry_queue_.erase(retry_queue_.begin() + i);
    Status st = DispatchStep(retry.step);
    if (st.IsUnavailable()) {
      // No host could take the process (e.g. a crash took the home node
      // down): the step was *not* re-dispatched, so it must not count as
      // a retry — it goes back on the backoff queue and is counted when a
      // dispatch actually happens. Counting here *and* on the eventual
      // successful pop double-counted papyrus.steps.retried after a host
      // crash.
      if (!RequeueEnvironmental(retry.step)) {
        FailStep(retry.step,
                 MakeRecord(retry.step, now, now, sprite::kNoHost,
                            cadtools::kToolExitTransient,
                            st.message() + " (retries exhausted)"),
                 /*span_open=*/false);
        return true;
      }
      continue;
    }
    ++steps_retried_;
    mgr_->c_steps_retried_->Increment();
    if (obs::TraceRecorder* tr = trace()) {
      tr->Instant(trace_pid(), retry.step.internal_id, "retry", "step",
                  {obs::TraceArg::Str("step", retry.step.name),
                   obs::TraceArg::Int("attempt", retry.step.attempt)});
    }
    if (observer_ != nullptr) {
      observer_->OnStepRetried(retry.step.name, retry.step.attempt,
                               retry.backoff_micros);
    }
    if (!st.ok()) {
      pending_abort_ = true;
      abort_status_ = st;
      return true;
    }
    dispatched = true;
  }
  // A re-dispatch can be served from the cache (another execution may
  // have committed the derivation meanwhile), cascading readiness.
  if (dispatched) DrainReady();
  return dispatched;
}

void Execution::FailStep(const ResolvedStep& step, StepRecord record,
                         bool span_open) {
  interp_->SetVar("status", std::to_string(record.exit_status));
  mgr_->c_steps_failed_->Increment();
  any_failed_ = true;
  if (!failure_messages_.empty()) failure_messages_ += "; ";
  failure_messages_ += record.message;
  const StepRecord& recorded = step_records_.emplace_back(std::move(record));
  if (obs::TraceRecorder* tr = trace()) {
    if (span_open) {
      tr->End(trace_pid(), step.internal_id,
              {obs::TraceArg::Int("exit_status", recorded.exit_status),
               obs::TraceArg::Str("message", recorded.message)});
    } else {
      // No process ran for this failure (or its span already ended), so
      // record it as an instant on the step's track.
      NameStepTrack(step);
      tr->Instant(trace_pid(), step.internal_id, "step_failed", "step",
                  {obs::TraceArg::Str("step", step.name),
                   obs::TraceArg::Int("exit_status", recorded.exit_status)});
    }
  }
  if (observer_ != nullptr) observer_->OnStepCompleted(recorded);
  HandleStepFailure(step);
}

std::optional<Execution::ActiveEntry> Execution::Deactivate(
    sprite::ProcessId pid) {
  auto node = active_.extract(pid);
  if (node.empty()) return std::nullopt;
  mgr_->pid_router_.erase(pid);
  checker_->OnSettle(pid);
  return std::move(node.mapped());
}

void Execution::OnProcessLost(const sprite::ProcessInfo& pinfo) {
  base::AssertEngineThread("Execution::OnProcessLost");
  std::optional<ActiveEntry> lost = Deactivate(pinfo.pid);
  if (!lost.has_value()) return;
  // The tool "never ran": drop the speculative result and every side
  // effect it captured, exactly as serial execution (which would only
  // now have run the payload) produces nothing for a lost step.
  mgr_->executor_->Discard(lost->job_id);
  ++steps_lost_;
  mgr_->c_steps_lost_->Increment();
  if (obs::TraceRecorder* tr = trace()) {
    tr->End(trace_pid(), lost->step.internal_id,
            {obs::TraceArg::Bool("lost", true),
             obs::TraceArg::Int("host", pinfo.current_host)});
  }
  if (observer_ != nullptr) {
    observer_->OnHostFailed(pinfo.current_host, lost->step.name);
  }
  // A lost step is an environmental failure: the tool never ran, so there
  // is nothing to undo — re-dispatch on a surviving host with backoff.
  if (RequeueEnvironmental(lost->step)) return;
  FailStep(lost->step,
           MakeRecord(lost->step, lost->dispatch_micros,
                      mgr_->network_->clock()->NowMicros(),
                      pinfo.current_host, cadtools::kToolExitTransient,
                      lost->step.tool + ": host " +
                          std::to_string(pinfo.current_host) +
                          " crashed (retries exhausted)"),
           /*span_open=*/false);
}

int64_t Execution::NextRetryMicros() const {
  int64_t best = std::numeric_limits<int64_t>::max();
  for (const PendingRetry& retry : retry_queue_) {
    best = std::min(best, retry.ready_micros);
  }
  return best;
}

void Execution::OnProcessComplete(const sprite::ProcessInfo& pinfo) {
  base::AssertEngineThread("Execution::OnProcessComplete");
  std::optional<ActiveEntry> settled = Deactivate(pinfo.pid);
  if (!settled.has_value()) return;
  ActiveEntry& entry = *settled;

  // The simulated process has "finished computing": consume its tool
  // run. Get revalidates each input at completion time and updates its
  // access time, as serial execution always has; the job ran on the
  // dispatch-time snapshots, identical by single-assignment update
  // whenever Get succeeds here.
  bool inputs_ok = true;
  for (const oct::ObjectId& id : entry.input_ids) {
    if (!mgr_->db_->Get(id).ok()) {
      inputs_ok = false;
      break;
    }
  }
  cadtools::ToolRunResult res;
  if (inputs_ok) {
    // Commit funnel: collect the (possibly worker-computed) result and
    // replay its captured observability effects, here on the engine
    // thread at the virtual completion event.
    res = mgr_->executor_->Take(entry.job_id);
  } else {
    // Serial execution would have failed before running the tool; the
    // speculative result is dropped with its captured effects.
    mgr_->executor_->Discard(entry.job_id);
    res = cadtools::ToolRunResult::Fail(
        2, entry.step.tool + ": input object disappeared");
  }
  if (res.exit_status == 0 &&
      res.outputs.size() != entry.step.output_names.size()) {
    res = cadtools::ToolRunResult::Fail(
        3, entry.step.tool + ": produced " +
               std::to_string(res.outputs.size()) + " outputs, template " +
               "declares " +
               std::to_string(entry.step.output_names.size()));
  }

  if (res.exit_status != 0 && res.transient) {
    // Transient tool failure (EX_TEMPFAIL): retry with backoff instead of
    // surfacing the failure to the template. No StepRecord is written for
    // the failed attempt; only exhausted retries become visible.
    if (RequeueEnvironmental(entry.step)) {
      if (obs::TraceRecorder* tr = trace()) {
        tr->End(trace_pid(), entry.step.internal_id,
                {obs::TraceArg::Bool("transient", true),
                 obs::TraceArg::Int("exit_status", res.exit_status)});
      }
      return;
    }
    res.message += " (retries exhausted)";
  }

  StepRecord record = MakeRecord(entry.step, entry.dispatch_micros,
                                 pinfo.finish_micros, pinfo.current_host,
                                 res.exit_status, std::move(res.message));
  record.inputs = entry.input_ids;
  const int64_t latency = record.completion_micros - record.dispatch_micros;
  if (res.exit_status != 0) {
    mgr_->h_step_latency_->Observe(latency);
    FailStep(entry.step, std::move(record), /*span_open=*/true);
    return;
  }

  oct::Transaction txn(mgr_->db_);
  for (size_t i = 0; i < res.outputs.size(); ++i) {
    txn.StageCreate(entry.step.output_names[i], std::move(res.outputs[i]),
                    entry.step.tool);
  }
  auto created = txn.Commit();
  if (!created.ok()) {
    pending_abort_ = true;
    abort_status_ = created.status();
    return;
  }
  if (entry.keys.has_value()) {
    StageDerivation(entry.step, std::move(*entry.keys),
                    std::move(entry.input_ids), *created, latency);
  }
  std::vector<ResultEntry> outputs;
  for (const oct::ObjectId& id : *created) {
    outputs.push_back(ResultEntry{id, entry.step.internal_id});
  }
  const StepRecord& recorded =
      RecordSuccess(entry.step, std::move(outputs), std::move(record));
  mgr_->c_steps_completed_->Increment();
  mgr_->h_step_latency_->Observe(latency);
  if (obs::TraceRecorder* tr = trace()) {
    tr->End(trace_pid(), entry.step.internal_id,
            {obs::TraceArg::Int("exit_status", 0),
             obs::TraceArg::Int("host", pinfo.current_host)});
  }
  if (observer_ != nullptr) observer_->OnStepCompleted(recorded);
  DrainReady();
}

void Execution::HandleStepFailure(const ResolvedStep& step) {
  // Papyrus policy (documented divergence, DESIGN.md): a failed step
  // triggers an automatic restart only when it carries an explicit
  // ResumedStep field. Otherwise the failure is surfaced through the Tcl
  // `$status` variable and the template decides; a task that can no longer
  // make progress aborts at finalization.
  if (!step.has_explicit_resumed) return;
  if (step.resumed_user_id == 0) {
    ScheduleRestart(-1);
    return;
  }
  auto it = key_internal_ids_.find(
      StepKey(step.scope, step.resumed_user_id));
  if (it == key_internal_ids_.end()) {
    pending_abort_ = true;
    abort_status_ = Status::InvalidArgument(
        "step " + step.name + " names resumed step " +
        std::to_string(step.resumed_user_id) + " which was never issued");
    return;
  }
  ScheduleRestart(it->second);
}

void Execution::ScheduleRestart(int resumed_internal_id) {
  // Keep the earliest (smallest) restart target if several failures race.
  if (pending_restart_.has_value()) {
    pending_restart_ = std::min(*pending_restart_, resumed_internal_id);
  } else {
    pending_restart_ = resumed_internal_id;
  }
}

void Execution::DoRestart(int j) {
  base::AssertEngineThread("Execution::DoRestart");
  pending_restart_.reset();
  ++restarts_;
  mgr_->c_task_restarts_->Increment();
  any_failed_ = false;
  if (obs::TraceRecorder* tr = trace()) {
    tr->Instant(trace_pid(), 0, "task_restart", "task",
                {obs::TraceArg::Int("resumed_internal_id", j),
                 obs::TraceArg::Int("restarts", restarts_)});
  }
  if (observer_ != nullptr) {
    observer_->OnTaskRestarted(template_->name, j);
  }
  Unwind(j);

  // Rebuild the interpretation stack so the next command interpreted is
  // the (J+1)-th — §4.3.4.
  stack_.clear();
  if (j < 0) {
    // Full restart: fresh interpreter, from the beginning.
    ResetInterp();
    stack_.push_back(StackEntry{root_ctx_, 1});
    current_frame_ = root_ctx_;
    return;
  }
  const StreamEntry& entry = stream_[j];
  std::vector<std::shared_ptr<FrameCtx>> chain;
  for (std::shared_ptr<FrameCtx> c = entry.ctx; c != nullptr;
       c = c->parent) {
    chain.push_back(c);
  }
  std::reverse(chain.begin(), chain.end());  // root .. leaf
  for (size_t i = 0; i < chain.size(); ++i) {
    size_t idx = (i + 1 < chain.size()) ? chain[i + 1]->push_site_idx + 1
                                        : entry.idx + 1;
    stack_.push_back(StackEntry{chain[i], idx});
  }
  current_frame_ = entry.ctx;
}

void Execution::Unwind(int j) {
  for (auto it = active_.begin(); it != active_.end();) {
    const sprite::ProcessId pid = it->first;
    if ((it++)->second.step.internal_id <= j) continue;
    (void)mgr_->network_->Kill(pid);
    std::optional<ActiveEntry> killed = Deactivate(pid);
    mgr_->executor_->Discard(killed->job_id);
    if (obs::TraceRecorder* tr = trace()) {
      tr->End(trace_pid(), killed->step.internal_id,
              {obs::TraceArg::Bool("killed", true)});
    }
  }
  // Collect surviving pending steps, then rebuild the ready-set index
  // from scratch: result_ entries removed below can re-block steps whose
  // unsatisfied counts were already credited.
  std::vector<ResolvedStep> survivors;
  for (auto& [seq, s] : suspended_) {
    if (s.step.internal_id <= j) survivors.push_back(std::move(s.step));
  }
  for (ResolvedStep& s : ready_queue_) {
    if (s.internal_id <= j) survivors.push_back(std::move(s));
  }
  suspended_.clear();
  ready_queue_.clear();
  input_waiters_.clear();
  dep_waiters_.clear();
  std::erase_if(retry_queue_, [j](const PendingRetry& r) {
    return r.step.internal_id > j;
  });
  // An unwound step's derivation never populates the cache.
  std::erase_if(staged_cache_, [j](const StagedCacheEntry& s) {
    return s.internal_id > j;
  });
  for (auto it = result_.begin(); it != result_.end();) {
    if (it->second.creating_internal_id > j) {
      // Undo: hide what the unwound steps created (§3.3.1 "deletes" via
      // visibility) — but a version bound from the cache belongs to
      // committed history; only re-hide it when the hit rematerialized it.
      if (!it->second.reused || it->second.restored_visibility) {
        (void)mgr_->db_->MarkInvisible(it->second.id);
      }
      it = result_.erase(it);
    } else {
      ++it;
    }
  }
  for (auto it = key_internal_ids_.begin();
       it != key_internal_ids_.end();) {
    if (it->second > j) {
      completed_keys_.erase(it->first);
      it = key_internal_ids_.erase(it);
    } else {
      ++it;
    }
  }
  std::erase_if(step_records_,
                [j](const StepRecord& r) { return r.internal_id > j; });
  interp_->SetVar("status", "0");
  // Re-index the survivors against the post-undo Result list; anything
  // (still) ready dispatches below rather than waiting for an event.
  for (ResolvedStep& s : survivors) ParkStep(std::move(s));
  DrainReady();
}

void Execution::AbortTask(Status status) {
  base::AssertEngineThread("Execution::AbortTask");
  pending_abort_ = false;
  pending_restart_.reset();
  Unwind(-1);  // every step's effects go; task inputs stay
  result_status_ = status.ok()
                       ? Status::Aborted("task aborted")
                       : status;
  mgr_->c_flow_violations_->Increment(checker_->violations());
  done_ = true;
  mgr_->c_tasks_aborted_->Increment();
  if (obs::TraceRecorder* tr = trace()) {
    tr->End(trace_pid(), 0,
            {obs::TraceArg::Bool("aborted", true),
             obs::TraceArg::Str("status", result_status_.message())});
  }
}

void Execution::Commit() {
  base::AssertEngineThread("Execution::Commit");
  TaskHistoryRecord record;
  record.task_name = template_->name;
  record.inputs = invocation_.inputs;
  for (const std::string& out_name : invocation_.output_names) {
    auto it = result_.find(out_name);
    if (it == result_.end()) {
      AbortTask(Status::Aborted("task output \"" + out_name +
                                "\" was never produced"));
      return;
    }
    record.outputs.push_back(it->second.id);
  }
  // Discard intermediates: only the task's declared inputs and outputs
  // stay visible after commit (§3.3.2).
  std::set<std::string> keep(invocation_.output_names.begin(),
                             invocation_.output_names.end());
  for (const oct::ObjectId& id : invocation_.inputs) keep.insert(id.name);
  for (const auto& [name, entry] : result_) {
    if (entry.creating_internal_id < 0 || keep.count(name) != 0) continue;
    // Reused versions: re-hide only those the cache hit rematerialized;
    // ones that stayed visible are some earlier task's committed outputs.
    if (entry.reused && !entry.restored_visibility) continue;
    (void)mgr_->db_->MarkInvisible(entry.id);
  }
  // Populate the derivation cache, now that intermediate visibility is
  // final (Record snapshots it). Executed steps and shared-store hits
  // were staged; session-cache hits and failed/unwound attempts never
  // were.
  if (mgr_->cache_ != nullptr) {
    for (StagedCacheEntry& staged : staged_cache_) {
      (void)mgr_->cache_->Record(std::move(staged.key),
                                 std::move(staged.entry));
    }
  }
  staged_cache_.clear();
  record.steps = std::move(step_records_);
  record.invoke_micros = invoke_micros_;
  record.commit_micros = mgr_->network_->clock()->NowMicros();
  record.restarts = restarts_;
  record.steps_lost = steps_lost_;
  record.steps_retried = steps_retried_;
  record.backoff_micros_total = backoff_micros_total_;
  record.steps_elided = steps_elided_;
  record_ = std::move(record);
  result_status_ = Status::OK();
  mgr_->c_flow_violations_->Increment(checker_->violations());
  done_ = true;
  mgr_->c_tasks_committed_->Increment();
  if (obs::TraceRecorder* tr = trace()) {
    tr->End(trace_pid(), 0,
            {obs::TraceArg::Int("restarts", restarts_),
             obs::TraceArg::Int("steps_elided", steps_elided_)});
  }
}

void Execution::OnDeadlock() {
  std::string names;
  for (const auto& [seq, s] : suspended_) names += " " + s.step.name;
  AbortTask(Status::Aborted(
      "task deadlocked; unsatisfiable steps:" + names +
      (failure_messages_.empty() ? ""
                                 : "; failures: " + failure_messages_)));
}

Result<TaskHistoryRecord> Execution::TakeResult() {
  if (!done_) return Status::Internal("execution still in progress");
  if (!result_status_.ok()) return result_status_;
  return std::move(*record_);
}

}  // namespace internal

TaskManager::TaskManager(oct::OctDatabase* db,
                         const cadtools::ToolRegistry* tools,
                         sprite::Network* network,
                         const tdl::TemplateLibrary* templates)
    : db_(db), tools_(tools), network_(network), templates_(templates) {
  base::AssertEngineThread("TaskManager::TaskManager");
  executor_ = std::make_unique<StepExecutor>();
  executor_->set_worker_threads(DefaultWorkerThreads());
  owned_metrics_ = std::make_unique<obs::MetricsRegistry>();
  obs_.metrics = owned_metrics_.get();
  BindMetrics(obs_.metrics);
  network_->SetCompletionHandler([this](const sprite::ProcessInfo& p) {
    auto it = pid_router_.find(p.pid);
    if (it != pid_router_.end()) it->second->OnProcessComplete(p);
  });
  network_->SetFailureHandler([this](const sprite::ProcessInfo& p) {
    auto it = pid_router_.find(p.pid);
    if (it != pid_router_.end()) it->second->OnProcessLost(p);
  });
}

TaskManager::~TaskManager() = default;

void TaskManager::set_observability(const obs::Observability& obs) {
  base::AssertEngineThread("TaskManager::set_observability");
  obs_.trace = obs.trace;
  if (obs.metrics != nullptr && obs.metrics != obs_.metrics) {
    BindMetrics(obs.metrics);
    obs_.metrics = obs.metrics;
  }
}

void TaskManager::BindMetrics(obs::MetricsRegistry* registry) {
  base::AssertEngineThread("TaskManager::BindMetrics");
  auto rebind = [registry](obs::Counter*& c, const char* name) {
    obs::Counter* fresh = registry->FindOrCreateCounter(name);
    // Carry accumulated statistics into the new registry so the
    // accessors stay monotonic across a rebind.
    if (c != nullptr && c != fresh) fresh->Increment(c->value());
    c = fresh;
  };
  rebind(c_tasks_committed_, obs::kTasksCommitted);
  rebind(c_tasks_aborted_, obs::kTasksAborted);
  rebind(c_task_restarts_, obs::kTaskRestarts);
  rebind(c_steps_completed_, obs::kStepsCompleted);
  rebind(c_steps_failed_, obs::kStepsFailed);
  rebind(c_remigrations_, obs::kSpriteRemigrations);
  rebind(c_steps_lost_, obs::kStepsLost);
  rebind(c_steps_retried_, obs::kStepsRetried);
  rebind(c_flow_violations_, obs::kFlowViolations);
  rebind(c_steps_elided_, obs::kStepsElided);
  rebind(c_attrs_computed_, obs::kAttributesComputed);
  rebind(c_attrs_cached_, obs::kAttributesCached);
  rebind(c_templates_linted_, obs::kLintTemplatesLinted);
  // Histogram observations are not carried over; rebind before invoking.
  h_step_latency_ = registry->FindOrCreateHistogram(
      obs::kStepVirtualLatency, obs::LatencyBucketBounds());
  h_retry_backoff_ = registry->FindOrCreateHistogram(
      obs::kStepRetryBackoff, obs::LatencyBucketBounds());
  executor_->BindMetrics(registry);
}

void TaskManager::set_worker_threads(int n) {
  base::AssertEngineThread("TaskManager::set_worker_threads");
  executor_->set_worker_threads(n);
}

int TaskManager::worker_threads() const {
  return executor_->worker_threads();
}

const TaskManager::TemplatePlan& TaskManager::PlanFor(
    const tdl::TaskTemplate& tmpl, bool lint) {
  base::AssertEngineThread("TaskManager::PlanFor");
  auto [it, inserted] = plans_.try_emplace(tmpl.name);
  TemplatePlan& plan = it->second;
  if (inserted || plan.script != tmpl.script ||
      plan.tools_generation != tools_->generation() ||
      plan.library_generation != templates_->generation()) {
    plan = TemplatePlan{};
    plan.script = tmpl.script;
    plan.tools_generation = tools_->generation();
    plan.library_generation = templates_->generation();
    auto cmds = tcl::ParseScript(tmpl.script);
    if (cmds.ok()) {
      plan.cmds = std::make_shared<const std::vector<tcl::RawCommand>>(
          std::move(*cmds));
    } else {
      plan.parse_status = cmds.status();
    }
  }
  if (lint && plan.parse_status.ok() && !plan.preflight.has_value()) {
    lint::LintOptions options;
    options.tools = tools_;
    options.library = templates_;
    plan.preflight = lint::LintTemplate(tmpl, options);
    c_templates_linted_->Increment();
  }
  return plan;
}

Result<TaskHistoryRecord> TaskManager::Invoke(
    const TaskInvocation& invocation, TaskObserver* observer) {
  return std::move(InvokeMany({invocation}, {observer}).front());
}

std::vector<Result<TaskHistoryRecord>> TaskManager::InvokeMany(
    const std::vector<TaskInvocation>& invocations,
    const std::vector<TaskObserver*>& observers) {
  std::vector<std::unique_ptr<internal::Execution>> owned;
  std::vector<internal::Execution*> execs;
  std::vector<Result<TaskHistoryRecord>> results;
  std::vector<Status> init_errors(invocations.size(), Status::OK());
  for (size_t i = 0; i < invocations.size(); ++i) {
    TaskObserver* obs = i < observers.size() ? observers[i] : nullptr;
    auto exec = std::make_unique<internal::Execution>(
        this, invocations[i], obs, next_execution_id_++);
    init_errors[i] = exec->Init();
    if (init_errors[i].ok()) {
      execs.push_back(exec.get());
    }
    owned.push_back(std::move(exec));
  }
  DriveAll(execs);
  for (size_t i = 0; i < invocations.size(); ++i) {
    if (!init_errors[i].ok()) {
      results.push_back(init_errors[i]);
    } else {
      results.push_back(owned[i]->TakeResult());
    }
  }
  return results;
}

void TaskManager::DriveAll(std::vector<internal::Execution*>& executions) {
  while (true) {
    bool progress = false;
    bool all_done = true;
    for (internal::Execution* exec : executions) {
      if (exec->done()) continue;
      if (exec->Advance()) progress = true;
      if (!exec->done()) all_done = false;
    }
    if (all_done) break;
    if (progress) continue;
    TryRemigration();
    if (network_->Step()) continue;
    // The network has no events left, but a backed-off retry may still be
    // waiting on virtual time: jump the clock to the earliest one.
    int64_t next_retry = std::numeric_limits<int64_t>::max();
    for (internal::Execution* exec : executions) {
      if (!exec->done()) {
        next_retry = std::min(next_retry, exec->NextRetryMicros());
      }
    }
    if (next_retry != std::numeric_limits<int64_t>::max()) {
      if (next_retry > network_->clock()->NowMicros()) {
        network_->clock()->SetMicros(next_retry);
      }
      continue;
    }
    // Nothing can move: deadlock.
    for (internal::Execution* exec : executions) {
      if (!exec->done()) exec->OnDeadlock();
    }
  }
}

void TaskManager::TryRemigration() {
  sprite::HostId home = network_->home_host();
  // Only worth moving when the home node is contended (§4.3.3). A
  // migration only lowers the home node's load, so an uncontended home
  // node stays uncontended for the whole pass.
  auto contended = [&] {
    return network_->IsOwnerActive(home) || network_->LoadOf(home) >= 2;
  };
  if (!contended()) return;
  // Snapshot pids first: migration mutates no routing, but be safe.
  std::vector<std::pair<sprite::ProcessId, internal::Execution*>> pids(
      pid_router_.begin(), pid_router_.end());
  for (const auto& [pid, exec] : pids) {
    if (!exec->remigration()) continue;
    const sprite::ProcessInfo* info = network_->FindProcess(pid);
    if (info == nullptr || info->state != sprite::ProcessState::kRunning) {
      continue;
    }
    if (!info->migratable || info->current_host != home) continue;
    if (!contended()) continue;
    auto idle = network_->FindIdleHost(/*exclude_home=*/true);
    if (!idle.ok()) continue;
    // The move must strictly improve this process's situation; otherwise
    // processes just pile up on the least-loaded remote node.
    if (!network_->IsOwnerActive(home) &&
        network_->LoadOf(*idle) + 1 >= network_->LoadOf(home)) {
      continue;
    }
    if (network_->Migrate(pid, *idle).ok()) {
      c_remigrations_->Increment();
    }
  }
}

}  // namespace papyrus::task
