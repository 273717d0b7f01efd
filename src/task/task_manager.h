#ifndef PAPYRUS_TASK_TASK_MANAGER_H_
#define PAPYRUS_TASK_TASK_MANAGER_H_

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "base/result.h"
#include "base/status.h"
#include "base/thread_annotations.h"
#include "cadtools/registry.h"
#include "lint/diagnostics.h"
#include "lint/linter.h"
#include "obs/observability.h"
#include "oct/attribute_store.h"
#include "oct/database.h"
#include "sprite/network.h"
#include "task/history.h"
#include "task/step_executor.h"
#include "tcl/parser.h"
#include "tdl/template.h"

namespace papyrus::cache {
class DerivationCache;
}  // namespace papyrus::cache

namespace papyrus::task {

/// One task invocation request. The activity manager resolves input names
/// to concrete object versions before invoking (§5.1); output names are
/// plain — the database assigns versions under single-assignment update.
struct TaskInvocation {
  std::string template_name;
  std::vector<oct::ObjectId> inputs;       // one per formal input
  std::vector<std::string> output_names;   // one per formal output
  /// Per-step option overrides: step name -> replacement option string
  /// (everything after the tool name). The §4.3.1 "New Options:" box.
  std::map<std::string, std::string> option_overrides;
  /// Attribute cache for the invoking thread's workspace; may be null.
  oct::AttributeStore* attribute_store = nullptr;
  bool remigration = true;  // §4.3.3
  int max_restarts = 8;     // bound on programmable-abort restarts
  uint64_t seed = 1;        // base seed for source-less tools (edit)
  /// Bound on *environmental* retries per step (host crash or transient
  /// tool failure). Separate from `max_restarts`: a lost step is
  /// re-dispatched in place, never unwound.
  int max_step_retries = 4;
  /// Base of the exponential backoff applied before each environmental
  /// re-dispatch, in virtual microseconds (doubles per attempt).
  int64_t retry_backoff_micros = 1000;
  /// Every invocation is statically verified first (`papyrus-lint`
  /// pre-flight) and refused on error-severity findings. Setting this
  /// runs the template anyway; diagnostics are still reported through
  /// `TaskObserver::OnLintDiagnostic` and the runtime flow checker stays
  /// armed.
  bool override_lint = false;
  /// Escape hatch: run every step of this invocation even when an
  /// identical committed derivation is cached (the run still *populates*
  /// the cache on commit). For flows that must exercise the tools, e.g.
  /// qualification reruns.
  bool disable_step_cache = false;
};

/// Observation and interaction hooks — the library-level equivalent of the
/// Tk task-manager window (§4.3.1). All methods have empty defaults.
///
/// Threading contract: all engine *state mutation* is single-threaded.
/// With `worker_threads > 1` (see step_executor.h) tool payloads execute
/// speculatively on a worker pool, but every OCT commit, history record,
/// ADG edge, cache update — and every one of these callbacks — is funneled
/// back to the engine thread at the step's virtual completion event, in
/// the same fixed order serial execution uses. Every callback fires
/// *synchronously* on the thread that called `TaskManager::Invoke` /
/// `InvokeMany`, in the middle of the scheduler loop — there is no
/// callback thread and no queueing, at any worker count. Consequences:
///  - implementations need no locking of their own state unless they
///    share it with other application threads;
///  - implementations must not re-enter the TaskManager (no nested
///    Invoke, no mutation of the network/database) — the scheduler's
///    internal state is mid-update when callbacks run;
///  - callbacks must return promptly; virtual time is frozen while they
///    run, so blocking here stalls every concurrent task.
class TaskObserver {
 public:
  virtual ~TaskObserver() = default;
  /// A step is about to be dispatched; `options` holds its option string
  /// (after overrides) and may be modified — the "New Options:" entry.
  /// `restart_count` tells retry logic how many times the task restarted.
  virtual void OnStepReady(const std::string& step_name, int restart_count,
                           std::string* options) {
    (void)step_name;
    (void)restart_count;
    (void)options;
  }
  virtual void OnStepCompleted(const StepRecord& record) { (void)record; }
  virtual void OnTaskRestarted(const std::string& task_name,
                               int resumed_internal_id) {
    (void)task_name;
    (void)resumed_internal_id;
  }
  /// A step is being re-dispatched after an environmental failure (host
  /// crash or transient tool failure). `attempt` counts retries of this
  /// step so far (1 = first retry); `backoff_micros` is the virtual-time
  /// delay that preceded this re-dispatch.
  virtual void OnStepRetried(const std::string& step_name, int attempt,
                             int64_t backoff_micros) {
    (void)step_name;
    (void)attempt;
    (void)backoff_micros;
  }
  /// A workstation crashed while it was running this task's step.
  virtual void OnHostFailed(sprite::HostId host,
                            const std::string& step_name) {
    (void)host;
    (void)step_name;
  }
  /// One pre-flight lint finding for the invoked template (reported
  /// before any step runs, whatever the severity).
  virtual void OnLintDiagnostic(const lint::Diagnostic& diagnostic) {
    (void)diagnostic;
  }
  /// The derivation cache elided this step: no tool process ran, the
  /// outputs were bound from the recorded versions. `micros_saved` is the
  /// virtual execution cost of the original run.
  virtual void OnCacheHit(const std::string& step_name,
                          int64_t micros_saved) {
    (void)step_name;
    (void)micros_saved;
  }
};

namespace internal {
class Execution;
}  // namespace internal

/// The Papyrus Task Manager (§4.3): interprets TDL task templates,
/// extracts process-level parallelism, dispatches design steps across the
/// Sprite workstation network (with re-migration), enforces programmable
/// abort semantics, and packages each committed task's operation history
/// into a `TaskHistoryRecord`.
class TaskManager {
 public:
  TaskManager(oct::OctDatabase* db, const cadtools::ToolRegistry* tools,
              sprite::Network* network,
              const tdl::TemplateLibrary* templates);
  ~TaskManager();

  TaskManager(const TaskManager&) = delete;
  TaskManager& operator=(const TaskManager&) = delete;

  /// Runs one task invocation to commit (or abort). On success returns the
  /// history record; on abort all side effects have been removed
  /// (intermediate and created objects made invisible, processes killed).
  Result<TaskHistoryRecord> Invoke(const TaskInvocation& invocation,
                                   TaskObserver* observer = nullptr);

  /// Runs several invocations concurrently over the shared workstation
  /// network; element i of the result corresponds to invocation i.
  /// `observers` may be empty or parallel to `invocations`.
  std::vector<Result<TaskHistoryRecord>> InvokeMany(
      const std::vector<TaskInvocation>& invocations,
      const std::vector<TaskObserver*>& observers = {});

  // --- statistics -------------------------------------------------------
  // All statistics are backed by the metrics registry (obs/metrics.h)
  // under their stable catalogue names; these accessors read the same
  // counters the `metrics` exporters snapshot.
  int64_t tasks_committed() const { return c_tasks_committed_->value(); }
  int64_t tasks_aborted() const { return c_tasks_aborted_->value(); }
  int64_t steps_executed() const {
    return c_steps_completed_->value() + c_steps_failed_->value();
  }
  int64_t remigrations() const { return c_remigrations_->value(); }
  /// Step processes lost to host crashes, across all invocations.
  int64_t steps_lost() const { return c_steps_lost_->value(); }
  /// Environmental re-dispatches (crash + transient), across all
  /// invocations.
  int64_t steps_retried() const { return c_steps_retried_->value(); }
  /// Violations found by the runtime flow cross-checker: dispatches that
  /// contradict the template's static happens-before graph, or
  /// concurrent writers the static model missed. Zero on a healthy
  /// scheduler running clean templates.
  int64_t flow_violations() const { return c_flow_violations_->value(); }
  /// Steps elided by the derivation cache, across all invocations.
  int64_t steps_elided() const { return c_steps_elided_->value(); }
  /// Pre-flight lints run: one per template version and registry/library
  /// generation, however often the template is invoked.
  int64_t templates_linted() const {
    return c_templates_linted_->value();
  }

  /// Rebinds statistics and tracing to an external observability context
  /// (a Papyrus session's trace recorder + metrics registry). Counter
  /// values accumulated so far are carried into the new registry. Call
  /// before invoking; must come from the engine thread.
  void set_observability(const obs::Observability& obs);
  const obs::Observability& observability() const { return obs_; }

  /// Attaches a derivation cache (may be null to detach). The manager
  /// probes it before dispatching a step and populates it when a task
  /// commits. Not owned.
  void set_derivation_cache(cache::DerivationCache* cache) {
    cache_ = cache;
  }
  cache::DerivationCache* derivation_cache() const { return cache_; }

  /// Sizes the parallel step executor's worker pool. 1 (the default, see
  /// `DefaultWorkerThreads`) executes tool payloads inline on the engine
  /// thread; N > 1 runs them speculatively on N worker threads with
  /// byte-identical observable results. Engine thread, between
  /// invocations only.
  void set_worker_threads(int n);
  int worker_threads() const;

  /// The execution-id counter behind intermediate object names (each
  /// execution's intermediates are suffixed ".p<exec id>"). A restored
  /// session must continue the counter where the snapshot left off so
  /// re-run work names its intermediates identically; the daemon
  /// persists this in its per-generation session state. Engine thread,
  /// between invocations only.
  void set_next_execution_id(int id) { next_execution_id_ = id; }
  int next_execution_id() const { return next_execution_id_; }

  oct::OctDatabase* database() const { return db_; }
  const cadtools::ToolRegistry* tools() const { return tools_; }
  sprite::Network* network() const { return network_; }
  const tdl::TemplateLibrary* templates() const { return templates_; }

 private:
  friend class internal::Execution;

  /// Drives the given executions until all finish; interleaves
  /// interpretation with network events and performs re-migration.
  void DriveAll(std::vector<internal::Execution*>& executions);

  /// Attempts §4.3.3 re-migration for processes stuck on the home node.
  void TryRemigration();

  /// One template version, prepared once and reused by every invocation
  /// and subtask frame of it: the parsed commands and, from the first
  /// invocation of the template as a task, the pre-flight lint with its
  /// flow graph. A plan is current while the template text and the tool
  /// registry and template library generations it was built against all
  /// match (lint expands subtasks from the library and checks tools
  /// against the registry).
  struct TemplatePlan {
    std::string script;
    uint64_t tools_generation = 0;
    uint64_t library_generation = 0;
    Status parse_status;  // `cmds` is null when the parse failed
    std::shared_ptr<const std::vector<tcl::RawCommand>> cmds;
    std::optional<lint::LintResult> preflight;
  };

  /// The current plan of `tmpl`, rebuilt (re-parsed, lint dropped) when
  /// stale. With `lint`, also runs the plan's pre-flight lint unless it
  /// already ran.
  const TemplatePlan& PlanFor(const tdl::TaskTemplate& tmpl, bool lint);

  oct::OctDatabase* db_;
  const cadtools::ToolRegistry* tools_;
  sprite::Network* network_;
  const tdl::TemplateLibrary* templates_;

  /// (Re)binds the metric pointers to `registry`, carrying over any
  /// values already accumulated in the previous binding.
  void BindMetrics(obs::MetricsRegistry* registry);

  // pid -> owning execution, for routing completion signals.
  std::map<sprite::ProcessId, internal::Execution*> pid_router_;
  /// Template name -> its plan. Entries live as long as the manager.
  std::map<std::string, TemplatePlan> plans_
      PAPYRUS_GUARDED_BY(base::engine_thread);
  int next_execution_id_ = 1;

  /// Fallback registry for managers used outside a Papyrus session, so
  /// the statistics accessors always have live counters behind them.
  std::unique_ptr<obs::MetricsRegistry> owned_metrics_;
  obs::Observability obs_;
  obs::Counter* c_tasks_committed_ = nullptr;
  obs::Counter* c_tasks_aborted_ = nullptr;
  obs::Counter* c_task_restarts_ = nullptr;
  obs::Counter* c_steps_completed_ = nullptr;
  obs::Counter* c_steps_failed_ = nullptr;
  obs::Counter* c_remigrations_ = nullptr;
  obs::Counter* c_steps_lost_ = nullptr;
  obs::Counter* c_steps_retried_ = nullptr;
  obs::Counter* c_flow_violations_ = nullptr;
  obs::Counter* c_steps_elided_ = nullptr;
  obs::Counter* c_attrs_computed_ = nullptr;
  obs::Counter* c_attrs_cached_ = nullptr;
  obs::Counter* c_templates_linted_ = nullptr;
  obs::Histogram* h_step_latency_ = nullptr;
  obs::Histogram* h_retry_backoff_ = nullptr;

  /// Runs tool payloads — inline or on the worker pool (step_executor.h).
  std::unique_ptr<StepExecutor> executor_;

  cache::DerivationCache* cache_ = nullptr;  // optional, not owned
};

}  // namespace papyrus::task

#endif  // PAPYRUS_TASK_TASK_MANAGER_H_
