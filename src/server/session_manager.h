#ifndef PAPYRUS_SERVER_SESSION_MANAGER_H_
#define PAPYRUS_SERVER_SESSION_MANAGER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>

#include "activity/design_thread.h"
#include "base/thread_annotations.h"
#include "core/papyrus.h"
#include "fault/fault_plan.h"
#include "obs/observability.h"
#include "server/wire.h"

namespace papyrus::server {

/// Session-shaping knobs the daemon applies to every hosted session (the
/// daemon-config face of core::SessionOptions).
struct SessionConfig {
  int num_workstations = 4;
  int worker_threads = task::DefaultWorkerThreads();
  int cache_interval = 8;
  /// Intra-session chaos: when `fault.seed != 0` the plan is applied to
  /// each session incarnation's network + tool registry. Note the plan
  /// schedules crashes at absolute virtual times, so runs that restart
  /// mid-flow see different chaos than crash-free runs — exactly-once
  /// commit still holds, byte-for-byte trace equality does not.
  fault::FaultPlanOptions fault = {.seed = 0};
  /// Every Nth ManagedSession::Save compacts a delta-snapshot generation
  /// (the others are WAL group commits). <= 1 compacts on every save.
  int snapshot_interval = 8;
};

/// One design session hosted by papyrusd, durably backed by the storage
/// engine (storage::SessionStore): a per-commit write-ahead log plus
/// periodic compacted delta-snapshot generations behind a manifest swap.
/// The applied-task ledger mapping queue task ids to committed history
/// nodes is the session's own (Papyrus::RecordApplied): it journals in
/// the same WAL commit as the history node, after it, so "task applied"
/// and "task recorded" are one atomic unit. Opening a session restores
/// its store and nothing else: the daemon never reads metadata while
/// serving, and whoever does reads it derived from the restored history
/// (Papyrus::metadata()).
///
/// Pre-engine layouts (CURRENT -> snap.<N>/ whole-file snapshot
/// directories, including their state.pss) load transparently and
/// migrate at the first save.
///
/// Recovery invariant: a task's effects are durable exactly when its WAL
/// commit landed (journal-before-effect: Save runs before the queue
/// acknowledgement). The restored ledger therefore tells exactly which
/// queue tasks' effects are durable: the daemon skips execution of any
/// re-delivered task the ledger already contains — at-least-once
/// delivery, exactly-once commit — and because clock + execution ids +
/// histories restore bit-faithfully, a re-run of a task whose effects
/// were lost reproduces them byte-identically.
class ManagedSession {
 public:
  /// Opens (restoring from CURRENT, or creating fresh) the session named
  /// `name` stored under `directory`. Subsystem metrics and traces are
  /// rebound to `obs` when provided, so one daemon-lifetime registry and
  /// trace span every session and incarnation.
  /// `shared_store` (optional, not owned — the daemon's, shared by every
  /// hosted session) is attached with deferred publication: entries land
  /// in the store only after the save carrying them is durable, so a
  /// daemon crash can never leak outputs of a commit that did not
  /// survive. Restored entries are durable by definition: the reopen
  /// publishes those whose keys the store lacks (a crash between a save's
  /// WAL commit and its flush, or a wiped store), and leaves the ones it
  /// holds untouched (Papyrus::OpenStorage).
  static Result<std::unique_ptr<ManagedSession>> Open(
      const std::string& directory, const std::string& name,
      const SessionConfig& config, const obs::Observability& obs = {},
      storage::ContentStore* shared_store = nullptr);

  ManagedSession(const ManagedSession&) = delete;
  ManagedSession& operator=(const ManagedSession&) = delete;

  const std::string& name() const { return name_; }
  Papyrus& session() { return *session_; }
  int64_t generation() const {
    return static_cast<int64_t>(session_->store()->generation());
  }

  /// True when `task_id` ran in this session (Execute). In a reopened
  /// session: exactly when its commit was durable.
  bool HasApplied(int64_t task_id) const {
    return session_->FindApplied(task_id) != nullptr;
  }
  /// The committed history node of an applied task.
  Result<activity::NodeId> AppliedNode(int64_t task_id) const;

  /// Resolves the named design thread, creating it on first use.
  Result<int> ThreadByName(const std::string& thread_name)
      PAPYRUS_REQUIRES(base::engine_thread);

  /// Runs a task description in this session and records it in the
  /// in-memory applied ledger. The effects are durable only after the
  /// next Save() — the daemon saves before acknowledging the queue.
  Result<activity::NodeId> Execute(int64_t task_id,
                                   const TaskDescription& desc)
      PAPYRUS_REQUIRES(base::engine_thread);

  /// Makes everything committed so far durable: a WAL group commit (one
  /// fsync), with every SessionConfig::snapshot_interval-th call
  /// compacting a delta-snapshot generation instead. The daemon calls
  /// this before acknowledging a task to the queue.
  Status Save() PAPYRUS_REQUIRES(base::engine_thread);

  /// Forces a generation compaction (shutdown, eviction): bounds WAL
  /// replay cost for the next open.
  Status Checkpoint() PAPYRUS_REQUIRES(base::engine_thread);

 private:
  explicit ManagedSession(std::string name) : name_(std::move(name)) {}

  std::string name_;
  std::unique_ptr<Papyrus> session_;
  std::unique_ptr<fault::FaultPlan> fault_plan_;
  int snapshot_interval_ = 8;
  int saves_since_generation_ = 0;
};

}  // namespace papyrus::server

#endif  // PAPYRUS_SERVER_SESSION_MANAGER_H_
