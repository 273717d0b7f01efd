#ifndef PAPYRUS_SERVER_QUEUE_H_
#define PAPYRUS_SERVER_QUEUE_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "base/clock.h"
#include "base/result.h"
#include "base/status.h"
#include "base/thread_annotations.h"
#include "obs/observability.h"
#include "storage/file_lock.h"
#include "storage/journal.h"

namespace papyrus::server {

/// Lifecycle of a queued task:
///
///   pending --Claim--> claimed --Complete--> done
///      ^                  |   \--Fail-----> failed
///      |                  |
///      +---Release--------+        (execution error, retry later)
///      +---ExpireLeases---+        (lease deadline passed)
///      +---Open-----------+        (daemon restart: claims are orphaned)
enum class TaskState { kPending, kClaimed, kDone, kFailed };

const char* TaskStateName(TaskState state);

/// One task in the persistent queue.
struct QueueTask {
  int64_t id = 0;
  std::string session;      // target session name
  std::string description;  // encoded wire::TaskDescription, verbatim
  TaskState state = TaskState::kPending;
  /// Claims granted so far (== execution attempts started).
  int attempts = 0;
  int64_t enqueue_micros = 0;
  /// Virtual-time deadline of the current lease (claimed tasks only).
  int64_t lease_deadline_micros = 0;
  /// Claim token of the current (or last) lease holder.
  std::string owner;
  /// Failure reason (failed tasks only).
  std::string failure;
};

/// How Claim picks the next task. The default (fair == false) is global
/// FIFO: the lowest-id pending task, whatever its session — one heavy
/// session can monopolize the daemon. With fair == true, claims rotate
/// weighted-round-robin across sessions that have pending work: each
/// rotation stop serves up to `weight` tasks (in id order) from one
/// session before the cursor advances, sessions with more in-flight
/// (claimed) tasks than `max_inflight_per_session` are passed over until
/// some complete, and `session_filter` (when set) masks sessions this
/// claimer cannot currently host (e.g. locked by another worker
/// process). Within a session, claim order is always ascending task id,
/// so per-session execution — and therefore every session snapshot — is
/// byte-identical whichever policy interleaves the sessions.
struct ClaimPolicy {
  bool fair = false;
  /// Max claimed-but-unresolved tasks per session (0 = unlimited).
  int max_inflight_per_session = 0;
  /// Per-session weight: rotation stops serve this many tasks before
  /// moving on. Missing sessions (or null) weigh 1.
  const std::map<std::string, int>* weights = nullptr;
  /// Returns false for sessions this claimer must not serve right now.
  std::function<bool(const std::string&)> session_filter;
};

/// One granted claim, in grant order (in-memory; for fairness audits).
struct ClaimRecord {
  int64_t id = 0;
  std::string session;
};

struct QueueOptions {
  /// Multi-process mode: every mutating operation takes the `queue.lock`
  /// flock, re-syncs journal lines appended by other workers since the
  /// last look, then appends its own. Claims orphaned by a dead worker
  /// are NOT re-pended at Open (live workers hold real leases); they
  /// return via lease expiry, and the stale-owner check keeps a reaped
  /// worker from completing a task that was re-claimed.
  bool shared = false;
};

/// The crash-surviving task queue behind papyrusd.
///
/// Durability = a storage::Journal: an append-only log (`queue.pjq`)
/// replayed over the last atomic checkpoint (`queue.pjc`). Every state
/// transition is journaled and fsynced *before* it takes effect in
/// memory: a task is on disk from the moment Enqueue returns, and a
/// claim, completion, or failure that was acknowledged survives any later
/// crash, OS crashes included. Replay keeps the longest valid prefix of
/// checksummed lines and truncates a torn tail.
///
/// Leases make dispatch crash-safe without distributed coordination: a
/// claim holds a virtual-time lease, and a lease that expires (or is
/// found dangling when the queue reopens after a crash) returns the task
/// to pending for re-dispatch. Combined with the daemon's applied-task
/// ledger this yields at-least-once execution with exactly-once commit.
///
/// In shared mode (QueueOptions::shared) many worker processes open the
/// same directory: the journal becomes the coordination medium — each
/// operation serializes on the `queue.lock` flock, replays the other
/// workers' appended lines, then appends its own — so claim/lease/
/// stale-owner semantics span processes with no daemon-to-daemon channel.
///
/// Single-threaded like the rest of the engine: every journal- or
/// state-mutating call carries PAPYRUS_REQUIRES(base::engine_thread) —
/// the daemon's dispatch thread is the engine thread.
class PersistentQueue {
 public:
  /// Opens (creating if needed) the queue stored in `directory`.
  /// Restores checkpoint + journal, re-pends any claimed task
  /// (`recovered()` counts them; exclusive mode only — shared mode
  /// leaves live workers' claims alone), and restores `clock` to the
  /// last persisted virtual time when it is behind it.
  static Result<std::unique_ptr<PersistentQueue>> Open(
      const std::string& directory, ManualClock* clock,
      const obs::Observability& obs = {},
      const QueueOptions& options = {});

  PersistentQueue(const PersistentQueue&) = delete;
  PersistentQueue& operator=(const PersistentQueue&) = delete;

  /// Journals and enqueues a task; returns its queue id.
  Result<int64_t> Enqueue(const std::string& session,
                          const std::string& description)
      PAPYRUS_REQUIRES(base::engine_thread);

  /// Claims the next pending task per `policy` under a `lease_micros`
  /// lease held by `owner`. Returns nullopt when nothing is claimable.
  Result<std::optional<QueueTask>> Claim(const std::string& owner,
                                         int64_t lease_micros,
                                         const ClaimPolicy& policy = {})
      PAPYRUS_REQUIRES(base::engine_thread);

  /// Marks a task done. Only the current lease holder may complete it —
  /// a stale owner whose lease was reaped and re-claimed is rejected, so
  /// two daemons can never both think they committed the same task.
  Status Complete(int64_t id, const std::string& owner)
      PAPYRUS_REQUIRES(base::engine_thread);

  /// Marks a task permanently failed (attempt budget exhausted).
  Status Fail(int64_t id, const std::string& owner,
              const std::string& reason)
      PAPYRUS_REQUIRES(base::engine_thread);

  /// Returns a claimed task to pending before its lease expires (the
  /// execution hit a retryable error). Lease-holder checked like
  /// Complete.
  Status Release(int64_t id, const std::string& owner)
      PAPYRUS_REQUIRES(base::engine_thread);

  /// Reaps every lease whose deadline has passed; the tasks go back to
  /// pending. Returns how many were reaped.
  int ExpireLeases() PAPYRUS_REQUIRES(base::engine_thread);

  /// Writes an atomic checkpoint of the full queue state and truncates
  /// the journal. Crash-safe in both orders: the checkpoint lands via
  /// write-rename-fsync first, and replaying the old journal over it is
  /// idempotent.
  Status Checkpoint() PAPYRUS_REQUIRES(base::engine_thread);

  /// Shared mode: replays journal lines other workers appended since
  /// this queue last looked (no-op in exclusive mode, or when nothing
  /// changed). Every mutating call does this implicitly; introspection
  /// callers that want a fresh cross-process view call it explicitly.
  Status Refresh() PAPYRUS_REQUIRES(base::engine_thread);

  // --- introspection ----------------------------------------------------

  /// Tasks not yet done or failed.
  int64_t depth() const;
  int64_t PendingCount() const { return CountIn(TaskState::kPending); }
  int64_t ClaimedCount() const { return CountIn(TaskState::kClaimed); }
  int64_t DoneCount() const { return CountIn(TaskState::kDone); }
  int64_t FailedCount() const { return CountIn(TaskState::kFailed); }
  /// Claimed tasks re-pended while reopening after a crash.
  int64_t recovered() const { return recovered_; }

  Result<QueueTask> Get(int64_t id) const;
  /// Snapshot of every task, by id.
  std::vector<QueueTask> Tasks() const;
  /// Every claim this queue instance granted, in grant order.
  const std::vector<ClaimRecord>& claim_log() const { return claim_log_; }
  /// Journal commits and fsyncs made by this instance.
  const storage::Journal::Stats& journal_stats() const {
    return journal_.stats();
  }

 private:
  PersistentQueue(ManualClock* clock, const obs::Observability& obs,
                  const QueueOptions& options);

  int64_t CountIn(TaskState state) const;
  /// The task `id` when `owner` holds its lease: NotFound, or
  /// FailedPrecondition (not claimed), or PermissionDenied (stale owner —
  /// reaped and re-claimed — so two workers never both resolve it).
  Result<QueueTask*> Leased(int64_t id, const std::string& owner)
      PAPYRUS_REQUIRES(base::engine_thread);
  /// Applies one checkpoint or journal line (replay and catch-up).
  void ApplyLine(std::string_view line)
      PAPYRUS_REQUIRES(base::engine_thread);
  /// Shared mode: flocks the queue and folds in other workers' lines.
  /// Returns the lock (null in exclusive mode); holding it spans the
  /// caller's own journal append.
  Result<std::unique_ptr<storage::FileLock>> Lock()
      PAPYRUS_REQUIRES(base::engine_thread);
  /// Picks the session to serve next under weighted round-robin.
  const std::string* PickFairSession(const ClaimPolicy& policy)
      PAPYRUS_REQUIRES(base::engine_thread);
  /// Maintains the per-session pending/claimed indexes around a state
  /// change; call with -1 before mutating `task.state`, +1 after.
  void Index(const QueueTask& task, int delta)
      PAPYRUS_REQUIRES(base::engine_thread);
  void UpdateDepthGauge() PAPYRUS_REQUIRES(base::engine_thread);

  ManualClock* clock_;
  obs::Observability obs_;
  QueueOptions options_;

  std::map<int64_t, QueueTask> tasks_;
  /// session -> pending task ids (claim picks *begin, so id order).
  std::map<std::string, std::set<int64_t>> pending_by_session_;
  /// session -> claimed task count (the fairness in-flight cap input).
  std::map<std::string, int64_t> claimed_by_session_;
  int64_t next_id_ = 1;
  int64_t recovered_ = 0;
  storage::Journal journal_;

  /// Weighted-round-robin cursor: the session served last, and how many
  /// more consecutive claims its weight still allows.
  std::string rr_cursor_;
  int rr_credits_ = 0;
  std::vector<ClaimRecord> claim_log_;

  obs::Counter* c_enqueued_ = nullptr;
  obs::Counter* c_claimed_ = nullptr;
  obs::Counter* c_completed_ = nullptr;
  obs::Counter* c_failed_ = nullptr;
  obs::Counter* c_requeued_ = nullptr;
  obs::Counter* c_lease_expired_ = nullptr;
  obs::Counter* c_recovered_ = nullptr;
  obs::Counter* c_checkpoints_ = nullptr;
  obs::Counter* c_fair_rotations_ = nullptr;
  obs::Counter* c_fair_capped_ = nullptr;
  obs::Gauge* g_fair_active_ = nullptr;
  obs::Gauge* g_depth_ = nullptr;
  obs::Histogram* h_wait_ = nullptr;
};

}  // namespace papyrus::server

#endif  // PAPYRUS_SERVER_QUEUE_H_
