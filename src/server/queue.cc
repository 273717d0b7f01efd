#include "server/queue.h"

#include <algorithm>
#include <filesystem>
#include <sstream>

#include "base/macros.h"
#include "base/thread_annotations.h"
#include "base/strings.h"

namespace papyrus::server {

namespace {

constexpr char kJournalFile[] = "queue.pjq";
constexpr char kCheckpointFile[] = "queue.pjc";
constexpr char kLockFile[] = "queue.lock";
constexpr char kCheckpointHeader[] = "papyrus-queue v1";

const char* StateCode(TaskState s) {
  switch (s) {
    case TaskState::kPending:
      return "p";
    case TaskState::kClaimed:
      return "c";
    case TaskState::kDone:
      return "d";
    case TaskState::kFailed:
      return "f";
  }
  return "?";
}

bool ParseStateCode(const std::string& code, TaskState* out) {
  if (code == "p") *out = TaskState::kPending;
  else if (code == "c") *out = TaskState::kClaimed;
  else if (code == "d") *out = TaskState::kDone;
  else if (code == "f") *out = TaskState::kFailed;
  else return false;
  return true;
}

}  // namespace

const char* TaskStateName(TaskState state) {
  switch (state) {
    case TaskState::kPending:
      return "pending";
    case TaskState::kClaimed:
      return "claimed";
    case TaskState::kDone:
      return "done";
    case TaskState::kFailed:
      return "failed";
  }
  return "unknown";
}

PersistentQueue::PersistentQueue(ManualClock* clock,
                                 const obs::Observability& obs,
                                 const QueueOptions& options)
    : clock_(clock), obs_(obs), options_(options) {
  if (obs_.metrics != nullptr) {
    c_enqueued_ = obs_.metrics->FindOrCreateCounter(obs::kQueueEnqueued);
    c_claimed_ = obs_.metrics->FindOrCreateCounter(obs::kQueueClaimed);
    c_completed_ =
        obs_.metrics->FindOrCreateCounter(obs::kQueueCompleted);
    c_failed_ = obs_.metrics->FindOrCreateCounter(obs::kQueueFailed);
    c_requeued_ = obs_.metrics->FindOrCreateCounter(obs::kQueueRequeued);
    c_lease_expired_ =
        obs_.metrics->FindOrCreateCounter(obs::kQueueLeaseExpired);
    c_recovered_ =
        obs_.metrics->FindOrCreateCounter(obs::kQueueRecovered);
    c_checkpoints_ =
        obs_.metrics->FindOrCreateCounter(obs::kQueueCheckpoints);
    c_fair_rotations_ =
        obs_.metrics->FindOrCreateCounter(obs::kQueueFairnessRotations);
    c_fair_capped_ =
        obs_.metrics->FindOrCreateCounter(obs::kQueueFairnessCapped);
    g_fair_active_ = obs_.metrics->FindOrCreateGauge(
        obs::kQueueFairnessActiveSessions);
    g_depth_ = obs_.metrics->FindOrCreateGauge(obs::kQueueDepth);
    h_wait_ = obs_.metrics->FindOrCreateHistogram(
        obs::kQueueWaitLatency, obs::LatencyBucketBounds());
  }
}

Result<std::unique_ptr<PersistentQueue>> PersistentQueue::Open(
    const std::string& directory, ManualClock* clock,
    const obs::Observability& obs, const QueueOptions& options) {
  base::AssertEngineThread("PersistentQueue::Open");
  std::error_code ec;
  std::filesystem::create_directories(directory, ec);
  if (ec) {
    return Status::Internal("cannot create queue directory " + directory +
                            ": " + ec.message());
  }
  std::unique_ptr<PersistentQueue> queue(
      new PersistentQueue(clock, obs, options));
  std::filesystem::path dir(directory);
  storage::Journal::Options journal;
  journal.path = (dir / kJournalFile).string();
  journal.checkpoint_path = (dir / kCheckpointFile).string();
  journal.checkpoint_header = kCheckpointHeader;
  // Shared mode loads under the lock; live workers' claims are real
  // leases, not orphans, and a worker that died mid-claim is reaped
  // later by lease expiry.
  if (options.shared) journal.lock_path = (dir / kLockFile).string();
  PersistentQueue* q = queue.get();
  auto apply = [q](std::string_view body) {
    base::AssertEngineThread("PersistentQueue replay");
    q->ApplyLine(body);
    return true;
  };
  auto reload = [q] {
    base::AssertEngineThread("PersistentQueue reload");
    q->tasks_.clear();
    q->pending_by_session_.clear();
    q->claimed_by_session_.clear();
    q->next_id_ = 1;
  };
  PAPYRUS_ASSIGN_OR_RETURN(
      std::unique_ptr<storage::FileLock> lock,
      queue->journal_.Open(std::move(journal), apply, reload));
  (void)lock;
  if (!options.shared) {
    // Recovery invariant: a claim that was never resolved belongs to a
    // dead incarnation. Its lease holder cannot come back (owners are
    // per-incarnation tokens), so the task returns to pending for
    // re-dispatch. The daemon's applied-task ledger dedupes the re-run
    // if the previous incarnation crashed after the commit landed.
    for (auto& [id, task] : queue->tasks_) {
      if (task.state != TaskState::kClaimed) continue;
      queue->Index(task, -1);
      task.state = TaskState::kPending;
      task.lease_deadline_micros = 0;
      queue->Index(task, +1);
      ++queue->recovered_;
      if (queue->c_recovered_ != nullptr) queue->c_recovered_->Increment();
    }
  }
  queue->UpdateDepthGauge();
  return queue;
}

void PersistentQueue::ApplyLine(std::string_view line) {
  // Checkpoint lines (now/next/t) and journal lines share one vocabulary
  // keyed by the first token; replaying a journal over a newer checkpoint
  // is idempotent.
  std::vector<std::string> f = SplitWhitespace(line);
  int64_t id = 0;  // a task id, or the value of a now/next line
  if (f.size() < 2 || !ParseInt64(f[1], &id)) return;
  if (f[0] == "now" && f.size() == 2) {
    if (clock_->NowMicros() < id) clock_->SetMicros(id);
    return;
  }
  if (f[0] == "next" && f.size() == 2) {
    next_id_ = std::max(next_id_, id);
    return;
  }
  if (f[0] == "t" && f.size() == 10) {
    QueueTask task;
    task.id = id;
    int64_t attempts = 0;
    if (!ParseStateCode(f[2], &task.state) || !ParseInt64(f[3], &attempts) ||
        !ParseInt64(f[4], &task.enqueue_micros) ||
        !ParseInt64(f[5], &task.lease_deadline_micros)) {
      return;
    }
    task.attempts = static_cast<int>(attempts);
    task.session = DecodeField(f[6]);
    task.owner = DecodeField(f[7]);
    task.description = DecodeField(f[8]);
    task.failure = DecodeField(f[9]);
    next_id_ = std::max(next_id_, id + 1);
    auto [it, inserted] = tasks_.insert_or_assign(id, std::move(task));
    if (inserted) Index(it->second, +1);
    return;
  }
  if (f[0] == "e" && f.size() == 5) {
    // Replay over a newer checkpoint can re-see an enqueue; the
    // checkpointed task wins.
    next_id_ = std::max(next_id_, id + 1);
    if (tasks_.count(id) != 0) return;
    QueueTask task;
    task.id = id;
    if (!ParseInt64(f[2], &task.enqueue_micros)) return;
    task.session = DecodeField(f[3]);
    task.description = DecodeField(f[4]);
    auto [it, inserted] = tasks_.emplace(id, std::move(task));
    if (inserted) Index(it->second, +1);
    return;
  }
  auto it = tasks_.find(id);
  if (it == tasks_.end()) return;
  QueueTask& task = it->second;
  // Terminal states never regress, whatever a stale journal says.
  if (task.state == TaskState::kDone || task.state == TaskState::kFailed) {
    return;
  }
  if (f[0] == "c" && f.size() == 5) {
    int64_t attempt = 0;
    int64_t deadline = 0;
    if (!ParseInt64(f[2], &attempt) || !ParseInt64(f[3], &deadline)) {
      return;
    }
    Index(task, -1);
    task.state = TaskState::kClaimed;
    task.attempts = static_cast<int>(attempt);
    task.lease_deadline_micros = deadline;
    task.owner = DecodeField(f[4]);
    Index(task, +1);
  } else if (f[0] == "r" || f[0] == "x") {
    Index(task, -1);
    task.state = TaskState::kPending;
    task.lease_deadline_micros = 0;
    Index(task, +1);
  } else if (f[0] == "d") {
    Index(task, -1);
    task.state = TaskState::kDone;
  } else if (f[0] == "f" && f.size() >= 3) {
    Index(task, -1);
    task.state = TaskState::kFailed;
    task.failure = DecodeField(f[2]);
  }
}

Result<std::unique_ptr<storage::FileLock>> PersistentQueue::Lock() {
  PAPYRUS_ASSIGN_OR_RETURN(std::unique_ptr<storage::FileLock> lock,
                           journal_.Sync());
  if (options_.shared) UpdateDepthGauge();
  return lock;
}

Status PersistentQueue::Refresh() { return Lock().status(); }

void PersistentQueue::Index(const QueueTask& task, int delta) {
  if (task.state == TaskState::kPending) {
    if (delta > 0) {
      pending_by_session_[task.session].insert(task.id);
    } else {
      auto it = pending_by_session_.find(task.session);
      if (it != pending_by_session_.end()) {
        it->second.erase(task.id);
        if (it->second.empty()) pending_by_session_.erase(it);
      }
    }
  } else if (task.state == TaskState::kClaimed) {
    int64_t& n = claimed_by_session_[task.session];
    n += delta;
    if (n <= 0) claimed_by_session_.erase(task.session);
  }
}

Result<int64_t> PersistentQueue::Enqueue(const std::string& session,
                                         const std::string& description) {
  PAPYRUS_ASSIGN_OR_RETURN(std::unique_ptr<storage::FileLock> lock,
                           Lock());
  (void)lock;
  int64_t id = next_id_;
  std::ostringstream body;
  body << "e " << id << ' ' << clock_->NowMicros() << ' '
       << EncodeField(session) << ' ' << EncodeField(description);
  // Journal first: the task exists once this line is on disk, and only
  // then. A crash right after Enqueue returns cannot lose it.
  PAPYRUS_RETURN_IF_ERROR(journal_.CommitLine(body.str()));
  next_id_ = id + 1;
  QueueTask task;
  task.id = id;
  task.session = session;
  task.description = description;
  task.enqueue_micros = clock_->NowMicros();
  auto [it, inserted] = tasks_.emplace(id, std::move(task));
  if (inserted) Index(it->second, +1);
  if (c_enqueued_ != nullptr) c_enqueued_->Increment();
  UpdateDepthGauge();
  return id;
}

const std::string* PersistentQueue::PickFairSession(
    const ClaimPolicy& policy) {
  auto eligible = [&](const std::string& session,
                      const std::set<int64_t>& ids) {
    if (ids.empty()) return false;
    if (policy.max_inflight_per_session > 0) {
      auto it = claimed_by_session_.find(session);
      if (it != claimed_by_session_.end() &&
          it->second >= policy.max_inflight_per_session) {
        if (c_fair_capped_ != nullptr) c_fair_capped_->Increment();
        return false;
      }
    }
    if (policy.session_filter && !policy.session_filter(session)) {
      return false;
    }
    return true;
  };
  if (g_fair_active_ != nullptr) {
    g_fair_active_->Set(static_cast<int64_t>(pending_by_session_.size()));
  }
  // Keep serving the cursor's session while its weight has credits left.
  if (rr_credits_ > 0) {
    auto it = pending_by_session_.find(rr_cursor_);
    if (it != pending_by_session_.end() && eligible(it->first, it->second)) {
      --rr_credits_;
      return &it->first;
    }
    rr_credits_ = 0;  // drained or blocked: rotate away
  }
  // Rotate: the first eligible session strictly after the cursor, in key
  // order, wrapping around — every session with pending work is visited
  // before the cursor's session comes up again.
  auto it = pending_by_session_.upper_bound(rr_cursor_);
  for (size_t seen = 0, total = pending_by_session_.size(); seen < total;
       ++seen, ++it) {
    if (it == pending_by_session_.end()) it = pending_by_session_.begin();
    if (!eligible(it->first, it->second)) continue;
    rr_cursor_ = it->first;
    int weight = 1;
    if (policy.weights != nullptr) {
      auto w = policy.weights->find(rr_cursor_);
      if (w != policy.weights->end() && w->second > 1) weight = w->second;
    }
    rr_credits_ = weight - 1;
    if (c_fair_rotations_ != nullptr) c_fair_rotations_->Increment();
    return &it->first;
  }
  return nullptr;
}

Result<std::optional<QueueTask>> PersistentQueue::Claim(
    const std::string& owner, int64_t lease_micros,
    const ClaimPolicy& policy) {
  PAPYRUS_ASSIGN_OR_RETURN(std::unique_ptr<storage::FileLock> lock,
                           Lock());
  (void)lock;
  QueueTask* picked = nullptr;
  if (policy.fair) {
    const std::string* session = PickFairSession(policy);
    if (session != nullptr) {
      int64_t id = *pending_by_session_.find(*session)->second.begin();
      picked = &tasks_.find(id)->second;
    }
  } else {
    // Global FIFO: lowest pending id, subject to filter and cap.
    for (auto& [id, task] : tasks_) {
      if (task.state != TaskState::kPending) continue;
      if (policy.max_inflight_per_session > 0) {
        auto it = claimed_by_session_.find(task.session);
        if (it != claimed_by_session_.end() &&
            it->second >= policy.max_inflight_per_session) {
          continue;
        }
      }
      if (policy.session_filter && !policy.session_filter(task.session)) {
        continue;
      }
      picked = &task;
      break;
    }
  }
  if (picked == nullptr) return std::optional<QueueTask>();
  QueueTask& task = *picked;
  int64_t deadline = clock_->NowMicros() + lease_micros;
  std::ostringstream body;
  body << "c " << task.id << ' ' << (task.attempts + 1) << ' ' << deadline
       << ' ' << EncodeField(owner);
  PAPYRUS_RETURN_IF_ERROR(journal_.CommitLine(body.str()));
  Index(task, -1);
  task.state = TaskState::kClaimed;
  ++task.attempts;
  task.lease_deadline_micros = deadline;
  task.owner = owner;
  Index(task, +1);
  claim_log_.push_back({task.id, task.session});
  if (c_claimed_ != nullptr) c_claimed_->Increment();
  return std::optional<QueueTask>(task);
}

Result<QueueTask*> PersistentQueue::Leased(int64_t id,
                                           const std::string& owner) {
  auto it = tasks_.find(id);
  if (it == tasks_.end()) {
    return Status::NotFound("no queued task " + std::to_string(id));
  }
  QueueTask& task = it->second;
  if (task.state != TaskState::kClaimed) {
    return Status::FailedPrecondition(
        "task " + std::to_string(id) + " is " + TaskStateName(task.state) +
        ", not claimed");
  }
  if (task.owner != owner) {
    return Status::PermissionDenied(
        "task " + std::to_string(id) + " is leased to \"" + task.owner +
        "\", not \"" + owner + "\"");
  }
  return &task;
}

Status PersistentQueue::Complete(int64_t id, const std::string& owner) {
  PAPYRUS_ASSIGN_OR_RETURN(std::unique_ptr<storage::FileLock> lock,
                           Lock());
  PAPYRUS_ASSIGN_OR_RETURN(QueueTask * task, Leased(id, owner));
  PAPYRUS_RETURN_IF_ERROR(journal_.CommitLine(
      "d " + std::to_string(id) + ' ' + std::to_string(clock_->NowMicros())));
  Index(*task, -1);
  task->state = TaskState::kDone;
  if (c_completed_ != nullptr) c_completed_->Increment();
  if (h_wait_ != nullptr) {
    h_wait_->Observe(clock_->NowMicros() - task->enqueue_micros);
  }
  UpdateDepthGauge();
  return Status::OK();
}

Status PersistentQueue::Fail(int64_t id, const std::string& owner,
                             const std::string& reason) {
  PAPYRUS_ASSIGN_OR_RETURN(std::unique_ptr<storage::FileLock> lock,
                           Lock());
  PAPYRUS_ASSIGN_OR_RETURN(QueueTask * task, Leased(id, owner));
  PAPYRUS_RETURN_IF_ERROR(journal_.CommitLine(
      "f " + std::to_string(id) + ' ' + EncodeField(reason)));
  Index(*task, -1);
  task->state = TaskState::kFailed;
  task->failure = reason;
  if (c_failed_ != nullptr) c_failed_->Increment();
  UpdateDepthGauge();
  return Status::OK();
}

Status PersistentQueue::Release(int64_t id, const std::string& owner) {
  PAPYRUS_ASSIGN_OR_RETURN(std::unique_ptr<storage::FileLock> lock,
                           Lock());
  PAPYRUS_ASSIGN_OR_RETURN(QueueTask * task, Leased(id, owner));
  PAPYRUS_RETURN_IF_ERROR(journal_.CommitLine("r " + std::to_string(id)));
  Index(*task, -1);
  task->state = TaskState::kPending;
  task->lease_deadline_micros = 0;
  Index(*task, +1);
  if (c_requeued_ != nullptr) c_requeued_->Increment();
  return Status::OK();
}

int PersistentQueue::ExpireLeases() {
  Result<std::unique_ptr<storage::FileLock>> lock = Lock();
  if (!lock.ok()) return 0;
  int64_t now = clock_->NowMicros();
  std::vector<QueueTask*> expired;
  for (auto& [id, task] : tasks_) {
    if (task.state != TaskState::kClaimed ||
        task.lease_deadline_micros > now) {
      continue;
    }
    journal_.Append("x " + std::to_string(id));
    expired.push_back(&task);
  }
  // One commit (one fsync) for the whole sweep.
  if (expired.empty() || !journal_.Commit().ok()) return 0;
  for (QueueTask* task : expired) {
    Index(*task, -1);
    task->state = TaskState::kPending;
    task->lease_deadline_micros = 0;
    Index(*task, +1);
    if (c_lease_expired_ != nullptr) c_lease_expired_->Increment();
  }
  return static_cast<int>(expired.size());
}

Status PersistentQueue::Checkpoint() {
  PAPYRUS_ASSIGN_OR_RETURN(std::unique_ptr<storage::FileLock> lock,
                           Lock());
  std::vector<std::string> lines = {
      "now " + std::to_string(clock_->NowMicros()),
      "next " + std::to_string(next_id_)};
  for (const auto& [id, task] : tasks_) {
    std::ostringstream body;
    body << "t " << id << ' ' << StateCode(task.state) << ' '
         << task.attempts << ' ' << task.enqueue_micros << ' '
         << task.lease_deadline_micros << ' '
         << EncodeField(task.session) << ' ' << EncodeField(task.owner)
         << ' ' << EncodeField(task.description) << ' '
         << EncodeField(task.failure);
    lines.push_back(body.str());
  }
  PAPYRUS_RETURN_IF_ERROR(journal_.Checkpoint(lines));
  if (c_checkpoints_ != nullptr) c_checkpoints_->Increment();
  return Status::OK();
}

int64_t PersistentQueue::depth() const {
  return PendingCount() + ClaimedCount();
}

int64_t PersistentQueue::CountIn(TaskState state) const {
  int64_t n = 0;
  for (const auto& [id, t] : tasks_) n += t.state == state ? 1 : 0;
  return n;
}

Result<QueueTask> PersistentQueue::Get(int64_t id) const {
  auto it = tasks_.find(id);
  if (it == tasks_.end()) {
    return Status::NotFound("no queued task " + std::to_string(id));
  }
  return it->second;
}

std::vector<QueueTask> PersistentQueue::Tasks() const {
  std::vector<QueueTask> out;
  out.reserve(tasks_.size());
  for (const auto& [id, t] : tasks_) out.push_back(t);
  return out;
}

void PersistentQueue::UpdateDepthGauge() {
  if (g_depth_ != nullptr) g_depth_->Set(depth());
}

}  // namespace papyrus::server
