#include "server/daemon.h"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>
#include <vector>

#include "base/macros.h"
#include "base/strings.h"
#include "base/thread_annotations.h"
#include "lint/wire_analyzer.h"
#include "oct/design_data.h"
#include "tdl/template.h"

namespace papyrus::server {

namespace {

/// splitmix64: the seeded stream behind the crash plan's draws.
uint64_t NextDraw(uint64_t* state) {
  uint64_t z = (*state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Globally unique claim-owner tokens: the pid distinguishes sibling
/// worker processes on one shared queue, the counter distinguishes
/// incarnations within a process — a stale incarnation's lease can
/// never be confused with the current holder's.
std::string NextOwnerToken() {
  static int counter = 0;
  return "papyrusd-" + std::to_string(::getpid()) + "-" +
         std::to_string(++counter);
}

std::string ErrorLine(const std::string& message) {
  WireMessage response;
  response.verb = "err";
  response.Add("msg", message);
  return response.Format();
}

}  // namespace

DaemonCrashPlan::DaemonCrashPlan(uint64_t seed, double crash_rate,
                                 int max_crashes)
    : state_(seed ^ 0x706a7079727573ULL),
      rate_(crash_rate),
      max_(max_crashes) {}

DaemonCrashPlan::DaemonCrashPlan(std::vector<int64_t> fire_on_draws)
    : max_(static_cast<int>(fire_on_draws.size())),
      fire_on_draws_(std::move(fire_on_draws)) {
  std::sort(fire_on_draws_.begin(), fire_on_draws_.end());
}

bool DaemonCrashPlan::ShouldCrash() {
  ++draws_;
  if (!fire_on_draws_.empty()) {
    if (!std::binary_search(fire_on_draws_.begin(), fire_on_draws_.end(),
                            draws_)) {
      return false;
    }
    ++fired_;
    return true;
  }
  double draw = static_cast<double>(NextDraw(&state_) >> 11) *
                (1.0 / 9007199254740992.0);  // [0, 1)
  if (fired_ >= max_ || draw >= rate_) return false;
  ++fired_;
  return true;
}

PapyrusDaemon::PapyrusDaemon(const DaemonOptions& options)
    : options_(options),
      clock_(options.clock != nullptr ? options.clock : &owned_clock_),
      owner_(NextOwnerToken()) {
  base::AssertEngineThread("PapyrusDaemon::PapyrusDaemon");
  obs::MetricsRegistry* metrics = options_.metrics;
  if (metrics == nullptr) {
    owned_metrics_ = std::make_unique<obs::MetricsRegistry>();
    metrics = owned_metrics_.get();
  }
  obs::TraceRecorder* trace = options_.trace;
  if (trace == nullptr) {
    owned_trace_ = std::make_unique<obs::TraceRecorder>(clock_);
    if (!options_.trace_path.empty()) owned_trace_->set_enabled(true);
    trace = owned_trace_.get();
  }
  obs_ = {trace, metrics};
  c_executed_ = metrics->FindOrCreateCounter(obs::kServerTasksExecuted);
  c_deduped_ = metrics->FindOrCreateCounter(obs::kServerTasksDeduped);
  c_restarts_ = metrics->FindOrCreateCounter(obs::kServerRestarts);
  c_crashes_ =
      metrics->FindOrCreateCounter(obs::kServerCrashesInjected);
  c_wire_ = metrics->FindOrCreateCounter(obs::kServerWireRequests);
  g_sessions_ = metrics->FindOrCreateGauge(obs::kServerSessionsOpen);
  h_task_latency_ = metrics->FindOrCreateHistogram(
      obs::kServerTaskLatency, obs::LatencyBucketBounds());
}

PapyrusDaemon::~PapyrusDaemon() = default;

Result<std::unique_ptr<PapyrusDaemon>> PapyrusDaemon::Start(
    const DaemonOptions& options) {
  base::AssertEngineThread("PapyrusDaemon::Start");
  if (options.root.empty()) {
    return Status::InvalidArgument("daemon root directory required");
  }
  std::unique_ptr<PapyrusDaemon> daemon(new PapyrusDaemon(options));
  std::string queue_dir =
      (std::filesystem::path(options.root) / "queue").string();
  QueueOptions queue_options;
  queue_options.shared = options.shared_queue;
  PAPYRUS_ASSIGN_OR_RETURN(
      daemon->queue_,
      PersistentQueue::Open(queue_dir, daemon->clock_, daemon->obs_,
                            queue_options));
  if (options.shared_queue) {
    // Session locks live alongside the session directories.
    std::error_code lock_ec;
    std::filesystem::create_directories(
        std::filesystem::path(options.root) / "sessions", lock_ec);
    if (lock_ec) {
      return Status::Internal("cannot create sessions directory: " +
                              lock_ec.message());
    }
  }
  daemon->obs_.trace->SetProcessName(obs::kServerPid, "papyrusd");
  daemon->obs_.trace->SetThreadName(obs::kServerPid, 0, "queue");
  // The daemon-wide artifact store: one per root, shared by every hosted
  // session and every sibling worker process, surviving restarts (Open
  // recovers + garbage-collects under the store's own lock).
  storage::CasOptions cas_options;
  cas_options.size_budget_bytes = options.cas_budget_bytes;
  PAPYRUS_ASSIGN_OR_RETURN(
      daemon->shared_store_,
      storage::ContentStore::Open(
          (std::filesystem::path(options.root) / "cas").string(),
          cas_options));
  daemon->shared_store_->set_observability(daemon->obs_);
  if (daemon->queue_->recovered() > 0) {
    // Unresolved claims mean the previous incarnation died hot.
    daemon->c_restarts_->Increment();
    daemon->TraceInstant(
        "queue_recovered",
        {obs::TraceArg::Int("tasks", daemon->queue_->recovered())});
  }
  return daemon;
}

void PapyrusDaemon::TraceInstant(const std::string& name,
                                 std::vector<obs::TraceArg> args) {
  obs_.trace->Instant(obs::kServerPid, 0, name, "server",
                      std::move(args));
}

Result<int64_t> PapyrusDaemon::Submit(const TaskDescription& desc) {
  base::AssertEngineThread("PapyrusDaemon::Submit");
  if (crashed_) return Status::FailedPrecondition("daemon crashed");
  if (shut_down_) return Status::FailedPrecondition("daemon shut down");
  PAPYRUS_ASSIGN_OR_RETURN(int64_t id,
                           queue_->Enqueue(desc.session, desc.Encode()));
  TraceInstant("task_enqueued",
               {obs::TraceArg::Int("id", id),
                obs::TraceArg::Str("session", desc.session),
                obs::TraceArg::Str("template", desc.template_name)});
  return id;
}

Result<ManagedSession*> PapyrusDaemon::OpenSession(
    const std::string& name) {
  base::AssertEngineThread("PapyrusDaemon::OpenSession");
  if (name.empty() || name.find('/') != std::string::npos ||
      name == "." || name == "..") {
    return Status::InvalidArgument("bad session name \"" + name + "\"");
  }
  auto it = sessions_.find(name);
  if (it != sessions_.end()) {
    TouchSession(name);
    return it->second.get();
  }
  if (!EnsureSessionLock(name)) {
    return Status::Unavailable("session \"" + name +
                               "\" is hosted by another worker");
  }
  std::string dir =
      (std::filesystem::path(options_.root) / "sessions" / name)
          .string();
  PAPYRUS_ASSIGN_OR_RETURN(
      auto session,
      ManagedSession::Open(dir, name, options_.session, obs_,
                           shared_store_.get()));
  ManagedSession* raw = session.get();
  sessions_[name] = std::move(session);
  TouchSession(name);
  MaybeEvictSessions(name);
  g_sessions_->Set(static_cast<int64_t>(sessions_.size()));
  return raw;
}

std::string PapyrusDaemon::SessionLockPath(const std::string& name) const {
  return (std::filesystem::path(options_.root) / "sessions" /
          (name + ".lock"))
      .string();
}

bool PapyrusDaemon::EnsureSessionLock(const std::string& name) {
  if (!options_.shared_queue) return true;
  if (session_locks_.count(name) != 0) return true;
  if (name.empty() || name.find('/') != std::string::npos ||
      name == "." || name == "..") {
    // Unlockable name: let the claim proceed so execution can fail the
    // task permanently instead of it pending forever.
    return true;
  }
  auto lock = storage::FileLock::TryAcquire(SessionLockPath(name));
  if (!lock.ok()) return !lock.status().IsUnavailable();
  session_locks_[name] = std::move(lock).value();
  return true;
}

bool PapyrusDaemon::BenignSupersession(const Status& status) const {
  // A sibling worker's expiry scan reaped our lease (virtual clocks
  // advance independently across workers). Our effects are durable and
  // ledgered, so whoever re-claims the task dedupes it — losing the
  // acknowledgement race is not an error.
  return options_.shared_queue && (status.IsFailedPrecondition() ||
                                   status.IsPermissionDenied());
}

void PapyrusDaemon::TouchSession(const std::string& name) {
  session_last_used_[name] = ++session_use_tick_;
}

void PapyrusDaemon::MaybeEvictSessions(const std::string& keep) {
  if (options_.max_open_sessions <= 0) return;
  while (static_cast<int>(sessions_.size()) > options_.max_open_sessions) {
    std::string victim;
    int64_t oldest = 0;
    for (const auto& [name, session] : sessions_) {
      if (name == keep) continue;
      int64_t used = session_last_used_[name];
      if (victim.empty() || used < oldest) {
        victim = name;
        oldest = used;
      }
    }
    if (victim.empty()) return;
    // Idle between tasks, and every commit is WAL-durable; the parting
    // generation checkpoint (best-effort) just makes the next open
    // cheap. The session lock goes too, handing hosting rights back to
    // the worker pool.
    auto victim_it = sessions_.find(victim);
    if (victim_it != sessions_.end()) {
      (void)victim_it->second->Checkpoint();
    }
    sessions_.erase(victim);
    session_locks_.erase(victim);
    session_last_used_.erase(victim);
    TraceInstant("session_evicted", {obs::TraceArg::Str("name", victim)});
  }
  g_sessions_->Set(static_cast<int64_t>(sessions_.size()));
}

std::vector<lint::Diagnostic> PapyrusDaemon::PreflightQueue() const {
  // Sessions check tasks against the thesis library (Papyrus registers
  // it at construction), so pre-flight resolves against the same one.
  tdl::TemplateLibrary library;
  (void)tdl::RegisterThesisTemplates(&library);
  std::string label =
      (std::filesystem::path(options_.root) / "queue").string();
  return lint::PreflightQueuedTasks(queue_->Tasks(), &library, label);
}

bool PapyrusDaemon::MaybeCrash(const char* point) {
  if (options_.crash_plan == nullptr ||
      !options_.crash_plan->ShouldCrash()) {
    return false;
  }
  crashed_ = true;
  c_crashes_->Increment();
  TraceInstant("crash_injected", {obs::TraceArg::Str("point", point)});
  return true;
}

Status PapyrusDaemon::CrashStatus(const char* point) const {
  return Status::Aborted(std::string("daemon crash injected at ") +
                         point);
}

ClaimPolicy PapyrusDaemon::MakeClaimPolicy() {
  ClaimPolicy policy;
  policy.fair = options_.fair_dispatch;
  policy.max_inflight_per_session = options_.max_inflight_per_session;
  if (!options_.dispatch_weights.empty()) {
    policy.weights = &options_.dispatch_weights;
  }
  if (options_.shared_queue) {
    policy.session_filter = [this](const std::string& name) {
      return EnsureSessionLock(name);
    };
  }
  return policy;
}

Result<bool> PapyrusDaemon::RunOne() {
  base::AssertEngineThread("PapyrusDaemon::RunOne");
  if (crashed_) return Status::FailedPrecondition("daemon crashed");
  if (shut_down_) return Status::FailedPrecondition("daemon shut down");
  queue_->ExpireLeases();
  PAPYRUS_ASSIGN_OR_RETURN(
      auto claimed,
      queue_->Claim(owner_, options_.lease_micros, MakeClaimPolicy()));
  if (!claimed.has_value()) return false;
  const QueueTask task = *claimed;
  TraceInstant("task_claimed", {obs::TraceArg::Int("id", task.id),
                                obs::TraceArg::Int("attempt",
                                                   task.attempts)});
  // Crash point 1: claim journaled, nothing executed. Recovery re-pends
  // the claim; the task runs fresh in the next incarnation.
  if (MaybeCrash("before_execute")) return CrashStatus("before_execute");

  auto desc = TaskDescription::Decode(task.description);
  if (!desc.ok()) {
    // Malformed descriptions can never execute; retrying is pointless.
    PAPYRUS_RETURN_IF_ERROR(
        queue_->Fail(task.id, owner_, desc.status().message()));
    TraceInstant("task_failed", {obs::TraceArg::Int("id", task.id)});
    return true;
  }
  PAPYRUS_ASSIGN_OR_RETURN(ManagedSession * session,
                           OpenSession(desc->session));

  if (session->HasApplied(task.id)) {
    // The previous incarnation crashed between persisting the snapshot
    // and journaling done: the effects are durable, only the
    // acknowledgement is missing. Complete without re-executing —
    // this is what turns at-least-once delivery into exactly-once
    // commit.
    c_deduped_->Increment();
    TraceInstant("task_deduped", {obs::TraceArg::Int("id", task.id)});
    Status done = queue_->Complete(task.id, owner_);
    if (!done.ok() && !BenignSupersession(done)) return done;
    return true;
  }

  int64_t session_before = session->session().clock().NowMicros();
  auto node = session->Execute(task.id, *desc);
  // The daemon clock advances by the session's virtual progress, so
  // queue timestamps and the daemon trace stay monotone across every
  // session and incarnation.
  int64_t delta =
      session->session().clock().NowMicros() - session_before;
  if (delta > 0) clock_->AdvanceMicros(delta);
  if (!node.ok()) {
    if (task.attempts >= options_.max_task_attempts) {
      Status failed = queue_->Fail(task.id, owner_, node.status().message());
      if (!failed.ok() && !BenignSupersession(failed)) return failed;
      TraceInstant("task_failed", {obs::TraceArg::Int("id", task.id)});
    } else {
      Status released = queue_->Release(task.id, owner_);
      if (!released.ok() && !BenignSupersession(released)) return released;
      TraceInstant("task_released", {obs::TraceArg::Int("id", task.id)});
    }
    return true;
  }
  // Crash point 2: executed but nothing saved. The in-memory effects
  // die with this incarnation; recovery re-runs the task from the last
  // durable snapshot, reproducing them byte-identically (clock and
  // execution ids restore exactly).
  if (MaybeCrash("after_execute")) return CrashStatus("after_execute");

  PAPYRUS_RETURN_IF_ERROR(session->Save());
  // Crash point 3: effects durable, done not journaled. Recovery
  // re-claims the task and the applied ledger dedupes it above.
  if (MaybeCrash("after_save")) return CrashStatus("after_save");

  Status done = queue_->Complete(task.id, owner_);
  if (!done.ok()) {
    if (!BenignSupersession(done)) return done;
    TraceInstant("task_superseded", {obs::TraceArg::Int("id", task.id)});
    return true;
  }
  c_executed_->Increment();
  if (delta > 0) h_task_latency_->Observe(delta);
  TraceInstant("task_done", {obs::TraceArg::Int("id", task.id),
                             obs::TraceArg::Int("node", *node)});
  return true;
}

Status PapyrusDaemon::Drain() {
  base::AssertEngineThread("PapyrusDaemon::Drain");
  while (true) {
    PAPYRUS_ASSIGN_OR_RETURN(bool ran, RunOne());
    if (!ran) break;
  }
  return Status::OK();
}

Status PapyrusDaemon::WorkerDrain() {
  base::AssertEngineThread("PapyrusDaemon::WorkerDrain");
  // "Nothing claimable" is not "done" on a shared queue: pending tasks
  // may belong to sessions locked by siblings, and claimed tasks may be
  // theirs in flight. Done means globally empty — or nothing left that
  // this worker can ever claim.
  int stalled_rounds = 0;
  int futile_nudges = 0;
  while (true) {
    PAPYRUS_ASSIGN_OR_RETURN(bool ran, RunOne());
    if (ran) {
      stalled_rounds = 0;
      futile_nudges = 0;
      continue;
    }
    PAPYRUS_RETURN_IF_ERROR(queue_->Refresh());
    if (queue_->depth() == 0) return Status::OK();
    ++stalled_rounds;
    if (stalled_rounds > 50) {
      // Unclaimable work but no progress for ~100ms of wall time: a
      // sibling may have died holding leases. Leases expire in virtual
      // time, which only execution advances — nudge it so the reaper
      // can run. Expiring a live sibling's lease is benign: it still
      // holds the session lock, so nobody re-runs its task; it just
      // loses the acknowledgement race (BenignSupersession).
      clock_->AdvanceMicros(options_.lease_micros / 4 + 1);
      stalled_rounds = 0;
      // A dead sibling's locks died with its process (flock), so its
      // re-pended work becomes claimable after a nudge or two. If
      // nudging repeatedly frees nothing, the remainder is hosted by
      // live siblings — e.g. a front-end that executes its sessions'
      // tasks on its clients' schedule. Waiting on that would hang
      // forever; cede the work to its hosts and exit.
      if (++futile_nudges > 10) {
        TraceInstant("worker_ceded",
                     {obs::TraceArg::Int(
                         "depth", static_cast<int64_t>(queue_->depth()))});
        return Status::OK();
      }
      continue;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
}

Status PapyrusDaemon::Shutdown() {
  base::AssertEngineThread("PapyrusDaemon::Shutdown");
  if (crashed_) {
    return Status::FailedPrecondition("daemon crashed; cannot shut down");
  }
  if (shut_down_) return Status::OK();
  // Leases drain naturally (RunOne resolves its claim before returning);
  // what graceful shutdown adds is a generation checkpoint per hosted
  // session (bounding WAL replay at the next open), the compacted queue
  // checkpoint, and a sealed trace.
  for (auto& [name, session] : sessions_) {
    PAPYRUS_RETURN_IF_ERROR(session->Checkpoint());
  }
  PAPYRUS_RETURN_IF_ERROR(queue_->Checkpoint());
  TraceInstant("daemon_shutdown", {});
  if (owned_trace_ != nullptr) {
    owned_trace_->Finish();
    if (!options_.trace_path.empty()) {
      PAPYRUS_RETURN_IF_ERROR(
          owned_trace_->WriteJson(options_.trace_path));
    }
  }
  if (owned_metrics_ != nullptr && !options_.metrics_path.empty()) {
    std::ofstream out(options_.metrics_path, std::ios::trunc);
    if (!out) {
      return Status::Internal("cannot write " + options_.metrics_path);
    }
    out << owned_metrics_->ToJson();
  }
  shut_down_ = true;
  return Status::OK();
}

namespace {

/// The request's target session: an explicit ~session field, else the
/// session the connection attached to.
const std::string* SessionField(const WireMessage& request,
                                const ClientContext& ctx) {
  const std::string* session = request.Find("session");
  if (session != nullptr) return session;
  if (!ctx.attached_session.empty()) return &ctx.attached_session;
  return nullptr;
}

}  // namespace

Result<std::string> PapyrusDaemon::HandleCheckin(
    const WireMessage& request, const ClientContext& ctx) {
  base::AssertEngineThread("PapyrusDaemon::HandleCheckin");
  const std::string* session_name = SessionField(request, ctx);
  const std::string* path = request.Find("path");
  const std::string* type = request.Find("type");
  if (session_name == nullptr || path == nullptr || type == nullptr) {
    return Status::InvalidArgument(
        "checkin needs ~session (or an attached session), ~path, and "
        "~type");
  }
  PAPYRUS_ASSIGN_OR_RETURN(oct::DesignPayload payload,
                           CheckinPayload(request));
  PAPYRUS_ASSIGN_OR_RETURN(ManagedSession * session,
                           OpenSession(*session_name));
  PAPYRUS_ASSIGN_OR_RETURN(
      oct::ObjectId id,
      session->session().CheckInObject(*path, std::move(payload)));
  // Check-ins are daemon state like everything else: durable before the
  // acknowledgement goes back over the wire.
  PAPYRUS_RETURN_IF_ERROR(session->Save());
  return id.ToString();
}

std::string PapyrusDaemon::HandleLine(const std::string& line) {
  return HandleLine(line, &default_context_);
}

std::string PapyrusDaemon::HandleLine(const std::string& line,
                                      ClientContext* ctx) {
  // Event-loop top: every verb handler below inherits the engine role.
  base::AssertEngineThread("PapyrusDaemon::HandleLine");
  c_wire_->Increment();
  auto request = WireMessage::Parse(line);
  if (!request.ok()) return ErrorLine(request.status().message());
  return HandleLineImpl(*request, ctx);
}

std::string PapyrusDaemon::HandleLineImpl(const WireMessage& request,
                                          ClientContext* ctx) {
  base::AssertEngineThread("PapyrusDaemon::HandleLineImpl");
  WireMessage response;
  response.verb = "ok";
  if (request.verb == "ping") {
    response.Add("pong", "1");
    return response.Format();
  }
  if (request.verb == "connect") {
    // A hello from a transport client: names the connection (for traces
    // and operators) and reports the protocol generation.
    if (const std::string* client = request.Find("client")) {
      ctx->client_name = *client;
    }
    response.Add("proto", "1");
    if (!ctx->client_name.empty()) {
      response.Add("client", ctx->client_name);
    }
    TraceInstant("client_connect",
                 {obs::TraceArg::Str("client", ctx->client_name)});
    return response.Format();
  }
  if (request.verb == "attach") {
    // Pins this connection to a session: later submit/checkin lines may
    // omit ~session. Opens the session so a bad name fails here, not at
    // the first task.
    const std::string* session_name = request.Find("session");
    if (session_name == nullptr) return ErrorLine("attach needs ~session");
    auto session = OpenSession(*session_name);
    if (!session.ok()) return ErrorLine(session.status().message());
    ctx->attached_session = *session_name;
    response.Add("session", *session_name);
    response.Add("generation", std::to_string((*session)->generation()));
    return response.Format();
  }
  if (request.verb == "submit") {
    TaskDescription desc;
    const std::string* session = SessionField(request, *ctx);
    const std::string* thread = request.Find("thread");
    const std::string* template_name = request.Find("template");
    if (session == nullptr || thread == nullptr ||
        template_name == nullptr) {
      return ErrorLine(
          "submit needs ~session (or an attached session), ~thread, and "
          "~template");
    }
    desc.session = *session;
    desc.thread = *thread;
    desc.template_name = *template_name;
    if (const std::string* seed = request.Find("seed")) {
      int64_t value = 0;
      if (!ParseInt64(*seed, &value) || value < 0) {
        return ErrorLine("bad seed \"" + *seed + "\"");
      }
      desc.seed = static_cast<uint64_t>(value);
    }
    desc.input_refs = request.FindAll("in");
    desc.output_names = request.FindAll("out");
    for (const auto& [key, value] : request.fields) {
      if (key.rfind("opt.", 0) == 0) {
        desc.option_overrides[key.substr(4)] = value;
      }
    }
    auto id = Submit(desc);
    if (!id.ok()) return ErrorLine(id.status().message());
    response.Add("id", std::to_string(*id));
    return response.Format();
  }
  if (request.verb == "checkin") {
    auto id = HandleCheckin(request, *ctx);
    if (!id.ok()) return ErrorLine(id.status().message());
    response.Add("id", *id);
    return response.Format();
  }
  if (request.verb == "run") {
    auto ran = RunOne();
    if (!ran.ok()) return ErrorLine(ran.status().message());
    response.Add("ran", *ran ? "1" : "0");
    return response.Format();
  }
  if (request.verb == "drain") {
    Status st = Drain();
    if (!st.ok()) return ErrorLine(st.message());
    response.Add("done", std::to_string(queue_->DoneCount()));
    response.Add("failed", std::to_string(queue_->FailedCount()));
    return response.Format();
  }
  if (request.verb == "stat") {
    response.Add("pending", std::to_string(queue_->PendingCount()));
    response.Add("claimed", std::to_string(queue_->ClaimedCount()));
    response.Add("done", std::to_string(queue_->DoneCount()));
    response.Add("failed", std::to_string(queue_->FailedCount()));
    response.Add("depth", std::to_string(queue_->depth()));
    response.Add("recovered", std::to_string(queue_->recovered()));
    storage::CasStats cas = shared_store_->stats();
    response.Add("cas_entries", std::to_string(cas.entries));
    response.Add("cas_blobs", std::to_string(cas.blobs));
    response.Add("cas_bytes", std::to_string(cas.total_bytes));
    response.Add("cas_hits", std::to_string(cas.hits));
    response.Add("cas_misses", std::to_string(cas.misses));
    response.Add("cas_dedup_bytes", std::to_string(cas.dedup_bytes));
    response.Add("cas_live_blobs", std::to_string(cas.live_blobs));
    response.Add("cas_evictable_blobs",
                 std::to_string(cas.evictable_blobs));
    return response.Format();
  }
  if (request.verb == "task") {
    const std::string* id_text = request.Find("id");
    int64_t id = 0;
    if (id_text == nullptr || !ParseInt64(*id_text, &id)) {
      return ErrorLine("task needs a numeric ~id");
    }
    auto task = queue_->Get(id);
    if (!task.ok()) return ErrorLine(task.status().message());
    response.Add("id", std::to_string(task->id));
    response.Add("state", TaskStateName(task->state));
    response.Add("session", task->session);
    response.Add("attempts", std::to_string(task->attempts));
    if (!task->failure.empty()) response.Add("failure", task->failure);
    return response.Format();
  }
  if (request.verb == "sessions") {
    for (const auto& [name, session] : sessions_) {
      response.Add("session", name);
      response.Add("generation",
                   std::to_string(session->generation()));
    }
    return response.Format();
  }
  if (request.verb == "checkpoint") {
    Status st = queue_->Checkpoint();
    if (!st.ok()) return ErrorLine(st.message());
    response.Add("checkpointed", "1");
    return response.Format();
  }
  if (request.verb == "shutdown") {
    Status st = Shutdown();
    if (!st.ok()) return ErrorLine(st.message());
    response.Add("bye", "1");
    return response.Format();
  }
  return ErrorLine("unknown verb \"" + request.verb + "\"");
}

}  // namespace papyrus::server
