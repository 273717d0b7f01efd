#include "server/session_manager.h"

#include <algorithm>
#include <tuple>
#include <vector>

#include "base/macros.h"
#include "base/thread_annotations.h"

namespace papyrus::server {

Result<std::unique_ptr<ManagedSession>> ManagedSession::Open(
    const std::string& directory, const std::string& name,
    const SessionConfig& config, const obs::Observability& obs,
    storage::ContentStore* shared_store) {
  base::AssertEngineThread("ManagedSession::Open");
  std::unique_ptr<ManagedSession> managed(new ManagedSession(name));
  managed->snapshot_interval_ = config.snapshot_interval;

  SessionOptions options;
  options.num_workstations = config.num_workstations;
  options.worker_threads = config.worker_threads;
  options.cache_interval = config.cache_interval;
  managed->session_ = std::make_unique<Papyrus>(options);
  // Rebind the session's instrumented subsystems to the daemon's sinks
  // so one registry and one trace span every session and incarnation.
  if (obs.trace != nullptr || obs.metrics != nullptr) {
    managed->session_->database().set_observability(obs);
    managed->session_->network().set_observability(obs);
    managed->session_->task_manager().set_observability(obs);
    managed->session_->step_cache().set_observability(obs);
  }
  if (shared_store != nullptr) {
    // Deferred publication: entries recorded during execution are held
    // until Save() makes the commit durable (FlushSharedPublications),
    // so the store only ever holds outputs of durably committed tasks.
    managed->session_->AttachSharedStore(shared_store,
                                         /*auto_publish=*/false);
  }

  PAPYRUS_RETURN_IF_ERROR(managed->session_->OpenStorage(directory));
  // The restored state is durable by definition: flush publications the
  // crashed incarnation held back (idempotent — whatever its missing
  // flush would have published).
  managed->session_->step_cache().FlushSharedPublications();
  PAPYRUS_RETURN_IF_ERROR(managed->ReplayMetadata());

  // Intra-session chaos lands after restore so crash times are relative
  // to the restored virtual clock.
  if (config.fault.seed != 0) {
    managed->fault_plan_ =
        std::make_unique<fault::FaultPlan>(config.fault);
    if (obs.trace != nullptr || obs.metrics != nullptr) {
      managed->fault_plan_->set_observability(obs);
    } else {
      managed->fault_plan_->set_observability(
          managed->session_->observability());
    }
    PAPYRUS_RETURN_IF_ERROR(managed->fault_plan_->Apply(
        &managed->session_->network(), &managed->session_->tools()));
  }
  return managed;
}

Status ManagedSession::ReplayMetadata() {
  // Metadata inference state is not persisted; re-observe every restored
  // record in commit order (commit timestamps strictly increase under
  // the serial daemon, so the order is the live observation order).
  struct Entry {
    int64_t micros;
    int thread_id;
    activity::NodeId node_id;
    const task::TaskHistoryRecord* record;
  };
  std::vector<Entry> entries;
  for (int thread_id : session_->activity().ThreadIds()) {
    auto thread = session_->activity().GetThread(thread_id);
    if (!thread.ok()) continue;
    for (const auto& [node_id, node] : (*thread)->nodes()) {
      if (node.is_junction || node.record.task_name.empty()) continue;
      entries.push_back(
          {node.appended_micros, thread_id, node_id, &node.record});
    }
  }
  std::sort(entries.begin(), entries.end(),
            [](const Entry& a, const Entry& b) {
              return std::tie(a.micros, a.thread_id, a.node_id) <
                     std::tie(b.micros, b.thread_id, b.node_id);
            });
  for (const Entry& e : entries) {
    PAPYRUS_RETURN_IF_ERROR(session_->metadata().Observe(*e.record));
  }
  return Status::OK();
}

Result<activity::NodeId> ManagedSession::AppliedNode(
    int64_t task_id) const {
  const Papyrus::AppliedRequest* applied = session_->FindApplied(task_id);
  if (applied == nullptr) {
    return Status::NotFound("task " + std::to_string(task_id) +
                            " not applied in session " + name_);
  }
  return applied->node;
}

Result<int> ManagedSession::ThreadByName(const std::string& thread_name) {
  for (int id : session_->activity().ThreadIds()) {
    auto thread = session_->activity().GetThread(id);
    if (thread.ok() && (*thread)->name() == thread_name) return id;
  }
  return session_->CreateThread(thread_name);
}

Result<activity::NodeId> ManagedSession::Execute(
    int64_t task_id, const TaskDescription& desc) {
  PAPYRUS_ASSIGN_OR_RETURN(int thread_id, ThreadByName(desc.thread));
  activity::ActivityInvocation inv;
  inv.template_name = desc.template_name;
  inv.input_refs = desc.input_refs;
  inv.output_names = desc.output_names;
  inv.option_overrides = desc.option_overrides;
  inv.seed = desc.seed;
  PAPYRUS_ASSIGN_OR_RETURN(
      activity::NodeId node,
      session_->activity().InvokeTask(thread_id, inv));
  session_->RecordApplied(task_id, thread_id, node);
  return node;
}

Status ManagedSession::Save() {
  if (++saves_since_generation_ >= snapshot_interval_) return Checkpoint();
  // The cheap path that replaces one whole-snapshot rewrite per task:
  // journal the commit's mutations and fsync once.
  PAPYRUS_RETURN_IF_ERROR(session_->CommitWal());
  // The commit is durable (journal-before-effect); derivations it
  // carries may now be shared with other sessions through the
  // content-addressed store.
  session_->step_cache().FlushSharedPublications();
  return Status::OK();
}

Status ManagedSession::Checkpoint() {
  PAPYRUS_RETURN_IF_ERROR(session_->SaveGeneration());
  saves_since_generation_ = 0;
  session_->step_cache().FlushSharedPublications();
  return Status::OK();
}

}  // namespace papyrus::server
