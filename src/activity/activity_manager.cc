#include "activity/activity_manager.h"

#include "activity/thread_ops.h"
#include "base/macros.h"
#include "base/thread_annotations.h"
#include "cache/derivation_cache.h"

namespace papyrus::activity {

ActivityManager::ActivityManager(oct::OctDatabase* db,
                                 task::TaskManager* task_manager,
                                 Clock* clock)
    : db_(db), task_manager_(task_manager), clock_(clock) {}

int ActivityManager::CreateThread(const std::string& name) {
  int id = next_thread_id_++;
  threads_[id] = std::make_unique<DesignThread>(id, name, clock_);
  attribute_stores_[id] = std::make_unique<oct::AttributeStore>();
  return id;
}

Result<DesignThread*> ActivityManager::GetThread(int id) {
  auto it = threads_.find(id);
  if (it == threads_.end()) {
    return Status::NotFound("no design thread " + std::to_string(id));
  }
  return it->second.get();
}

std::vector<int> ActivityManager::ThreadIds() const {
  std::vector<int> ids;
  ids.reserve(threads_.size());
  for (const auto& [id, thread] : threads_) ids.push_back(id);
  return ids;
}

Status ActivityManager::RemoveThread(int id) {
  if (threads_.erase(id) == 0) {
    return Status::NotFound("no design thread " + std::to_string(id));
  }
  attribute_stores_.erase(id);
  return Status::OK();
}

Status ActivityManager::AdoptThread(std::unique_ptr<DesignThread> thread) {
  int id = thread->id();
  if (threads_.count(id) > 0) {
    return Status::AlreadyExists("thread id " + std::to_string(id) +
                                 " is already in use");
  }
  threads_[id] = std::move(thread);
  attribute_stores_[id] = std::make_unique<oct::AttributeStore>();
  if (id >= next_thread_id_) next_thread_id_ = id + 1;
  return Status::OK();
}

Result<int> ActivityManager::ForkThread(int source, const std::string& name,
                                        std::optional<NodeId> point) {
  PAPYRUS_ASSIGN_OR_RETURN(DesignThread * src, GetThread(source));
  int id = CreateThread(name);
  Status st = ThreadCombinator::Fork(*src, point, threads_[id].get());
  if (!st.ok()) {
    (void)RemoveThread(id);
    return st;
  }
  return id;
}

Result<int> ActivityManager::JoinThreads(int a, NodeId point_a, int b,
                                         NodeId point_b,
                                         const std::string& name) {
  PAPYRUS_ASSIGN_OR_RETURN(DesignThread * ta, GetThread(a));
  PAPYRUS_ASSIGN_OR_RETURN(DesignThread * tb, GetThread(b));
  int id = CreateThread(name);
  Status st =
      ThreadCombinator::Join(*ta, point_a, *tb, point_b, threads_[id].get());
  if (!st.ok()) {
    (void)RemoveThread(id);
    return st;
  }
  return id;
}

Result<int> ActivityManager::CascadeThreads(int leading, NodeId connector,
                                            int trailing,
                                            const std::string& name) {
  PAPYRUS_ASSIGN_OR_RETURN(DesignThread * lead, GetThread(leading));
  PAPYRUS_ASSIGN_OR_RETURN(DesignThread * trail, GetThread(trailing));
  int id = CreateThread(name);
  Status st = ThreadCombinator::Cascade(*lead, connector, *trail,
                                        threads_[id].get());
  if (!st.ok()) {
    (void)RemoveThread(id);
    return st;
  }
  return id;
}

Result<oct::ObjectId> ActivityManager::ResolveInput(
    DesignThread* thread, const std::string& ref) {
  base::AssertEngineThread("ActivityManager::ResolveInput");
  PAPYRUS_ASSIGN_OR_RETURN(oct::ObjectRef parsed,
                           oct::ParseObjectRef(ref));
  if (parsed.is_absolute_path) {
    // Implicit check-in (§5.2): the object lives outside the thread
    // workspace; copy a reference into the workspace directory.
    PAPYRUS_ASSIGN_OR_RETURN(oct::ObjectId id,
                             db_->LatestVisible(parsed.name));
    thread->CheckIn(id);
    return id;
  }
  if (parsed.version > 0) {
    // Explicit version: bypasses default resolution but must still be an
    // accessible object.
    oct::ObjectId id{parsed.name, parsed.version};
    auto rec = db_->Get(id);
    if (!rec.ok()) return rec.status();
    return id;
  }
  return thread->ResolveInScope(parsed.name);
}

Result<NodeId> ActivityManager::InvokeTask(int thread_id,
                                           const ActivityInvocation& inv) {
  PAPYRUS_ASSIGN_OR_RETURN(DesignThread * thread, GetThread(thread_id));

  task::TaskInvocation task_inv;
  task_inv.template_name = inv.template_name;
  for (const std::string& ref : inv.input_refs) {
    PAPYRUS_ASSIGN_OR_RETURN(oct::ObjectId id, ResolveInput(thread, ref));
    task_inv.inputs.push_back(id);
  }
  task_inv.output_names = inv.output_names;
  task_inv.option_overrides = inv.option_overrides;
  task_inv.max_restarts = inv.max_restarts;
  task_inv.seed = inv.seed;
  task_inv.disable_step_cache = inv.disable_step_cache;
  task_inv.attribute_store = attribute_stores_[thread_id].get();

  // Capture the invocation cursor and its path state (§5.3): the record
  // is inserted on this cursor's logical path even if the current cursor
  // moves while the task runs, and the branch rule is applied as of now.
  NodeId invocation_cursor = thread->current_cursor();
  bool new_branch = thread->StartsNewBranch(invocation_cursor);

  auto record = task_manager_->Invoke(task_inv, inv.observer);
  if (!record.ok()) return record.status();  // aborted: nothing appended

  if (record_filter_ && !record_filter_(inv.template_name)) {
    // §5.4 filtering: facility tasks leave no trace in the design history.
    ++records_filtered_;
    return thread->current_cursor();
  }

  PAPYRUS_ASSIGN_OR_RETURN(NodeId node,
                           thread->Append(std::move(*record),
                                          invocation_cursor, new_branch));
  ++records_appended_;
  return node;
}

Status ActivityManager::MoveCursor(int thread_id, NodeId point,
                                   bool erase) {
  base::AssertEngineThread("ActivityManager::MoveCursor");
  PAPYRUS_ASSIGN_OR_RETURN(DesignThread * thread, GetThread(thread_id));
  if (!erase) return thread->MoveCursor(point);
  std::vector<oct::ObjectId> unreferenced;
  PAPYRUS_RETURN_IF_ERROR(thread->MoveCursorAndErase(point, &unreferenced));
  for (const oct::ObjectId& id : unreferenced) {
    // Erasure re-opens the design point: memoized derivations through the
    // erased versions must re-execute, not be served from history.
    if (cache_ != nullptr) cache_->OnRework(id);
    (void)db_->MarkInvisible(id);
  }
  return Status::OK();
}

}  // namespace papyrus::activity
