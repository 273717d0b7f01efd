#ifndef PAPYRUS_ACTIVITY_ACTIVITY_MANAGER_H_
#define PAPYRUS_ACTIVITY_ACTIVITY_MANAGER_H_

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "activity/design_thread.h"
#include "base/result.h"
#include "oct/attribute_store.h"
#include "oct/database.h"
#include "task/task_manager.h"

namespace papyrus::cache {
class DerivationCache;
}  // namespace papyrus::cache

namespace papyrus::activity {

/// Arguments for invoking a task inside a thread (the §5.2 dialog).
struct ActivityInvocation {
  std::string template_name;
  /// Input references in the three §5.2 naming formats: plain names
  /// (resolved to the latest version in the data scope), "name@version"
  /// (explicit version), or "/absolute/path" (implicit check-in).
  std::vector<std::string> input_refs;
  /// Output names (plain form; versions are assigned by the database).
  std::vector<std::string> output_names;
  std::map<std::string, std::string> option_overrides;
  task::TaskObserver* observer = nullptr;
  int max_restarts = 8;
  uint64_t seed = 1;
  /// Passed through to TaskInvocation: run every step even when a cached
  /// committed derivation exists.
  bool disable_step_cache = false;
};

/// The Papyrus Design Activity Manager (§5): owns the design threads,
/// resolves object names against the current cursor's data scope, invokes
/// the task manager, and appends the returned history records to the
/// invoking thread's control stream at the correct insertion point. The
/// threads' surviving records are the design history, from which
/// Papyrus::metadata() derives metadata when it is read.
class ActivityManager {
 public:
  ActivityManager(oct::OctDatabase* db, task::TaskManager* task_manager,
                  Clock* clock);

  ActivityManager(const ActivityManager&) = delete;
  ActivityManager& operator=(const ActivityManager&) = delete;

  // --- thread lifecycle --------------------------------------------------

  /// Creates an empty design thread; returns its id.
  int CreateThread(const std::string& name);

  /// Fork (§3.3.4.1): the new thread inherits its workspace from `source`
  /// — from one design point's thread state when `point` is given, or the
  /// whole workspace otherwise.
  Result<int> ForkThread(int source, const std::string& name,
                         std::optional<NodeId> point = std::nullopt);

  /// Join at the given frontier connector points (§3.3.4.1).
  Result<int> JoinThreads(int a, NodeId point_a, int b, NodeId point_b,
                          const std::string& name);

  /// Cascade `trailing` after `connector` of `leading` (§3.3.4.1).
  Result<int> CascadeThreads(int leading, NodeId connector, int trailing,
                             const std::string& name);

  Result<DesignThread*> GetThread(int id);
  std::vector<int> ThreadIds() const;
  Status RemoveThread(int id);

  /// Registers a thread restored by the persistence layer under its own
  /// id (crash recovery, §5.3). Fails when the id is taken.
  Status AdoptThread(std::unique_ptr<DesignThread> thread);

  // --- task invocation (§5.1) ----------------------------------------------

  /// Resolves the invocation's object names in the thread's data scope,
  /// runs the task, and appends the resulting history record. Returns the
  /// new design point. On task abort, no record is appended (§4.1).
  Result<NodeId> InvokeTask(int thread_id, const ActivityInvocation& inv);

  // --- rework ---------------------------------------------------------------

  /// Moves a thread's current cursor to `point`; when `erase` is set, the
  /// branch toward the old cursor is deleted and its now-unreferenced
  /// objects are made invisible in the database (Figure 3.6). Erasure is
  /// explicit rework: derivations through the erased objects are dropped
  /// from the attached derivation cache so they re-execute.
  Status MoveCursor(int thread_id, NodeId point, bool erase = false);

  /// Attaches the derivation cache (may be null) for rework invalidation.
  void set_derivation_cache(cache::DerivationCache* cache) {
    cache_ = cache;
  }

  /// Task filtering hook (§5.4): when set and returning false for a task
  /// name, the task still runs but its history record is discarded instead
  /// of entering the control stream ("facility" tasks such as printing).
  /// Wire this to ReclamationManager::ShouldRecord.
  using RecordFilter = std::function<bool(const std::string& task_name)>;
  void set_record_filter(RecordFilter filter) {
    record_filter_ = std::move(filter);
  }

  // --- statistics -----------------------------------------------------------

  int64_t records_appended() const { return records_appended_; }
  int64_t records_filtered() const { return records_filtered_; }

  oct::OctDatabase* database() const { return db_; }
  task::TaskManager* task_manager() const { return task_manager_; }
  Clock* clock() const { return clock_; }

 private:
  Result<oct::ObjectId> ResolveInput(DesignThread* thread,
                                     const std::string& ref);

  oct::OctDatabase* db_;
  task::TaskManager* task_manager_;
  Clock* clock_;
  std::map<int, std::unique_ptr<DesignThread>> threads_;
  std::map<int, std::unique_ptr<oct::AttributeStore>> attribute_stores_;
  RecordFilter record_filter_;
  cache::DerivationCache* cache_ = nullptr;  // optional, not owned
  int next_thread_id_ = 1;
  int64_t records_appended_ = 0;
  int64_t records_filtered_ = 0;
};

}  // namespace papyrus::activity

#endif  // PAPYRUS_ACTIVITY_ACTIVITY_MANAGER_H_
