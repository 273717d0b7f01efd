#ifndef PAPYRUS_ACTIVITY_DESIGN_THREAD_H_
#define PAPYRUS_ACTIVITY_DESIGN_THREAD_H_

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "base/clock.h"
#include "base/result.h"
#include "base/status.h"
#include "oct/object_id.h"
#include "task/history.h"

namespace papyrus::activity {

/// Identifies a design point in a thread's control stream: the state right
/// after the history record with this node id committed. `kInitialPoint`
/// (0) is the empty state at thread creation.
using NodeId = int;
constexpr NodeId kInitialPoint = 0;

/// One vertex of a control stream (the thesis' HistoryRecord structure,
/// §5.3): a committed task's history plus graph links. Nodes may have
/// multiple parents (thread joins) and multiple children (rework
/// branches).
struct HistoryNode {
  NodeId id = kInitialPoint;
  task::TaskHistoryRecord record;
  bool is_junction = false;  // a join connector point, carries no record
  std::string annotation;
  int64_t appended_micros = 0;
  std::vector<NodeId> parents;  // empty = child of the initial point
  std::vector<NodeId> children;
  /// Last time the node was the target of a cursor move or state query;
  /// drives the §5.4 dead-branch detection.
  int64_t last_access_micros = 0;
  // Thread-state cache (the CacheFlag/state of §5.3).
  bool cache_flag = false;
  bool cache_valid = false;
  std::set<oct::ObjectId> cached_state;
};

/// A design thread (§3.3.3): the context of one logical design entity —
/// its branching control stream of committed tasks, its thread workspace,
/// its frontier cursors, and the current cursor that defines the data
/// scope in which new task invocations resolve object names.
///
/// The thread is database-agnostic: operations that "delete" objects
/// return the affected ids and the activity manager applies visibility
/// changes to the OCT store.
class DesignThread {
 public:
  DesignThread(int thread_id, std::string name, Clock* clock);

  DesignThread(const DesignThread&) = delete;
  DesignThread& operator=(const DesignThread&) = delete;

  int id() const { return id_; }
  const std::string& name() const { return name_; }

  // --- control stream ---------------------------------------------------

  /// Appends a committed task's history record. `invocation_cursor` is the
  /// current cursor captured when the task was *invoked* (§5.3).
  ///
  /// `new_branch` encodes the §5.3 path number, captured at invocation
  /// time: true when the invocation cursor already had following records
  /// then (the user reworked into the middle of the stream, so this record
  /// starts a fresh branch at the cursor); false when the cursor was a
  /// frontier (the record lands at the end of the cursor's logical path,
  /// chaining after records that completed in the interim, or spliced in
  /// just before a branching record found along the way).
  ///
  /// Returns the new node's id. Advances the current cursor when it sat at
  /// the attachment point.
  Result<NodeId> Append(task::TaskHistoryRecord record,
                        NodeId invocation_cursor, bool new_branch);

  /// Synchronous convenience: invocation time is now, so the branch flag
  /// is `StartsNewBranch(invocation_cursor)` now.
  Result<NodeId> Append(task::TaskHistoryRecord record,
                        NodeId invocation_cursor);

  /// The §5.3 branch rule: a record invoked at `cursor` starts a new
  /// branch when the cursor already has following records — the user
  /// reworked into the middle of the stream, or back to the initial
  /// point of a non-empty thread.
  bool StartsNewBranch(NodeId cursor) const {
    return !ChildrenOf(cursor).empty();
  }

  Result<const HistoryNode*> GetNode(NodeId id) const;
  bool HasNode(NodeId id) const;
  /// Number of history records (excludes the initial point).
  int size() const { return static_cast<int>(nodes_.size()); }

  NodeId current_cursor() const { return current_cursor_; }
  /// Records without a parent (the children of the initial point).
  const std::vector<NodeId>& roots() const { return roots_; }

  /// Rework (§3.3.3): repositions the current cursor onto an existing
  /// design point, restoring that point's thread state as the data scope.
  Status MoveCursor(NodeId point);

  /// Rework with branch erasure (Figure 3.6): moves the cursor to `point`
  /// and deletes the branch that led to the old cursor position (the
  /// subtree hanging off `point` that contains the old cursor). Appends
  /// the ids of objects no longer referenced anywhere in the stream to
  /// `unreferenced` for the caller to make invisible.
  Status MoveCursorAndErase(NodeId point,
                            std::vector<oct::ObjectId>* unreferenced);

  /// Deletes the subtree rooted at `node` (used by storage reclamation
  /// policies). Collects newly unreferenced objects like
  /// MoveCursorAndErase. The current cursor moves to the subtree's parent
  /// when it pointed inside.
  Status EraseSubtree(NodeId node,
                      std::vector<oct::ObjectId>* unreferenced);

  /// Design points with no following record (§3.3.3).
  std::vector<NodeId> FrontierCursors() const;

  /// Removes every proper ancestor of `new_root` (§5.4 horizontal aging:
  /// history "too far back in time" is pruned and the stream re-roots at
  /// `new_root`). Fails when the prefix is not linear (an ancestor has a
  /// child outside the prefix/new_root). Collects newly unreferenced
  /// objects like EraseSubtree.
  Status PrunePrefix(NodeId new_root,
                     std::vector<oct::ObjectId>* unreferenced);

  /// Removes one record from the middle of the stream, connecting its
  /// parents directly to its children (§5.4 garbage collection of
  /// abandoned iteration rounds). Collects newly unreferenced objects.
  Status SpliceOutNode(NodeId node,
                       std::vector<oct::ObjectId>* unreferenced);

  /// Replaces a node's recorded step details with an empty list (§5.4
  /// vertical aging: internal details of old composite tasks are
  /// progressively forgotten). Returns the ids of intermediate objects
  /// that were referenced only by the dropped step records.
  Status StripStepDetails(NodeId node,
                          std::vector<oct::ObjectId>* intermediates);

  // --- states and scopes --------------------------------------------------

  /// The thread state of a design point: all objects referenced as inputs
  /// or created as outputs on the paths from the initial point to `point`
  /// (§3.3.3). Uses and refreshes the thread-state caches.
  Result<std::set<oct::ObjectId>> ThreadState(NodeId point);

  /// The data scope (§5.2): the thread state of the current cursor.
  Result<std::set<oct::ObjectId>> DataScope() {
    return ThreadState(current_cursor_);
  }

  /// Resolves a plain object name to its most recent version inside the
  /// current data scope (§5.2).
  Result<oct::ObjectId> ResolveInScope(const std::string& name);

  /// The thread workspace: union of the frontier cursors' thread states
  /// plus explicitly checked-in objects (§3.3.3).
  Result<std::set<oct::ObjectId>> Workspace();

  /// Registers an externally checked-in object (absolute-path naming).
  void CheckIn(const oct::ObjectId& id);
  const std::set<oct::ObjectId>& checkins() const { return checkins_; }

  // --- random access (§5.2) ----------------------------------------------

  Status Annotate(NodeId node, const std::string& text);
  /// Finds the node carrying an annotation (exact match).
  Result<NodeId> FindAnnotation(const std::string& text) const;
  /// Finds the first record in the hour containing `micros`, or the
  /// earliest record after it (hour-resolution temporal access).
  Result<NodeId> FindByTime(int64_t micros) const;

  // --- caching ------------------------------------------------------------

  /// A node becomes a cache point every `interval` records of backward
  /// traversal; 0 disables caching (the ablation baseline).
  void set_cache_interval(int interval) {
    if (interval != cache_interval_) TouchMeta();
    cache_interval_ = interval;
  }
  int cache_interval() const { return cache_interval_; }
  /// Number of node visits performed by ThreadState computations (for the
  /// §5.3 caching experiments).
  int64_t traversal_visits() const { return traversal_visits_; }

  /// Internal: direct node table access for thread-combination operators
  /// and renderers.
  const std::map<NodeId, HistoryNode>& nodes() const { return nodes_; }

  /// Moves whenever a recorded node is removed or its record rewritten
  /// (erase, prune, splice, strip, and their restore or replay). Appends
  /// leave it alone, so what was derived from the stream's records is
  /// stale exactly when it moved.
  uint64_t record_revision() const { return record_revision_; }

  // --- low-level graph surgery (thread-combination operators) -----------

  /// Adds a node with a fresh id and no links; returns the id. Cached
  /// thread state is dropped.
  NodeId AdoptNode(HistoryNode node);
  /// Adds a parent->child edge (idempotent).
  void LinkNodes(NodeId parent, NodeId child);
  /// Registers/unregisters a node as a child of the initial point.
  void MarkRoot(NodeId node);
  void UnmarkRoot(NodeId node);

  // --- storage-engine hooks ----------------------------------------------
  // Mutations are tracked at node granularity so the write-ahead log can
  // journal exact record states (delta journaling). The session glue
  // (src/core) notes which threads it journaled, and a generation
  // rewrites exactly those thread sections.

  /// Everything dirtied since the last drain, in deterministic
  /// (mutation-order) sequence.
  struct WalDirt {
    bool meta = false;                  // name/cursor/interval changed
    std::vector<NodeId> deleted;        // erased nodes, deletion order
    std::vector<NodeId> upserts;        // surviving dirty nodes
    std::vector<oct::ObjectId> checkins;  // newly checked-in objects
  };
  bool HasWalDirt() const;
  WalDirt DrainWalDirt();
  void DiscardWalDirt();

  /// The node-id allocator. It can run ahead of the highest live id once
  /// the newest records are erased, so both the WAL meta record and the
  /// thread section carry it (the section only when it differs from
  /// max id + 1).
  NodeId next_node_id() const { return next_node_id_; }

  // Restore and replay: a thread section and the WAL rebuild a thread
  // through the same two calls, so both land in the same state.

  /// Applies one node state — replaces the node when it exists, inserts
  /// it otherwise. An inserted node is also appended to each present
  /// parent's children (unless already there): a plain Append journals
  /// only the new node, whose record carries the parent edge.
  /// Thread-state cache fields are runtime-only and reset. Keeps roots
  /// and the hour index consistent.
  Status UpsertNode(HistoryNode node);
  /// WAL replay of a deletion. Survivor links are not scrubbed here —
  /// the journal carries the survivors' corrected states separately.
  Status ForgetNode(NodeId id);
  /// Sets the cursor (which must exist) and raises the node-id allocator
  /// to `next_node_id` (never below max id + 1).
  Status ReplayMeta(NodeId cursor, NodeId next_node_id);

 private:
  friend class ThreadCombinator;

  HistoryNode* MutableNode(NodeId id);
  const std::vector<NodeId>& ChildrenOf(NodeId id) const;
  void AddObjectsOf(const HistoryNode& node,
                    std::set<oct::ObjectId>* state) const;
  /// All object ids referenced anywhere in the stream or check-ins.
  std::set<oct::ObjectId> AllReferencedObjects() const;
  void CollectSubtree(NodeId root, std::set<NodeId>* out) const;

  /// Dirty tracking: every persisted-state mutation funnels through one of
  /// these so the WAL drain sees exactly what changed, in order.
  void TouchNode(NodeId id);
  void TouchMeta();
  void TouchDeleted(NodeId id);

  int id_;
  std::string name_;
  Clock* clock_;
  std::map<NodeId, HistoryNode> nodes_;
  std::vector<NodeId> roots_;  // children of the initial point
  NodeId current_cursor_ = kInitialPoint;
  NodeId next_node_id_ = 1;
  std::set<oct::ObjectId> checkins_;
  std::map<int64_t, NodeId> hour_index_;  // hour -> first node that hour
  int cache_interval_ = 8;
  int64_t traversal_visits_ = 0;
  uint64_t record_revision_ = 0;

  // Storage-engine dirty state.
  std::vector<NodeId> wal_dirty_nodes_;   // first-dirtied order
  std::set<NodeId> wal_dirty_set_;
  std::vector<NodeId> wal_deleted_nodes_;
  std::vector<oct::ObjectId> wal_new_checkins_;
  bool wal_meta_dirty_ = false;
};

}  // namespace papyrus::activity

#endif  // PAPYRUS_ACTIVITY_DESIGN_THREAD_H_
