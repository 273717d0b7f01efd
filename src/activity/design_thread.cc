#include "activity/design_thread.h"

#include <algorithm>
#include <deque>

namespace papyrus::activity {

namespace {
constexpr int64_t kMicrosPerHour = 3600ll * 1000000ll;
}  // namespace

DesignThread::DesignThread(int thread_id, std::string name, Clock* clock)
    : id_(thread_id), name_(std::move(name)), clock_(clock) {}

void DesignThread::TouchNode(NodeId id) {
  if (wal_dirty_set_.insert(id).second) wal_dirty_nodes_.push_back(id);
}

void DesignThread::TouchMeta() { wal_meta_dirty_ = true; }

void DesignThread::TouchDeleted(NodeId id) {
  wal_deleted_nodes_.push_back(id);
  ++record_revision_;
}

bool DesignThread::HasWalDirt() const {
  return wal_meta_dirty_ || !wal_deleted_nodes_.empty() ||
         !wal_dirty_nodes_.empty() || !wal_new_checkins_.empty();
}

DesignThread::WalDirt DesignThread::DrainWalDirt() {
  WalDirt out;
  out.meta = wal_meta_dirty_;
  out.deleted = std::move(wal_deleted_nodes_);
  // A node dirtied and then erased inside one commit window is covered by
  // its deletion record alone.
  for (NodeId id : wal_dirty_nodes_) {
    if (nodes_.count(id) > 0) out.upserts.push_back(id);
  }
  out.checkins = std::move(wal_new_checkins_);
  DiscardWalDirt();
  return out;
}

void DesignThread::DiscardWalDirt() {
  wal_meta_dirty_ = false;
  wal_deleted_nodes_.clear();
  wal_dirty_nodes_.clear();
  wal_dirty_set_.clear();
  wal_new_checkins_.clear();
}

Status DesignThread::UpsertNode(HistoryNode node) {
  if (node.id <= 0) {
    return Status::InvalidArgument("journaled node has an invalid id");
  }
  // Thread-state caches are runtime-only; a journaled state never
  // resurrects one.
  node.cache_flag = false;
  node.cache_valid = false;
  node.cached_state.clear();
  next_node_id_ = std::max(next_node_id_, node.id + 1);
  int64_t hour = node.appended_micros / kMicrosPerHour;
  hour_index_.try_emplace(hour, node.id);
  NodeId id = node.id;
  bool is_root = node.parents.empty();
  auto [it, inserted] = nodes_.insert_or_assign(id, std::move(node));
  if (!inserted) ++record_revision_;
  if (is_root) {
    MarkRoot(id);
  } else {
    UnmarkRoot(id);
  }
  if (inserted) {
    // A new node's record carries its parent edges: a plain append does
    // not re-journal the parent, so the parent's child link is rebuilt
    // here. A parent journaled whole after the child replaces its list,
    // and one journaled before it already names the child.
    for (NodeId parent : it->second.parents) {
      HistoryNode* p = MutableNode(parent);
      if (p != nullptr && std::find(p->children.begin(), p->children.end(),
                                    id) == p->children.end()) {
        p->children.push_back(id);
      }
    }
  }
  return Status::OK();
}

Status DesignThread::ForgetNode(NodeId id) {
  if (nodes_.erase(id) > 0) ++record_revision_;
  UnmarkRoot(id);
  for (auto it = hour_index_.begin(); it != hour_index_.end();) {
    if (it->second == id) {
      it = hour_index_.erase(it);
    } else {
      ++it;
    }
  }
  // The journal's meta record (replayed after the batch's deletions and
  // upserts) re-establishes the exact cursor.
  if (current_cursor_ == id) current_cursor_ = kInitialPoint;
  return Status::OK();
}

Status DesignThread::ReplayMeta(NodeId cursor, NodeId next_node_id) {
  if (!HasNode(cursor)) {
    return Status::NotFound("cursor points at missing node " +
                            std::to_string(cursor));
  }
  current_cursor_ = cursor;
  next_node_id_ = std::max(next_node_id_, next_node_id);
  return Status::OK();
}

void DesignThread::CheckIn(const oct::ObjectId& id) {
  if (checkins_.insert(id).second) wal_new_checkins_.push_back(id);
}

HistoryNode* DesignThread::MutableNode(NodeId id) {
  auto it = nodes_.find(id);
  return it == nodes_.end() ? nullptr : &it->second;
}

Result<const HistoryNode*> DesignThread::GetNode(NodeId id) const {
  auto it = nodes_.find(id);
  if (it == nodes_.end()) {
    return Status::NotFound("no design point " + std::to_string(id) +
                            " in thread " + name_);
  }
  return &it->second;
}

bool DesignThread::HasNode(NodeId id) const {
  return id == kInitialPoint || nodes_.count(id) > 0;
}

const std::vector<NodeId>& DesignThread::ChildrenOf(NodeId id) const {
  if (id == kInitialPoint) return roots_;
  static const std::vector<NodeId> kEmpty;
  auto it = nodes_.find(id);
  return it == nodes_.end() ? kEmpty : it->second.children;
}

Result<NodeId> DesignThread::Append(task::TaskHistoryRecord record,
                                    NodeId invocation_cursor) {
  return Append(std::move(record), invocation_cursor,
                StartsNewBranch(invocation_cursor));
}

Result<NodeId> DesignThread::Append(task::TaskHistoryRecord record,
                                    NodeId invocation_cursor,
                                    bool new_branch) {
  if (!HasNode(invocation_cursor)) {
    return Status::NotFound("invocation cursor " +
                            std::to_string(invocation_cursor) +
                            " no longer exists");
  }
  // §5.3: the record belongs to the logical path of the invocation
  // cursor. After a rework into the middle of the stream (`new_branch`)
  // the path is a fresh branch at the cursor itself. Otherwise walk the
  // cursor's path to its end — past records that completed while this
  // task ran — or splice in just before a branching record so that no
  // branch lies between the insertion point and the invocation cursor.
  NodeId prev = invocation_cursor;
  NodeId splice_before = kInitialPoint;  // 0 = plain append
  if (!new_branch) {
    while (true) {
      const std::vector<NodeId>& children = ChildrenOf(prev);
      if (children.empty()) break;      // end of path: append here
      if (children.size() > 1) break;   // prev branches: new sibling here
      NodeId c = children[0];
      if (ChildrenOf(c).size() > 1) {
        splice_before = c;  // c is a branching record: insert before it
        break;
      }
      prev = c;
    }
  }

  HistoryNode node;
  node.id = next_node_id_++;
  node.record = std::move(record);
  node.appended_micros = clock_->NowMicros();
  node.last_access_micros = node.appended_micros;
  if (prev != kInitialPoint) node.parents.push_back(prev);

  if (splice_before != kInitialPoint) {
    HistoryNode* b = MutableNode(splice_before);
    node.children.push_back(splice_before);
    // Detach b from prev, attach the new node in between.
    std::vector<NodeId>& prev_children =
        prev == kInitialPoint ? roots_ : MutableNode(prev)->children;
    std::replace(prev_children.begin(), prev_children.end(), splice_before,
                 node.id);
    std::replace(b->parents.begin(), b->parents.end(), prev, node.id);
    if (prev == kInitialPoint) {
      b->parents.push_back(node.id);  // b was a root: parent was implicit
      // Remove the implicit-parent duplication if replace() already did it.
      // (roots have empty parents, so replace() was a no-op.)
      b->parents.erase(
          std::unique(b->parents.begin(), b->parents.end()),
          b->parents.end());
    }
    TouchNode(splice_before);
    if (prev != kInitialPoint) TouchNode(prev);
    // §5.3: inserting before cached descendants requires updating their
    // cached thread states with the new record's objects.
    std::deque<NodeId> queue = {splice_before};
    std::set<NodeId> seen;
    while (!queue.empty()) {
      NodeId cur = queue.front();
      queue.pop_front();
      if (!seen.insert(cur).second) continue;
      HistoryNode* n = MutableNode(cur);
      if (n->cache_flag && n->cache_valid) {
        AddObjectsOf(node, &n->cached_state);
      }
      for (NodeId child : n->children) queue.push_back(child);
    }
  } else {
    if (prev == kInitialPoint) {
      roots_.push_back(node.id);
    } else {
      // Not journaled: the new node's record names `prev` as its parent,
      // and replay re-adds the child link (UpsertNode).
      MutableNode(prev)->children.push_back(node.id);
    }
    // The current cursor advances automatically when the record lands at
    // the point the cursor occupies (§3.3.3).
    if (current_cursor_ == prev) current_cursor_ = node.id;
  }

  int64_t hour = node.appended_micros / kMicrosPerHour;
  hour_index_.try_emplace(hour, node.id);
  NodeId id = node.id;
  nodes_[id] = std::move(node);
  TouchNode(id);
  TouchMeta();  // next_node_id_, and possibly the cursor, advanced
  return id;
}

Status DesignThread::MoveCursor(NodeId point) {
  if (!HasNode(point)) {
    return Status::NotFound("no design point " + std::to_string(point));
  }
  if (current_cursor_ != point) TouchMeta();
  current_cursor_ = point;
  if (HistoryNode* n = MutableNode(point); n != nullptr) {
    n->last_access_micros = clock_->NowMicros();
    TouchNode(point);
  }
  return Status::OK();
}

void DesignThread::CollectSubtree(NodeId root,
                                  std::set<NodeId>* out) const {
  std::deque<NodeId> queue = {root};
  while (!queue.empty()) {
    NodeId cur = queue.front();
    queue.pop_front();
    if (!out->insert(cur).second) continue;
    for (NodeId child : ChildrenOf(cur)) queue.push_back(child);
  }
}

Status DesignThread::MoveCursorAndErase(
    NodeId point, std::vector<oct::ObjectId>* unreferenced) {
  if (!HasNode(point)) {
    return Status::NotFound("no design point " + std::to_string(point));
  }
  NodeId old_cursor = current_cursor_;
  if (current_cursor_ != point) TouchMeta();
  current_cursor_ = point;
  if (old_cursor == point || old_cursor == kInitialPoint) {
    return Status::OK();
  }
  // Find the child branch of `point` containing the old cursor and erase
  // that subtree (Figure 3.6).
  for (NodeId child : ChildrenOf(point)) {
    std::set<NodeId> subtree;
    CollectSubtree(child, &subtree);
    if (subtree.count(old_cursor) > 0) {
      return EraseSubtree(child, unreferenced);
    }
  }
  return Status::OK();  // old cursor was not downstream: nothing to erase
}

Status DesignThread::EraseSubtree(NodeId root,
                                  std::vector<oct::ObjectId>* unreferenced) {
  if (nodes_.count(root) == 0) {
    return Status::NotFound("no design point " + std::to_string(root));
  }
  std::set<NodeId> doomed;
  CollectSubtree(root, &doomed);

  // Objects referenced by the doomed nodes.
  std::set<oct::ObjectId> doomed_objects;
  for (NodeId id : doomed) {
    AddObjectsOf(nodes_.at(id), &doomed_objects);
  }
  // Detach the subtree root from its parents.
  const HistoryNode& root_node = nodes_.at(root);
  if (root_node.parents.empty()) {
    roots_.erase(std::remove(roots_.begin(), roots_.end(), root),
                 roots_.end());
  } else {
    for (NodeId parent : root_node.parents) {
      HistoryNode* p = MutableNode(parent);
      if (p != nullptr && doomed.count(parent) == 0) {
        p->children.erase(
            std::remove(p->children.begin(), p->children.end(), root),
            p->children.end());
        TouchNode(parent);
      }
    }
  }
  NodeId cursor_fallback = root_node.parents.empty()
                               ? kInitialPoint
                               : root_node.parents.front();
  for (NodeId id : doomed) {
    nodes_.erase(id);
    TouchDeleted(id);
  }
  // Multi-parent nodes inside the subtree may still be linked from
  // surviving parents: scrub dangling child links.
  for (auto& [id, node] : nodes_) {
    size_t before = node.children.size() + node.parents.size();
    node.children.erase(
        std::remove_if(node.children.begin(), node.children.end(),
                       [&](NodeId c) { return doomed.count(c) > 0; }),
        node.children.end());
    node.parents.erase(
        std::remove_if(node.parents.begin(), node.parents.end(),
                       [&](NodeId p) { return doomed.count(p) > 0; }),
        node.parents.end());
    if (node.children.size() + node.parents.size() != before) {
      TouchNode(id);
      if (node.parents.empty()) MarkRoot(id);
    }
  }
  for (auto it = hour_index_.begin(); it != hour_index_.end();) {
    if (doomed.count(it->second) > 0) {
      it = hour_index_.erase(it);
    } else {
      ++it;
    }
  }
  if (doomed.count(current_cursor_) > 0) {
    current_cursor_ = cursor_fallback;
    TouchMeta();
  }

  if (unreferenced != nullptr) {
    std::set<oct::ObjectId> remaining = AllReferencedObjects();
    for (const oct::ObjectId& obj : doomed_objects) {
      if (remaining.count(obj) == 0) unreferenced->push_back(obj);
    }
  }
  return Status::OK();
}

Status DesignThread::PrunePrefix(NodeId new_root,
                                 std::vector<oct::ObjectId>* unreferenced) {
  if (nodes_.count(new_root) == 0) {
    return Status::NotFound("no design point " + std::to_string(new_root));
  }
  // Collect proper ancestors.
  std::set<NodeId> prefix;
  std::deque<NodeId> queue(nodes_.at(new_root).parents.begin(),
                           nodes_.at(new_root).parents.end());
  while (!queue.empty()) {
    NodeId cur = queue.front();
    queue.pop_front();
    if (!prefix.insert(cur).second) continue;
    for (NodeId p : nodes_.at(cur).parents) queue.push_back(p);
  }
  if (prefix.empty()) return Status::OK();
  // The prefix must be self-contained: no branch escapes it.
  for (NodeId id : prefix) {
    for (NodeId child : nodes_.at(id).children) {
      if (child != new_root && prefix.count(child) == 0) {
        return Status::FailedPrecondition(
            "prefix before design point " + std::to_string(new_root) +
            " branches into live history (node " + std::to_string(child) +
            ")");
      }
    }
  }
  std::set<oct::ObjectId> doomed_objects;
  for (NodeId id : prefix) {
    AddObjectsOf(nodes_.at(id), &doomed_objects);
    roots_.erase(std::remove(roots_.begin(), roots_.end(), id),
                 roots_.end());
    nodes_.erase(id);
    TouchDeleted(id);
  }
  HistoryNode* root = MutableNode(new_root);
  root->parents.clear();
  MarkRoot(new_root);
  TouchNode(new_root);
  // Upstream history is gone: downstream cached states remain correct
  // (states only shrink in representation, not content), but the pruned
  // objects may still appear in them; invalidate to stay conservative.
  for (auto& [id, node] : nodes_) node.cache_valid = false;
  for (auto it = hour_index_.begin(); it != hour_index_.end();) {
    if (prefix.count(it->second) > 0) {
      it = hour_index_.erase(it);
    } else {
      ++it;
    }
  }
  if (prefix.count(current_cursor_) > 0) {
    current_cursor_ = new_root;
    TouchMeta();
  }
  if (unreferenced != nullptr) {
    std::set<oct::ObjectId> remaining = AllReferencedObjects();
    for (const oct::ObjectId& obj : doomed_objects) {
      if (remaining.count(obj) == 0) unreferenced->push_back(obj);
    }
  }
  return Status::OK();
}

Status DesignThread::SpliceOutNode(NodeId node,
                                   std::vector<oct::ObjectId>* unreferenced) {
  auto it = nodes_.find(node);
  if (it == nodes_.end()) {
    return Status::NotFound("no design point " + std::to_string(node));
  }
  HistoryNode doomed = it->second;
  std::set<oct::ObjectId> doomed_objects;
  AddObjectsOf(doomed, &doomed_objects);
  // Reconnect parents to children.
  for (NodeId parent : doomed.parents) {
    HistoryNode* p = MutableNode(parent);
    p->children.erase(
        std::remove(p->children.begin(), p->children.end(), node),
        p->children.end());
    TouchNode(parent);
  }
  for (NodeId child : doomed.children) {
    HistoryNode* c = MutableNode(child);
    c->parents.erase(
        std::remove(c->parents.begin(), c->parents.end(), node),
        c->parents.end());
    TouchNode(child);
  }
  for (NodeId parent : doomed.parents) {
    for (NodeId child : doomed.children) LinkNodes(parent, child);
  }
  if (doomed.parents.empty()) {
    UnmarkRoot(node);
    for (NodeId child : doomed.children) {
      if (MutableNode(child)->parents.empty()) MarkRoot(child);
    }
  }
  nodes_.erase(node);
  TouchDeleted(node);
  for (auto hit = hour_index_.begin(); hit != hour_index_.end();) {
    if (hit->second == node) {
      hit = hour_index_.erase(hit);
    } else {
      ++hit;
    }
  }
  if (current_cursor_ == node) {
    current_cursor_ =
        doomed.parents.empty() ? kInitialPoint : doomed.parents.front();
    TouchMeta();
  }
  // Downstream cached states may contain the spliced-out objects.
  for (auto& [id, n] : nodes_) n.cache_valid = false;
  if (unreferenced != nullptr) {
    std::set<oct::ObjectId> remaining = AllReferencedObjects();
    for (const oct::ObjectId& obj : doomed_objects) {
      if (remaining.count(obj) == 0) unreferenced->push_back(obj);
    }
  }
  return Status::OK();
}

Status DesignThread::StripStepDetails(
    NodeId node, std::vector<oct::ObjectId>* intermediates) {
  HistoryNode* n = MutableNode(node);
  if (n == nullptr) {
    return Status::NotFound("no design point " + std::to_string(node));
  }
  // Intermediates: step-level objects that are not task-level in/outs.
  std::set<oct::ObjectId> task_level(n->record.inputs.begin(),
                                     n->record.inputs.end());
  task_level.insert(n->record.outputs.begin(), n->record.outputs.end());
  std::set<oct::ObjectId> dropped;
  for (const task::StepRecord& step : n->record.steps) {
    for (const oct::ObjectId& id : step.inputs) {
      if (task_level.count(id) == 0) dropped.insert(id);
    }
    for (const oct::ObjectId& id : step.outputs) {
      if (task_level.count(id) == 0) dropped.insert(id);
    }
  }
  if (!n->record.steps.empty()) {
    TouchNode(node);
    ++record_revision_;
  }
  n->record.steps.clear();
  n->record.steps.shrink_to_fit();
  if (intermediates != nullptr) {
    intermediates->insert(intermediates->end(), dropped.begin(),
                          dropped.end());
  }
  return Status::OK();
}

std::vector<NodeId> DesignThread::FrontierCursors() const {
  std::vector<NodeId> frontier;
  if (nodes_.empty()) {
    frontier.push_back(kInitialPoint);
    return frontier;
  }
  for (const auto& [id, node] : nodes_) {
    if (node.children.empty()) frontier.push_back(id);
  }
  return frontier;
}

void DesignThread::AddObjectsOf(const HistoryNode& node,
                                std::set<oct::ObjectId>* state) const {
  for (const oct::ObjectId& id : node.record.inputs) state->insert(id);
  for (const oct::ObjectId& id : node.record.outputs) state->insert(id);
}

Result<std::set<oct::ObjectId>> DesignThread::ThreadState(NodeId point) {
  if (!HasNode(point)) {
    return Status::NotFound("no design point " + std::to_string(point));
  }
  std::set<oct::ObjectId> state;
  if (point == kInitialPoint) return state;
  MutableNode(point)->last_access_micros = clock_->NowMicros();
  TouchNode(point);
  if (const HistoryNode& n = nodes_.at(point);
      n.cache_flag && n.cache_valid) {
    ++traversal_visits_;
    return n.cached_state;
  }

  // Backward traversal from `point`, following every parent (threads that
  // were joined have multi-parent nodes), stopping at valid cache points.
  std::deque<NodeId> queue = {point};
  std::set<NodeId> visited;
  int expanded = 0;
  while (!queue.empty()) {
    NodeId cur = queue.front();
    queue.pop_front();
    if (!visited.insert(cur).second) continue;
    ++traversal_visits_;
    ++expanded;
    const HistoryNode& node = nodes_.at(cur);
    if (cur != point && node.cache_flag && node.cache_valid) {
      state.insert(node.cached_state.begin(), node.cached_state.end());
      continue;  // the cache summarizes everything upstream
    }
    AddObjectsOf(node, &state);
    for (NodeId parent : node.parents) queue.push_back(parent);
  }
  // Install a cache at the queried point when the uncached tail grew long
  // enough to be worth summarizing (§5.3).
  if (cache_interval_ > 0 && expanded >= cache_interval_) {
    HistoryNode* n = MutableNode(point);
    n->cache_flag = true;
    n->cache_valid = true;
    n->cached_state = state;
  }
  return state;
}

Result<oct::ObjectId> DesignThread::ResolveInScope(const std::string& name) {
  auto scope = DataScope();
  if (!scope.ok()) return scope.status();
  oct::ObjectId best;
  for (const oct::ObjectId& id : *scope) {
    if (id.name == name && id.version > best.version) best = id;
  }
  if (best.version == 0) {
    return Status::NotFound("no object \"" + name +
                            "\" visible in the data scope of thread " +
                            name_);
  }
  return best;
}

Result<std::set<oct::ObjectId>> DesignThread::Workspace() {
  std::set<oct::ObjectId> workspace = checkins_;
  for (NodeId frontier : FrontierCursors()) {
    auto state = ThreadState(frontier);
    if (!state.ok()) return state.status();
    workspace.insert(state->begin(), state->end());
  }
  return workspace;
}

std::set<oct::ObjectId> DesignThread::AllReferencedObjects() const {
  std::set<oct::ObjectId> all = checkins_;
  for (const auto& [id, node] : nodes_) {
    AddObjectsOf(node, &all);
  }
  return all;
}

NodeId DesignThread::AdoptNode(HistoryNode node) {
  node.id = next_node_id_++;
  node.parents.clear();
  node.children.clear();
  node.cache_flag = false;
  node.cache_valid = false;
  node.cached_state.clear();
  if (node.appended_micros == 0) node.appended_micros = clock_->NowMicros();
  node.last_access_micros = clock_->NowMicros();
  int64_t hour = node.appended_micros / kMicrosPerHour;
  hour_index_.try_emplace(hour, node.id);
  NodeId id = node.id;
  nodes_[id] = std::move(node);
  TouchNode(id);
  TouchMeta();  // next_node_id_ advanced
  return id;
}

void DesignThread::LinkNodes(NodeId parent, NodeId child) {
  HistoryNode* p = MutableNode(parent);
  HistoryNode* c = MutableNode(child);
  if (p == nullptr || c == nullptr) return;
  if (std::find(p->children.begin(), p->children.end(), child) ==
      p->children.end()) {
    p->children.push_back(child);
    TouchNode(parent);
  }
  if (std::find(c->parents.begin(), c->parents.end(), parent) ==
      c->parents.end()) {
    c->parents.push_back(parent);
    TouchNode(child);
  }
}

void DesignThread::MarkRoot(NodeId node) {
  if (nodes_.count(node) == 0) return;
  if (std::find(roots_.begin(), roots_.end(), node) == roots_.end()) {
    roots_.push_back(node);
  }
}

void DesignThread::UnmarkRoot(NodeId node) {
  roots_.erase(std::remove(roots_.begin(), roots_.end(), node),
               roots_.end());
}

Status DesignThread::Annotate(NodeId node, const std::string& text) {
  HistoryNode* n = MutableNode(node);
  if (n == nullptr) {
    return Status::NotFound("no design point " + std::to_string(node));
  }
  n->annotation = text;
  TouchNode(node);
  return Status::OK();
}

Result<NodeId> DesignThread::FindAnnotation(const std::string& text) const {
  for (const auto& [id, node] : nodes_) {
    if (node.annotation == text) return id;
  }
  return Status::NotFound("no design point annotated \"" + text + "\"");
}

Result<NodeId> DesignThread::FindByTime(int64_t micros) const {
  int64_t hour = micros / kMicrosPerHour;
  auto it = hour_index_.lower_bound(hour);
  if (it == hour_index_.end()) {
    return Status::NotFound("no design point at or after the given hour");
  }
  return it->second;
}

}  // namespace papyrus::activity
