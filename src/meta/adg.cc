#include "meta/adg.h"

#include <deque>
#include <set>

namespace papyrus::meta {

namespace {

/// Hashes what makes two edges the same (ids aside).
size_t ContentHash(const AdgEdge& edge) {
  size_t h = std::hash<std::string>()(edge.tool);
  auto mix = [&h](size_t v) {
    h ^= v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
  };
  mix(std::hash<std::string>()(edge.options));
  const std::hash<oct::ObjectId> id_hash;
  for (const oct::ObjectId& in : edge.inputs) mix(id_hash(in));
  mix(edge.inputs.size());  // where the inputs end and the outputs start
  for (const oct::ObjectId& out : edge.outputs) mix(id_hash(out));
  mix(static_cast<size_t>(edge.micros));
  mix(edge.reuse ? 1 : 0);
  return h;
}

bool SameContent(const AdgEdge& a, const AdgEdge& b) {
  return a.reuse == b.reuse && a.micros == b.micros && a.tool == b.tool &&
         a.options == b.options && a.inputs == b.inputs &&
         a.outputs == b.outputs;
}

}  // namespace

int Adg::AddInvocation(const std::string& tool, const std::string& options,
                       std::vector<oct::ObjectId> inputs,
                       std::vector<oct::ObjectId> outputs, int64_t micros) {
  task::StepRecord step;
  step.tool = tool;
  step.invocation = options;
  step.inputs = std::move(inputs);
  step.outputs = std::move(outputs);
  step.completion_micros = micros;
  return AddStep(step);
}

int Adg::AddStep(const task::StepRecord& step) {
  AdgEdge edge;
  edge.tool = step.tool;
  edge.options = step.invocation;
  edge.inputs = step.inputs;
  edge.outputs = step.outputs;
  edge.micros = step.completion_micros;
  // An elided step reused an earlier derivation's versions: a reuse edge
  // instead of a second (shadowing) derivation.
  edge.reuse = step.cache_hit;
  const size_t hash = ContentHash(edge);
  auto [held, end] = by_content_.equal_range(hash);
  for (; held != end; ++held) {
    if (SameContent(Edge(held->second), edge)) return 0;
  }
  edge.id = static_cast<int>(edges_.size()) + 1;
  if (edge.reuse) {
    for (const oct::ObjectId& out : edge.outputs) {
      reuses_[out].push_back(edge.id);
    }
    ++reuse_edges_;
  } else {
    for (const oct::ObjectId& in : edge.inputs) {
      consumers_[in].push_back(edge.id);
    }
    for (const oct::ObjectId& out : edge.outputs) {
      producers_[out] = edge.id;
    }
  }
  by_content_.emplace(hash, edge.id);
  const int id = edge.id;
  edges_.emplace_back(id, std::move(edge));
  return id;
}

void Adg::AddFromHistoryRecord(const task::TaskHistoryRecord& record) {
  for (const task::StepRecord& step : record.steps) {
    if (step.exit_status == 0) AddStep(step);  // failed steps created nothing
  }
}

Result<const AdgEdge*> Adg::Producer(const oct::ObjectId& id) const {
  auto it = producers_.find(id);
  if (it == producers_.end()) {
    return Status::NotFound("no recorded producer for " + id.ToString());
  }
  return &Edge(it->second);
}

std::vector<const AdgEdge*> Adg::Consumers(const oct::ObjectId& id) const {
  std::vector<const AdgEdge*> out;
  auto it = consumers_.find(id);
  if (it == consumers_.end()) return out;
  for (int edge_id : it->second) out.push_back(&Edge(edge_id));
  return out;
}

std::vector<const AdgEdge*> Adg::Reuses(const oct::ObjectId& id) const {
  std::vector<const AdgEdge*> out;
  auto it = reuses_.find(id);
  if (it == reuses_.end()) return out;
  for (int edge_id : it->second) out.push_back(&Edge(edge_id));
  return out;
}

std::vector<oct::ObjectId> Adg::DerivedFrom(const oct::ObjectId& id) const {
  std::set<oct::ObjectId> seen;
  std::vector<oct::ObjectId> out;
  std::deque<oct::ObjectId> queue = {id};
  while (!queue.empty()) {
    oct::ObjectId cur = queue.front();
    queue.pop_front();
    auto producer = producers_.find(cur);
    if (producer == producers_.end()) continue;
    for (const oct::ObjectId& in : Edge(producer->second).inputs) {
      if (seen.insert(in).second) {
        out.push_back(in);
        queue.push_back(in);
      }
    }
  }
  return out;
}

std::vector<oct::ObjectId> Adg::Dependents(const oct::ObjectId& id) const {
  std::set<oct::ObjectId> seen;
  std::vector<oct::ObjectId> out;
  std::deque<oct::ObjectId> queue = {id};
  while (!queue.empty()) {
    oct::ObjectId cur = queue.front();
    queue.pop_front();
    auto it = consumers_.find(cur);
    if (it == consumers_.end()) continue;
    for (int edge_id : it->second) {
      for (const oct::ObjectId& produced : Edge(edge_id).outputs) {
        if (seen.insert(produced).second) {
          out.push_back(produced);
          queue.push_back(produced);
        }
      }
    }
  }
  return out;
}

std::vector<const AdgEdge*> Adg::RetracePlan(
    const std::string& modified_name) const {
  // Affected edges: every invocation that transitively consumes any
  // version of the modified object.
  std::set<int> affected;
  std::deque<oct::ObjectId> queue;
  for (const auto& [obj, edge_ids] : consumers_) {
    if (obj.name == modified_name) queue.push_back(obj);
  }
  std::set<oct::ObjectId> seen;
  while (!queue.empty()) {
    oct::ObjectId cur = queue.front();
    queue.pop_front();
    if (!seen.insert(cur).second) continue;
    auto it = consumers_.find(cur);
    if (it == consumers_.end()) continue;
    for (int edge_id : it->second) {
      affected.insert(edge_id);
      for (const oct::ObjectId& out : Edge(edge_id).outputs) {
        queue.push_back(out);
      }
    }
  }
  // Edge ids increase with recording order, which respects dependency
  // order within a trace (a consumer is always recorded after the
  // producer completed), so id order is a valid re-execution schedule.
  std::vector<const AdgEdge*> plan;
  for (int edge_id : affected) plan.push_back(&Edge(edge_id));
  return plan;
}

}  // namespace papyrus::meta
