#ifndef PAPYRUS_META_ADG_H_
#define PAPYRUS_META_ADG_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "base/result.h"
#include "oct/object_id.h"
#include "task/history.h"

namespace papyrus::meta {

/// One tool invocation in the augmented derivation graph (§6.3): the
/// operation that connects input object versions to output object
/// versions, together with its control parameters.
struct AdgEdge {
  int id = 0;
  std::string tool;
  std::string options;
  std::vector<oct::ObjectId> inputs;
  std::vector<oct::ObjectId> outputs;
  int64_t micros = 0;
  /// A reuse edge: this "invocation" was served by the derivation cache
  /// from an earlier recorded execution — no tool ran. Its outputs are the
  /// earlier derivation's versions, so reuse edges never register as
  /// producers (that would shadow the real derivation) nor as consumers
  /// for retracing; they are indexed separately.
  bool reuse = false;
};

/// The data-oriented design-history representation (§6.3): a bipartite
/// graph of design-object versions and the CAD-tool invocations that
/// created them — "VOV's design trace is an explicit form of ADG". It is
/// independent of the temporal order of execution and is the basis for
/// all metadata inference (§6.4) and for Make-style retracing.
class Adg {
 public:
  /// Records one tool invocation (AddStep of a step the tool ran).
  int AddInvocation(const std::string& tool, const std::string& options,
                    std::vector<oct::ObjectId> inputs,
                    std::vector<oct::ObjectId> outputs, int64_t micros);

  /// Records one successful step unless the graph already holds the same
  /// edge: same reuse flag, tool, options, inputs, outputs and completion
  /// time. Returns the new edge's id, or 0 when the edge was held, so
  /// re-observing a history node, or a fork's copy of one, adds nothing.
  /// A cache-served (elided) step becomes a reuse edge: visible in the
  /// graph and in the per-version reuse index, but not wired into the
  /// producer/consumer maps — the original derivation already is.
  int AddStep(const task::StepRecord& step);

  /// Extends the graph with every successful step of a committed task's
  /// history record (AddStep) — the ADG is collected "as a by-product of
  /// activity management" (§6.1).
  void AddFromHistoryRecord(const task::TaskHistoryRecord& record);

  /// The invocation that produced this version, if recorded.
  Result<const AdgEdge*> Producer(const oct::ObjectId& id) const;
  /// Invocations that consumed this version.
  std::vector<const AdgEdge*> Consumers(const oct::ObjectId& id) const;

  /// Transitive closure of the inputs this version was derived from — its
  /// derivation history (§1.4).
  std::vector<oct::ObjectId> DerivedFrom(const oct::ObjectId& id) const;
  /// All versions transitively derived from this one.
  std::vector<oct::ObjectId> Dependents(const oct::ObjectId& id) const;

  /// VOV-style retracing (§2.2.2 / §6.2): when any version of
  /// `modified_name` changes, returns the recorded invocations that must
  /// be re-run to regenerate every affected derived object, in dependency
  /// order.
  std::vector<const AdgEdge*> RetracePlan(
      const std::string& modified_name) const;

  /// Reuse edges whose outputs include this version.
  std::vector<const AdgEdge*> Reuses(const oct::ObjectId& id) const;

  size_t edge_count() const { return edges_.size(); }
  size_t object_count() const { return producers_.size(); }
  size_t reuse_count() const { return reuse_edges_; }
  /// Every edge as `[id, edge]`, in id (recording) order.
  const std::vector<std::pair<int, AdgEdge>>& edges() const { return edges_; }

 private:
  const AdgEdge& Edge(int id) const { return edges_[id - 1].second; }

  /// Ids are 1, 2, ... in recording order, so edge `id` is at `id - 1`.
  std::vector<std::pair<int, AdgEdge>> edges_;
  // Hashed by version: no order is taken from these indexes.
  std::unordered_map<oct::ObjectId, int> producers_;  // object -> edge
  std::unordered_map<oct::ObjectId, std::vector<int>> consumers_;
  std::unordered_map<oct::ObjectId, std::vector<int>> reuses_;
  /// Every edge by a hash of its content, for AddStep's "already held".
  std::unordered_multimap<size_t, int> by_content_;
  size_t reuse_edges_ = 0;
};

}  // namespace papyrus::meta

#endif  // PAPYRUS_META_ADG_H_
