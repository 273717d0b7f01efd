#ifndef PAPYRUS_META_INFERENCE_H_
#define PAPYRUS_META_INFERENCE_H_

#include <string>
#include <unordered_map>
#include <vector>

#include "base/result.h"
#include "meta/adg.h"
#include "meta/tsd.h"
#include "oct/attribute_store.h"
#include "oct/database.h"
#include "task/history.h"

namespace papyrus::meta {

/// Inter-object relationship kinds the engine infers (§6.4.2).
enum class RelKind {
  kDerivation,     // output derived-from input (via a tool)
  kVersionOf,      // successive versions of the same object
  kConfiguration,  // composite contains component (composition tools)
  kEquivalence,    // same design entity in another domain (translators)
};

const char* RelKindToString(RelKind kind);

/// A first-class relationship object (§6.1: relationship management
/// systems treat inter-object relationships as first-class objects).
struct Relationship {
  int id = 0;
  RelKind kind = RelKind::kDerivation;
  oct::ObjectId from;  // derived / later / composite / translated object
  oct::ObjectId to;    // source / earlier / component / original object
  std::string via_tool;
};

/// Stores inferred relationships with by-object indexes.
class RelationshipStore {
 public:
  int Add(RelKind kind, const oct::ObjectId& from, const oct::ObjectId& to,
          const std::string& via_tool);
  /// Relationships where `id` appears on either side.
  std::vector<const Relationship*> Of(const oct::ObjectId& id) const;
  /// Relationships of one kind where `id` is the `from` side.
  std::vector<const Relationship*> From(const oct::ObjectId& id,
                                        RelKind kind) const;
  /// Relationships of one kind where `id` is the `to` side.
  std::vector<const Relationship*> To(const oct::ObjectId& id,
                                      RelKind kind) const;
  size_t size() const { return rels_.size(); }

 private:
  const Relationship& Rel(int id) const { return rels_[id - 1]; }

  /// Ids are 1, 2, ... in insertion order, so relationship `id` is at
  /// `id - 1`.
  std::vector<Relationship> rels_;
  // Hashed by version; each list keeps insertion order.
  std::unordered_map<oct::ObjectId, std::vector<int>> by_from_;
  std::unordered_map<oct::ObjectId, std::vector<int>> by_to_;
};

/// How a propagated attribute aggregates over configuration components
/// (§6.4.1: evaluation rules are attached to *relationships*, shared by
/// every object participating in that kind of relationship, instead of
/// being registered per object as in Cactis).
struct PropagationRule {
  std::string object_type;      // rule applies to composites of this type
  std::string attribute;        // propagated attribute name (e.g. "power")
  std::string component_attribute;  // attribute read from components
  enum class Agg { kSum, kMax, kMin } agg = Agg::kSum;
  bool include_own = true;  // composite's own intrinsic value participates
};

/// A constraint attribute (§6.4.1: "constraint attributes, where
/// constraint violation should be detected as early as possible"). The
/// engine checks the constraint eagerly whenever an object of the given
/// type is created.
struct ConstraintRule {
  std::string object_type;  // "layout", "logic", ...
  std::string attribute;    // measured intrinsic attribute
  enum class Op { kLessEqual, kGreaterEqual } op = Op::kLessEqual;
  double bound = 0.0;
  std::string description;  // shown in violation reports
};

/// A detected constraint violation.
struct ConstraintViolation {
  oct::ObjectId object;
  std::string attribute;
  double value = 0.0;
  double bound = 0.0;
  std::string description;
};

/// The history-based metadata inference engine (Chapter 6).
///
/// "Rather than requiring users to supply design meta-data, the system
/// maintains and analyzes the design history to deduce the metadata."
/// The engine observes committed task history records (the same records
/// the activity manager stores; Papyrus::metadata() feeds it the surviving
/// history), extends the ADG, and incrementally constructs:
///  - object *types and formats*, from the creating tool's TSD;
///  - *intrinsic attributes*, attached per type and evaluated immediately
///    or lazily, with values propagated through tool inherit lists;
///  - *relationships*: derivation, version, configuration (composition
///    tools) and cross-domain equivalence (translator tools);
///  - *propagated attributes*, evaluated by rules attached to
///    relationship kinds, re-evaluated incrementally when components
///    change.
class MetadataEngine {
 public:
  MetadataEngine(oct::OctDatabase* db, oct::AttributeStore* attrs,
                 const TsdRegistry* tsds);

  MetadataEngine(const MetadataEngine&) = delete;
  MetadataEngine& operator=(const MetadataEngine&) = delete;

  /// Ingests one committed task's history: the whole Chapter 6 pipeline.
  /// Idempotent per step: a step whose ADG edge is already held (same
  /// reuse flag, tool, options, inputs, outputs and completion time) is
  /// skipped, inference included.
  Status Observe(const task::TaskHistoryRecord& record);

  /// Forgets what observation derived — the ADG, relationships, inferred
  /// types and violations — so the history can be observed afresh.
  /// Propagation rules, constraints, attribute values (measurements of
  /// immutable versions) and the statistics stay.
  void Reset();

  // --- inferred types -----------------------------------------------------

  /// The inferred type ("logic", "layout", ...) of a version, or NotFound
  /// when its creation was never observed.
  Result<std::string> TypeOf(const oct::ObjectId& id) const;
  Result<std::string> FormatOf(const oct::ObjectId& id) const;

  /// Type checking (§6.4.1: "the system can detect incompatible tool
  /// applications"): verifies the tool can read the inferred domain of
  /// each input.
  Status CheckToolApplication(const std::string& tool,
                              const std::vector<oct::ObjectId>& inputs)
      const;

  // --- attributes -----------------------------------------------------------

  /// Returns the attribute value, computing lazily when needed (and
  /// caching). Handles both intrinsic and propagated attributes.
  Result<std::string> GetAttribute(const oct::ObjectId& id,
                                   const std::string& attribute);

  /// Registers a propagated-attribute rule.
  void AddPropagationRule(PropagationRule rule);

  /// Registers a constraint attribute; checked eagerly when a creation
  /// is observed.
  void AddConstraint(ConstraintRule rule);
  /// Violations detected so far, in detection order.
  const std::vector<ConstraintViolation>& violations() const {
    return violations_;
  }

  /// Renders an object's derivation history as text — the data-oriented
  /// history view of Figure 6.2 (objects and the tool invocations that
  /// created them).
  std::string RenderDerivation(const oct::ObjectId& id) const;

  /// All representations of the same design entity across domains: the
  /// transitive closure of equivalence relationships through `id`
  /// (behavioral spec <-> logic network <-> layout), including `id`
  /// itself. §6.4.2's inter-domain equivalence maintenance.
  std::vector<oct::ObjectId> EquivalentRepresentations(
      const oct::ObjectId& id) const;

  // --- relationships & graph --------------------------------------------------

  const Adg& adg() const { return adg_; }
  const RelationshipStore& relationships() const { return rels_; }

  // --- statistics ---------------------------------------------------------------

  int64_t immediate_evaluations() const { return immediate_evaluations_; }
  int64_t lazy_evaluations() const { return lazy_evaluations_; }
  int64_t inherited_values() const { return inherited_values_; }
  int64_t cache_hits() const { return cache_hits_; }
  int64_t invalidations() const { return invalidations_; }

 private:
  struct TypeInfo {
    std::string type;
    std::string format;
  };
  struct AttrSpec {
    std::string name;
    oct::AttributeMode mode;
  };

  /// Per-type intrinsic attribute sets (the type specifications of
  /// §6.4.1).
  static const std::vector<AttrSpec>& AttrSpecsFor(const std::string& type);

  void InferForInvocation(const task::StepRecord& step);
  void CheckConstraints(const oct::ObjectId& id, const std::string& type);
  void AttachAttributes(const oct::ObjectId& id, const TypeInfo& info,
                        const ToolSemantics* tsd,
                        const std::vector<oct::ObjectId>& inputs);
  void EstablishRelationships(const task::StepRecord& step,
                              const ToolSemantics* tsd);
  /// Invalidates propagated attributes of composites containing `id`,
  /// transitively (incremental re-evaluation, §6.4.3).
  void InvalidateDependents(const oct::ObjectId& id);
  Result<std::string> EvaluatePropagated(const oct::ObjectId& id,
                                         const PropagationRule& rule);
  const PropagationRule* FindRule(const std::string& type,
                                  const std::string& attribute) const;

  oct::OctDatabase* db_;
  oct::AttributeStore* attrs_;
  const TsdRegistry* tsds_;
  Adg adg_;
  RelationshipStore rels_;
  std::unordered_map<oct::ObjectId, TypeInfo> types_;
  std::vector<PropagationRule> rules_;
  std::vector<ConstraintRule> constraints_;
  std::vector<ConstraintViolation> violations_;
  int64_t immediate_evaluations_ = 0;
  int64_t lazy_evaluations_ = 0;
  int64_t inherited_values_ = 0;
  int64_t cache_hits_ = 0;
  int64_t invalidations_ = 0;
};

/// Registers the default propagated-attribute rules (composite layout
/// power/area as sums over configuration components, worst-case delay as
/// max — §6.4.1's examples).
void RegisterStandardPropagationRules(MetadataEngine* engine);

}  // namespace papyrus::meta

#endif  // PAPYRUS_META_INFERENCE_H_
