#include "meta/inference.h"

#include <algorithm>
#include <cstdlib>
#include <deque>
#include <functional>
#include <set>
#include <sstream>

#include "base/strings.h"
#include "cadtools/measurements.h"
#include "cadtools/tool.h"

namespace papyrus::meta {

const char* RelKindToString(RelKind kind) {
  switch (kind) {
    case RelKind::kDerivation:
      return "derivation";
    case RelKind::kVersionOf:
      return "version-of";
    case RelKind::kConfiguration:
      return "configuration";
    case RelKind::kEquivalence:
      return "equivalence";
  }
  return "unknown";
}

int RelationshipStore::Add(RelKind kind, const oct::ObjectId& from,
                           const oct::ObjectId& to,
                           const std::string& via_tool) {
  int id = static_cast<int>(rels_.size()) + 1;
  rels_.push_back(Relationship{id, kind, from, to, via_tool});
  by_from_[from].push_back(id);
  by_to_[to].push_back(id);
  return id;
}

std::vector<const Relationship*> RelationshipStore::Of(
    const oct::ObjectId& id) const {
  std::vector<const Relationship*> out;
  if (auto it = by_from_.find(id); it != by_from_.end()) {
    for (int rid : it->second) out.push_back(&Rel(rid));
  }
  if (auto it = by_to_.find(id); it != by_to_.end()) {
    for (int rid : it->second) out.push_back(&Rel(rid));
  }
  return out;
}

std::vector<const Relationship*> RelationshipStore::From(
    const oct::ObjectId& id, RelKind kind) const {
  std::vector<const Relationship*> out;
  if (auto it = by_from_.find(id); it != by_from_.end()) {
    for (int rid : it->second) {
      const Relationship& rel = Rel(rid);
      if (rel.kind == kind) out.push_back(&rel);
    }
  }
  return out;
}

std::vector<const Relationship*> RelationshipStore::To(
    const oct::ObjectId& id, RelKind kind) const {
  std::vector<const Relationship*> out;
  if (auto it = by_to_.find(id); it != by_to_.end()) {
    for (int rid : it->second) {
      const Relationship& rel = Rel(rid);
      if (rel.kind == kind) out.push_back(&rel);
    }
  }
  return out;
}

MetadataEngine::MetadataEngine(oct::OctDatabase* db,
                               oct::AttributeStore* attrs,
                               const TsdRegistry* tsds)
    : db_(db), attrs_(attrs), tsds_(tsds) {}

const std::vector<MetadataEngine::AttrSpec>& MetadataEngine::AttrSpecsFor(
    const std::string& type) {
  using Mode = oct::AttributeMode;
  static const std::vector<AttrSpec> kLayout = {
      // cells is an index attribute: evaluated immediately (§6.4.1).
      {"cells", Mode::kImmediate},
      {"area", Mode::kLazy},
      {"delay", Mode::kLazy},
      {"power", Mode::kLazy},
      {"wire", Mode::kLazy},
  };
  static const std::vector<AttrSpec> kLogic = {
      {"num_inputs", Mode::kImmediate},
      {"num_outputs", Mode::kImmediate},
      {"format", Mode::kImmediate},
      {"minterms", Mode::kLazy},
      {"literals", Mode::kLazy},
      {"levels", Mode::kLazy},
  };
  static const std::vector<AttrSpec> kBehavioral = {
      {"num_inputs", Mode::kImmediate},
      {"num_outputs", Mode::kImmediate},
      {"complexity", Mode::kLazy},
  };
  static const std::vector<AttrSpec> kText = {
      {"length", Mode::kLazy},
  };
  static const std::vector<AttrSpec> kNone;
  if (type == "layout") return kLayout;
  if (type == "logic") return kLogic;
  if (type == "behavioral") return kBehavioral;
  if (type == "text") return kText;
  return kNone;
}

Status MetadataEngine::Observe(const task::TaskHistoryRecord& record) {
  for (const task::StepRecord& step : record.steps) {
    // Failed steps created nothing. A step whose edge the ADG already
    // holds was observed before (the same node again, or a fork's copy
    // of it): nothing to add, nothing to infer.
    if (step.exit_status != 0 || adg_.AddStep(step) == 0) continue;
    // Cache-served steps re-bind versions an earlier execution already
    // taught the engine about; re-observing them would double-count.
    if (!step.cache_hit) InferForInvocation(step);
  }
  return Status::OK();
}

void MetadataEngine::Reset() {
  adg_ = Adg();
  rels_ = RelationshipStore();
  types_.clear();
  violations_.clear();
}

void MetadataEngine::InferForInvocation(const task::StepRecord& step) {
  auto tsd_result = tsds_->Find(step.tool);
  const ToolSemantics* tsd =
      tsd_result.ok() ? *tsd_result : nullptr;

  // 1. Type inference (§6.4.1): the output's type comes from the creating
  //    tool's TSD, selected by the tool's option value.
  std::string selector_value;
  if (tsd != nullptr && !tsd->selector_flag.empty()) {
    std::vector<std::string> words = SplitWhitespace(step.invocation);
    if (!words.empty()) {
      cadtools::ToolOptions opts = cadtools::ToolOptions::Parse(
          std::vector<std::string>(words.begin() + 1, words.end()));
      selector_value = opts.FlagValue(tsd->selector_flag);
    }
  }
  for (const oct::ObjectId& out : step.outputs) {
    TypeInfo& info = types_[out];
    info = TypeInfo{};
    if (tsd != nullptr) {
      const OutputTyping& typing = tsd->OutputFor(selector_value);
      info.type = typing.type;
      info.format = typing.format;
    } else {
      // No TSD: fall back to the payload's own kind (the engine degrades
      // gracefully for unknown tools).
      auto rec = db_->Peek(out);
      info.type = rec.ok() ? oct::PayloadTypeName((*rec)->payload)
                           : "unknown";
    }
    // 2. Attribute attachment and evaluation.
    AttachAttributes(out, info, tsd, step.inputs);
    // Constraint attributes are checked as early as possible: right at
    // object creation (§6.4.1).
    CheckConstraints(out, info.type);
  }

  // 3. Relationship establishment (§6.4.2).
  EstablishRelationships(step, tsd);

  // 4. Incremental re-evaluation: new versions invalidate the propagated
  //    attributes of composites containing their predecessors.
  for (const oct::ObjectId& out : step.outputs) {
    if (out.version > 1) {
      InvalidateDependents(oct::ObjectId{out.name, out.version - 1});
    }
  }
}

void MetadataEngine::AttachAttributes(
    const oct::ObjectId& id, const TypeInfo& info, const ToolSemantics* tsd,
    const std::vector<oct::ObjectId>& inputs) {
  for (const AttrSpec& spec : AttrSpecsFor(info.type)) {
    std::string compute_tool = cadtools::MeasurementToolFor(spec.name);
    attrs_->Attach(id, spec.name, compute_tool, spec.mode);

    // Inherit-list propagation: when the creating tool does not affect
    // the attribute, copy the value from the first input that has it.
    bool inherited = false;
    if (tsd != nullptr &&
        std::find(tsd->inherit_list.begin(), tsd->inherit_list.end(),
                  spec.name) != tsd->inherit_list.end()) {
      for (const oct::ObjectId& in : inputs) {
        if (const std::string* value = attrs_->FindValue(in, spec.name)) {
          (void)attrs_->SetComputed(id, spec.name, *value);
          ++inherited_values_;
          inherited = true;
          break;
        }
      }
    }
    if (!inherited && spec.mode == oct::AttributeMode::kImmediate) {
      auto rec = db_->Peek(id);
      if (rec.ok()) {
        auto value =
            cadtools::MeasureAttribute((*rec)->payload, spec.name);
        if (value.ok()) {
          (void)attrs_->SetComputed(id, spec.name, *value);
          ++immediate_evaluations_;
        }
      }
    }
  }
}

void MetadataEngine::EstablishRelationships(const task::StepRecord& step,
                                            const ToolSemantics* tsd) {
  for (const oct::ObjectId& out : step.outputs) {
    // Derivation relationships: output derived-from every input.
    for (const oct::ObjectId& in : step.inputs) {
      rels_.Add(RelKind::kDerivation, out, in, step.tool);
    }
    // Version relationships: link to the immediately preceding version.
    if (out.version > 1) {
      rels_.Add(RelKind::kVersionOf, out,
                oct::ObjectId{out.name, out.version - 1}, step.tool);
    }
    if (tsd == nullptr) continue;
    // Configuration relationships: a composition tool's output contains
    // its inputs as components.
    if (tsd->composition_tool) {
      for (const oct::ObjectId& in : step.inputs) {
        rels_.Add(RelKind::kConfiguration, out, in, step.tool);
      }
    }
    // Equivalence relationships: domain translators produce another
    // representation of the same design entity.
    if (tsd->IsDomainTranslator() && !step.inputs.empty()) {
      rels_.Add(RelKind::kEquivalence, out, step.inputs.front(),
                step.tool);
    }
  }
}

Result<std::string> MetadataEngine::TypeOf(const oct::ObjectId& id) const {
  auto it = types_.find(id);
  if (it == types_.end()) {
    return Status::NotFound("type of " + id.ToString() +
                            " was never inferred");
  }
  return it->second.type;
}

Result<std::string> MetadataEngine::FormatOf(const oct::ObjectId& id) const {
  auto it = types_.find(id);
  if (it == types_.end()) {
    return Status::NotFound("format of " + id.ToString() +
                            " was never inferred");
  }
  return it->second.format;
}

Status MetadataEngine::CheckToolApplication(
    const std::string& tool,
    const std::vector<oct::ObjectId>& inputs) const {
  auto tsd = tsds_->Find(tool);
  if (!tsd.ok()) return tsd.status();
  for (const oct::ObjectId& in : inputs) {
    auto type = TypeOf(in);
    if (!type.ok()) continue;  // unknown provenance: cannot check
    bool compatible =
        (*type == "behavioral" && (*tsd)->reads_behavioral) ||
        (*type == "logic" && (*tsd)->reads_logic) ||
        (*type == "layout" && (*tsd)->reads_physical) ||
        (*type == "text");  // command files are universally accepted
    if (!compatible) {
      return Status::FailedPrecondition(
          "incompatible tool application: " + tool + " cannot read " +
          *type + " object " + in.ToString());
    }
  }
  return Status::OK();
}

const PropagationRule* MetadataEngine::FindRule(
    const std::string& type, const std::string& attribute) const {
  for (const PropagationRule& rule : rules_) {
    if (rule.object_type == type && rule.attribute == attribute) {
      return &rule;
    }
  }
  return nullptr;
}

Result<std::string> MetadataEngine::GetAttribute(
    const oct::ObjectId& id, const std::string& attribute) {
  // Cached value first.
  if (auto cached = attrs_->GetValue(id, attribute); cached.ok()) {
    ++cache_hits_;
    return *cached;
  }
  // Propagated attribute?
  std::string type = types_.count(id) > 0 ? types_.at(id).type : "";
  if (const PropagationRule* rule = FindRule(type, attribute);
      rule != nullptr) {
    auto value = EvaluatePropagated(id, *rule);
    if (!value.ok()) return value.status();
    attrs_->Attach(id, attribute, "<propagated>",
                   oct::AttributeMode::kLazy);
    (void)attrs_->SetComputed(id, attribute, *value);
    return value;
  }
  // Intrinsic lazy evaluation against the payload.
  auto rec = db_->Peek(id);
  if (!rec.ok()) return rec.status();
  auto value = cadtools::MeasureAttribute((*rec)->payload, attribute);
  if (!value.ok()) return value.status();
  attrs_->Attach(id, attribute, cadtools::MeasurementToolFor(attribute),
                 oct::AttributeMode::kLazy);
  (void)attrs_->SetComputed(id, attribute, *value);
  ++lazy_evaluations_;
  return value;
}

void MetadataEngine::AddPropagationRule(PropagationRule rule) {
  rules_.push_back(std::move(rule));
}

void MetadataEngine::AddConstraint(ConstraintRule rule) {
  constraints_.push_back(std::move(rule));
}

void MetadataEngine::CheckConstraints(const oct::ObjectId& id,
                                      const std::string& type) {
  for (const ConstraintRule& rule : constraints_) {
    if (rule.object_type != type) continue;
    auto rec = db_->Peek(id);
    if (!rec.ok()) continue;
    auto value =
        cadtools::MeasureAttribute((*rec)->payload, rule.attribute);
    if (!value.ok()) continue;
    double v = std::strtod(value->c_str(), nullptr);
    bool ok = rule.op == ConstraintRule::Op::kLessEqual ? v <= rule.bound
                                                        : v >= rule.bound;
    if (!ok) {
      violations_.push_back(ConstraintViolation{
          id, rule.attribute, v, rule.bound, rule.description});
    }
  }
}

std::string MetadataEngine::RenderDerivation(const oct::ObjectId& id) const {
  // Data-oriented history (Figure 6.2): walk producers backwards and
  // print "object <- tool(inputs)" lines, leaf-first.
  std::ostringstream out;
  std::set<oct::ObjectId> visited;
  std::function<void(const oct::ObjectId&, int)> walk =
      [&](const oct::ObjectId& cur, int indent) {
        for (int i = 0; i < indent; ++i) out << "  ";
        out << cur.ToString();
        if (auto type = TypeOf(cur); type.ok()) out << " [" << *type << "]";
        auto producer = adg_.Producer(cur);
        if (!producer.ok()) {
          out << " (source)\n";
          return;
        }
        out << " <- " << (*producer)->tool << "\n";
        if (!visited.insert(cur).second) return;
        for (const oct::ObjectId& in : (*producer)->inputs) {
          walk(in, indent + 1);
        }
      };
  walk(id, 0);
  return out.str();
}

Result<std::string> MetadataEngine::EvaluatePropagated(
    const oct::ObjectId& id, const PropagationRule& rule) {
  double acc = rule.agg == PropagationRule::Agg::kMin
                   ? 1e300
                   : (rule.agg == PropagationRule::Agg::kMax ? -1e300
                                                             : 0.0);
  auto fold = [&](double v) {
    switch (rule.agg) {
      case PropagationRule::Agg::kSum:
        acc += v;
        break;
      case PropagationRule::Agg::kMax:
        acc = std::max(acc, v);
        break;
      case PropagationRule::Agg::kMin:
        acc = std::min(acc, v);
        break;
    }
  };
  if (rule.include_own) {
    auto rec = db_->Peek(id);
    if (rec.ok()) {
      auto own = cadtools::MeasureAttribute((*rec)->payload,
                                            rule.component_attribute);
      if (own.ok()) fold(std::strtod(own->c_str(), nullptr));
    }
  }
  for (const Relationship* rel :
       rels_.From(id, RelKind::kConfiguration)) {
    auto value = GetAttribute(rel->to, rule.component_attribute);
    if (!value.ok()) return value.status();
    fold(std::strtod(value->c_str(), nullptr));
  }
  std::ostringstream os;
  os << acc;
  return os.str();
}

std::vector<oct::ObjectId> MetadataEngine::EquivalentRepresentations(
    const oct::ObjectId& id) const {
  std::set<oct::ObjectId> seen;
  std::vector<oct::ObjectId> out;
  std::deque<oct::ObjectId> queue = {id};
  while (!queue.empty()) {
    oct::ObjectId cur = queue.front();
    queue.pop_front();
    if (!seen.insert(cur).second) continue;
    out.push_back(cur);
    for (const Relationship* rel : rels_.From(cur, RelKind::kEquivalence)) {
      queue.push_back(rel->to);
    }
    for (const Relationship* rel : rels_.To(cur, RelKind::kEquivalence)) {
      queue.push_back(rel->from);
    }
  }
  return out;
}

void MetadataEngine::InvalidateDependents(const oct::ObjectId& id) {
  // Composites that contain `id` transitively lose their propagated
  // attribute caches (the incremental analogue of Reps' re-evaluation).
  std::deque<oct::ObjectId> queue = {id};
  std::set<oct::ObjectId> seen;
  while (!queue.empty()) {
    oct::ObjectId cur = queue.front();
    queue.pop_front();
    if (!seen.insert(cur).second) continue;
    for (const Relationship* rel : rels_.To(cur, RelKind::kConfiguration)) {
      // rel->from is a composite containing cur.
      for (const PropagationRule& rule : rules_) {
        if (attrs_->Has(rel->from, rule.attribute)) {
          if (attrs_->Invalidate(rel->from, rule.attribute).ok()) {
            ++invalidations_;
          }
        }
      }
      queue.push_back(rel->from);
    }
  }
}

void RegisterStandardPropagationRules(MetadataEngine* engine) {
  engine->AddPropagationRule(PropagationRule{
      "layout", "total_power", "power", PropagationRule::Agg::kSum, true});
  engine->AddPropagationRule(PropagationRule{
      "layout", "total_area", "area", PropagationRule::Agg::kSum, true});
  engine->AddPropagationRule(PropagationRule{
      "layout", "worst_delay", "delay", PropagationRule::Agg::kMax, true});
}

}  // namespace papyrus::meta
