#include <algorithm>
#include <cmath>
#include <memory>
#include <sstream>

#include "base/strings.h"
#include "cadtools/registry.h"
#include "cadtools/tool.h"

namespace papyrus::cadtools {

void ToolRegistry::Register(std::unique_ptr<Tool> tool) {
  std::string name = tool->name();
  tools_[name] = std::move(tool);
  ++generation_;
}

Result<const Tool*> ToolRegistry::Find(const std::string& name) const {
  auto it = tools_.find(name);
  if (it == tools_.end()) {
    return Status::NotFound("no such CAD tool: " + name);
  }
  return static_cast<const Tool*>(it->second.get());
}

std::vector<std::string> ToolRegistry::ToolNames() const {
  std::vector<std::string> names;
  names.reserve(tools_.size());
  for (const auto& [name, tool] : tools_) names.push_back(name);
  return names;
}

namespace {

using oct::BehavioralSpec;
using oct::DesignDomain;
using oct::DesignFormat;
using oct::DesignPayload;
using oct::Layout;
using oct::LogicNetwork;
using oct::TextData;

uint64_t Mix(uint64_t seed, std::string_view salt) {
  return seed * 1099511628211ull ^ Fnv1a(salt);
}

// Permanent exit statuses (see the convention in tool.h: 1..64 is the
// permanent band; 75 is reserved for transient failures, which none of
// the standard tools raise on their own — fault injection wraps them).
constexpr int kExitConstraint = 1;  // a design constraint was violated
constexpr int kExitBadInput = 2;    // wrong input object type or format

/// Fetches input `i` as a logic network, or null.
const LogicNetwork* AsLogic(const ToolRunContext& ctx, size_t i) {
  if (i >= ctx.inputs.size()) return nullptr;
  return std::get_if<LogicNetwork>(ctx.inputs[i]);
}

const Layout* AsLayout(const ToolRunContext& ctx, size_t i) {
  if (i >= ctx.inputs.size()) return nullptr;
  return std::get_if<Layout>(ctx.inputs[i]);
}

const BehavioralSpec* AsBehavioral(const ToolRunContext& ctx, size_t i) {
  if (i >= ctx.inputs.size()) return nullptr;
  return std::get_if<BehavioralSpec>(ctx.inputs[i]);
}

ToolRunResult WrongInput(const std::string& tool,
                         const std::string& expected) {
  return ToolRunResult::Fail(
      kExitBadInput, tool + ": input is not a " + expected + " object");
}

void Add(ToolRegistry* reg, ToolDescriptor desc, Tool::RunFn fn) {
  reg->Register(std::make_unique<Tool>(std::move(desc), std::move(fn)));
}

// --- synthesis front end ----------------------------------------------

/// edit: interactive behavioral/logic entry. Creates a behavioral spec
/// from options (-inputs N -outputs N -complexity N). Interactive, hence
/// non-migratable in task templates.
void RegisterEdit(ToolRegistry* reg) {
  ToolDescriptor d;
  d.name = "edit";
  d.description = "interactive schematic / behavioral description editor";
  d.output_domain = DesignDomain::kBehavioral;
  d.base_cost_micros = 30000;
  d.interactive = true;
  d.man_page =
      "edit -inputs N -outputs N -complexity N\n"
      "Creates a behavioral description interactively.";
  d.min_inputs = 0;
  d.max_inputs = 0;
  d.num_outputs = 1;
  Add(reg, d, [](const ToolRunContext& ctx) {
    ToolRunResult r;
    BehavioralSpec spec;
    spec.num_inputs =
        static_cast<int>(ctx.options.FlagInt("inputs", 8));
    spec.num_outputs =
        static_cast<int>(ctx.options.FlagInt("outputs", 8));
    spec.complexity =
        static_cast<int>(ctx.options.FlagInt("complexity", 16));
    spec.seed = Mix(ctx.seed, "edit");
    r.outputs.emplace_back(spec);
    return r;
  });
}

/// bdsyn: behavioral description -> multi-level logic network (blif).
void RegisterBdsyn(ToolRegistry* reg) {
  ToolDescriptor d;
  d.name = "bdsyn";
  d.description = "translate a high-level description to a logic network";
  d.output_domain = DesignDomain::kLogic;
  d.base_cost_micros = 40000;
  d.cost_per_input_byte = 2.0;
  d.man_page = "bdsyn [-o out] in\nBDS behavioral-to-logic translator.";
  d.min_inputs = 1;
  d.max_inputs = 1;
  d.num_outputs = 1;
  Add(reg, d, [](const ToolRunContext& ctx) {
    const BehavioralSpec* b = AsBehavioral(ctx, 0);
    if (b == nullptr) return WrongInput("bdsyn", "behavioral");
    LogicNetwork n;
    n.num_inputs = b->num_inputs;
    n.num_outputs = b->num_outputs;
    n.minterms = std::max(1, b->complexity * 8);
    n.literals = std::max(1, b->complexity * 12);
    n.levels = 6 + b->complexity % 8;
    n.format = DesignFormat::kBlif;
    n.seed = Mix(b->seed, "bdsyn");
    ToolRunResult r;
    r.outputs.emplace_back(n);
    return r;
  });
}

/// misII: multi-level logic optimization.
void RegisterMisII(ToolRegistry* reg) {
  ToolDescriptor d;
  d.name = "misII";
  d.description = "multi-level logic synthesis and minimization";
  d.output_domain = DesignDomain::kLogic;
  d.base_cost_micros = 120000;
  d.cost_per_input_byte = 6.0;
  d.man_page =
      "misII [-f script] [-T target] [-o out] in\n"
      "Multi-level logic optimizer.";
  d.min_inputs = 1;
  d.max_inputs = 1;
  d.num_outputs = 1;
  Add(reg, d, [](const ToolRunContext& ctx) {
    const LogicNetwork* n = AsLogic(ctx, 0);
    if (n == nullptr) return WrongInput("misII", "logic");
    LogicNetwork out = *n;
    // Optimization shrinks literal count and depth; the script option
    // changes how aggressively (deterministic, seed-driven jitter).
    double factor = ctx.options.HasFlag("f") ? 0.55 : 0.7;
    factor += (Mix(n->seed, "misII") % 10) * 0.01;
    out.literals = std::max(1, static_cast<int>(n->literals * factor));
    out.levels = std::max(2, n->levels - 2);
    out.seed = Mix(n->seed, "misII");
    ToolRunResult r;
    r.outputs.emplace_back(out);
    return r;
  });
}

/// espresso: two-level minimization. Output format is selected by the -o
/// option: "equitott" -> algebraic equations, "pleasure" -> PLA. This is
/// the Figure 6.4 tool whose TSD the metadata engine showcases.
void RegisterEspresso(ToolRegistry* reg) {
  ToolDescriptor d;
  d.name = "espresso";
  d.description = "two-level Boolean logic minimizer";
  d.output_domain = DesignDomain::kLogic;
  d.base_cost_micros = 80000;
  d.cost_per_input_byte = 4.0;
  d.man_page =
      "espresso [-o equitott|pleasure] in\nTwo-level minimizer; -o picks "
      "the output format (equations or PLA personality).";
  d.min_inputs = 1;
  d.max_inputs = 1;
  d.num_outputs = 1;
  Add(reg, d, [](const ToolRunContext& ctx) {
    const LogicNetwork* n = AsLogic(ctx, 0);
    if (n == nullptr) return WrongInput("espresso", "logic");
    LogicNetwork out = *n;
    double factor = 0.45 + (Mix(n->seed, "espresso") % 15) * 0.01;
    out.minterms = std::max(1, static_cast<int>(n->minterms * factor));
    std::string fmt = ctx.options.FlagValue("o", "pleasure");
    out.format = (fmt == "equitott") ? DesignFormat::kEquation
                                     : DesignFormat::kPla;
    out.seed = Mix(n->seed, "espresso");
    ToolRunResult r;
    r.outputs.emplace_back(out);
    return r;
  });
}

/// pleasure: PLA folding — reduces the effective personality-matrix size.
void RegisterPleasure(ToolRegistry* reg) {
  ToolDescriptor d;
  d.name = "pleasure";
  d.description = "PLA column/row folding";
  d.output_domain = DesignDomain::kLogic;
  d.base_cost_micros = 60000;
  d.cost_per_input_byte = 3.0;
  d.man_page = "pleasure in\nFolds a PLA personality matrix.";
  d.min_inputs = 1;
  d.max_inputs = 1;
  d.num_outputs = 1;
  Add(reg, d, [](const ToolRunContext& ctx) {
    const LogicNetwork* n = AsLogic(ctx, 0);
    if (n == nullptr) return WrongInput("pleasure", "logic");
    if (n->format != DesignFormat::kPla) {
      return ToolRunResult::Fail(
          kExitBadInput, "pleasure: input is not in PLA format");
    }
    LogicNetwork out = *n;
    out.literals = std::max(1, static_cast<int>(n->literals * 0.8));
    out.seed = Mix(n->seed, "pleasure");
    ToolRunResult r;
    r.outputs.emplace_back(out);
    return r;
  });
}

/// panda: PLA array layout generation. Fails when the -maxarea constraint
/// is violated — the Figure 3.7 abort scenario.
void RegisterPanda(ToolRegistry* reg) {
  ToolDescriptor d;
  d.name = "panda";
  d.description = "PLA array layout generator";
  d.output_domain = DesignDomain::kPhysical;
  d.base_cost_micros = 150000;
  d.cost_per_input_byte = 8.0;
  d.man_page =
      "panda [-maxarea A] in\nGenerates a PLA-style layout; fails when the "
      "estimated area exceeds -maxarea.";
  d.min_inputs = 1;
  d.max_inputs = 1;
  d.num_outputs = 1;
  Add(reg, d, [](const ToolRunContext& ctx) {
    const LogicNetwork* n = AsLogic(ctx, 0);
    if (n == nullptr) return WrongInput("panda", "logic");
    if (n->format != DesignFormat::kPla) {
      return ToolRunResult::Fail(
          kExitBadInput, "panda: input is not in PLA format");
    }
    Layout lay;
    lay.style = "PLA";
    lay.num_cells = n->minterms;
    lay.area = static_cast<double>(n->minterms) *
               (n->num_inputs * 2 + n->num_outputs) * 12.0;
    lay.delay_ns = 4.0 + 0.05 * n->minterms;
    lay.power_mw = 0.4 * n->minterms;
    lay.wire_length = lay.area * 0.08;
    lay.routed = true;
    lay.format = DesignFormat::kSymbolic;
    lay.seed = Mix(n->seed, "panda");
    int64_t maxarea = ctx.options.FlagInt("maxarea", 0);
    if (maxarea > 0 && lay.area > static_cast<double>(maxarea)) {
      return ToolRunResult::Fail(
          kExitConstraint, "panda: area constraint violated (" +
                 std::to_string(static_cast<int64_t>(lay.area)) + " > " +
                 std::to_string(maxarea) + ")");
    }
    ToolRunResult r;
    r.outputs.emplace_back(lay);
    return r;
  });
}

/// wolfe: standard-cell place and route.
void RegisterWolfe(ToolRegistry* reg) {
  ToolDescriptor d;
  d.name = "wolfe";
  d.description = "standard-cell placement and routing";
  d.output_domain = DesignDomain::kPhysical;
  d.base_cost_micros = 400000;
  d.cost_per_input_byte = 20.0;
  d.man_page =
      "wolfe [-f] [-r rows] [-o out] in\nStandard-cell place and route.";
  d.min_inputs = 1;
  d.max_inputs = 1;
  d.num_outputs = 1;
  Add(reg, d, [](const ToolRunContext& ctx) {
    const LogicNetwork* n = AsLogic(ctx, 0);
    if (n == nullptr) return WrongInput("wolfe", "logic");
    Layout lay;
    lay.style = "standard-cell";
    lay.num_cells = std::max(1, n->literals / 4);
    int64_t rows = ctx.options.FlagInt("r", 2);
    lay.area = lay.num_cells * 140.0 * (1.0 + 0.1 * rows);
    lay.delay_ns = 1.2 * n->levels + 0.01 * lay.num_cells;
    lay.power_mw = 0.15 * lay.num_cells;
    lay.wire_length = lay.area * 0.2;
    lay.routed = true;
    lay.format = DesignFormat::kSymbolic;
    lay.seed = Mix(n->seed, "wolfe");
    ToolRunResult r;
    r.outputs.emplace_back(lay);
    return r;
  });
}

/// padplace: places bonding pads around a layout.
void RegisterPadplace(ToolRegistry* reg) {
  ToolDescriptor d;
  d.name = "padplace";
  d.description = "pad placement";
  d.output_domain = DesignDomain::kPhysical;
  d.base_cost_micros = 50000;
  d.cost_per_input_byte = 1.0;
  d.man_page = "padplace [-c] [-f] [-S] [-o out] in\nPlaces I/O pads.";
  d.min_inputs = 1;
  d.max_inputs = 1;
  d.num_outputs = 1;
  Add(reg, d, [](const ToolRunContext& ctx) {
    // Pads can be attached to a physical layout or — as in the Figure 4.2
    // Structure_Synthesis flow, where Padp runs before place&route — to a
    // logic netlist (adding I/O pad cells to the network).
    if (const LogicNetwork* n = AsLogic(ctx, 0); n != nullptr) {
      LogicNetwork out = *n;
      out.literals = n->literals + n->num_inputs + n->num_outputs;
      out.seed = Mix(n->seed, "padplace");
      ToolRunResult r;
      r.outputs.emplace_back(out);
      return r;
    }
    const Layout* l = AsLayout(ctx, 0);
    if (l == nullptr) return WrongInput("padplace", "layout or logic");
    if (l->has_pads) {
      return ToolRunResult::Fail(kExitConstraint,
                                 "padplace: layout already has pads");
    }
    Layout out = *l;
    out.has_pads = true;
    out.area = l->area * 1.15 + 5000.0;
    out.power_mw = l->power_mw + 2.0;
    out.seed = Mix(l->seed, "padplace");
    ToolRunResult r;
    r.outputs.emplace_back(out);
    return r;
  });
}

/// musa: multi-level simulator. Consumes a design and a command file and
/// emits a simulation report (no design output).
void RegisterMusa(ToolRegistry* reg) {
  ToolDescriptor d;
  d.name = "musa";
  d.description = "multi-level simulator";
  d.output_domain = DesignDomain::kOther;
  d.base_cost_micros = 200000;
  d.cost_per_input_byte = 10.0;
  d.man_page = "musa [-i commands] in\nMulti-level functional simulation.";
  d.min_inputs = 1;
  d.max_inputs = 2;
  d.num_outputs = 0;
  Add(reg, d, [](const ToolRunContext& ctx) {
    const LogicNetwork* n = AsLogic(ctx, 0);
    if (n == nullptr) return WrongInput("musa", "logic");
    std::ostringstream report;
    report << "musa: simulated " << n->num_inputs << "-input/"
           << n->num_outputs << "-output network, "
           << (Mix(n->seed, "musa") % 1000 + 24) << " vectors, all pass";
    ToolRunResult r;
    r.message = report.str();
    return r;
  });
}

// --- Mosaico macro-cell flow (Figure 4.3) --------------------------------

/// atlas: channel definition for macro-cell layouts.
void RegisterAtlas(ToolRegistry* reg) {
  ToolDescriptor d;
  d.name = "atlas";
  d.description = "channel definition";
  d.output_domain = DesignDomain::kPhysical;
  d.base_cost_micros = 70000;
  d.cost_per_input_byte = 2.0;
  d.man_page = "atlas [-i] [-z] [-o out] in\nDefines routing channels.";
  d.min_inputs = 1;
  d.max_inputs = 1;
  d.num_outputs = 1;
  Add(reg, d, [](const ToolRunContext& ctx) {
    const Layout* l = AsLayout(ctx, 0);
    if (l == nullptr) return WrongInput("atlas", "layout");
    Layout out = *l;
    out.routed = false;
    out.seed = Mix(l->seed, "atlas");
    ToolRunResult r;
    r.outputs.emplace_back(out);
    return r;
  });
}

/// mosaicoGR: global routing.
void RegisterMosaicoGR(ToolRegistry* reg) {
  ToolDescriptor d;
  d.name = "mosaicoGR";
  d.description = "global routing";
  d.output_domain = DesignDomain::kPhysical;
  d.base_cost_micros = 180000;
  d.cost_per_input_byte = 8.0;
  d.man_page = "mosaicoGR in [-r] [-ov out]\nGlobal router.";
  d.min_inputs = 1;
  d.max_inputs = 1;
  d.num_outputs = 1;
  Add(reg, d, [](const ToolRunContext& ctx) {
    const Layout* l = AsLayout(ctx, 0);
    if (l == nullptr) return WrongInput("mosaicoGR", "layout");
    Layout out = *l;
    // The routing-effort option (-e) changes the global route, hence the
    // wire length: retrying after a detailed-routing failure with new
    // parameters produces a genuinely different solution (§3.3.2).
    uint64_t h = Mix(l->seed, "mosaicoGR:" + ctx.options.FlagValue("e"));
    out.wire_length = l->area * (0.15 + (h % 11) * 0.01);
    out.seed = h;
    ToolRunResult r;
    r.outputs.emplace_back(out);
    return r;
  });
}

/// puppy: macro-cell placement (between floor-planning and routing in the
/// Figure 3.4 scenario).
void RegisterPuppy(ToolRegistry* reg) {
  ToolDescriptor d;
  d.name = "puppy";
  d.description = "macro-cell placement";
  d.output_domain = DesignDomain::kPhysical;
  d.base_cost_micros = 220000;
  d.cost_per_input_byte = 10.0;
  d.man_page = "puppy [-o out] in\nPlaces macro cells.";
  d.min_inputs = 1;
  d.max_inputs = 1;
  d.num_outputs = 1;
  Add(reg, d, [](const ToolRunContext& ctx) {
    const Layout* l = AsLayout(ctx, 0);
    if (l == nullptr) return WrongInput("puppy", "layout");
    Layout out = *l;
    out.area = l->area * 0.95;
    out.seed = Mix(l->seed, "puppy");
    ToolRunResult r;
    r.outputs.emplace_back(out);
    return r;
  });
}

/// PGcurrent: power/ground current calculation -> text report.
void RegisterPGcurrent(ToolRegistry* reg) {
  ToolDescriptor d;
  d.name = "PGcurrent";
  d.description = "power and ground current calculation";
  d.output_domain = DesignDomain::kOther;
  d.base_cost_micros = 40000;
  d.cost_per_input_byte = 1.0;
  d.man_page = "PGcurrent in > report\nComputes P/G rail currents.";
  d.min_inputs = 1;
  d.max_inputs = 1;
  d.num_outputs = 1;
  Add(reg, d, [](const ToolRunContext& ctx) {
    const Layout* l = AsLayout(ctx, 0);
    if (l == nullptr) return WrongInput("PGcurrent", "layout");
    std::ostringstream report;
    report << "PGcurrent: Ivdd=" << l->power_mw / 5.0
           << "mA Ignd=" << l->power_mw / 5.0 << "mA";
    ToolRunResult r;
    r.outputs.emplace_back(TextData{report.str()});
    return r;
  });
}

/// mosaicoDR: detailed (channel) routing.
void RegisterMosaicoDR(ToolRegistry* reg) {
  ToolDescriptor d;
  d.name = "mosaicoDR";
  d.description = "detailed channel routing";
  d.output_domain = DesignDomain::kPhysical;
  d.base_cost_micros = 250000;
  d.cost_per_input_byte = 12.0;
  d.man_page = "mosaicoDR [-d] [-o out] [-r router] in\nChannel router.";
  d.min_inputs = 1;
  d.max_inputs = 1;
  d.num_outputs = 1;
  Add(reg, d, [](const ToolRunContext& ctx) {
    const Layout* l = AsLayout(ctx, 0);
    if (l == nullptr) return WrongInput("mosaicoDR", "layout");
    Layout out = *l;
    out.routed = true;
    out.wire_length = l->wire_length * 1.1;
    // -maxwire models the routing-area budget of Figure 3.4: detailed
    // routing fails when the global route left too much wire to realize.
    int64_t maxwire = ctx.options.FlagInt("maxwire", 0);
    if (maxwire > 0 && out.wire_length > static_cast<double>(maxwire)) {
      return ToolRunResult::Fail(
          kExitConstraint, "mosaicoDR: insufficient routing area (wire " +
                 std::to_string(static_cast<int64_t>(out.wire_length)) +
                 " > budget " + std::to_string(maxwire) + ")");
    }
    // The router choice (-r) changes the detailed routing solution, so it
    // participates in the output seed: retrying a failed downstream
    // compaction with a different router genuinely changes the outcome.
    out.seed = Mix(l->seed, "mosaicoDR:" + ctx.options.FlagValue("r"));
    ToolRunResult r;
    r.outputs.emplace_back(out);
    return r;
  });
}

/// octflatten: symbolic flattening / format transformation. Takes one or
/// two layout inputs (-r reference) and produces one flattened layout.
void RegisterOctflatten(ToolRegistry* reg) {
  ToolDescriptor d;
  d.name = "octflatten";
  d.description = "OCT symbolic flattening";
  d.output_domain = DesignDomain::kPhysical;
  d.base_cost_micros = 30000;
  d.cost_per_input_byte = 1.5;
  d.man_page = "octflatten [-r ref] [-o out] in\nFlattens symbolic views.";
  d.min_inputs = 1;
  d.max_inputs = 2;
  d.num_outputs = 1;
  Add(reg, d, [](const ToolRunContext& ctx) {
    const Layout* l = AsLayout(ctx, 0);
    if (l == nullptr) return WrongInput("octflatten", "layout");
    Layout out = *l;
    if (const Layout* ref = AsLayout(ctx, 1); ref != nullptr) {
      out.num_cells = l->num_cells + ref->num_cells;
      out.area = l->area + ref->area * 0.1;
    }
    out.format = DesignFormat::kSymbolic;
    out.seed = Mix(l->seed, "octflatten");
    ToolRunResult r;
    r.outputs.emplace_back(out);
    return r;
  });
}

/// mizer: via minimization — shortens wiring.
void RegisterMizer(ToolRegistry* reg) {
  ToolDescriptor d;
  d.name = "mizer";
  d.description = "via minimization";
  d.output_domain = DesignDomain::kPhysical;
  d.base_cost_micros = 90000;
  d.cost_per_input_byte = 4.0;
  d.man_page = "mizer [-o out] in\nMinimizes via count.";
  d.min_inputs = 1;
  d.max_inputs = 1;
  d.num_outputs = 1;
  Add(reg, d, [](const ToolRunContext& ctx) {
    const Layout* l = AsLayout(ctx, 0);
    if (l == nullptr) return WrongInput("mizer", "layout");
    Layout out = *l;
    out.wire_length = l->wire_length * 0.85;
    out.seed = Mix(l->seed, "mizer");
    ToolRunResult r;
    r.outputs.emplace_back(out);
    return r;
  });
}

/// sparcs: layout compaction. Horizontal-first compaction (the default)
/// fails deterministically for "hard" layouts (seed % 3 == 0); the -v
/// vertical-first variant fails for a different, rarer class
/// (seed % 7 == 0). This reproduces the Figure 4.3 conditional-flow and
/// programmable-abort scenario with deterministic failure injection.
void RegisterSparcs(ToolRegistry* reg) {
  ToolDescriptor d;
  d.name = "sparcs";
  d.description = "layout compaction";
  d.output_domain = DesignDomain::kPhysical;
  d.base_cost_micros = 300000;
  d.cost_per_input_byte = 15.0;
  d.man_page =
      "sparcs [-v] [-t] [-w layer]... [-o out] in\nCompacts a layout; -v "
      "compacts vertically first.";
  d.min_inputs = 1;
  d.max_inputs = 1;
  d.num_outputs = 1;
  Add(reg, d, [](const ToolRunContext& ctx) {
    const Layout* l = AsLayout(ctx, 0);
    if (l == nullptr) return WrongInput("sparcs", "layout");
    bool vertical_first = ctx.options.HasFlag("v");
    uint64_t h = Mix(l->seed, "sparcs-difficulty");
    if (!vertical_first && h % 3 == 0) {
      return ToolRunResult::Fail(
          kExitConstraint,
          "sparcs: horizontal-first compaction failed (overconstrained)");
    }
    if (vertical_first && h % 7 == 0) {
      return ToolRunResult::Fail(
          kExitConstraint,
          "sparcs: vertical-first compaction failed (overconstrained)");
    }
    Layout out = *l;
    out.compacted = true;
    out.area = l->area * (vertical_first ? 0.72 : 0.68);
    out.wire_length = l->wire_length * 0.9;
    out.seed = Mix(l->seed, vertical_first ? "sparcs-v" : "sparcs-h");
    ToolRunResult r;
    r.outputs.emplace_back(out);
    return r;
  });
}

/// vulcan: creates the protection-frame abstraction view.
void RegisterVulcan(ToolRegistry* reg) {
  ToolDescriptor d;
  d.name = "vulcan";
  d.description = "protection frame / abstraction view generation";
  d.output_domain = DesignDomain::kPhysical;
  d.base_cost_micros = 40000;
  d.cost_per_input_byte = 1.0;
  d.man_page = "vulcan in [-o out]\nCreates an abstraction view.";
  d.min_inputs = 1;
  d.max_inputs = 1;
  d.num_outputs = 1;
  Add(reg, d, [](const ToolRunContext& ctx) {
    const Layout* l = AsLayout(ctx, 0);
    if (l == nullptr) return WrongInput("vulcan", "layout");
    Layout out = *l;
    out.has_abstraction = true;
    out.seed = Mix(l->seed, "vulcan");
    ToolRunResult r;
    r.outputs.emplace_back(out);
    return r;
  });
}

/// mosaicoRC: routing completeness check. Fails on unrouted layouts.
void RegisterMosaicoRC(ToolRegistry* reg) {
  ToolDescriptor d;
  d.name = "mosaicoRC";
  d.description = "routing completeness check";
  d.output_domain = DesignDomain::kOther;
  d.base_cost_micros = 60000;
  d.cost_per_input_byte = 2.0;
  d.man_page = "mosaicoRC [-m margin] [-c ref] out\nChecks routing.";
  d.min_inputs = 1;
  d.max_inputs = 2;
  d.num_outputs = 0;
  Add(reg, d, [](const ToolRunContext& ctx) {
    const Layout* l = AsLayout(ctx, ctx.inputs.size() - 1);
    if (l == nullptr) return WrongInput("mosaicoRC", "layout");
    if (!l->routed) {
      return ToolRunResult::Fail(
          kExitConstraint, "mosaicoRC: layout is not fully routed");
    }
    ToolRunResult r;
    r.message = "mosaicoRC: routing complete";
    return r;
  });
}

/// chipstats: collects performance statistics into a text report. Also the
/// measurement tool the attribute system uses for layout area/power/delay.
void RegisterChipstats(ToolRegistry* reg) {
  ToolDescriptor d;
  d.name = "chipstats";
  d.description = "chip statistics collection";
  d.output_domain = DesignDomain::kOther;
  d.base_cost_micros = 20000;
  d.cost_per_input_byte = 0.5;
  d.man_page = "chipstats in > report\nReports area/delay/power/cells.";
  d.min_inputs = 1;
  d.max_inputs = 1;
  d.num_outputs = 1;
  Add(reg, d, [](const ToolRunContext& ctx) {
    const Layout* l = AsLayout(ctx, 0);
    if (l == nullptr) return WrongInput("chipstats", "layout");
    std::ostringstream report;
    report << "area " << l->area << "\ndelay " << l->delay_ns << "\npower "
           << l->power_mw << "\ncells " << l->num_cells << "\nwire "
           << l->wire_length;
    ToolRunResult r;
    r.outputs.emplace_back(TextData{report.str()});
    return r;
  });
}

/// crystal: timing analysis -> text report with the critical path delay.
/// Registered as the compute tool for delay attributes.
void RegisterCrystal(ToolRegistry* reg) {
  ToolDescriptor d;
  d.name = "crystal";
  d.description = "timing analysis";
  d.output_domain = DesignDomain::kOther;
  d.base_cost_micros = 100000;
  d.cost_per_input_byte = 5.0;
  d.man_page = "crystal in\nStatic timing analyzer.";
  d.min_inputs = 1;
  d.max_inputs = 1;
  d.num_outputs = 1;
  Add(reg, d, [](const ToolRunContext& ctx) {
    const Layout* l = AsLayout(ctx, 0);
    if (l == nullptr) return WrongInput("crystal", "layout");
    std::ostringstream report;
    report << l->delay_ns;
    ToolRunResult r;
    r.outputs.emplace_back(TextData{report.str()});
    return r;
  });
}

}  // namespace

void RegisterStandardSuite(ToolRegistry* registry) {
  RegisterEdit(registry);
  RegisterBdsyn(registry);
  RegisterMisII(registry);
  RegisterEspresso(registry);
  RegisterPleasure(registry);
  RegisterPanda(registry);
  RegisterWolfe(registry);
  RegisterPadplace(registry);
  RegisterMusa(registry);
  RegisterAtlas(registry);
  RegisterPuppy(registry);
  RegisterMosaicoGR(registry);
  RegisterPGcurrent(registry);
  RegisterMosaicoDR(registry);
  RegisterOctflatten(registry);
  RegisterMizer(registry);
  RegisterSparcs(registry);
  RegisterVulcan(registry);
  RegisterMosaicoRC(registry);
  RegisterChipstats(registry);
  RegisterCrystal(registry);
}

std::unique_ptr<ToolRegistry> CreateStandardRegistry() {
  auto registry = std::make_unique<ToolRegistry>();
  RegisterStandardSuite(registry.get());
  return registry;
}

}  // namespace papyrus::cadtools
