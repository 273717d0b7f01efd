#include "oct/design_data.h"

#include <cstdio>
#include <cstdlib>
#include <sstream>

#include "base/hash.h"
#include "base/macros.h"
#include "base/strings.h"

namespace papyrus::oct {

const char* DesignDomainToString(DesignDomain d) {
  switch (d) {
    case DesignDomain::kBehavioral:
      return "behavioral";
    case DesignDomain::kLogic:
      return "logic";
    case DesignDomain::kPhysical:
      return "physical";
    case DesignDomain::kOther:
      return "other";
  }
  return "other";
}

const char* DesignFormatToString(DesignFormat f) {
  switch (f) {
    case DesignFormat::kNone:
      return "none";
    case DesignFormat::kBds:
      return "bds";
    case DesignFormat::kBlif:
      return "blif";
    case DesignFormat::kEquation:
      return "equation";
    case DesignFormat::kPla:
      return "PLA";
    case DesignFormat::kSymbolic:
      return "symbolic";
    case DesignFormat::kGeometric:
      return "geometric";
    case DesignFormat::kText:
      return "text";
  }
  return "none";
}

namespace {

struct SizeVisitor {
  int64_t operator()(const std::monostate&) const { return 0; }
  int64_t operator()(const BehavioralSpec& b) const {
    return 256 + 64ll * b.complexity;
  }
  int64_t operator()(const LogicNetwork& n) const {
    return 512 + 16ll * n.literals + 24ll * n.minterms;
  }
  int64_t operator()(const Layout& l) const {
    return 4096 + 128ll * l.num_cells +
           static_cast<int64_t>(l.wire_length * 2.0);
  }
  int64_t operator()(const TextData& t) const {
    return static_cast<int64_t>(t.text.size());
  }
};

struct NameVisitor {
  const char* operator()(const std::monostate&) const { return "empty"; }
  const char* operator()(const BehavioralSpec&) const { return "behavioral"; }
  const char* operator()(const LogicNetwork&) const { return "logic"; }
  const char* operator()(const Layout&) const { return "layout"; }
  const char* operator()(const TextData&) const { return "text"; }
};

}  // namespace

int64_t PayloadSizeBytes(const DesignPayload& p) {
  return std::visit(SizeVisitor{}, p);
}

const char* PayloadTypeName(const DesignPayload& p) {
  return std::visit(NameVisitor{}, p);
}

DesignDomain PayloadDomain(const DesignPayload& p) {
  if (std::holds_alternative<BehavioralSpec>(p)) {
    return DesignDomain::kBehavioral;
  }
  if (std::holds_alternative<LogicNetwork>(p)) return DesignDomain::kLogic;
  if (std::holds_alternative<Layout>(p)) return DesignDomain::kPhysical;
  return DesignDomain::kOther;
}

namespace {

std::string FormatDouble(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// Payload seeds are full-range uint64 values (tool-derived hashes
/// routinely exceed INT64_MAX), so they cannot go through ParseI64.
/// A seed the field cannot hold is a load error, never a silent 0:
/// restoring a different seed would make every derived artifact
/// diverge from the history that produced it.
Result<uint64_t> FieldU64(const std::string& s) {
  uint64_t v = 0;
  if (!ParseU64(s, &v)) {
    return Status::InvalidArgument("payload seed is not a uint64: '" + s +
                                   "'");
  }
  return v;
}

}  // namespace

std::string EncodePayloadText(const DesignPayload& p) {
  std::ostringstream out;
  if (const auto* b = std::get_if<BehavioralSpec>(&p)) {
    out << "behavioral " << b->num_inputs << ' ' << b->num_outputs << ' '
        << b->complexity << ' ' << b->seed;
  } else if (const auto* n = std::get_if<LogicNetwork>(&p)) {
    out << "logic " << n->num_inputs << ' ' << n->num_outputs << ' '
        << n->minterms << ' ' << n->literals << ' ' << n->levels << ' '
        << static_cast<int>(n->format) << ' ' << n->seed;
  } else if (const auto* l = std::get_if<Layout>(&p)) {
    out << "layout " << l->num_cells << ' ' << FormatDouble(l->area) << ' '
        << FormatDouble(l->delay_ns) << ' ' << FormatDouble(l->power_mw)
        << ' ' << FormatDouble(l->wire_length) << ' ' << l->has_pads << ' '
        << l->routed << ' ' << l->compacted << ' ' << l->has_abstraction
        << ' ' << EncodeField(l->style) << ' ' << static_cast<int>(l->format)
        << ' ' << l->seed;
  } else if (const auto* t = std::get_if<TextData>(&p)) {
    out << "text " << EncodeField(t->text);
  } else {
    out << "none";
  }
  return out.str();
}

Result<DesignPayload> ParsePayloadFields(const std::vector<std::string>& f,
                                         size_t at) {
  auto need = [&](size_t n) { return f.size() >= at + 1 + n; };
  if (at >= f.size()) return Status::InvalidArgument("missing payload");
  const std::string& tag = f[at];
  if (tag == "none") return DesignPayload{};
  if (tag == "behavioral") {
    if (!need(4)) return Status::InvalidArgument("short behavioral");
    BehavioralSpec b;
    b.num_inputs = static_cast<int>(ParseI64(f[at + 1]));
    b.num_outputs = static_cast<int>(ParseI64(f[at + 2]));
    b.complexity = static_cast<int>(ParseI64(f[at + 3]));
    PAPYRUS_ASSIGN_OR_RETURN(b.seed, FieldU64(f[at + 4]));
    return DesignPayload{b};
  }
  if (tag == "logic") {
    if (!need(7)) return Status::InvalidArgument("short logic");
    LogicNetwork n;
    n.num_inputs = static_cast<int>(ParseI64(f[at + 1]));
    n.num_outputs = static_cast<int>(ParseI64(f[at + 2]));
    n.minterms = static_cast<int>(ParseI64(f[at + 3]));
    n.literals = static_cast<int>(ParseI64(f[at + 4]));
    n.levels = static_cast<int>(ParseI64(f[at + 5]));
    n.format = static_cast<DesignFormat>(ParseI64(f[at + 6]));
    PAPYRUS_ASSIGN_OR_RETURN(n.seed, FieldU64(f[at + 7]));
    return DesignPayload{n};
  }
  if (tag == "layout") {
    if (!need(12)) return Status::InvalidArgument("short layout");
    Layout l;
    l.num_cells = static_cast<int>(ParseI64(f[at + 1]));
    l.area = std::strtod(f[at + 2].c_str(), nullptr);
    l.delay_ns = std::strtod(f[at + 3].c_str(), nullptr);
    l.power_mw = std::strtod(f[at + 4].c_str(), nullptr);
    l.wire_length = std::strtod(f[at + 5].c_str(), nullptr);
    l.has_pads = f[at + 6] == "1";
    l.routed = f[at + 7] == "1";
    l.compacted = f[at + 8] == "1";
    l.has_abstraction = f[at + 9] == "1";
    l.style = DecodeField(f[at + 10]);
    l.format = static_cast<DesignFormat>(ParseI64(f[at + 11]));
    PAPYRUS_ASSIGN_OR_RETURN(l.seed, FieldU64(f[at + 12]));
    return DesignPayload{l};
  }
  if (tag == "text") {
    if (!need(1)) return Status::InvalidArgument("short text");
    return DesignPayload{TextData{DecodeField(f[at + 1])}};
  }
  return Status::InvalidArgument("unknown payload tag: " + tag);
}

Result<DesignPayload> DecodePayloadText(std::string_view text) {
  return ParsePayloadFields(SplitWhitespace(text), 0);
}

std::string PayloadContentHash(const DesignPayload& p) {
  return Sha256Hex(EncodePayloadText(p));
}

std::string PayloadToString(const DesignPayload& p) {
  std::ostringstream os;
  if (const auto* b = std::get_if<BehavioralSpec>(&p)) {
    os << "behavioral{in=" << b->num_inputs << " out=" << b->num_outputs
       << " complexity=" << b->complexity << "}";
  } else if (const auto* n = std::get_if<LogicNetwork>(&p)) {
    os << "logic{" << DesignFormatToString(n->format)
       << " in=" << n->num_inputs << " out=" << n->num_outputs
       << " minterms=" << n->minterms << " literals=" << n->literals
       << " levels=" << n->levels << "}";
  } else if (const auto* l = std::get_if<Layout>(&p)) {
    os << "layout{" << l->style << " cells=" << l->num_cells
       << " area=" << l->area << " delay=" << l->delay_ns
       << (l->has_pads ? " pads" : "") << (l->routed ? " routed" : "")
       << (l->compacted ? " compacted" : "") << "}";
  } else if (const auto* t = std::get_if<TextData>(&p)) {
    os << "text{" << t->text.size() << " bytes}";
  } else {
    os << "empty";
  }
  return os.str();
}

}  // namespace papyrus::oct
