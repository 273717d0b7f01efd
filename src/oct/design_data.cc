#include "oct/design_data.h"

#include <charconv>
#include <cstdio>
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
Result<uint64_t> FieldU64(std::string_view s) {
  uint64_t v = 0;
  if (!ParseU64(s, &v)) {
    return Status::InvalidArgument("payload seed is not a uint64: '" +
                                   std::string(s) + "'");
  }
  return v;
}

/// A %.17g double, read back to the same bits.
bool FieldDouble(FieldCursor& f, double* out) {
  const std::string_view s = f.Next();
  auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), *out);
  return !s.empty() && ec == std::errc() && ptr == s.data() + s.size();
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

Result<DesignPayload> ParsePayloadFields(FieldCursor& f) {
  const std::string_view tag = f.Next();
  if (tag.empty()) return Status::InvalidArgument("missing payload");
  if (tag == "none") return DesignPayload{};
  auto bad = [&] {
    return Status::InvalidArgument("bad " + std::string(tag) +
                                   " payload: " + std::string(f.line()));
  };
  if (tag == "behavioral") {
    BehavioralSpec b;
    if (!f.Int(&b.num_inputs) || !f.Int(&b.num_outputs) ||
        !f.Int(&b.complexity)) {
      return bad();
    }
    PAPYRUS_ASSIGN_OR_RETURN(b.seed, FieldU64(f.Next()));
    return DesignPayload{b};
  }
  if (tag == "logic") {
    LogicNetwork n;
    if (!f.Int(&n.num_inputs) || !f.Int(&n.num_outputs) ||
        !f.Int(&n.minterms) || !f.Int(&n.literals) || !f.Int(&n.levels) ||
        !f.Int(&n.format)) {
      return bad();
    }
    PAPYRUS_ASSIGN_OR_RETURN(n.seed, FieldU64(f.Next()));
    return DesignPayload{n};
  }
  if (tag == "layout") {
    Layout l;
    if (!f.Int(&l.num_cells) || !FieldDouble(f, &l.area) ||
        !FieldDouble(f, &l.delay_ns) || !FieldDouble(f, &l.power_mw) ||
        !FieldDouble(f, &l.wire_length)) {
      return bad();
    }
    l.has_pads = f.Flag();
    l.routed = f.Flag();
    l.compacted = f.Flag();
    l.has_abstraction = f.Flag();
    if (!f.Field(&l.style) || !f.Int(&l.format)) return bad();
    PAPYRUS_ASSIGN_OR_RETURN(l.seed, FieldU64(f.Next()));
    return DesignPayload{l};
  }
  if (tag == "text") {
    TextData t;
    if (!f.Field(&t.text)) return bad();
    return DesignPayload{std::move(t)};
  }
  return Status::InvalidArgument("unknown payload tag: " + std::string(tag));
}

Result<DesignPayload> DecodePayloadText(std::string_view text) {
  FieldCursor f(text);
  return ParsePayloadFields(f);
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
