#ifndef PAPYRUS_OCT_DESIGN_DATA_H_
#define PAPYRUS_OCT_DESIGN_DATA_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "base/result.h"

namespace papyrus {
class FieldCursor;
}  // namespace papyrus

namespace papyrus::oct {

/// The three semantic domains of VLSI design data, used by the metadata
/// inference engine's execution-semantics vectors (§6.4.1, Figure 6.4).
enum class DesignDomain {
  kBehavioral,
  kLogic,
  kPhysical,
  kOther,
};

const char* DesignDomainToString(DesignDomain d);

/// Concrete storage formats, mirroring the OCT tool suite's file formats.
enum class DesignFormat {
  kNone,
  kBds,        // behavioral description (bdsyn input)
  kBlif,       // Berkeley logic interchange format
  kEquation,   // algebraic equations (espresso -o equitott)
  kPla,        // PLA personality matrix (espresso -o pleasure)
  kSymbolic,   // symbolic layout (pre-compaction)
  kGeometric,  // mask geometry
  kText,       // plain text (stats, command files)
};

const char* DesignFormatToString(DesignFormat f);

/// Synthetic behavioral specification (the entry point of every flow).
///
/// The mock CAD tools (src/cadtools) transform these payloads
/// deterministically: `seed` makes tool outputs reproducible functions of
/// their inputs and options, which is all Papyrus itself ever observes.
struct BehavioralSpec {
  int num_inputs = 0;
  int num_outputs = 0;
  int complexity = 0;  // abstract size measure; drives downstream sizes
  uint64_t seed = 0;
};

/// Synthetic multi-level / two-level logic network.
struct LogicNetwork {
  int num_inputs = 0;
  int num_outputs = 0;
  int minterms = 0;  // two-level product-term count ("length" of a PLA)
  int literals = 0;  // multi-level literal count
  int levels = 0;    // logic depth
  DesignFormat format = DesignFormat::kBlif;
  uint64_t seed = 0;
};

/// Synthetic physical layout.
struct Layout {
  int num_cells = 0;
  double area = 0.0;           // in lambda^2
  double delay_ns = 0.0;       // critical path delay
  double power_mw = 0.0;       // power consumption
  double wire_length = 0.0;    // total routed wire length
  bool has_pads = false;
  bool routed = false;
  bool compacted = false;
  bool has_abstraction = false;  // protection frame created (vulcan)
  std::string style;             // "standard-cell", "PLA", "macro"
  DesignFormat format = DesignFormat::kSymbolic;
  uint64_t seed = 0;
};

/// Plain text payloads: simulation command files, statistics reports, ...
struct TextData {
  std::string text;
};

/// The payload of one design-object version.
using DesignPayload =
    std::variant<std::monostate, BehavioralSpec, LogicNetwork, Layout,
                 TextData>;

/// Approximate storage footprint of a payload in bytes. Drives the storage
/// management experiments (§5.4): reclamation is measured in these bytes.
int64_t PayloadSizeBytes(const DesignPayload& p);

/// "behavioral" / "logic" / "layout" / "text" / "empty".
const char* PayloadTypeName(const DesignPayload& p);

/// The semantic domain a payload lives in.
DesignDomain PayloadDomain(const DesignPayload& p);

/// One-line human readable description (for renderers and examples).
std::string PayloadToString(const DesignPayload& p);

/// Canonical single-line text encoding of a payload: the whitespace-field
/// layout the snapshot format has always used ("behavioral 4 2 10 7",
/// "layout 40 2e+04 ... ~macro 5 1", ...; doubles as %.17g, strings
/// '~'-prefixed percent-encoded). Two payloads encode identically iff they
/// are semantically identical, which makes this encoding the basis of
/// content identity: CAS blob bytes *are* this text, and
/// PayloadContentHash() hashes it.
std::string EncodePayloadText(const DesignPayload& p);

/// Reads the payload fields EncodePayloadText wrote from `f` (shared with
/// the database record parser, which reads them at the end of an `object`
/// line).
Result<DesignPayload> ParsePayloadFields(FieldCursor& f);

/// Inverse of EncodePayloadText.
Result<DesignPayload> DecodePayloadText(std::string_view text);

/// Lowercase-hex SHA-256 of EncodePayloadText(p) — the payload's strong
/// content identity, used for CAS keys and blob verification.
std::string PayloadContentHash(const DesignPayload& p);

}  // namespace papyrus::oct

#endif  // PAPYRUS_OCT_DESIGN_DATA_H_
