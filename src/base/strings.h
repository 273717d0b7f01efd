#ifndef PAPYRUS_BASE_STRINGS_H_
#define PAPYRUS_BASE_STRINGS_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "base/result.h"

namespace papyrus {

/// Splits `s` at every occurrence of `sep`, keeping empty pieces.
std::vector<std::string> Split(std::string_view s, char sep);

/// Splits `s` on runs of ASCII whitespace (the six bytes the C locale's
/// isspace accepts: ' ', \t, \n, \v, \f, \r), dropping empty pieces.
std::vector<std::string> SplitWhitespace(std::string_view s);

/// Joins `pieces` with `sep` between consecutive elements.
std::string Join(const std::vector<std::string>& pieces,
                 std::string_view sep);

/// Strips leading and trailing ASCII whitespace.
std::string_view Trim(std::string_view s);

bool StartsWith(std::string_view s, std::string_view prefix);
bool EndsWith(std::string_view s, std::string_view suffix);

/// Parses a base-10 signed integer with an optional '+' or '-' sign and
/// optional surrounding whitespace; rejects overflow and trailing
/// garbage, and leaves `*out` alone when it does.
bool ParseInt64(std::string_view s, int64_t* out);
/// ParseInt64's value, or 0 when `s` is malformed.
int64_t ParseI64(std::string_view s);

/// 64-bit FNV-1a hash; used by the mock CAD tools for deterministic
/// pseudo-random transformations.
uint64_t Fnv1a(std::string_view s);
/// Continues an FNV-1a hash over more bytes:
/// Fnv1aAppend(Fnv1a(a), b) == Fnv1a(a + b).
uint64_t Fnv1aAppend(uint64_t hash, std::string_view s);

/// Percent-encodes whitespace, '%' and control characters so arbitrary
/// strings survive the line/field-oriented persistence format.
std::string PercentEncode(std::string_view s);
/// Inverse of PercentEncode; invalid escapes are kept literally.
std::string PercentDecode(std::string_view s);

/// Strict inverse of PercentEncode: a '%' must be followed by exactly two
/// hex digits. Malformed escapes ("%G1", a trailing "%" or "%4") return
/// InvalidArgument instead of being passed through — the persistence layer
/// uses this so corrupted snapshots are detected rather than silently
/// mis-decoded.
Result<std::string> PercentDecodeStrict(std::string_view s);
/// PercentDecodeStrict into `*out` (replacing its content); false on a
/// malformed escape.
bool PercentDecodeStrictInto(std::string_view s, std::string* out);

// --- durable line codec ----------------------------------------------------
// Every line-oriented durable file (write-ahead log, generation manifest,
// queue and CAS journals and checkpoints, v2 snapshots) frames a record as
// `<body> !<hex FNV-1a of body>` and carries free-form strings as
// `~<percent-encoded>` fields, so an empty string still occupies a token.

/// `v` as 16 lowercase hex digits.
std::string HexU64(uint64_t v);
/// Parses 1-16 hex digits and nothing else.
bool ParseHexU64(std::string_view s, uint64_t* out);
/// Parses a base-10 unsigned integer; rejects signs and trailing garbage.
bool ParseU64(std::string_view s, uint64_t* out);

/// `body` + " !" + HexU64(Fnv1a(body)). `body` must not contain '\n'.
std::string FrameLine(std::string_view body);
/// Points `body` at the framed line's body when its checksum verifies.
/// The parsed values are compared, so unpadded checksums verify too.
bool UnframeLine(std::string_view line, std::string_view* body);

/// "~" + PercentEncode(s).
std::string EncodeField(std::string_view s);
/// Inverse of EncodeField; the '~' is optional, invalid escapes pass.
std::string DecodeField(std::string_view token);
/// Reads the whitespace-separated fields of one record line in place: the
/// one field parser under WAL replay and every section reader. Nothing is
/// copied but the decoded strings, which land straight in their
/// destination; integers parse as ParseInt64 does (std::from_chars), and
/// `~` fields decode strictly. Each reader returns false when the field
/// is missing or does not parse.
class FieldCursor {
 public:
  explicit FieldCursor(std::string_view line) : line_(line), rest_(line) {}

  /// The next field; empty once the line is used up.
  std::string_view Next();
  /// True when no field is left.
  bool AtEnd();
  /// The unread rest of the line, as it stands (leading whitespace too).
  std::string_view rest() const { return rest_; }
  /// The whole line (error messages).
  std::string_view line() const { return line_; }

  bool Int64(int64_t* out);
  /// Int64, narrowed to `T` as a static_cast would.
  template <typename T>
  bool Int(T* out) {
    int64_t v = 0;
    if (!Int64(&v)) return false;
    *out = static_cast<T>(v);
    return true;
  }
  /// ParseU64's syntax.
  bool U64(uint64_t* out);
  /// ParseHexU64's syntax.
  bool Hex(uint64_t* out);
  /// True when the next field is "1" (a written bool); any other field,
  /// or none, reads false.
  bool Flag() { return Next() == "1"; }
  /// An EncodeField field (the '~' is optional), decoded strictly into
  /// `*out`. A malformed escape also marks the line damaged().
  bool Field(std::string* out);

  /// Whether a field failed its strict decode: the line's bytes are
  /// damaged, as opposed to well-formed but not understood.
  bool damaged() const { return damaged_; }

 private:
  std::string_view line_;
  std::string_view rest_;
  bool damaged_ = false;
};

}  // namespace papyrus

#endif  // PAPYRUS_BASE_STRINGS_H_
