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

/// Splits `s` on runs of ASCII whitespace, dropping empty pieces.
std::vector<std::string> SplitWhitespace(std::string_view s);

/// Joins `pieces` with `sep` between consecutive elements.
std::string Join(const std::vector<std::string>& pieces,
                 std::string_view sep);

/// Strips leading and trailing ASCII whitespace.
std::string_view Trim(std::string_view s);

bool StartsWith(std::string_view s, std::string_view prefix);
bool EndsWith(std::string_view s, std::string_view suffix);

/// Parses a base-10 signed integer; rejects trailing garbage.
bool ParseInt64(std::string_view s, int64_t* out);
/// ParseInt64's value, or 0 when `s` is malformed.
int64_t ParseI64(std::string_view s);

/// 64-bit FNV-1a hash; used by the mock CAD tools for deterministic
/// pseudo-random transformations.
uint64_t Fnv1a(std::string_view s);

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
/// Like DecodeField, but a malformed escape is InvalidArgument.
Result<std::string> DecodeFieldStrict(std::string_view token);

}  // namespace papyrus

#endif  // PAPYRUS_BASE_STRINGS_H_
