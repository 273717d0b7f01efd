#include "base/strings.h"

#include <charconv>

namespace papyrus {

namespace {

/// The six bytes the C locale's isspace accepts.
bool IsSpace(char c) { return c == ' ' || (c >= '\t' && c <= '\r'); }

}  // namespace

std::vector<std::string> Split(std::string_view s, char sep) {
  std::vector<std::string> out;
  size_t start = 0;
  while (true) {
    size_t pos = s.find(sep, start);
    if (pos == std::string_view::npos) {
      out.emplace_back(s.substr(start));
      return out;
    }
    out.emplace_back(s.substr(start, pos - start));
    start = pos + 1;
  }
}

std::vector<std::string> SplitWhitespace(std::string_view s) {
  std::vector<std::string> out;
  size_t i = 0;
  while (i < s.size()) {
    while (i < s.size() && IsSpace(s[i])) ++i;
    size_t start = i;
    while (i < s.size() && !IsSpace(s[i])) ++i;
    if (i > start) out.emplace_back(s.substr(start, i - start));
  }
  return out;
}

std::string Join(const std::vector<std::string>& pieces,
                 std::string_view sep) {
  std::string out;
  for (size_t i = 0; i < pieces.size(); ++i) {
    if (i > 0) out.append(sep);
    out.append(pieces[i]);
  }
  return out;
}

std::string_view Trim(std::string_view s) {
  size_t b = 0;
  while (b < s.size() && IsSpace(s[b])) ++b;
  size_t e = s.size();
  while (e > b && IsSpace(s[e - 1])) --e;
  return s.substr(b, e - b);
}

bool StartsWith(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

bool EndsWith(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.substr(s.size() - suffix.size()) == suffix;
}

bool ParseInt64(std::string_view s, int64_t* out) {
  s = Trim(s);
  // strtoll's syntax: from_chars takes a '-' but no '+', so a '+' is
  // dropped here when a digit follows it.
  if (s.size() > 1 && s[0] == '+' && s[1] >= '0' && s[1] <= '9') {
    s.remove_prefix(1);
  }
  int64_t v = 0;
  const char* end = s.data() + s.size();
  auto [ptr, ec] = std::from_chars(s.data(), end, v);
  if (s.empty() || ec != std::errc() || ptr != end) return false;
  *out = v;
  return true;
}

int64_t ParseI64(std::string_view s) {
  int64_t v = 0;
  return ParseInt64(s, &v) ? v : 0;
}

std::string PercentEncode(std::string_view s) {
  static const char* kHex = "0123456789ABCDEF";
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    unsigned char u = static_cast<unsigned char>(c);
    if (u <= 0x20 || c == '%' || u == 0x7f) {
      out.push_back('%');
      out.push_back(kHex[u >> 4]);
      out.push_back(kHex[u & 0xf]);
    } else {
      out.push_back(c);
    }
  }
  return out;
}

namespace {
int HexValue(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  return -1;
}
}  // namespace

std::string PercentDecode(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (size_t i = 0; i < s.size(); ++i) {
    if (s[i] == '%' && i + 2 < s.size()) {
      int hi = HexValue(s[i + 1]);
      int lo = HexValue(s[i + 2]);
      if (hi >= 0 && lo >= 0) {
        out.push_back(static_cast<char>(hi * 16 + lo));
        i += 2;
        continue;
      }
    }
    out.push_back(s[i]);
  }
  return out;
}

bool PercentDecodeStrictInto(std::string_view s, std::string* out) {
  out->clear();
  for (size_t i = 0;;) {
    const size_t pct = s.find('%', i);
    out->append(s.substr(i, pct - i));
    if (pct == std::string_view::npos) return true;
    const int hi = pct + 2 < s.size() ? HexValue(s[pct + 1]) : -1;
    const int lo = pct + 2 < s.size() ? HexValue(s[pct + 2]) : -1;
    if (hi < 0 || lo < 0) return false;
    out->push_back(static_cast<char>(hi * 16 + lo));
    i = pct + 3;
  }
}

Result<std::string> PercentDecodeStrict(std::string_view s) {
  std::string out;
  if (!PercentDecodeStrictInto(s, &out)) {
    return Status::InvalidArgument("malformed percent escape in \"" +
                                   std::string(s) + "\"");
  }
  return out;
}

uint64_t Fnv1a(std::string_view s) {
  return Fnv1aAppend(1469598103934665603ull, s);
}

uint64_t Fnv1aAppend(uint64_t h, std::string_view s) {
  for (char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

std::string HexU64(uint64_t v) {
  static const char* kHex = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i, v >>= 4) out[i] = kHex[v & 0xf];
  return out;
}

bool ParseHexU64(std::string_view s, uint64_t* out) {
  if (s.empty() || s.size() > 16) return false;
  uint64_t v = 0;
  for (char c : s) {
    int d = HexValue(c);
    if (d < 0) return false;
    v = (v << 4) | static_cast<uint64_t>(d);
  }
  *out = v;
  return true;
}

bool ParseU64(std::string_view s, uint64_t* out) {
  if (s.empty()) return false;
  uint64_t v = 0;
  for (char c : s) {
    if (c < '0' || c > '9') return false;
    uint64_t next = v * 10 + static_cast<uint64_t>(c - '0');
    if (next / 10 != v) return false;  // overflow
    v = next;
  }
  *out = v;
  return true;
}

std::string FrameLine(std::string_view body) {
  std::string out;
  out.reserve(body.size() + 18);
  out.append(body);
  out += " !";
  out += HexU64(Fnv1a(body));
  return out;
}

bool UnframeLine(std::string_view line, std::string_view* body) {
  size_t sp = line.rfind(' ');
  uint64_t want = 0;
  if (sp == std::string_view::npos || sp + 1 >= line.size() ||
      line[sp + 1] != '!' || !ParseHexU64(line.substr(sp + 2), &want) ||
      Fnv1a(line.substr(0, sp)) != want) {
    return false;
  }
  *body = line.substr(0, sp);
  return true;
}

std::string EncodeField(std::string_view s) {
  std::string out = "~";
  out += PercentEncode(s);
  return out;
}

std::string DecodeField(std::string_view token) {
  if (!token.empty() && token.front() == '~') token.remove_prefix(1);
  return PercentDecode(token);
}

std::string_view FieldCursor::Next() {
  size_t b = 0;
  while (b < rest_.size() && IsSpace(rest_[b])) ++b;
  size_t e = b;
  while (e < rest_.size() && !IsSpace(rest_[e])) ++e;
  std::string_view field = rest_.substr(b, e - b);
  rest_.remove_prefix(e);
  return field;
}

bool FieldCursor::AtEnd() {
  while (!rest_.empty() && IsSpace(rest_.front())) rest_.remove_prefix(1);
  return rest_.empty();
}

bool FieldCursor::Int64(int64_t* out) { return ParseInt64(Next(), out); }

bool FieldCursor::U64(uint64_t* out) { return ParseU64(Next(), out); }

bool FieldCursor::Hex(uint64_t* out) { return ParseHexU64(Next(), out); }

bool FieldCursor::Field(std::string* out) {
  std::string_view token = Next();
  if (token.empty()) return false;
  if (token.front() == '~') token.remove_prefix(1);
  if (PercentDecodeStrictInto(token, out)) return true;
  damaged_ = true;
  return false;
}

}  // namespace papyrus
