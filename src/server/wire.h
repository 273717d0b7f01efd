#ifndef PAPYRUS_SERVER_WIRE_H_
#define PAPYRUS_SERVER_WIRE_H_

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "base/result.h"
#include "base/status.h"
#include "oct/design_data.h"

namespace papyrus::server {

/// The papyrusd wire protocol: one request line in, one response line
/// out, so the shell and `mosaico_flow` can drive a daemon as thin
/// clients over any line-oriented transport (a pipe in the tests).
///
///   request  := verb (' ' '~' key '=' value)*
///   response := "ok" fields... | "err" ~msg=...
///
/// Keys and values are wire-escaped (percent-encoding extended to the
/// protocol's structural characters), so arbitrary option strings and
/// object names survive the round trip. Task descriptions reuse the same
/// key=value form, making every queued task self-describing: the journal
/// entry alone carries everything needed to re-dispatch it after a
/// restart (the CRISTAL-style description-driven queue).

/// Percent-encodes whitespace, control characters, '%', and the wire's
/// structural characters ('~', '=', ','). PercentDecodeStrict inverts it.
std::string WireEscape(std::string_view s);

/// One parsed wire line: a verb plus ordered key=value fields.
struct WireMessage {
  std::string verb;
  std::vector<std::pair<std::string, std::string>> fields;

  /// First value for `key`, or nullptr.
  const std::string* Find(const std::string& key) const;
  /// Every value for `key`, in order (repeated keys form lists).
  std::vector<std::string> FindAll(const std::string& key) const;

  void Add(const std::string& key, const std::string& value);

  /// Renders "verb ~k=v ~k2=v2" with escaped keys and values.
  std::string Format() const;
  static Result<WireMessage> Parse(const std::string& line);
};

/// A self-describing queued task: which session and design thread it
/// targets and the full activity invocation to run there.
struct TaskDescription {
  std::string session;
  std::string thread;
  std::string template_name;
  std::vector<std::string> input_refs;
  std::vector<std::string> output_names;
  /// Step name -> replacement option string (the §4.3.1 "New Options:").
  std::map<std::string, std::string> option_overrides;
  uint64_t seed = 1;

  /// Single-line encoding stored verbatim in the queue journal.
  std::string Encode() const;
  static Result<TaskDescription> Decode(const std::string& encoded);
};

/// The design payload a `checkin` request describes, by its `~type`:
/// text (`~text`), behav (`~inputs ~outputs ~complexity ~seed`) or layout
/// (`~cells ~area ~seed`). A number must be a non-negative integer that
/// fits its payload field; an absent one is 0. papyrusd refuses, and
/// `papyrus-lint --wire` reports, exactly the check-ins this refuses.
Result<oct::DesignPayload> CheckinPayload(const WireMessage& request);

}  // namespace papyrus::server

#endif  // PAPYRUS_SERVER_WIRE_H_
