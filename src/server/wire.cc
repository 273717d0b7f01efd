#include "server/wire.h"

#include <limits>
#include <sstream>

#include "base/macros.h"
#include "base/strings.h"

namespace papyrus::server {

std::string WireEscape(std::string_view s) {
  static const char* kHex = "0123456789ABCDEF";
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    unsigned char u = static_cast<unsigned char>(c);
    if (u <= 0x20 || c == '%' || c == '~' || c == '=' || c == ',' ||
        u == 0x7f) {
      out.push_back('%');
      out.push_back(kHex[u >> 4]);
      out.push_back(kHex[u & 0xf]);
    } else {
      out.push_back(c);
    }
  }
  return out;
}

const std::string* WireMessage::Find(const std::string& key) const {
  for (const auto& [k, v] : fields) {
    if (k == key) return &v;
  }
  return nullptr;
}

std::vector<std::string> WireMessage::FindAll(
    const std::string& key) const {
  std::vector<std::string> out;
  for (const auto& [k, v] : fields) {
    if (k == key) out.push_back(v);
  }
  return out;
}

void WireMessage::Add(const std::string& key, const std::string& value) {
  fields.emplace_back(key, value);
}

std::string WireMessage::Format() const {
  std::ostringstream out;
  out << verb;
  for (const auto& [k, v] : fields) {
    out << " ~" << WireEscape(k) << '=' << WireEscape(v);
  }
  return out.str();
}

Result<WireMessage> WireMessage::Parse(const std::string& line) {
  std::vector<std::string> tokens = SplitWhitespace(line);
  if (tokens.empty()) {
    return Status::InvalidArgument("empty wire line");
  }
  WireMessage msg;
  msg.verb = tokens[0];
  for (size_t i = 1; i < tokens.size(); ++i) {
    const std::string& tok = tokens[i];
    if (tok.empty() || tok[0] != '~') {
      return Status::InvalidArgument("malformed wire field \"" + tok +
                                     "\" (expected ~key=value)");
    }
    size_t eq = tok.find('=');
    if (eq == std::string::npos) {
      return Status::InvalidArgument("wire field \"" + tok +
                                     "\" has no '='");
    }
    PAPYRUS_ASSIGN_OR_RETURN(
        std::string key, PercentDecodeStrict(tok.substr(1, eq - 1)));
    PAPYRUS_ASSIGN_OR_RETURN(std::string value,
                             PercentDecodeStrict(tok.substr(eq + 1)));
    msg.fields.emplace_back(std::move(key), std::move(value));
  }
  return msg;
}

std::string TaskDescription::Encode() const {
  WireMessage msg;
  msg.verb = "task";
  msg.Add("session", session);
  msg.Add("thread", thread);
  msg.Add("template", template_name);
  msg.Add("seed", std::to_string(seed));
  for (const std::string& ref : input_refs) msg.Add("in", ref);
  for (const std::string& name : output_names) msg.Add("out", name);
  for (const auto& [step, options] : option_overrides) {
    msg.Add("opt." + step, options);
  }
  return msg.Format();
}

Result<TaskDescription> TaskDescription::Decode(
    const std::string& encoded) {
  PAPYRUS_ASSIGN_OR_RETURN(WireMessage msg, WireMessage::Parse(encoded));
  if (msg.verb != "task") {
    return Status::InvalidArgument("not a task description: \"" +
                                   msg.verb + "\"");
  }
  TaskDescription desc;
  for (const auto& [key, value] : msg.fields) {
    if (key == "session") {
      desc.session = value;
    } else if (key == "thread") {
      desc.thread = value;
    } else if (key == "template") {
      desc.template_name = value;
    } else if (key == "seed") {
      int64_t seed = 0;
      if (!ParseInt64(value, &seed) || seed < 0) {
        return Status::InvalidArgument("bad seed \"" + value + "\"");
      }
      desc.seed = static_cast<uint64_t>(seed);
    } else if (key == "in") {
      desc.input_refs.push_back(value);
    } else if (key == "out") {
      desc.output_names.push_back(value);
    } else if (key.rfind("opt.", 0) == 0) {
      desc.option_overrides[key.substr(4)] = value;
    } else {
      return Status::InvalidArgument("unknown task field \"" + key +
                                     "\"");
    }
  }
  if (desc.session.empty() || desc.thread.empty() ||
      desc.template_name.empty()) {
    return Status::InvalidArgument(
        "task description needs session, thread, and template");
  }
  return desc;
}

Result<oct::DesignPayload> CheckinPayload(const WireMessage& request) {
  const std::string* type = request.Find("type");
  if (type == nullptr) return Status::InvalidArgument("checkin needs ~type");
  constexpr int64_t kIntMax = std::numeric_limits<int>::max();
  constexpr int64_t kInt64Max = std::numeric_limits<int64_t>::max();
  std::string bad;  // the first malformed number
  auto number = [&](const char* key, int64_t max) {
    const std::string* text = request.Find(key);
    int64_t value = 0;
    if (text != nullptr &&
        (!ParseInt64(*text, &value) || value < 0 || value > max)) {
      if (bad.empty()) bad = std::string("~") + key + "=\"" + *text + "\"";
      value = 0;
    }
    return value;
  };
  oct::DesignPayload payload;
  if (*type == "text") {
    const std::string* text = request.Find("text");
    payload = oct::TextData{text != nullptr ? *text : ""};
  } else if (*type == "behav") {
    oct::BehavioralSpec spec;
    spec.num_inputs = static_cast<int>(number("inputs", kIntMax));
    spec.num_outputs = static_cast<int>(number("outputs", kIntMax));
    spec.complexity = static_cast<int>(number("complexity", kIntMax));
    spec.seed = static_cast<uint64_t>(number("seed", kInt64Max));
    payload = spec;
  } else if (*type == "layout") {
    oct::Layout layout;
    layout.num_cells = static_cast<int>(number("cells", kIntMax));
    layout.area = static_cast<double>(number("area", kInt64Max));
    layout.seed = static_cast<uint64_t>(number("seed", kInt64Max));
    payload = layout;
  } else {
    return Status::InvalidArgument("unknown checkin type \"" + *type +
                                   "\"");
  }
  if (!bad.empty()) {
    return Status::InvalidArgument("bad checkin " + bad +
                                   ": not a non-negative integer in range");
  }
  return payload;
}

}  // namespace papyrus::server
