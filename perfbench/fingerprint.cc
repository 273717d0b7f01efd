#include "fingerprint.h"

#include <algorithm>
#include <sstream>
#include <tuple>

#include "activity/persistence.h"
#include "base/macros.h"
#include "common.h"

namespace perfbench {

using papyrus::Status;

std::string RenderAdg(const papyrus::meta::Adg& adg) {
  std::ostringstream out;
  for (const auto& [id, edge] : adg.edges()) {
    out << id << '|' << edge.tool << '|' << edge.options << '|';
    for (const auto& o : edge.inputs) out << o.ToString() << ',';
    out << '|';
    for (const auto& o : edge.outputs) out << o.ToString() << ',';
    out << '|' << edge.micros << '|' << edge.reuse << '\n';
  }
  return out.str();
}

Status FingerprintSessions(papyrus::server::PapyrusDaemon* daemon,
                           const std::vector<std::string>& names,
                           Fingerprint* out) {
  for (const std::string& name : names) {
    PAPYRUS_ASSIGN_OR_RETURN(auto* session, daemon->OpenSession(name));
    PAPYRUS_RETURN_IF_ERROR(session->Checkpoint());
    papyrus::storage::SessionStore* store = session->session().store();
    for (const auto& [section, file] : store->CurrentSectionFiles()) {
      PAPYRUS_ASSIGN_OR_RETURN(std::string text, store->ReadSection(section));
      out->sections[name + "/" + section] = std::move(text);
    }
    out->adg += "== " + name + "\n" +
                RenderAdg(session->session().metadata().adg());
  }
  return Status::OK();
}

std::string Diff(const Fingerprint& expected, const Fingerprint& actual) {
  for (const auto& [key, text] : expected.sections) {
    auto it = actual.sections.find(key);
    if (it == actual.sections.end()) return "missing section " + key;
    if (it->second != text) return "section " + key + " differs";
  }
  for (const auto& [key, text] : actual.sections) {
    if (expected.sections.count(key) == 0) return "extra section " + key;
  }
  if (expected.adg != actual.adg) return "ADG differs";
  return "";
}

bool FlipIsDetected(const Fingerprint& reference, uint64_t seed) {
  std::vector<std::string> keys;
  for (const auto& [key, text] : reference.sections) {
    if (!text.empty()) keys.push_back(key);
  }
  if (keys.empty()) return false;
  Rng rng(MixSeed(seed, 0xf11b));
  Fingerprint flipped = reference;
  std::string& text = flipped.sections[keys[rng.Next() % keys.size()]];
  text[rng.Next() % text.size()] ^= 0x01;
  return !Diff(reference, flipped).empty();
}

Status ReobserveHistory(papyrus::Papyrus* session) {
  struct Entry {
    int64_t micros;
    int thread_id;
    papyrus::activity::NodeId node_id;
    const papyrus::task::TaskHistoryRecord* record;
  };
  std::vector<Entry> entries;
  for (int thread_id : session->activity().ThreadIds()) {
    auto thread = session->activity().GetThread(thread_id);
    if (!thread.ok()) continue;
    for (const auto& [node_id, node] : (*thread)->nodes()) {
      if (node.is_junction || node.record.task_name.empty()) continue;
      entries.push_back({node.appended_micros, thread_id, node_id, &node.record});
    }
  }
  std::sort(entries.begin(), entries.end(), [](const Entry& a, const Entry& b) {
    return std::tie(a.micros, a.thread_id, a.node_id) <
           std::tie(b.micros, b.thread_id, b.node_id);
  });
  for (const Entry& e : entries) {
    PAPYRUS_RETURN_IF_ERROR(session->metadata().Observe(*e.record));
  }
  return Status::OK();
}

std::string ThreadFingerprint(papyrus::Papyrus* session,
                              const std::string& thread_name) {
  std::string out;
  for (int id : session->activity().ThreadIds()) {
    auto thread = session->activity().GetThread(id);
    if (thread.ok() && (*thread)->name() == thread_name) {
      out += papyrus::activity::SerializeThread(**thread);
    }
  }
  return out + "== adg\n" + RenderAdg(session->metadata().adg());
}

}  // namespace perfbench
