#include "server/fingerprint.h"

#include <sstream>

#include "base/macros.h"

namespace papyrus::server {

std::string RenderAdg(const meta::Adg& adg) {
  std::ostringstream out;
  for (const auto& [id, edge] : adg.edges()) {
    out << id << '|' << edge.tool << '|' << edge.options << '|';
    for (const oct::ObjectId& o : edge.inputs) out << o.ToString() << ',';
    out << '|';
    for (const oct::ObjectId& o : edge.outputs) out << o.ToString() << ',';
    out << '|' << edge.micros << '|' << edge.reuse << '\n';
  }
  return out.str();
}

Result<ReplayFingerprint> FingerprintSessions(
    PapyrusDaemon* daemon, const std::vector<std::string>& sessions) {
  ReplayFingerprint fp;
  for (const std::string& name : sessions) {
    PAPYRUS_ASSIGN_OR_RETURN(ManagedSession * session,
                             daemon->OpenSession(name));
    // A compaction first, so the manifest carries the complete durable
    // state and the sections are a pure function of the logical state.
    PAPYRUS_RETURN_IF_ERROR(session->Checkpoint());
    storage::SessionStore* store = session->session().store();
    for (const auto& [section, file] : store->CurrentSectionFiles()) {
      PAPYRUS_ASSIGN_OR_RETURN(fp.sections[name + "/" + section],
                               store->ReadSection(section));
    }
    fp.adg += "== " + name + "\n" +
              RenderAdg(session->session().metadata().adg());
  }
  return fp;
}

std::string DiffFingerprints(const ReplayFingerprint& expected,
                             const ReplayFingerprint& actual) {
  for (const auto& [key, text] : expected.sections) {
    auto it = actual.sections.find(key);
    if (it == actual.sections.end()) return "missing section " + key;
    if (it->second != text) return "section " + key + " differs";
  }
  for (const auto& [key, text] : actual.sections) {
    if (expected.sections.count(key) == 0) return "extra section " + key;
  }
  return expected.adg == actual.adg ? "" : "ADG differs";
}

}  // namespace papyrus::server
