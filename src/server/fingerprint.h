#ifndef PAPYRUS_SERVER_FINGERPRINT_H_
#define PAPYRUS_SERVER_FINGERPRINT_H_

#include <map>
#include <string>
#include <vector>

#include "base/result.h"
#include "base/thread_annotations.h"
#include "meta/adg.h"
#include "server/daemon.h"

namespace papyrus::server {

/// The logical replay fingerprint that crash, worker-count and
/// process-topology checks compare: per session, the bytes of every live
/// storage-engine section read back after a Checkpoint (sharded database,
/// thread histories, derivation cache, daemon state) plus the rendered
/// augmented derivation graph. Generation numbers and section file names
/// are left out — runs that crash or spread over worker processes compact
/// at different points, so that bookkeeping legitimately differs while
/// the section contents must not.
struct ReplayFingerprint {
  std::map<std::string, std::string> sections;  // "session/section" -> text
  std::string adg;
};

/// One line per ADG edge: id, tool, options, inputs, outputs, cost, reuse.
std::string RenderAdg(const meta::Adg& adg);

/// Opens each named session in `daemon`, checkpoints it, and reads back
/// every live section plus its ADG.
Result<ReplayFingerprint> FingerprintSessions(
    PapyrusDaemon* daemon, const std::vector<std::string>& sessions)
    PAPYRUS_REQUIRES(base::engine_thread);

/// Empty when the fingerprints are equal; otherwise names the first
/// difference.
std::string DiffFingerprints(const ReplayFingerprint& expected,
                             const ReplayFingerprint& actual);

}  // namespace papyrus::server

#endif  // PAPYRUS_SERVER_FINGERPRINT_H_
