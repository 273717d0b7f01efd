// The logical replay fingerprint the correctness gates compare: for each
// session, the storage-engine sections read back after a Checkpoint plus
// the rendered augmented derivation graph (ADG) — the same construction
// as the daemon tests' Fingerprint. Generation numbers and file names are
// left out, so where compactions happened to land does not matter.
#ifndef PERFBENCH_FINGERPRINT_H_
#define PERFBENCH_FINGERPRINT_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "base/status.h"
#include "core/papyrus.h"
#include "meta/adg.h"
#include "server/daemon.h"

namespace perfbench {

struct Fingerprint {
  std::map<std::string, std::string> sections;  // "session/section" -> text
  std::string adg;
};

std::string RenderAdg(const papyrus::meta::Adg& adg);

/// Opens each named session in `daemon`, checkpoints it and reads every
/// live section plus its ADG. Must run on the daemon's engine thread.
papyrus::Status FingerprintSessions(papyrus::server::PapyrusDaemon* daemon,
                                    const std::vector<std::string>& names,
                                    Fingerprint* out);

/// Empty when equal; otherwise names the first difference.
std::string Diff(const Fingerprint& expected, const Fingerprint& actual);

/// The gate's negative test: flips one byte of one section of `reference`
/// (chosen from `seed`) and returns true when Diff reports the mismatch.
bool FlipIsDetected(const Fingerprint& reference, uint64_t seed);

/// Re-derives a restored session's ADG by observing every history record
/// in commit order (metadata inference state is not persisted).
papyrus::Status ReobserveHistory(papyrus::Papyrus* session);

/// The serialized history of the named design thread plus the session's
/// rendered ADG.
std::string ThreadFingerprint(papyrus::Papyrus* session,
                              const std::string& thread_name);

}  // namespace perfbench

#endif  // PERFBENCH_FINGERPRINT_H_
