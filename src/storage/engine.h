#ifndef PAPYRUS_STORAGE_ENGINE_H_
#define PAPYRUS_STORAGE_ENGINE_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "base/result.h"
#include "base/status.h"
#include "storage/wal.h"

namespace papyrus::storage {

/// The session storage engine: a write-ahead log plus periodic compacted
/// delta snapshots behind a manifest swap.
///
/// On-disk layout of a session directory:
///
///   CURRENT            -> "manifest.<gen>" (atomic swap point)
///   manifest.<gen>     checksummed list: generation, WAL base sequence,
///                      and one `section <name> <file> <fnv>` line per
///                      live section
///   <section>.g<N>     immutable section files; a manifest may reference
///                      files written by *older* generations (sections
///                      that were clean are carried over, not rewritten)
///   wal.log            the write-ahead log of mutations since the
///                      manifest's WAL base
///
/// The engine deals only in named *sections* (opaque texts — the sharded
/// OCT database, per-thread control streams, the derivation cache, the
/// daemon session state) and opaque WAL record bodies; serialization and
/// replay semantics live with the session glue (src/core, src/server).
///
/// Recovery = CURRENT -> manifest -> section files + WAL tail replay
/// (records with seq > the manifest's WAL base, longest valid prefix).
/// A save writes only the sections dirtied since the last generation,
/// batched-fsyncs them, atomically swaps CURRENT, then resets the WAL.
/// A crash at any point recovers to a consistent state: until the
/// CURRENT swap lands, the previous manifest + WAL tail is authoritative
/// and half-written generation files are unreferenced garbage.
///
/// Thread contract: owned and driven by the session's engine thread.
class SessionStore {
 public:
  /// What kind of on-disk state Open found.
  enum class Layout {
    kEmpty,          // nothing restorable: fresh session
    kEngine,         // CURRENT -> manifest (this engine's layout)
    kLegacySnapDir,  // PR 6 daemon layout: CURRENT -> snap.<N>/ of
                     // whole-file snapshots (migrated on the next save)
    kLegacyFlat,     // PR 1 flat layout: database.pdb + thread_*.pth
  };

  /// Simulated-crash points for the recovery matrix. The hook returns
  /// false to "crash" there: the engine stops immediately with Aborted
  /// and performs no further writes, leaving the directory exactly as a
  /// process kill at that instant would.
  enum class CrashPoint {
    kAfterWalCommit,
    kAfterShardWrite,
    kBeforeManifestSwap,
    kAfterManifestSwap,
    kAfterWalReset,
  };
  using CrashHook = std::function<bool(CrashPoint)>;

  struct OpenResult {
    Layout layout = Layout::kEmpty;
    /// Directory holding the legacy snapshot files (the snap.<N> dir or
    /// the session dir itself) for the legacy layouts.
    std::string legacy_dir;
    /// Section name -> text, verified against the manifest checksums
    /// (kEngine only).
    std::map<std::string, std::string> sections;
    /// WAL tail to replay on top of the sections, in sequence order; the
    /// bodies view `wal_text`.
    std::vector<WalRecord> wal;
    std::shared_ptr<const std::string> wal_text;
    /// Header version of the log found (kWalVersion for a new one). An
    /// older log must be folded into a generation before it is appended
    /// to: SaveGeneration restarts the log under the current header.
    int wal_version = kWalVersion;
    int64_t wal_dropped_bytes = 0;
    bool wal_truncated = false;
    uint64_t generation = 0;
  };

  SessionStore() = default;
  SessionStore(const SessionStore&) = delete;
  SessionStore& operator=(const SessionStore&) = delete;

  /// Opens (creating if needed) a session directory and classifies its
  /// layout. Always opens the WAL for appending — legacy layouts may
  /// carry a WAL too when a migration was interrupted mid-flight.
  Result<OpenResult> Open(const std::string& dir);

  bool is_open() const { return wal_.is_open(); }
  const std::string& dir() const { return dir_; }

  // --- write-ahead log ----------------------------------------------------

  /// Buffers one record body; returns its sequence number.
  uint64_t AppendWal(std::string_view body) { return wal_.Append(body); }

  /// Group commit: one write + one fsync for everything appended since
  /// the last commit. Journal-before-effect: call this before the
  /// mutations it records are acknowledged outside the session.
  Result<int64_t> CommitWal();

  // --- delta snapshots ----------------------------------------------------

  /// Writes generation N+1. `dirty` maps section name -> full new text
  /// for sections that changed; `live` lists every section the new
  /// manifest must carry (a live section absent from `dirty` is carried
  /// over from the previous manifest unchanged; a previously live
  /// section absent from `live` is dropped). After the manifest swap the
  /// WAL resets: its records are now owned by the generation.
  Status SaveGeneration(const std::map<std::string, std::string>& dirty,
                        const std::vector<std::string>& live);

  uint64_t generation() const { return generation_; }

  /// Sections carried by the current manifest, name -> file name.
  std::map<std::string, std::string> CurrentSectionFiles() const;

  const WriteAheadLog::Stats& wal_stats() const { return wal_.stats(); }

  struct SaveStats {
    int64_t generations = 0;
    int64_t sections_written = 0;
    int64_t sections_reused = 0;
    int64_t bytes_written = 0;
    int64_t files_pruned = 0;
  };
  const SaveStats& save_stats() const { return save_stats_; }

  void set_crash_hook(CrashHook hook) { crash_hook_ = std::move(hook); }

  /// Reads and verifies one section of the *current* manifest straight
  /// from disk (fingerprint tests).
  Result<std::string> ReadSection(const std::string& name) const;

 private:
  struct SectionFile {
    std::string file;
    uint64_t checksum = 0;
  };

  Status Crash(CrashPoint point);
  Status LoadManifest(const std::string& manifest_file, OpenResult* out);
  void PruneUnreferenced();

  std::string dir_;
  WriteAheadLog wal_;
  uint64_t generation_ = 0;
  uint64_t wal_base_ = 0;
  std::map<std::string, SectionFile> current_;  // live section -> file
  CrashHook crash_hook_;
  SaveStats save_stats_;
};

}  // namespace papyrus::storage

#endif  // PAPYRUS_STORAGE_ENGINE_H_
