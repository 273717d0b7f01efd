#ifndef PAPYRUS_ACTIVITY_PERSISTENCE_H_
#define PAPYRUS_ACTIVITY_PERSISTENCE_H_

#include <cstdint>
#include <memory>
#include <string>

#include "activity/design_thread.h"
#include "base/clock.h"
#include "cache/derivation_cache.h"
#include "oct/database.h"

namespace papyrus::activity {

/// The persistent form of the design history (§5.3: "the third is a
/// persistent version of the second data structure, for inter-process
/// communication and crash recovery").
///
/// Both the design database and design-thread control streams serialize
/// to a line/field-oriented text format (fields percent-encoded) and
/// restore bit-faithfully: node ids, version numbers, visibility flags,
/// timestamps, annotations and step-level history all survive the round
/// trip. Thread-state caches are not persisted (they are recomputed on
/// demand).
///
/// Format version 2 (the current writer) makes snapshots
/// corruption-tolerant: every record line is FrameLine-framed (a trailing
/// ` !<hex>` FNV-1a checksum of its body), and the file ends with a
/// `end <count> <hex>` trailer covering the whole record stream. Restore
/// recovers the longest valid prefix of a damaged snapshot with the same
/// scan as every journal (storage::ScanJournal) — a truncated tail or a
/// checksummed line that no longer matches drops that line and
/// everything after it, reported through `RestoreStats`. Version-1
/// snapshots (no checksums) remain readable.

/// What restore had to do to a (possibly damaged) snapshot. The restore
/// functions add to it, so one report can span several snapshots.
struct RestoreStats {
  int64_t records_restored = 0;  // record lines parsed and applied
  int64_t records_dropped = 0;   // record lines lost to damage
  /// True when the snapshot did not end with a valid trailer: the file
  /// was truncated or its tail corrupted, and only a prefix was restored.
  bool truncated = false;
};

/// Serializes every object version (including invisible and reclaimed
/// tombstones — version numbering must survive recovery).
std::string SerializeDatabase(const oct::OctDatabase& db);

/// Rebuilds a database from `text` into a fresh instance using `clock`.
/// Damaged version-2 snapshots restore their longest valid prefix;
/// `stats` (optional) reports what was kept and dropped.
Result<std::unique_ptr<oct::OctDatabase>> RestoreDatabase(
    const std::string& text, Clock* clock, RestoreStats* stats = nullptr);

/// Serializes one thread's control stream, cursor, check-ins, and
/// configuration, plus its node-id allocator when that ran ahead of max
/// id + 1.
std::string SerializeThread(const DesignThread& thread);

/// Rebuilds a design thread from `text` through the calls WAL replay uses
/// (DesignThread::UpsertNode, then ReplayMeta). Damaged version-2
/// snapshots restore their longest valid prefix: links to dropped nodes
/// are pruned and the cursor falls back to the initial point when its
/// node is gone.
Result<std::unique_ptr<DesignThread>> RestoreThread(
    const std::string& text, Clock* clock, RestoreStats* stats = nullptr);

/// Serializes the derivation cache's entries (v3 checksummed format, kind
/// "papyrus-cache"; v3 added per-entry `ckey` shared-store content keys).
/// Counters are runtime state and are not persisted.
std::string SerializeDerivationCache(const cache::DerivationCache& cache);

/// Re-populates `cache` from a snapshot. The database must be restored
/// first: entries are re-inserted through `DerivationCache::Restore`,
/// which re-validates and re-pins the recorded output versions — entries
/// whose versions did not survive are silently skipped (they would only
/// have missed anyway). Damaged v2 snapshots restore their longest valid
/// prefix.
Status RestoreDerivationCache(const std::string& text,
                              cache::DerivationCache* cache,
                              RestoreStats* stats = nullptr);

// --- storage-engine record codecs ----------------------------------------
// The write-ahead log journals self-describing *state* records — the same
// byte formats the snapshot files use, one record at a time — so replay
// applies exact serialized states instead of re-executing logic. That is
// what keeps recovery byte-identical at any crash point.

/// One database record as its snapshot `object ...` body line (no
/// checksum, no trailing newline).
std::string EncodeObjectRecord(const oct::ObjectRecord& rec);

/// Parses a whitespace-split `object ...` body back into a record.
Result<oct::ObjectRecord> ParseObjectRecord(
    const std::vector<std::string>& fields);

/// Serializes one database shard as a standalone `papyrus-db 2` snapshot
/// (the delta-snapshot section format).
std::string SerializeDatabaseShard(const oct::OctDatabase& db, int shard);

/// Restores snapshot text into an existing database (shards restore one
/// by one into the same instance). Records arrive through
/// `OctDatabase::RestoreRecord`, so version order per name still holds.
Status RestoreDatabaseInto(const std::string& text, oct::OctDatabase* db,
                           RestoreStats* stats = nullptr);

/// One history node as its snapshot line block (`node`/`parents`/
/// `children`/`record`/`rin`/`rout`/`step`/`sin`/`sout` lines).
std::string EncodeNodeBlock(const HistoryNode& node);

/// Applies a journaled node block through `DesignThread::UpsertNode`.
Status ApplyNodeBlock(const std::string& block, DesignThread* thread);

/// One derivation-cache entry as its snapshot line block
/// (`entry`/`ein`/`eout`/`ckey` lines, index 0).
std::string EncodeCacheEntry(const cache::CacheEntry& entry);

/// Parses a journaled cache-entry block back into an entry.
Result<cache::CacheEntry> DecodeCacheEntry(const std::string& block);

}  // namespace papyrus::activity

#endif  // PAPYRUS_ACTIVITY_PERSISTENCE_H_
