#ifndef PAPYRUS_ACTIVITY_PERSISTENCE_H_
#define PAPYRUS_ACTIVITY_PERSISTENCE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

#include "activity/design_thread.h"
#include "base/clock.h"
#include "base/strings.h"
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
/// scan as every journal (storage::ScanJournal) — a truncated tail, a
/// checksummed line that no longer matches, or one whose `~` field fails
/// its strict decode drops that line and everything after it, reported
/// through `RestoreStats`. Each verified line is parsed as it is read,
/// by the FieldCursor line parsers WAL replay uses too. Version-1
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
// The write-ahead log journals self-describing *state* records in the byte
// formats the sections use, one record at a time, so replay applies exact
// serialized states instead of re-executing logic. That is what keeps
// recovery byte-identical at any crash point. A section line and a WAL
// record are read by the same FieldCursor line parsers.

/// Joins the section lines of one history node or cache entry into a WAL
/// record (WAL version 4). No line holds `|` as a field: tags and numbers
/// never are, and every string field starts with `~`.
inline constexpr std::string_view kRecordLineSeparator = " | ";

/// One database record as its section `object ...` line (no checksum, no
/// trailing newline): the body of an `object` WAL record.
std::string EncodeObjectRecord(const oct::ObjectRecord& rec);

/// Parses an `object ...` line, its tag included.
Result<oct::ObjectRecord> ParseObjectRecord(FieldCursor& fields);

/// Serializes one database shard as a standalone `papyrus-db 2` snapshot
/// (the delta-snapshot section format).
std::string SerializeDatabaseShard(const oct::OctDatabase& db, int shard);

/// Restores snapshot text into an existing database (shards restore one
/// by one into the same instance). Records arrive through
/// `OctDatabase::RestoreRecord`, so version order per name still holds.
Status RestoreDatabaseInto(const std::string& text, oct::OctDatabase* db,
                           RestoreStats* stats = nullptr);

/// `head` (`thr <thread id>`) followed by the node's thread-section lines
/// (`node`/`parents`/`children`/`record`/`rin`/`rout`/`step`/`sin`/
/// `sout`), each behind kRecordLineSeparator: the body of a `thr` record.
std::string NodeRecord(std::string_view head, const HistoryNode& node);

/// Parses the one node a `thr` record carries after its head fields
/// (`lines`, the rest of the body) through the thread section's line
/// parser. Logs of WAL versions 1-3 carried the lines as one `~` field
/// holding the newline-ended block, which is decoded strictly and split
/// on newlines first.
Result<HistoryNode> ParseNodeRecord(std::string_view lines, int wal_version);

/// `head` (`cput`) followed by the entry's cache-section lines (`entry`/
/// `ein`/`eout`/`ckey`, index 0), each behind kRecordLineSeparator: the
/// body of a `cput` record.
std::string CacheEntryRecord(std::string_view head,
                             const cache::CacheEntry& entry);

/// Parses the one entry a `cput` record carries after its tag, as
/// ParseNodeRecord does a node.
Result<cache::CacheEntry> ParseCacheEntryRecord(std::string_view lines,
                                                int wal_version);

}  // namespace papyrus::activity

#endif  // PAPYRUS_ACTIVITY_PERSISTENCE_H_
