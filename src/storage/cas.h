#ifndef PAPYRUS_STORAGE_CAS_H_
#define PAPYRUS_STORAGE_CAS_H_

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <unordered_set>
#include <vector>

#include "base/mutex.h"
#include "base/result.h"
#include "base/status.h"
#include "obs/observability.h"
#include "storage/journal.h"

namespace papyrus::storage {

/// One output an entry carries: the blob is stored once under its SHA-256
/// and shared by every entry that produced identical bytes.
struct CasOutput {
  std::string name_hint;  // output object base name ("cell.layout")
  bool visible = true;    // false: rematerialized intermediate
  std::string blob_hash;  // lowercase-hex SHA-256 of the blob bytes
  int64_t size_bytes = 0;
};

/// Provenance metadata kept with an entry so a fetch can rebuild a full
/// session-cache entry (and the shell can display where a hit came from).
struct CasEntryMeta {
  std::string tool;
  std::string tool_version;
  std::string canonical_options;
  uint64_t seed_salt = 0;
  int64_t cost_micros = 0;  // virtual cost the hit elides
};

/// An output handed back by Fetch: metadata plus the verified blob bytes.
struct CasFetchedOutput {
  std::string name_hint;
  bool visible = true;
  std::string blob_hash;
  std::string bytes;
};

struct CasFetchResult {
  CasEntryMeta meta;
  std::vector<CasFetchedOutput> outputs;
};

/// What Publish stores for one output.
struct CasPublishOutput {
  std::string name_hint;
  bool visible = true;
  std::string bytes;  // canonical payload text (oct::EncodePayloadText)
};

/// Point-in-time statistics snapshot (mirrored into papyrus.cas.*).
struct CasStats {
  int64_t hits = 0;            // fetches that returned verified outputs
  int64_t misses = 0;          // fetches with no entry for the key
  int64_t published = 0;       // new entries accepted by Publish
  int64_t dedup_bytes = 0;     // blob bytes NOT written because the blob
                               // already existed (cross-entry sharing)
  int64_t bytes_written = 0;   // blob bytes physically written
  int64_t evicted_entries = 0;
  int64_t evicted_bytes = 0;   // blob bytes freed by eviction
  int64_t verify_failures = 0; // blobs whose bytes no longer matched
                               // their hash at fetch time
  int64_t orphans_collected = 0;  // crash-orphaned blob files GC'd at Open
  int64_t neg_hits = 0;        // lookups short-circuited by the
                               // negative-entry cache (known-absent keys)
  int64_t neg_entries = 0;     // keys currently negative-cached
  int64_t journal_syncs = 0;   // journal commits made durable (one fsync
                               // each) by this instance
  // Current store shape:
  int64_t entries = 0;
  int64_t blobs = 0;
  int64_t live_blobs = 0;       // blobs referenced by >= 2 entries
  int64_t evictable_blobs = 0;  // blobs referenced by exactly 1 entry
  int64_t total_bytes = 0;      // summed unique blob bytes on disk
};

struct CasOptions {
  /// Evict least-recently-used entries once unique blob bytes exceed this
  /// budget (0 = unlimited). Blobs are deleted only when no surviving
  /// entry references them.
  int64_t size_budget_bytes = 0;
  /// Compact the journal into the checkpoint once it holds this many
  /// lines (every process's appends count).
  int64_t checkpoint_interval = 256;
};

/// Concurrency-safe, ref-counted, content-addressed store for derivation
/// outputs, shared across sessions, users, and daemon restarts.
///
/// On-disk layout under `root` (a storage::Journal plus blob files):
///   cas.state            atomic checkpoint (write-rename-fsync)
///   cas.journal          checksummed append-only journal over the
///                        checkpoint (put/del/touch records)
///   cas.lock             flock serializing processes that share `root`
///   blobs/<hh>/<sha256>  one file per unique output payload
///
/// Durability protocol: blob files land first (each written atomically),
/// then the journal line that makes the entry exist is appended and
/// fsynced. A crash between the two leaves orphan blobs, which Open()
/// garbage-collects after recovering the index from checkpoint +
/// longest-valid journal prefix. Blob ref-counts are derived state — an
/// entry's `put` / `del` journal records ARE the journaled ref-count
/// updates — so the store can never recover an inconsistent count.
///
/// Several processes (papyrusd `--worker` siblings) may open one root:
/// every operation takes the flock and folds in the records siblings
/// appended — rebuilding from the checkpoint after a sibling compacted —
/// before it reads or appends, so no process's compaction drops another's
/// entries and no orphan sweep takes a blob another process references.
///
/// Thread contract: all public methods lock the internal mutex; Fetch
/// copies blob bytes out under the lock, so concurrent eviction can never
/// yank bytes from under a reader.
class ContentStore {
 public:
  static Result<std::unique_ptr<ContentStore>> Open(
      const std::string& root, const CasOptions& options = {});

  ~ContentStore();
  ContentStore(const ContentStore&) = delete;
  ContentStore& operator=(const ContentStore&) = delete;

  /// Stores `outputs` under `key`. Idempotent in content: when `key`
  /// already holds the same blobs, no blob is written, but a `touch`
  /// journal record (fsynced) marks the entry most recently used, and the
  /// bytes count as deduplication; different blobs replace the entry.
  /// Blobs whose bytes already exist in the store are shared, not
  /// rewritten. May evict other entries to honor the size budget — never
  /// the one just published.
  Status Publish(const std::string& key, const CasEntryMeta& meta,
                 const std::vector<CasPublishOutput>& outputs)
      PAPYRUS_EXCLUDES(mu_);

  /// Looks up `key`, re-reads every blob, and verifies its SHA-256 before
  /// returning the bytes. NotFound on a miss. On verification failure the
  /// damaged entry is dropped from the store (so the caller re-runs the
  /// tool and republishes clean bytes) and Aborted is returned — corrupt
  /// bytes are never handed out. A hit refreshes the entry's LRU position
  /// durably (journaled `touch`).
  ///
  /// Misses feed a bounded negative-entry cache: a key known to be absent
  /// short-circuits subsequent probes (sessions re-probe the same absent
  /// derivation key on every task retry) without touching the index.
  /// Publish invalidates the key, so a negative entry can never mask a
  /// later publication.
  Result<CasFetchResult> Fetch(const std::string& key) PAPYRUS_EXCLUDES(mu_);

  /// True iff an entry exists (no verification, no LRU refresh). Consults
  /// and feeds the negative-entry cache like Fetch.
  bool Contains(const std::string& key) PAPYRUS_EXCLUDES(mu_);

  /// The subset of `keys` the store holds no entry for, after one sync
  /// with siblings under one lock. Writes no journal line, refreshes no
  /// LRU position, and neither consults nor feeds the negative-entry
  /// cache: a reopened session asks it which restored derivations to
  /// publish. When the sync fails, every key is reported.
  std::unordered_set<std::string> Missing(const std::vector<std::string>& keys)
      PAPYRUS_EXCLUDES(mu_);

  /// Compacts the journal into the checkpoint immediately.
  Status Checkpoint() PAPYRUS_EXCLUDES(mu_);

  CasStats stats() PAPYRUS_EXCLUDES(mu_);

  /// Attaches trace + metrics sinks (papyrus.cas.* counters/gauges).
  void set_observability(const obs::Observability& obs) PAPYRUS_EXCLUDES(mu_);

  const std::string& root() const { return root_; }

 private:
  struct Entry {
    CasEntryMeta meta;
    std::vector<CasOutput> outputs;
    int64_t lru_seq = 0;  // monotonic use sequence (not wall clock)
  };
  struct Blob {
    int64_t size_bytes = 0;
    int64_t refs = 0;
  };

  ContentStore(std::string root, const CasOptions& options);

  /// Journal visitor: applies one checkpoint or journal line (put/del/
  /// touch/seq) to the index. Runs inside journal_ calls made under mu_.
  void ReplayLine(std::string_view line) PAPYRUS_NO_THREAD_SAFETY_ANALYSIS;
  /// Journal reload hook: a sibling checkpointed; forget the index.
  void ClearIndex() PAPYRUS_NO_THREAD_SAFETY_ANALYSIS;
  Status CollectOrphans() PAPYRUS_REQUIRES(mu_);
  /// Writes the index as the checkpoint and resets the journal.
  Status Compact() PAPYRUS_REQUIRES(mu_);
  Status MaybeCheckpoint() PAPYRUS_REQUIRES(mu_);

  /// Inserts `entry` under `key` into the in-memory index, bumping blob
  /// refs. The caller has already durably journaled it.
  void IndexEntry(const std::string& key, Entry entry) PAPYRUS_REQUIRES(mu_);
  /// Removes an entry, dropping blob refs. With `journal` (this process
  /// decides the drop) it is journaled first and blob files whose last
  /// reference went are deleted; replay (false) only adjusts the index.
  /// Returns the blob bytes freed.
  int64_t DropEntry(const std::string& key, bool journal)
      PAPYRUS_REQUIRES(mu_);
  /// Evicts LRU entries until `total_bytes_` fits the budget; `keep` is
  /// never evicted.
  void EnforceBudget(const std::string& keep) PAPYRUS_REQUIRES(mu_);

  /// Negative-entry cache plumbing: returns true (and counts a neg hit)
  /// when `key` is known absent; otherwise false.
  bool NegativeHit(const std::string& key) PAPYRUS_REQUIRES(mu_);
  /// Records `key` as known-absent, evicting the oldest negative entry
  /// once the cache is full.
  void RememberAbsent(const std::string& key) PAPYRUS_REQUIRES(mu_);

  std::string BlobPath(const std::string& hash) const;
  static std::string PutRecord(const std::string& key, const Entry& entry);

  void RefreshGauges() PAPYRUS_REQUIRES(mu_);

  const std::string root_;
  const CasOptions options_;

  base::Mutex mu_;
  std::map<std::string, Entry> entries_ PAPYRUS_GUARDED_BY(mu_);
  std::map<std::string, Blob> blobs_ PAPYRUS_GUARDED_BY(mu_);
  /// Keys proven absent since the last Publish that named them. FIFO
  /// bounded; the deque may carry stale keys Publish already invalidated
  /// (membership lives in the set, eviction skips strays).
  std::set<std::string> negative_ PAPYRUS_GUARDED_BY(mu_);
  std::deque<std::string> negative_fifo_ PAPYRUS_GUARDED_BY(mu_);
  int64_t total_bytes_ PAPYRUS_GUARDED_BY(mu_) = 0;
  int64_t next_lru_seq_ PAPYRUS_GUARDED_BY(mu_) = 1;
  Journal journal_ PAPYRUS_GUARDED_BY(mu_);
  CasStats stats_ PAPYRUS_GUARDED_BY(mu_);

  obs::Observability obs_ PAPYRUS_GUARDED_BY(mu_);
  obs::Counter* c_hits_ PAPYRUS_GUARDED_BY(mu_) = nullptr;
  obs::Counter* c_misses_ PAPYRUS_GUARDED_BY(mu_) = nullptr;
  obs::Counter* c_published_ PAPYRUS_GUARDED_BY(mu_) = nullptr;
  obs::Counter* c_dedup_bytes_ PAPYRUS_GUARDED_BY(mu_) = nullptr;
  obs::Counter* c_bytes_written_ PAPYRUS_GUARDED_BY(mu_) = nullptr;
  obs::Counter* c_evicted_entries_ PAPYRUS_GUARDED_BY(mu_) = nullptr;
  obs::Counter* c_evicted_bytes_ PAPYRUS_GUARDED_BY(mu_) = nullptr;
  obs::Counter* c_verify_failures_ PAPYRUS_GUARDED_BY(mu_) = nullptr;
  obs::Counter* c_orphans_ PAPYRUS_GUARDED_BY(mu_) = nullptr;
  obs::Counter* c_neg_hits_ PAPYRUS_GUARDED_BY(mu_) = nullptr;
  obs::Gauge* g_entries_ PAPYRUS_GUARDED_BY(mu_) = nullptr;
  obs::Gauge* g_blobs_ PAPYRUS_GUARDED_BY(mu_) = nullptr;
  obs::Gauge* g_bytes_ PAPYRUS_GUARDED_BY(mu_) = nullptr;
};

}  // namespace papyrus::storage

#endif  // PAPYRUS_STORAGE_CAS_H_
