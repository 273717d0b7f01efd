#ifndef PAPYRUS_CACHE_DERIVATION_CACHE_H_
#define PAPYRUS_CACHE_DERIVATION_CACHE_H_

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "base/mutex.h"
#include "base/thread_annotations.h"
#include "obs/observability.h"
#include "oct/database.h"
#include "oct/design_data.h"
#include "oct/object_id.h"
#include "storage/cas.h"

namespace papyrus::cache {

/// One output version recorded by a cached derivation, together with its
/// visibility at commit time: a version that was visible then was a
/// task-level output, an invisible one was a discarded intermediate. A hit
/// requires task-level outputs to *still* be visible (a later deletion is
/// a rework signal), while intermediates only need to exist un-reclaimed —
/// they are rematerialized (made visible again) for the reusing task.
struct CachedOutput {
  oct::ObjectId id;
  bool visible = true;
};

/// One memoized design step: the full cache key components plus the
/// recorded outcome. Keeping the components (not just the derived key)
/// makes entries self-describing for persistence and diagnostics.
struct CacheEntry {
  std::string tool;
  std::string tool_version;
  /// Option string with the actual input/output object names replaced by
  /// positional placeholders ($i<k>/$o<k>), so per-execution intermediate
  /// name decoration does not defeat matching across task runs.
  std::string canonical_options;
  /// Deterministic seed component of the invocation (base invocation seed
  /// mixed with scope/step-name/canonical-options), part of the key: two
  /// invocations that would feed different seeds to the tool are
  /// different derivations.
  uint64_t seed_salt = 0;
  std::vector<oct::ObjectId> inputs;  // ordered, as dispatched
  std::vector<CachedOutput> outputs;  // recorded committed versions
  /// Virtual execution cost of the original run (completion - dispatch);
  /// credited to `micros_saved` on every hit.
  int64_t cost_micros = 0;
  int64_t recorded_micros = 0;  // commit time of the recording task
  /// Session-independent content-addressed key: SHA-256 over the tool
  /// identity, canonical options, seed salt, and the *content hashes* of
  /// the inputs (not their session-local version numbers). The same step
  /// derives the same content_key in any session, for any user, across
  /// daemon restarts — it is what the shared store is keyed by. Empty when
  /// content hashing was unavailable (an entry restored from a v2
  /// cache.pdc, or one rebuilt from a shared-store hit, which the store
  /// already holds).
  std::string content_key;
};

/// Counters exposed through the task manager and the shell `cache`
/// command.
struct CacheStats {
  int64_t hits = 0;
  int64_t misses = 0;
  int64_t recorded = 0;     // entries added (or replaced) at task commit
  int64_t invalidated = 0;  // entries dropped by reclamation/rework/clear
  int64_t micros_saved = 0;  // summed virtual cost of elided steps
  /// Shared-store fallthrough, counted per session (the attached
  /// ContentStore keeps its own global papyrus.cas.* counters):
  int64_t shared_hits = 0;    // session misses served by the shared store
  int64_t shared_misses = 0;  // fallthroughs that found nothing there
};

/// One output rebuilt from a shared-store hit: the decoded payload plus
/// the naming/visibility metadata needed to bind it into this session's
/// OCT namespace as a fresh version.
struct SharedFetchedOutput {
  std::string name_hint;
  bool visible = true;
  oct::DesignPayload payload;
};

/// A verified, decoded shared-store hit.
struct SharedFetch {
  int64_t cost_micros = 0;  // virtual cost the hit elides
  std::vector<SharedFetchedOutput> outputs;
};

/// The history-based derivation cache (the tentpole of this change): a
/// content-addressed index over committed history, keyed by
/// (tool, tool version, canonicalized options, seed salt, ordered input
/// versions) and mapping to the recorded output versions.
///
/// Population happens only at task commit — aborted tasks and superseded
/// restart attempts never pollute the cache. Every recorded output
/// version is pinned in the database so background reclamation cannot
/// silently free a payload the cache might serve; the reclamation manager
/// notifies the cache first (`OnVersionReclaimed`), which drops the
/// affected entries and releases the pins. Explicit rework that erases
/// history (`ActivityManager::MoveCursor` with erase) likewise invalidates
/// through `OnRework`.
///
/// Thread contract: lookups and mutations are serialized by the internal
/// `mu_` (all cached state is PAPYRUS_GUARDED_BY(mu_)), so concurrent
/// readers (e.g. threads sharing a session while the engine runs with a
/// worker pool) are safe. Entry points that reach into the OctDatabase
/// (pinning, visibility peeks) additionally carry
/// PAPYRUS_REQUIRES(base::engine_thread): the database is engine-owned,
/// and under the parallel step executor the engine thread remains the
/// only caller — probes happen at dispatch, population at commit, both
/// engine-side. The pointer returned by `Probe` is only valid until the
/// next mutating call, so callers must consume it before re-entering the
/// cache.
class DerivationCache {
 public:
  explicit DerivationCache(oct::OctDatabase* db) : db_(db) {
    base::AssertEngineThread("DerivationCache::DerivationCache");
    // Direct Reclaim callers (not just the reclamation manager) must also
    // invalidate: the database calls back when it hits a pinned version.
    // Reclaim is engine-only, so the handler runs on the engine thread.
    db_->set_pinned_reclaim_handler([this](const oct::ObjectId& id) {
      base::AssertEngineThread("DerivationCache pinned-reclaim handler");
      OnVersionReclaimed(id);
    });
  }

  DerivationCache(const DerivationCache&) = delete;
  DerivationCache& operator=(const DerivationCache&) = delete;

  ~DerivationCache() {
    // Vouch locally instead of annotating the destructor: REQUIRES on a
    // dtor would propagate into every owner's (often implicit) dtor.
    base::AssertEngineThread("DerivationCache::~DerivationCache");
    {
      // Teardown is not a removal: the entries stay recorded wherever
      // the session journaled them, so no `cdel` dirt is built for them
      // and no invalidation counted. Only the database pins are released.
      base::MutexLock lock(mu_);
      for (const auto& [key, slot] : entries_) {
        for (const CachedOutput& out : slot.entry.outputs) db_->Unpin(out.id);
      }
    }
    db_->set_pinned_reclaim_handler(nullptr);
  }

  // --- key derivation ----------------------------------------------------

  /// Replaces every option word equal to an actual input/output object
  /// name with its positional placeholder ($i<k>/$o<k>).
  static std::string CanonicalizeOptions(
      const std::string& options,
      const std::vector<std::string>& input_names,
      const std::vector<std::string>& output_names);

  /// Builds the session-local key string from its components (inputs by
  /// session version number).
  static std::string MakeKey(const std::string& tool,
                             const std::string& tool_version,
                             const std::string& canonical_options,
                             uint64_t seed_salt,
                             const std::vector<oct::ObjectId>& inputs);

  /// Builds the session-independent shared-store key: SHA-256 over the
  /// tool identity, options, salt, and the input payloads' content hashes
  /// (ordered as dispatched).
  static std::string MakeContentKey(
      const std::string& tool, const std::string& tool_version,
      const std::string& canonical_options, uint64_t seed_salt,
      const std::vector<std::string>& input_content_hashes);

  // --- shared store ------------------------------------------------------

  /// Attaches (or detaches, with nullptr) a shared content-addressed
  /// store. Session-cache misses then fall through to it, and committed
  /// derivations are published into it.
  ///
  ///  - `auto_publish` (standalone sessions): Record() publishes
  ///    immediately — a commit is this process's durability point.
  ///  - `!auto_publish` (papyrusd): entries queue as unpublished until
  ///    FlushSharedPublications(), which the daemon calls only after the
  ///    session save durably landed. Publishing after — never before —
  ///    the save keeps crashy and crash-free runs byte-identical: a
  ///    task that re-runs after a crash sees exactly the store its
  ///    durably-committed predecessors built, nothing more.
  ///  - Either way, Restore() queues: a reopen (Papyrus::OpenStorage)
  ///    ends with one flush, which publishes only the restored keys the
  ///    store lacks.
  ///  - `probe`: when false the store is write-through only (published to,
  ///    never fetched from) — used by benches/CI to re-derive content
  ///    independently and measure deduplication.
  void AttachSharedStore(storage::ContentStore* store, bool auto_publish,
                         bool probe = true)
      PAPYRUS_REQUIRES(base::engine_thread) PAPYRUS_EXCLUDES(mu_);

  storage::ContentStore* shared_store() const PAPYRUS_EXCLUDES(mu_) {
    base::MutexLock lock(mu_);
    return store_;
  }

  /// Probes the shared store for `content_key` and decodes the payloads.
  /// Returns nullopt — and the caller just runs the tool — when no store
  /// is attached, probing is disabled, the key is absent, blob
  /// verification failed (the store drops the damaged entry itself), or
  /// payload decoding failed. Never returns unverified bytes.
  std::optional<SharedFetch> ProbeShared(const std::string& content_key)
      PAPYRUS_REQUIRES(base::engine_thread) PAPYRUS_EXCLUDES(mu_);

  /// Publishes the queued entries (recorded while auto_publish was off,
  /// or restored) whose content keys the store lacks, asked in one batch
  /// (ContentStore::Missing); a held key is neither touched nor replaced.
  /// Free on an empty queue. The daemon calls this right after each
  /// durable session save, and every reopen ends with it.
  void FlushSharedPublications()
      PAPYRUS_REQUIRES(base::engine_thread) PAPYRUS_EXCLUDES(mu_);

  // --- lookup ------------------------------------------------------------

  /// Returns the entry for `key` when present and still servable: every
  /// recorded output exists un-reclaimed, and outputs that were visible at
  /// commit are still visible. It must also serve the probing step, which
  /// writes `output_names`: one recorded output per name, and an output
  /// that was visible at commit (a task-level output) only under its own
  /// name — another name asks for another object, which this entry does
  /// not hold. Counts a hit (crediting `micros_saved`) or a miss. Returns
  /// nullptr without counting when the cache is disabled. The returned
  /// pointer is invalidated by any mutating call.
  const CacheEntry* Probe(const std::string& key,
                          const std::vector<std::string>& output_names)
      PAPYRUS_REQUIRES(base::engine_thread) PAPYRUS_EXCLUDES(mu_);

  // --- population --------------------------------------------------------

  /// Records one committed derivation under `key`, replacing any previous
  /// entry. Snapshots each output's current visibility and pins the
  /// output versions. Returns false (and records nothing) when an output
  /// version does not exist in the database. Counts as `recorded`.
  bool Record(std::string key, CacheEntry entry)
      PAPYRUS_REQUIRES(base::engine_thread) PAPYRUS_EXCLUDES(mu_);

  /// Re-inserts a persisted entry (the key is recomputed from the entry's
  /// own components). Used by snapshot restore and WAL replay; a restored
  /// entry was counted when it was first recorded, so it is not counted
  /// again, and it queues for the next FlushSharedPublications instead of
  /// publishing.
  bool Restore(CacheEntry entry)
      PAPYRUS_REQUIRES(base::engine_thread) PAPYRUS_EXCLUDES(mu_);

  // --- invalidation ------------------------------------------------------

  /// A version is about to be physically reclaimed: drop every entry that
  /// mentions it (as input provenance or output) and release its pins.
  void OnVersionReclaimed(const oct::ObjectId& id)
      PAPYRUS_REQUIRES(base::engine_thread) PAPYRUS_EXCLUDES(mu_);

  /// Explicit rework erased the history that produced `id`: the design
  /// point is re-opened, so derivations through it must re-execute.
  void OnRework(const oct::ObjectId& id)
      PAPYRUS_REQUIRES(base::engine_thread) PAPYRUS_EXCLUDES(mu_);

  /// Drops every entry (counts them as invalidated).
  void Clear() PAPYRUS_REQUIRES(base::engine_thread) PAPYRUS_EXCLUDES(mu_);

  // --- control / introspection -------------------------------------------

  /// A disabled cache misses every probe (uncounted) but still accepts
  /// recordings, so re-enabling serves the history accumulated meanwhile.
  void set_enabled(bool enabled) PAPYRUS_EXCLUDES(mu_) {
    base::MutexLock lock(mu_);
    enabled_ = enabled;
  }
  bool enabled() const PAPYRUS_EXCLUDES(mu_) {
    base::MutexLock lock(mu_);
    return enabled_;
  }

  /// Returns a consistent snapshot of the counters. By value: `stats_` is
  /// guarded by `mu_`, so handing out a reference would let callers read
  /// it unlocked.
  CacheStats stats() const PAPYRUS_EXCLUDES(mu_) {
    base::MutexLock lock(mu_);
    return stats_;
  }
  size_t size() const PAPYRUS_EXCLUDES(mu_) {
    base::MutexLock lock(mu_);
    return entries_.size();
  }

  /// Mirrors the cache statistics into the registry's papyrus.cache.*
  /// counters, catching the mirror up with whatever already accumulated.
  /// The registry must outlive the cache (the destructor's Clear() still
  /// counts invalidations).
  void set_observability(const obs::Observability& obs) PAPYRUS_EXCLUDES(mu_);

  /// Visits every entry (persistence, shell rendering).
  void ForEach(
      const std::function<void(const std::string& key, const CacheEntry&)>&
          fn) const PAPYRUS_EXCLUDES(mu_);

  // --- storage-engine hooks ----------------------------------------------

  /// Visits the removals then the surviving dirtied entries accumulated
  /// since the last drain (first-dirtied order; the entries one
  /// invalidation drops are removed in key order), then clears both
  /// lists. Replay applies removals before upserts, so a replace (drop +
  /// put of one key) reconstructs correctly.
  void DrainWalDirt(
      const std::function<void(const std::string& key)>& removed_fn,
      const std::function<void(const std::string& key,
                               const CacheEntry& entry)>& upsert_fn)
      PAPYRUS_EXCLUDES(mu_);

  /// Clears the dirty lists without visiting (after restore/replay).
  void DiscardWalDirt() PAPYRUS_EXCLUDES(mu_);

  /// WAL replay of a journaled removal: drops the entry (releasing pins)
  /// without counting an invalidation. Missing keys are a no-op.
  void ForgetEntry(const std::string& key)
      PAPYRUS_REQUIRES(base::engine_thread) PAPYRUS_EXCLUDES(mu_);

 private:
  /// One entry plus the bookkeeping of the per-step indexes. The key is
  /// stored once, as the key of `entries_`; every index refers to the
  /// entry through an iterator, which stays valid until DropEntry erases
  /// the entry and, with it, every reference to it.
  struct Slot {
    CacheEntry entry;
    /// Position in `wal_puts_` while the entry awaits its `cput` record.
    size_t wal_put = kNotDirty;
  };
  static constexpr size_t kNotDirty = static_cast<size_t>(-1);
  /// Key-ordered: ForEach writes the cache section in key order.
  using EntryMap = std::map<std::string, Slot>;
  using EntryRef = EntryMap::iterator;
  struct KeyLess {
    bool operator()(EntryRef a, EntryRef b) const {
      return a->first < b->first;
    }
  };

  // Internal bodies, caller holds `mu_` (and the engine role, for the
  // database pin/unpin side effects): they never take the lock
  // themselves, so paths that compose them (Restore -> Record, probe
  // invalidation -> drop) stay recursion-free.
  void DropEntry(EntryRef ref) PAPYRUS_REQUIRES(mu_, base::engine_thread);
  /// Adds `ref` to `id`'s list in `by_version_` / removes it from there.
  void IndexVersion(const oct::ObjectId& id, EntryRef ref)
      PAPYRUS_REQUIRES(mu_);
  void UnindexVersion(const oct::ObjectId& id, EntryRef ref)
      PAPYRUS_REQUIRES(mu_);
  void TouchPut(EntryRef ref) PAPYRUS_REQUIRES(mu_);
  void TouchRemoved(const std::string& key) PAPYRUS_REQUIRES(mu_);
  void ClearWalDirt() PAPYRUS_REQUIRES(mu_);
  /// `publish_now`: publish to the shared store at once instead of
  /// queueing for FlushSharedPublications.
  bool RecordLocked(std::string key, CacheEntry entry, bool publish_now)
      PAPYRUS_REQUIRES(mu_, base::engine_thread);
  /// Encodes the entry's output payloads (read from the database) and
  /// publishes them under entry.content_key. No-op for entries without a
  /// content key or outputs that are no longer readable. True when the
  /// store accepted the publication.
  bool PublishSharedLocked(const CacheEntry& entry)
      PAPYRUS_REQUIRES(mu_, base::engine_thread);
  void InvalidateVersionLocked(const oct::ObjectId& id)
      PAPYRUS_REQUIRES(mu_, base::engine_thread);

  /// Serializes every public entry point (see the class thread contract).
  mutable base::Mutex mu_;
  oct::OctDatabase* db_;
  bool enabled_ PAPYRUS_GUARDED_BY(mu_) = true;
  CacheStats stats_ PAPYRUS_GUARDED_BY(mu_);
  obs::Counter* c_hits_ PAPYRUS_GUARDED_BY(mu_) = nullptr;
  obs::Counter* c_misses_ PAPYRUS_GUARDED_BY(mu_) = nullptr;
  obs::Counter* c_recorded_ PAPYRUS_GUARDED_BY(mu_) = nullptr;
  obs::Counter* c_invalidated_ PAPYRUS_GUARDED_BY(mu_) = nullptr;
  obs::Counter* c_micros_saved_ PAPYRUS_GUARDED_BY(mu_) = nullptr;
  EntryMap entries_ PAPYRUS_GUARDED_BY(mu_);
  /// Inverted index: object version -> entries mentioning it (inputs and
  /// outputs), driving O(entries-touched) invalidation. Hashed, so no
  /// order comes from it: an invalidation sorts the entries it drops.
  std::unordered_map<oct::ObjectId, std::vector<EntryRef>> by_version_
      PAPYRUS_GUARDED_BY(mu_);

  /// Shared content-addressed store (not owned; may be nullptr).
  storage::ContentStore* store_ PAPYRUS_GUARDED_BY(mu_) = nullptr;
  bool auto_publish_ PAPYRUS_GUARDED_BY(mu_) = true;
  bool probe_shared_ PAPYRUS_GUARDED_BY(mu_) = true;
  /// Entries recorded while auto_publish was off, or restored, awaiting
  /// FlushSharedPublications (the daemon's post-save publish point, and
  /// the end of every reopen), which publishes them in key order.
  std::set<EntryRef, KeyLess> unpublished_ PAPYRUS_GUARDED_BY(mu_);

  // Storage-engine dirty state, first-dirtied order, deduplicated by key.
  /// Entries awaiting a `cput` record. A dropped entry leaves
  /// `entries_.end()` behind (its position remembered in
  /// `wal_dropped_puts_` by key), which the key takes back if it is
  /// recorded again before the drain, so its record keeps its
  /// first-dirtied position.
  std::vector<EntryRef> wal_puts_ PAPYRUS_GUARDED_BY(mu_);
  std::unordered_map<std::string, size_t> wal_dropped_puts_
      PAPYRUS_GUARDED_BY(mu_);
  std::vector<std::string> wal_removed_keys_ PAPYRUS_GUARDED_BY(mu_);
  std::set<std::string> wal_removed_set_ PAPYRUS_GUARDED_BY(mu_);
};

}  // namespace papyrus::cache

#endif  // PAPYRUS_CACHE_DERIVATION_CACHE_H_
