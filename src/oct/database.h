#ifndef PAPYRUS_OCT_DATABASE_H_
#define PAPYRUS_OCT_DATABASE_H_

#include <array>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "base/clock.h"
#include "base/intern.h"
#include "base/result.h"
#include "base/status.h"
#include "base/thread_annotations.h"
#include "obs/observability.h"
#include "oct/design_data.h"
#include "oct/object_id.h"

namespace papyrus::oct {

/// One immutable version of a design object plus its bookkeeping state.
struct ObjectRecord {
  ObjectId id;
  DesignPayload payload;
  std::string creator_tool;  // tool that produced this version ("" = user)
  int64_t created_micros = 0;
  int64_t last_access_micros = 0;
  int64_t size_bytes = 0;
  bool visible = true;     // LWT visibility: "deleted" objects are invisible
  bool reclaimed = false;  // payload physically freed by object reclamation
  /// Reclamation protection: >0 means some manager (the derivation cache)
  /// still references this version's payload; Reclaim refuses. Runtime
  /// state, not persisted — pin holders re-establish pins on restore.
  int pin_count = 0;
  /// Memoized PayloadContentHash (payloads are immutable once created).
  /// Empty until OctDatabase::ContentHash first computes it. Runtime
  /// state, never persisted.
  std::string content_hash;
};

/// The design database substrate (stands in for Berkeley OCT).
///
/// The LWT model (§3.2) assumes only these properties of the database:
///  - every object is uniquely identified and versions are system-assigned;
///  - updates follow single-assignment semantics (new versions, never
///    in-place);
///  - a design step's database side effects are atomic (see Transaction);
///  - "deleting" an object makes it *invisible*; a background reclaimer may
///    later free the storage (§3.3.1, §5.4).
///
/// Thread workspaces and synchronization data spaces (src/activity,
/// src/sync) are *views* over this store: they hold sets of ObjectIds and
/// never duplicate payloads.
///
/// Storage layout: records live in kShardCount shards keyed by the
/// *cell* prefix of the object name, so the storage engine can persist
/// only the shards a commit dirtied instead of rewriting one giant map,
/// and independent cells stop contending on one hash table. Names are
/// interned (base::InternTable): shard maps hash a 4-byte Symbol and one
/// arena-backed copy of every `cell:view:facet` string exists per
/// database. The database keeps a drain list of records touched since
/// the last write-ahead-log commit; the session glue (src/core) notes
/// the ShardOf of every record it journals, which is how a generation
/// knows the shards to rewrite.
///
/// Thread contract: the store is engine-owned and unlocked. Every
/// mutating call (version creation, visibility flips, reclamation,
/// pinning, restore — and `Get`, which bumps the access time) carries
/// PAPYRUS_REQUIRES(base::engine_thread); the const views (`Peek`,
/// `LatestVisible`, `PayloadBytes`, ...) are what step-executor workers
/// may read through dispatch-time snapshots.
class OctDatabase {
 public:
  /// Cell-shard fan-out. A power of two so ShardOf is a mask.
  static constexpr int kShardCount = 16;

  /// The shard holding every version of every object of `name`'s cell
  /// (the prefix before the first ':' or '.'; the whole name when it has
  /// neither).
  static int ShardOf(std::string_view name);

  explicit OctDatabase(Clock* clock);

  OctDatabase(const OctDatabase&) = delete;
  OctDatabase& operator=(const OctDatabase&) = delete;

  /// Creates the next version of `name` holding `payload`.
  /// The version number is allocated by the database (§3.2).
  Result<ObjectId> CreateVersion(const std::string& name,
                                 DesignPayload payload,
                                 const std::string& creator_tool = "")
      PAPYRUS_REQUIRES(base::engine_thread);

  /// Looks up a specific version. Fails as CheckReadable does.
  /// Updates the record's last-access time (hence engine-only).
  Result<const ObjectRecord*> Get(const ObjectId& id)
      PAPYRUS_REQUIRES(base::engine_thread);

  /// OK when Get would return the version: NotFound for unknown ids,
  /// invisible ("deleted") versions, and reclaimed versions. Bumps no
  /// access time, so it journals nothing.
  Status CheckReadable(const ObjectId& id) const;

  /// Looks up without updating access time or filtering invisible records.
  /// Used by managers that need bookkeeping state (reclaimer, renderers).
  Result<const ObjectRecord*> Peek(const ObjectId& id) const;

  /// Cached byte footprint of a version's payload (0 when the version
  /// does not exist). O(1): reads the size computed at creation, never
  /// touching the payload, the access time, or visibility — hot on the
  /// step-dispatch path (tool cost model, derivation-cache sizing).
  int64_t PayloadBytes(const ObjectId& id) const;

  /// Lowercase-hex SHA-256 content identity of a version's payload,
  /// memoized on the record (payloads are immutable). Fails with NotFound
  /// for unknown ids and FailedPrecondition for reclaimed versions (their
  /// payload bytes are gone, so they have no content anymore). Engine-only
  /// because it writes the memo field.
  Result<std::string> ContentHash(const ObjectId& id)
      PAPYRUS_REQUIRES(base::engine_thread);

  /// Latest *visible* version of `name`, or NotFound.
  Result<ObjectId> LatestVisible(const std::string& name) const;

  /// Number of versions ever created for `name` (including invisible ones).
  int VersionCount(const std::string& name) const;

  /// Marks a version invisible ("delete" under the visibility abstraction).
  Status MarkInvisible(const ObjectId& id)
      PAPYRUS_REQUIRES(base::engine_thread);

  /// Undeletes a version, provided it has not been physically reclaimed.
  Status MarkVisible(const ObjectId& id)
      PAPYRUS_REQUIRES(base::engine_thread);

  /// Physically frees a version's payload. Keeps a tombstone so history
  /// remains self-describing. Irreversible. A pinned version first gives
  /// the pin holder a chance to release its claim (see
  /// set_pinned_reclaim_handler); if the version is still pinned after
  /// that, Reclaim refuses with FailedPrecondition.
  Status Reclaim(const ObjectId& id) PAPYRUS_REQUIRES(base::engine_thread);

  /// Reclamation protection for versions some manager still depends on.
  /// Pins nest; Unpin of an unpinned or unknown version is a no-op.
  Status Pin(const ObjectId& id) PAPYRUS_REQUIRES(base::engine_thread);
  void Unpin(const ObjectId& id) PAPYRUS_REQUIRES(base::engine_thread);
  bool IsPinned(const ObjectId& id) const;

  /// Called by Reclaim when it encounters a pinned version, so the pin
  /// holder (the derivation cache) can invalidate dependent state and
  /// release the pin instead of vetoing reclamation. One holder at a time;
  /// pass nullptr to unregister.
  void set_pinned_reclaim_handler(std::function<void(const ObjectId&)> fn)
      PAPYRUS_REQUIRES(base::engine_thread) {
    pinned_reclaim_handler_ = std::move(fn);
  }

  /// Sum of payload bytes of all non-reclaimed versions.
  int64_t TotalLiveBytes() const;
  /// Total number of non-reclaimed versions.
  int64_t LiveVersionCount() const;
  /// Total number of versions ever created.
  int64_t TotalVersionCount() const { return total_versions_; }

  /// Visits every record (including invisible and reclaimed ones).
  void ForEach(
      const std::function<void(const ObjectRecord&)>& fn) const;

  /// Re-inserts a record with its exact id and bookkeeping state; used by
  /// the persistence layer (§5.3: the history is stored persistently for
  /// inter-process communication and crash recovery). Records of one name
  /// must be restored in version order.
  Status RestoreRecord(ObjectRecord record)
      PAPYRUS_REQUIRES(base::engine_thread);

  /// Applies one journaled record state: replaces the slot when the
  /// version exists, appends when it is the next version, fails when it
  /// would leave a gap. WAL replay (src/core) funnels through this —
  /// replay applies exact serialized states, never re-executes logic,
  /// which is what keeps recovery byte-identical. Replaced slots keep
  /// their runtime-only state (pin count, content-hash memo).
  Status UpsertRecord(ObjectRecord record)
      PAPYRUS_REQUIRES(base::engine_thread);

  // --- storage-engine hooks ----------------------------------------------

  /// Visits every record of one shard (including invisible and reclaimed
  /// ones), in unspecified order.
  void ForEachShard(
      int shard, const std::function<void(const ObjectRecord&)>& fn) const;

  /// Visits the records dirtied since the last drain in first-dirtied
  /// order (deterministic: mutations happen only on the engine thread),
  /// then clears the dirty set. Each record is visited once with its
  /// *current* state.
  void DrainWalDirt(const std::function<void(const ObjectRecord&)>& fn)
      PAPYRUS_REQUIRES(base::engine_thread);

  /// Clears the dirty set without visiting (after a restore or WAL
  /// replay, whose records are already durable).
  void DiscardWalDirt() PAPYRUS_REQUIRES(base::engine_thread);

  /// Interning diagnostics.
  size_t interned_names() const { return names_.size(); }
  size_t intern_arena_bytes() const { return names_.arena_bytes(); }

  Clock* clock() const { return clock_; }

  /// Attaches trace + metrics sinks: version allocations and reclamations
  /// become session-track instants and papyrus.oct.* counters, with the
  /// live-bytes gauge tracking TotalLiveBytes incrementally.
  void set_observability(const obs::Observability& obs)
      PAPYRUS_REQUIRES(base::engine_thread);

 private:
  struct Shard {
    // interned name -> versions, index i holds version i+1.
    std::unordered_map<base::Symbol, std::vector<ObjectRecord>> objects;
  };

  ObjectRecord* Find(const ObjectId& id);
  const ObjectRecord* Find(const ObjectId& id) const;
  /// CheckReadable of `rec`, the record Find returned for `id`.
  static Status Readable(const ObjectRecord* rec, const ObjectId& id);
  /// Records a persisted-state mutation of (sym, version) for the WAL
  /// drain.
  void MarkDirty(base::Symbol sym, int version);
  Status InsertRecord(ObjectRecord record);

  /// Trace thread id for OCT events under the session process group.
  static constexpr int64_t kOctTrackTid = 1;

  Clock* clock_;
  base::InternTable names_;
  std::array<Shard, kShardCount> shards_;
  // WAL drain state: (symbol, version) pairs in first-dirtied order.
  std::vector<std::pair<base::Symbol, int>> wal_dirty_;
  std::unordered_set<uint64_t> wal_dirty_keys_;
  std::function<void(const ObjectId&)> pinned_reclaim_handler_;
  int64_t total_versions_ = 0;
  obs::Observability obs_;
  obs::Counter* c_versions_created_ = nullptr;
  obs::Counter* c_reclaimed_ = nullptr;
  obs::Gauge* g_live_bytes_ = nullptr;
};

/// Buffers the object creations of one design step and applies them
/// atomically (§3.3.1: a design step is an indivisible operation against
/// the design data space; atomicity within a tool run is the database's
/// job, not the LWT model's).
class Transaction {
 public:
  explicit Transaction(OctDatabase* db) : db_(db) {}

  /// Stages creation of the next version of `name`.
  void StageCreate(const std::string& name, DesignPayload payload,
                   const std::string& creator_tool);

  /// Applies all staged creations; returns the ids created, in staging
  /// order. After Commit the transaction is empty and reusable.
  Result<std::vector<ObjectId>> Commit()
      PAPYRUS_REQUIRES(base::engine_thread);

  /// Discards staged work.
  void Abort() { staged_.clear(); }

  size_t staged_count() const { return staged_.size(); }

 private:
  struct Staged {
    std::string name;
    DesignPayload payload;
    std::string creator_tool;
  };
  OctDatabase* db_;
  std::vector<Staged> staged_;
};

}  // namespace papyrus::oct

#endif  // PAPYRUS_OCT_DATABASE_H_
