#ifndef PAPYRUS_CORE_PAPYRUS_H_
#define PAPYRUS_CORE_PAPYRUS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <string_view>
#include <tuple>
#include <vector>

#include "activity/activity_manager.h"
#include "activity/design_thread.h"
#include "activity/persistence.h"
#include "base/clock.h"
#include "cache/derivation_cache.h"
#include "cadtools/registry.h"
#include "meta/inference.h"
#include "meta/tsd.h"
#include "obs/observability.h"
#include "oct/database.h"
#include "sprite/network.h"
#include "storage/cas.h"
#include "storage/engine.h"
#include "storage/reclamation.h"
#include "sync/sds.h"
#include "task/task_manager.h"
#include "tdl/template.h"

namespace papyrus {

/// Session configuration.
struct SessionOptions {
  /// Number of simulated Sprite workstations (host 0 is the home node).
  int num_workstations = 4;
  /// Thread-state cache interval for new design threads (0 disables).
  int cache_interval = 8;
  /// Derive metadata from the design history when it is read
  /// (metadata()); false leaves the metadata engine empty.
  bool metadata_inference = true;
  /// Preload the thesis' example task templates and the standard mock OCT
  /// tool suite + TSDs.
  bool standard_environment = true;
  /// Serve repeated design steps from the history-based derivation cache
  /// instead of re-running the tool (committed history only).
  bool step_cache = true;
  /// Worker threads for the parallel step executor (task/step_executor.h).
  /// 1 = serial: tool payloads run inline on the engine thread, today's
  /// contract. N > 1 = payloads of concurrently in-flight steps execute
  /// speculatively on N threads, with histories, ADG, and snapshot bytes
  /// byte-identical to serial. Defaults to $PAPYRUS_TEST_WORKERS or 1.
  int worker_threads = task::DefaultWorkerThreads();
  /// Headless trace capture: when non-empty, tracing starts enabled and
  /// the Chrome trace_event JSON (Perfetto-loadable, virtual-time
  /// timestamps) is written here when the session is destroyed.
  std::string trace_path;
  /// When non-empty, a JSON metrics snapshot is written here at session
  /// destruction.
  std::string metrics_path;
  /// When non-empty, the session opens (creating if needed) a shared
  /// content-addressed artifact store at this directory and attaches it
  /// to the derivation cache: committed derivations are published for
  /// other sessions, and session-cache misses fall through to it.
  std::string shared_store_path;
  /// Size budget for the shared store's unique blob bytes (0 = unlimited);
  /// only meaningful with `shared_store_path`.
  int64_t shared_store_budget_bytes = 0;
};

/// The Papyrus design-flow-management session: one object wiring together
/// every subsystem the thesis describes —
///
///   - the OCT design database substrate (`database()`),
///   - the Sprite workstation-network simulator (`network()`),
///   - the CAD tool registry (`tools()`) and TDL template library
///     (`templates()`),
///   - the Task Manager (`task_manager()`) and Activity Manager
///     (`activity()`),
///   - thread synchronization through SDSs (`sds()`),
///   - background object reclamation (`reclamation()`),
///   - history-based metadata inference (`metadata()`).
///
/// Virtual time is driven by the network simulator; `clock()` exposes it.
///
/// A session opened on a store (`OpenStorage`) persists its database,
/// design threads, derivation cache, virtual clock, execution ids and
/// applied-request ledger, so reopening it continues the same history.
/// Metadata (the ADG and what is inferred with it) is not persisted: it is
/// a function of the surviving history, derived when it is read.
///
/// Quickstart:
/// ```
/// papyrus::Papyrus session;
/// int thread = session.CreateThread("Shifter-synthesis");
/// auto point = session.Invoke(thread, "Create_Logic_Description",
///                             /*inputs=*/{}, {"shifter.logic"});
/// ```
class Papyrus {
 public:
  explicit Papyrus(const SessionOptions& options = SessionOptions());
  ~Papyrus();

  Papyrus(const Papyrus&) = delete;
  Papyrus& operator=(const Papyrus&) = delete;

  // --- convenience API -----------------------------------------------------

  /// Registers a TDL task template (the script's `task` header names it).
  Status AddTemplate(const std::string& script);

  /// Creates a design thread and returns its id.
  int CreateThread(const std::string& name);

  /// Invokes a task in a thread: resolves `input_refs` in the thread's
  /// data scope (§5.2 naming formats), runs the template and appends the
  /// history record. Returns the new design point.
  Result<activity::NodeId> Invoke(
      int thread_id, const std::string& template_name,
      const std::vector<std::string>& input_refs,
      const std::vector<std::string>& output_names,
      const std::map<std::string, std::string>& option_overrides = {},
      task::TaskObserver* observer = nullptr);

  /// Rework: repositions a thread's current cursor (§3.3.3). With `erase`,
  /// the branch toward the old cursor is deleted (Figure 3.6).
  Status MoveCursor(int thread_id, activity::NodeId point,
                    bool erase = false);

  /// Creates an external design object under an absolute-path name so it
  /// can be checked in by reference ("/user/alice/cell").
  Result<oct::ObjectId> CheckInObject(const std::string& path,
                                      oct::DesignPayload payload);

  // --- exactly-once ledger ---------------------------------------------------

  /// Where a request's work committed: the history node it appended.
  struct AppliedRequest {
    int thread_id = 0;
    activity::NodeId node = 0;
  };

  /// Notes that request `request_id` (papyrusd's queue task id) committed
  /// as `node` of `thread_id`. The entry journals with the next CommitWal,
  /// after the history records of the same batch, so a reopened session
  /// holds it exactly when it holds the node.
  void RecordApplied(int64_t request_id, int thread_id,
                     activity::NodeId node);
  /// The entry RecordApplied made for `request_id`, or nullptr.
  const AppliedRequest* FindApplied(int64_t request_id) const;

  // --- storage engine (§5.3 crash recovery) --------------------------------
  //
  // Mutations journal into a write-ahead log (CommitWal, a group commit
  // per task batch) and SaveGeneration periodically compacts only the
  // dirtied sections behind a manifest swap. Recovery replays manifest
  // sections + the WAL tail and is byte-identical to the pre-crash state
  // at any crash point. The `state` section holds the virtual clock and
  // the next execution id (history timestamps and intermediate object
  // names embed them) and the applied-request ledger.

  /// Aggregate recovery report of the most recent OpenStorage, summed
  /// across every restored section and the replayed WAL tail.
  const activity::RestoreStats& last_restore_stats() const {
    return last_restore_stats_;
  }

  /// Opens (creating if needed) the storage engine on `directory` and
  /// restores whatever it holds. Requires a fresh session. Legacy layouts
  /// (PR 1 flat database.pdb, PR 6 snap.<N> whole-file snapshot dirs)
  /// load transparently and migrate to the engine layout at the next
  /// SaveGeneration. A torn WAL tail recovers its longest valid prefix,
  /// and records after the last commit record (a torn batch) are not
  /// applied; both are reported through last_restore_stats(). A WAL of an
  /// older header version, or one that ended in a torn batch, is folded
  /// into a generation after replay, so new records always start a
  /// current-format log. With a shared store attached, the open ends by
  /// publishing the restored derivations whose content keys the store
  /// lacks; entries it already holds are left untouched.
  Status OpenStorage(const std::string& directory);

  bool storage_open() const { return store_ != nullptr; }

  /// The engine, for crash-hook injection and fingerprinting; nullptr
  /// until OpenStorage.
  storage::SessionStore* store() { return store_.get(); }

  /// Journals every mutation since the last commit (database records,
  /// thread deltas, cache entries, session state), closes the batch with
  /// a commit record so replay applies it whole or not at all, and makes
  /// it durable with one fsync. Journal-before-effect: call this before
  /// acknowledging the mutations outside the session.
  Status CommitWal();

  /// Durability checkpoint: CommitWal, then writes generation N+1
  /// containing only the sections that WAL records since generation N
  /// belong to (the others carry over by reference), atomically swaps
  /// CURRENT, and resets the WAL.
  Status SaveGeneration();

  // --- subsystem access ------------------------------------------------------

  ManualClock& clock() { return clock_; }
  oct::OctDatabase& database() { return *db_; }
  cadtools::ToolRegistry& tools() { return *tools_; }
  sprite::Network& network() { return *network_; }
  tdl::TemplateLibrary& templates() { return templates_; }
  task::TaskManager& task_manager() { return *task_manager_; }
  activity::ActivityManager& activity() { return *activity_; }
  sync::SdsManager& sds() { return *sds_; }
  storage::ReclamationManager& reclamation() { return *reclamation_; }
  /// The history-based derivation cache (memoized ADG suffixes).
  cache::DerivationCache& step_cache() { return *step_cache_; }
  /// The shared content-addressed store attached to the derivation cache
  /// (owned when SessionOptions::shared_store_path was set, the daemon's
  /// when AttachSharedStore was called, else nullptr).
  storage::ContentStore* shared_store() {
    return step_cache_->shared_store();
  }
  /// Attaches an externally owned shared store (the daemon's, shared by
  /// every managed session). With `auto_publish` false, publications are
  /// held until step_cache().FlushSharedPublications() — the daemon calls
  /// it only after the save carrying the entries is durable.
  void AttachSharedStore(storage::ContentStore* store, bool auto_publish) {
    step_cache_->AttachSharedStore(store, auto_publish);
  }
  /// The history-based metadata engine (Ch. 6), first brought up to date
  /// with the surviving design history: the one place metadata is
  /// derived. Each surviving record is observed once, in (appended_micros,
  /// thread id, node id) order: new records incrementally, the whole
  /// history again after a record was removed or rewritten or when a new
  /// one sorts before one already observed. A live session and its
  /// reopened store therefore read the same metadata.
  meta::MetadataEngine& metadata();
  meta::TsdRegistry& tsds() { return tsds_; }
  /// The attribute store the metadata engine populates.
  oct::AttributeStore& attributes() { return attributes_; }

  // --- observability ---------------------------------------------------------

  /// The session trace recorder (virtual-time Chrome trace events). Call
  /// `trace().set_enabled(true)` — or set SessionOptions::trace_path — to
  /// record; dump any time with `trace().WriteJson(path)`.
  obs::TraceRecorder& trace() { return trace_; }
  /// The session metrics registry backing every subsystem's counters.
  obs::MetricsRegistry& metrics() { return metrics_; }
  /// The context handed to the session's subsystems; attach it to
  /// session-external instrumented components (e.g. fault::FaultPlan).
  obs::Observability observability() { return {&trace_, &metrics_}; }

 private:
  /// Reads a pre-engine whole-file snapshot directory (database.pdb,
  /// thread_<id>.pth, cache.pdc, state.pss) for OpenStorage's one-time
  /// migration.
  Status LoadLegacySnapshot(const std::string& directory);
  Status OpenStorageImpl(const std::string& directory);
  Status SaveGenerationImpl();
  /// Writes the dirty sections as the next generation and resets the WAL
  /// under it. Everything in memory must already be journaled.
  Status WriteGeneration();
  Status RestoreEngineSections(
      const std::map<std::string, std::string>& sections);
  /// Applies one replayed WAL record of a log with header `wal_version`
  /// and notes its section.
  Status ApplyWalRecord(std::string_view body, int wal_version);
  /// The `state` section: a header, then the clock, nextexec and applied
  /// lines, each one a `state` WAL record's body.
  std::string StateSectionText() const;
  /// Applies the fields of one such line.
  Status ApplyStateFields(FieldCursor& f);
  /// Marks everything in memory as journaled (restored state is durable).
  void DiscardAllWalDirt();
  /// Observes what metadata() has not yet seen of the history.
  void DeriveMetadata();
  void SyncStorageMetrics();

  // Declared before every subsystem so trace + metrics are destroyed
  // last: subsystems hold pointers into the registry until they are gone.
  ManualClock clock_;
  obs::MetricsRegistry metrics_;
  obs::TraceRecorder trace_;
  std::unique_ptr<oct::OctDatabase> db_;
  std::unique_ptr<cadtools::ToolRegistry> tools_;
  std::unique_ptr<sprite::Network> network_;
  tdl::TemplateLibrary templates_;
  std::unique_ptr<task::TaskManager> task_manager_;
  std::unique_ptr<activity::ActivityManager> activity_;
  std::unique_ptr<sync::SdsManager> sds_;
  std::unique_ptr<storage::ReclamationManager> reclamation_;
  // Declared before the cache so it is destroyed after it (the cache
  // holds a raw pointer to the store while attached).
  std::unique_ptr<storage::ContentStore> shared_store_;
  std::unique_ptr<cache::DerivationCache> step_cache_;
  meta::TsdRegistry tsds_;
  oct::AttributeStore attributes_;
  std::unique_ptr<meta::MetadataEngine> metadata_;
  SessionOptions options_;
  activity::RestoreStats last_restore_stats_;

  /// request id -> where it committed (RecordApplied).
  std::map<int64_t, AppliedRequest> applied_;

  /// How far DeriveMetadata got: per thread, the record revision and the
  /// highest node id it saw, and the sort key of the last record observed.
  struct ObservedThread {
    uint64_t revision = 0;
    activity::NodeId last_node = activity::kInitialPoint;
  };
  std::map<int, ObservedThread> observed_threads_;
  using ObservationKey = std::tuple<int64_t, int, activity::NodeId>;
  static constexpr ObservationKey kNothingObserved{-1, 0, 0};
  ObservationKey last_observed_ = kNothingObserved;

  // --- storage engine state ---
  std::unique_ptr<storage::SessionStore> store_;
  /// The sections of every WAL record journaled or replayed since the
  /// last generation: exactly what the next generation rewrites.
  struct JournaledSections {
    static_assert(oct::OctDatabase::kShardCount <= 16);
    uint16_t db_shards = 0;  // bit i: section db/i
    std::set<int> threads;
    bool cache = false;
    bool state = false;

    void NoteObject(const std::string& name) {
      db_shards |=
          static_cast<uint16_t>(1u << oct::OctDatabase::ShardOf(name));
    }
  };
  JournaledSections journaled_;
  /// Threads the WAL already knows (journaled in full), for detecting
  /// new and vanished threads at CommitWal.
  std::set<int> known_threads_;
  /// What the WAL already carries of the state section: the clock and
  /// next execution id it last journaled, and the requests recorded since.
  int64_t wal_clock_ = 0;
  int wal_next_execution_id_ = 0;
  std::vector<int64_t> unjournaled_applied_;
};

}  // namespace papyrus

#endif  // PAPYRUS_CORE_PAPYRUS_H_
