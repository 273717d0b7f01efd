#ifndef PAPYRUS_OBS_METRICS_H_
#define PAPYRUS_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "base/mutex.h"
#include "base/thread_annotations.h"
#include "obs/effect_capture.h"

namespace papyrus::obs {

/// A monotonically increasing counter. Increments are lock-free
/// (relaxed atomics); reads see a consistent point-in-time value.
///
/// When the calling thread has an EffectCapture installed (a step-executor
/// worker running a speculative tool payload), the increment is buffered
/// there and applied on the engine thread at the step's virtual completion
/// event, keeping counter values byte-identical to serial execution.
class Counter {
 public:
  void Increment(int64_t delta = 1) {
    if (EffectCapture* capture = CurrentEffectCapture()) {
      capture->AddCounter(this, delta);
      return;
    }
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

/// A value that can move both ways (live bytes, queue depth).
class Gauge {
 public:
  void Set(int64_t v) { value_.store(v, std::memory_order_relaxed); }
  void Add(int64_t delta) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

/// A fixed-bucket histogram: `bounds` are inclusive upper bucket edges in
/// ascending order; observations above the last edge land in the implicit
/// overflow bucket. Observe is lock-free; Snapshot (bucket counts + sum +
/// count) is read without stopping writers, so under concurrent writes it
/// is a near-point-in-time view, never a torn one.
class Histogram {
 public:
  explicit Histogram(std::vector<int64_t> bounds);

  void Observe(int64_t value);

  const std::vector<int64_t>& bounds() const { return bounds_; }
  /// One count per bound, plus the trailing overflow bucket.
  std::vector<int64_t> BucketCounts() const;
  int64_t count() const { return count_.load(std::memory_order_relaxed); }
  int64_t sum() const { return sum_.load(std::memory_order_relaxed); }

 private:
  std::vector<int64_t> bounds_;
  std::vector<std::atomic<int64_t>> buckets_;  // bounds_.size() + 1
  std::atomic<int64_t> count_{0};
  std::atomic<int64_t> sum_{0};
};

enum class MetricType { kCounter, kGauge, kHistogram };

/// One entry of the stable metric-name catalogue: the contract between
/// the engine, the exporters, and CI assertions. Names never change
/// meaning once shipped; new metrics are appended.
struct MetricInfo {
  const char* name;
  MetricType type;
  const char* help;
};

/// The full catalogue, in export order. `papyrus-metrics --catalogue`
/// renders it as a markdown table (docs/METRICS.md).
const std::vector<MetricInfo>& MetricCatalogue();

/// "counter" / "gauge" / "histogram".
const char* MetricTypeName(MetricType t);

/// Bucket edges (virtual microseconds) shared by the latency histograms.
const std::vector<int64_t>& LatencyBucketBounds();

/// Bucket edges for small-integer depth histograms (commit-funnel queue
/// depth observed at each virtual completion event).
const std::vector<int64_t>& QueueDepthBucketBounds();

/// Bucket edges (wall-clock microseconds) for real executor latencies.
const std::vector<int64_t>& WallLatencyBucketBounds();

// Catalogue names, usable as constants at instrumentation points.
inline constexpr char kStepsCompleted[] = "papyrus.steps.completed";
inline constexpr char kStepsFailed[] = "papyrus.steps.failed";
inline constexpr char kStepsRetried[] = "papyrus.steps.retried";
inline constexpr char kStepsLost[] = "papyrus.steps.lost";
inline constexpr char kStepsElided[] = "papyrus.steps.elided";
inline constexpr char kStepVirtualLatency[] =
    "papyrus.step.virtual_latency";
inline constexpr char kStepRetryBackoff[] = "papyrus.step.retry_backoff";
inline constexpr char kTasksCommitted[] = "papyrus.tasks.committed";
inline constexpr char kTasksAborted[] = "papyrus.tasks.aborted";
inline constexpr char kTaskRestarts[] = "papyrus.tasks.restarts";
inline constexpr char kFlowViolations[] = "papyrus.flow.violations";
inline constexpr char kLintTemplatesLinted[] =
    "papyrus.lint.templates_linted";
inline constexpr char kCacheHits[] = "papyrus.cache.hits";
inline constexpr char kCacheMisses[] = "papyrus.cache.misses";
inline constexpr char kCacheRecorded[] = "papyrus.cache.recorded";
inline constexpr char kCacheInvalidated[] = "papyrus.cache.invalidated";
inline constexpr char kCacheMicrosSaved[] = "papyrus.cache.micros_saved";
inline constexpr char kSpriteSpawns[] = "papyrus.sprite.spawns";
inline constexpr char kSpriteMigrations[] = "papyrus.sprite.migrations";
inline constexpr char kSpriteMigrationFailures[] =
    "papyrus.sprite.migration_failures";
inline constexpr char kSpriteEvictions[] = "papyrus.sprite.evictions";
inline constexpr char kSpriteRemigrations[] =
    "papyrus.sprite.remigrations";
inline constexpr char kSpriteCrashes[] = "papyrus.sprite.crashes";
inline constexpr char kSpriteReboots[] = "papyrus.sprite.reboots";
inline constexpr char kSpriteLostProcesses[] =
    "papyrus.sprite.lost_processes";
inline constexpr char kOctVersionsCreated[] =
    "papyrus.oct.versions_created";
inline constexpr char kOctReclaimed[] = "papyrus.oct.reclaimed";
inline constexpr char kOctLiveBytes[] = "papyrus.oct.live_bytes";
inline constexpr char kFaultTransientInjections[] =
    "papyrus.fault.transient_injections";
inline constexpr char kSnapshotLoads[] = "papyrus.snapshot.loads";
inline constexpr char kSnapshotGenerations[] =
    "papyrus.snapshot.generations";
inline constexpr char kSnapshotSectionsWritten[] =
    "papyrus.snapshot.sections_written";
inline constexpr char kSnapshotSectionsReused[] =
    "papyrus.snapshot.sections_reused";
inline constexpr char kSnapshotFilesPruned[] =
    "papyrus.snapshot.files_pruned";
inline constexpr char kWalRecords[] = "papyrus.wal.records";
inline constexpr char kWalCommits[] = "papyrus.wal.commits";
inline constexpr char kWalSyncs[] = "papyrus.wal.syncs";
inline constexpr char kWalBytesWritten[] = "papyrus.wal.bytes_written";
inline constexpr char kWalResets[] = "papyrus.wal.resets";
inline constexpr char kWalReplayedRecords[] =
    "papyrus.wal.replayed_records";
inline constexpr char kWalTruncatedBytes[] =
    "papyrus.wal.truncated_bytes";
inline constexpr char kAttributesComputed[] =
    "papyrus.attributes.computed";
inline constexpr char kAttributesCached[] = "papyrus.attributes.cached";
inline constexpr char kTraceEventsDropped[] =
    "papyrus.trace.events_dropped";
inline constexpr char kQueueDepth[] = "papyrus.queue.depth";
inline constexpr char kQueueEnqueued[] = "papyrus.queue.enqueued";
inline constexpr char kQueueClaimed[] = "papyrus.queue.claimed";
inline constexpr char kQueueCompleted[] = "papyrus.queue.completed";
inline constexpr char kQueueFailed[] = "papyrus.queue.failed";
inline constexpr char kQueueRequeued[] = "papyrus.queue.requeued";
inline constexpr char kQueueLeaseExpired[] =
    "papyrus.queue.lease_expired";
inline constexpr char kQueueRecovered[] = "papyrus.queue.recovered";
inline constexpr char kQueueCheckpoints[] = "papyrus.queue.checkpoints";
inline constexpr char kQueueWaitLatency[] = "papyrus.queue.wait_latency";
inline constexpr char kQueueFairnessRotations[] =
    "papyrus.queue.fairness_rotations";
inline constexpr char kQueueFairnessCapped[] =
    "papyrus.queue.fairness_capped";
inline constexpr char kQueueFairnessActiveSessions[] =
    "papyrus.queue.fairness_active_sessions";
inline constexpr char kServerSessionsOpen[] =
    "papyrus.server.sessions_open";
inline constexpr char kServerTasksExecuted[] =
    "papyrus.server.tasks_executed";
inline constexpr char kServerTasksDeduped[] =
    "papyrus.server.tasks_deduped";
inline constexpr char kServerRestarts[] = "papyrus.server.restarts";
inline constexpr char kServerCrashesInjected[] =
    "papyrus.server.crashes_injected";
inline constexpr char kServerWireRequests[] =
    "papyrus.server.wire_requests";
inline constexpr char kServerTaskLatency[] =
    "papyrus.server.task_latency";
inline constexpr char kServerClientsConnected[] =
    "papyrus.server.clients_connected";
inline constexpr char kServerClientsTotal[] =
    "papyrus.server.clients_total";
inline constexpr char kServerClientsDisconnected[] =
    "papyrus.server.clients_disconnected";
inline constexpr char kServerClientsRejectedLines[] =
    "papyrus.server.clients_rejected_lines";
inline constexpr char kCasHits[] = "papyrus.cas.hits";
inline constexpr char kCasMisses[] = "papyrus.cas.misses";
inline constexpr char kCasPublished[] = "papyrus.cas.published";
inline constexpr char kCasDedupBytes[] = "papyrus.cas.dedup_bytes";
inline constexpr char kCasBytesWritten[] = "papyrus.cas.bytes_written";
inline constexpr char kCasEvictedEntries[] =
    "papyrus.cas.evicted_entries";
inline constexpr char kCasEvictedBytes[] = "papyrus.cas.evicted_bytes";
inline constexpr char kCasVerifyFailures[] =
    "papyrus.cas.verify_failures";
inline constexpr char kCasOrphansCollected[] =
    "papyrus.cas.orphans_collected";
inline constexpr char kCasNegHits[] = "papyrus.cas.neg_hits";
inline constexpr char kCasEntries[] = "papyrus.cas.entries";
inline constexpr char kCasBlobs[] = "papyrus.cas.blobs";
inline constexpr char kCasStoreBytes[] = "papyrus.cas.store_bytes";
inline constexpr char kExecWorkers[] = "papyrus.exec.workers";
inline constexpr char kExecStepsPool[] = "papyrus.exec.steps_pool";
inline constexpr char kExecStepsInline[] = "papyrus.exec.steps_inline";
inline constexpr char kExecQueueDepth[] = "papyrus.exec.queue_depth";
inline constexpr char kExecWallLatency[] = "papyrus.exec.wall_latency";

/// The metrics registry: owns every metric instance, hands out stable
/// pointers, and snapshots the lot as JSON or a human table.
///
/// Thread contract: `FindOrCreate*` and the exporters serialize on the
/// internal `mu_` (the name->instance maps are PAPYRUS_GUARDED_BY(mu_));
/// increments through the returned pointers are lock-free and safe from
/// any thread. Returned pointers live as long as the registry.
class MetricsRegistry {
 public:
  /// Pre-registers the entire catalogue so exports always carry every
  /// stable name, zero-valued when untouched.
  MetricsRegistry();

  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter* FindOrCreateCounter(const std::string& name)
      PAPYRUS_EXCLUDES(mu_);
  Gauge* FindOrCreateGauge(const std::string& name) PAPYRUS_EXCLUDES(mu_);
  /// `bounds` applies only on first creation; a later call with different
  /// bounds returns the existing histogram unchanged.
  Histogram* FindOrCreateHistogram(const std::string& name,
                                   std::vector<int64_t> bounds)
      PAPYRUS_EXCLUDES(mu_);

  /// Point-in-time export of every metric, names sorted, as JSON:
  /// {"counters":{...},"gauges":{...},"histograms":{...}}.
  std::string ToJson() const PAPYRUS_EXCLUDES(mu_);
  /// The same snapshot as an aligned human-readable table.
  std::string ToTable() const PAPYRUS_EXCLUDES(mu_);

 private:
  mutable base::Mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_
      PAPYRUS_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Gauge>> gauges_
      PAPYRUS_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Histogram>> histograms_
      PAPYRUS_GUARDED_BY(mu_);
};

}  // namespace papyrus::obs

#endif  // PAPYRUS_OBS_METRICS_H_
