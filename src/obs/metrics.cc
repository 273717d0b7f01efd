#include "obs/metrics.h"

#include <algorithm>
#include <iomanip>
#include <sstream>

namespace papyrus::obs {

namespace {

constexpr MetricType kC = MetricType::kCounter;
constexpr MetricType kG = MetricType::kGauge;
constexpr MetricType kH = MetricType::kHistogram;

const char* TypeName(MetricType t) {
  switch (t) {
    case MetricType::kCounter:
      return "counter";
    case MetricType::kGauge:
      return "gauge";
    case MetricType::kHistogram:
      return "histogram";
  }
  return "unknown";
}

}  // namespace

const std::vector<MetricInfo>& MetricCatalogue() {
  static const std::vector<MetricInfo> catalogue = {
      {kStepsCompleted, kC,
       "Design steps whose tool run exited 0 (cache hits excluded)."},
      {kStepsFailed, kC,
       "Design steps surfaced to the template with a non-zero exit."},
      {kStepsRetried, kC,
       "Environmental re-dispatches after host crashes or transient "
       "tool failures."},
      {kStepsLost, kC,
       "Step processes killed mid-run by a workstation crash."},
      {kStepsElided, kC,
       "Steps served from the derivation cache instead of running the "
       "tool."},
      {kStepVirtualLatency, kH,
       "Virtual microseconds from step dispatch to completion "
       "(executed steps only)."},
      {kStepRetryBackoff, kH,
       "Virtual microseconds of exponential backoff preceding each "
       "environmental re-dispatch."},
      {kTasksCommitted, kC, "Task invocations that ran to commit."},
      {kTasksAborted, kC,
       "Task invocations undone by abort (template abort, failure, or "
       "deadlock)."},
      {kTaskRestarts, kC,
       "Programmable-abort restarts across all invocations."},
      {kFlowViolations, kC,
       "Runtime flow-checker violations: dispatches contradicting the "
       "static happens-before graph. Zero on a healthy engine."},
      {kCacheHits, kC, "Derivation-cache probes served from history."},
      {kCacheMisses, kC, "Derivation-cache probes that found no entry."},
      {kCacheRecorded, kC,
       "Derivations recorded (or replaced) at task commit."},
      {kCacheInvalidated, kC,
       "Cache entries dropped by reclamation, rework, or clear."},
      {kCacheMicrosSaved, kC,
       "Summed virtual execution cost of elided steps."},
      {kSpriteSpawns, kC, "Processes started on the workstation network."},
      {kSpriteMigrations, kC, "Successful process migrations."},
      {kSpriteMigrationFailures, kC,
       "Migrate calls that failed under flaky-migration injection."},
      {kSpriteEvictions, kC,
       "Foreign processes pushed home by a returning owner."},
      {kSpriteRemigrations, kC,
       "Task-manager re-migrations of processes stuck on the home "
       "node."},
      {kSpriteCrashes, kC, "Workstation crashes."},
      {kSpriteReboots, kC, "Workstation reboots after a crash."},
      {kSpriteLostProcesses, kC, "Processes that died in a host crash."},
      {kOctVersionsCreated, kC,
       "Design-object versions allocated by the OCT database."},
      {kOctReclaimed, kC,
       "Versions whose payload was physically reclaimed."},
      {kOctLiveBytes, kG,
       "Payload bytes of all non-reclaimed versions."},
      {kFaultTransientInjections, kC,
       "Tool runs turned into transient failures by the fault plan."},
      {kSnapshotLoads, kC, "Session snapshots restored."},
      {kSnapshotGenerations, kC,
       "Compacted delta-snapshot generations committed (manifest "
       "swaps)."},
      {kSnapshotSectionsWritten, kC,
       "Section files rewritten because their shard was dirty."},
      {kSnapshotSectionsReused, kC,
       "Clean section files carried into a generation by reference."},
      {kSnapshotFilesPruned, kC,
       "Unreferenced section/manifest files removed after a manifest "
       "swap."},
      {kWalRecords, kC,
       "Mutation records appended to the write-ahead log."},
      {kWalCommits, kC,
       "WAL group commits (one durability barrier per batch; empty "
       "batches are free)."},
      {kWalSyncs, kC, "fsync calls issued by WAL commits."},
      {kWalBytesWritten, kC, "Bytes appended to the write-ahead log."},
      {kWalResets, kC,
       "WAL rotations after a snapshot generation absorbed its tail."},
      {kWalReplayedRecords, kC,
       "Journal records replayed on top of sections at recovery."},
      {kWalTruncatedBytes, kC,
       "Torn-tail bytes discarded by longest-valid-prefix recovery."},
      {kAttributesComputed, kC,
       "Attribute measurements computed by invoking a measurement "
       "tool."},
      {kAttributesCached, kC,
       "Attribute queries served from the attribute store."},
      {kTraceEventsDropped, kC,
       "Trace events dropped because the recorder was sealed or "
       "disabled mid-session."},
      {kQueueDepth, kG,
       "Tasks in the persistent queue not yet done or failed (pending + "
       "claimed)."},
      {kQueueEnqueued, kC,
       "Tasks journaled into the persistent queue."},
      {kQueueClaimed, kC,
       "Claims granted: a pending task handed to a session under a "
       "virtual-time lease."},
      {kQueueCompleted, kC,
       "Tasks marked done after their commit and snapshot landed."},
      {kQueueFailed, kC,
       "Tasks marked permanently failed (attempt budget exhausted)."},
      {kQueueRequeued, kC,
       "Claimed tasks returned to pending (execution error or explicit "
       "release) before their lease expired."},
      {kQueueLeaseExpired, kC,
       "Leases reaped by the expiry scan: the claim outlived its "
       "deadline and the task went back to pending."},
      {kQueueRecovered, kC,
       "Claimed-but-not-done tasks re-enqueued while replaying the "
       "journal at daemon startup."},
      {kQueueCheckpoints, kC,
       "Atomic queue checkpoints written (journal compactions)."},
      {kQueueWaitLatency, kH,
       "Virtual microseconds a task spent in the queue from enqueue to "
       "the claim that committed it."},
      {kQueueFairnessRotations, kC,
       "Weighted-round-robin cursor rotations: the fair claim policy "
       "moved on to serve a different session."},
      {kQueueFairnessCapped, kC,
       "Sessions passed over by the fair claim policy because they "
       "already had max_inflight_per_session tasks claimed."},
      {kQueueFairnessActiveSessions, kG,
       "Sessions with pending work observed by the last fair claim."},
      {kServerSessionsOpen, kG,
       "Design sessions currently hosted by the daemon."},
      {kServerTasksExecuted, kC,
       "Queue tasks the daemon actually ran to commit (dedup hits "
       "excluded)."},
      {kServerTasksDeduped, kC,
       "Queue tasks skipped because the applied-task ledger showed "
       "their effects already committed (at-least-once delivery, "
       "exactly-once commit)."},
      {kServerRestarts, kC,
       "Daemon incarnations beyond the first observed by a shared "
       "metrics registry (crash-restart recoveries)."},
      {kServerCrashesInjected, kC,
       "Daemon crashes injected by a seeded crash plan during a soak."},
      {kServerWireRequests, kC,
       "Wire-protocol request lines handled (including errors)."},
      {kServerTaskLatency, kH,
       "Virtual microseconds from claim to commit for tasks the daemon "
       "executed."},
      {kServerClientsConnected, kG,
       "Wire clients currently connected to the daemon socket "
       "transport (stdin counts as one when attached)."},
      {kServerClientsTotal, kC,
       "Wire client connections accepted over the daemon's lifetime."},
      {kServerClientsDisconnected, kC,
       "Wire client connections closed, including abrupt disconnects "
       "mid-request."},
      {kServerClientsRejectedLines, kC,
       "Wire lines rejected by the transport before dispatch "
       "(oversized or unterminated at disconnect)."},
      {kCasHits, kC,
       "Shared-store fetches that returned hash-verified outputs "
       "(cross-session derivation-cache hits)."},
      {kCasMisses, kC,
       "Shared-store fetches that found no entry for the content key."},
      {kCasPublished, kC,
       "New entries accepted into the content-addressed store."},
      {kCasDedupBytes, kC,
       "Blob bytes NOT written because identical content already lived "
       "in the store (cross-entry and cross-session sharing)."},
      {kCasBytesWritten, kC,
       "Blob bytes physically written to the store."},
      {kCasEvictedEntries, kC,
       "Entries evicted by the LRU size-budget policy."},
      {kCasEvictedBytes, kC,
       "Unique blob bytes freed by eviction (shared blobs survive "
       "until their last referencing entry goes)."},
      {kCasVerifyFailures, kC,
       "Blobs whose bytes no longer matched their SHA-256 at fetch "
       "time; the damaged entry is dropped and the step re-runs."},
      {kCasOrphansCollected, kC,
       "Crash-orphaned blob files garbage-collected at store open."},
      {kCasNegHits, kC,
       "Shared-store lookups short-circuited by the negative-entry "
       "cache (known-absent keys skip the disk probe)."},
      {kCasEntries, kG, "Entries currently in the shared store."},
      {kCasBlobs, kG, "Unique blobs currently in the shared store."},
      {kCasStoreBytes, kG,
       "Summed unique blob bytes currently on disk."},
      {kExecWorkers, kG,
       "Worker threads configured for the parallel step executor (1 = "
       "serial engine-thread execution)."},
      {kExecStepsPool, kC,
       "Tool payloads executed speculatively on a worker-pool thread."},
      {kExecStepsInline, kC,
       "Tool payloads executed inline on the engine thread (serial mode, "
       "or stolen at the completion event before a worker picked them "
       "up)."},
      {kExecQueueDepth, kH,
       "Commit-funnel depth at each virtual completion event: "
       "speculative results still awaiting their engine-thread commit."},
      {kExecWallLatency, kH,
       "Wall-clock microseconds a tool payload spent executing "
       "(worker or inline), as opposed to its virtual cost."},
  };
  return catalogue;
}

const std::vector<int64_t>& LatencyBucketBounds() {
  // Virtual microseconds; tool costs in the simulator span roughly
  // 1ms..5s of virtual time.
  static const std::vector<int64_t> bounds = {
      1'000,     5'000,      10'000,     50'000,     100'000,
      250'000,   500'000,    1'000'000,  2'500'000,  5'000'000,
      10'000'000};
  return bounds;
}

const std::vector<int64_t>& QueueDepthBucketBounds() {
  // Pending commits at a completion event: small integers, bounded by
  // the number of concurrently in-flight steps.
  static const std::vector<int64_t> bounds = {0, 1, 2, 4, 8, 16, 32, 64};
  return bounds;
}

const std::vector<int64_t>& WallLatencyBucketBounds() {
  // Wall-clock microseconds; in-process tool payloads run in the
  // 10us..1s range depending on payload size and injected sleeps.
  static const std::vector<int64_t> bounds = {
      10,      50,      100,     500,       1'000,     5'000,    10'000,
      50'000,  100'000, 500'000, 1'000'000, 5'000'000};
  return bounds;
}

Histogram::Histogram(std::vector<int64_t> bounds)
    : bounds_(std::move(bounds)), buckets_(bounds_.size() + 1) {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
}

void Histogram::Observe(int64_t value) {
  size_t idx = std::lower_bound(bounds_.begin(), bounds_.end(), value) -
               bounds_.begin();
  buckets_[idx].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(value, std::memory_order_relaxed);
}

std::vector<int64_t> Histogram::BucketCounts() const {
  std::vector<int64_t> out(buckets_.size());
  for (size_t i = 0; i < buckets_.size(); ++i) {
    out[i] = buckets_[i].load(std::memory_order_relaxed);
  }
  return out;
}

namespace {

// Bucket edges for a catalogue histogram. Latency-in-virtual-micros is
// the default; depth and wall-clock histograms carry their own scales.
const std::vector<int64_t>& CatalogueBounds(const std::string& name) {
  if (name == kExecQueueDepth) return QueueDepthBucketBounds();
  if (name == kExecWallLatency) return WallLatencyBucketBounds();
  return LatencyBucketBounds();
}

}  // namespace

MetricsRegistry::MetricsRegistry() {
  for (const MetricInfo& info : MetricCatalogue()) {
    switch (info.type) {
      case MetricType::kCounter:
        FindOrCreateCounter(info.name);
        break;
      case MetricType::kGauge:
        FindOrCreateGauge(info.name);
        break;
      case MetricType::kHistogram:
        FindOrCreateHistogram(info.name, CatalogueBounds(info.name));
        break;
    }
  }
}

Counter* MetricsRegistry::FindOrCreateCounter(const std::string& name) {
  base::MutexLock lock(mu_);
  auto& slot = counters_[name];
  if (slot == nullptr) slot = std::make_unique<Counter>();
  return slot.get();
}

Gauge* MetricsRegistry::FindOrCreateGauge(const std::string& name) {
  base::MutexLock lock(mu_);
  auto& slot = gauges_[name];
  if (slot == nullptr) slot = std::make_unique<Gauge>();
  return slot.get();
}

Histogram* MetricsRegistry::FindOrCreateHistogram(
    const std::string& name, std::vector<int64_t> bounds) {
  base::MutexLock lock(mu_);
  auto& slot = histograms_[name];
  if (slot == nullptr) slot = std::make_unique<Histogram>(std::move(bounds));
  return slot.get();
}

std::string MetricsRegistry::ToJson() const {
  base::MutexLock lock(mu_);
  std::ostringstream os;
  os << "{\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, c] : counters_) {
    os << (first ? "\n" : ",\n") << "    \"" << name
       << "\": " << c->value();
    first = false;
  }
  os << "\n  },\n  \"gauges\": {";
  first = true;
  for (const auto& [name, g] : gauges_) {
    os << (first ? "\n" : ",\n") << "    \"" << name
       << "\": " << g->value();
    first = false;
  }
  os << "\n  },\n  \"histograms\": {";
  first = true;
  for (const auto& [name, h] : histograms_) {
    os << (first ? "\n" : ",\n") << "    \"" << name << "\": {\n"
       << "      \"buckets\": [";
    const std::vector<int64_t>& bounds = h->bounds();
    std::vector<int64_t> counts = h->BucketCounts();
    for (size_t i = 0; i < counts.size(); ++i) {
      if (i > 0) os << ", ";
      os << "{\"le\": ";
      if (i < bounds.size()) {
        os << bounds[i];
      } else {
        os << "\"+Inf\"";
      }
      os << ", \"count\": " << counts[i] << "}";
    }
    os << "],\n      \"sum\": " << h->sum()
       << ",\n      \"count\": " << h->count() << "\n    }";
    first = false;
  }
  os << "\n  }\n}\n";
  return os.str();
}

std::string MetricsRegistry::ToTable() const {
  base::MutexLock lock(mu_);
  std::ostringstream os;
  size_t width = 0;
  for (const auto& [name, c] : counters_) width = std::max(width,
                                                           name.size());
  for (const auto& [name, g] : gauges_) width = std::max(width,
                                                         name.size());
  for (const auto& [name, h] : histograms_) width = std::max(width,
                                                             name.size());
  for (const auto& [name, c] : counters_) {
    os << std::left << std::setw(static_cast<int>(width) + 2) << name
       << c->value() << "\n";
  }
  for (const auto& [name, g] : gauges_) {
    os << std::left << std::setw(static_cast<int>(width) + 2) << name
       << g->value() << "\n";
  }
  for (const auto& [name, h] : histograms_) {
    os << std::left << std::setw(static_cast<int>(width) + 2) << name
       << "count=" << h->count() << " sum=" << h->sum() << "\n";
  }
  return os.str();
}

// Referenced by papyrus-metrics --catalogue.
const char* MetricTypeName(MetricType t) { return TypeName(t); }

}  // namespace papyrus::obs
