// Experiment S-engine — storage engine throughput and recovery: the
// whole-file snapshot the pre-engine daemon rewrote per task is replaced
// by a WAL group commit plus periodic compacted delta generations. This
// bench populates a session with a million design objects, then measures
// (a) raw WAL append/commit throughput, (b) per-task commit cost against
// the whole-file baseline, (c) cold-recovery time (manifest + WAL tail),
// (d) incremental compaction cost as a function of dirty shards, and
// (e) byte-identical crash recovery at worker-pool sizes 1 and 4.
//
// Flags:
//   --smoke    scale down (20k objects / 100k WAL records) and exit
//              non-zero unless every floor holds
//   --json F   write the summary to F (default BENCH_storage_engine.json;
//              "" disables)

#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "activity/persistence.h"
#include "base/clock.h"
#include "base/macros.h"
#include "bench/bench_util.h"
#include "core/papyrus.h"
#include "oct/database.h"
#include "storage/atomic_file.h"
#include "storage/engine.h"
#include "storage/wal.h"

namespace papyrus::bench {
namespace {

namespace fs = std::filesystem;

int64_t WallMicros() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::string FreshDir(const std::string& name) {
  fs::path dir = fs::temp_directory_path() / ("bench_engine_" + name);
  std::error_code ec;
  fs::remove_all(dir, ec);
  fs::create_directories(dir, ec);
  return dir.string();
}

/// The pre-engine durability step the engine is measured against:
/// rewriting the whole session (database.pdb, cache.pdc,
/// thread_<id>.pth) by write-rename-fsync, with the snapshot serializers
/// the engine's sections still use.
Status SaveWholeFileSnapshot(Papyrus& session, const std::string& dir) {
  auto write = [&](const std::string& name, const std::string& text) {
    return storage::AtomicWriteFile((fs::path(dir) / name).string(), text);
  };
  PAPYRUS_RETURN_IF_ERROR(write(
      "database.pdb", activity::SerializeDatabase(session.database())));
  PAPYRUS_RETURN_IF_ERROR(
      write("cache.pdc",
            activity::SerializeDerivationCache(session.step_cache())));
  for (int id : session.activity().ThreadIds()) {
    auto thread = session.activity().GetThread(id);
    if (!thread.ok()) continue;
    PAPYRUS_RETURN_IF_ERROR(write("thread_" + std::to_string(id) + ".pth",
                                  activity::SerializeThread(**thread)));
  }
  return Status::OK();
}

struct WalRow {
  int64_t records = 0;
  int commits = 0;
  double records_per_sec = 0;
  double mb_per_sec = 0;
};

/// Raw write-ahead-log throughput: `records` single-line bodies appended
/// and group-committed in `commits` batches (one fsync per batch).
WalRow BenchWal(int64_t records, int commits) {
  WalRow row;
  row.records = records;
  row.commits = commits;
  std::string dir = FreshDir("wal");
  storage::WriteAheadLog wal;
  auto opened = wal.Open((fs::path(dir) / "wal.log").string());
  if (!opened.ok()) return row;
  const int64_t per_batch = records / commits;
  const int64_t t0 = WallMicros();
  for (int c = 0; c < commits; ++c) {
    for (int64_t i = 0; i < per_batch; ++i) {
      wal.Append("object ~cell" + std::to_string(c * per_batch + i) +
                 " 1 ~bench 0 0 64 1 0 ~text%20payload");
    }
    (void)wal.Commit();
  }
  const double secs = static_cast<double>(WallMicros() - t0) / 1e6;
  row.records = per_batch * commits;
  row.records_per_sec = static_cast<double>(row.records) / secs;
  row.mb_per_sec =
      static_cast<double>(wal.stats().bytes_written) / 1e6 / secs;
  std::error_code ec;
  fs::remove_all(dir, ec);
  return row;
}

/// Names that land in a chosen database shard (cell-name hashing).
std::vector<std::string> NamesInShard(int shard, int count,
                                      const char* prefix) {
  std::vector<std::string> names;
  for (int i = 0; names.size() < static_cast<size_t>(count); ++i) {
    std::string name = std::string(prefix) + std::to_string(i);
    if (oct::OctDatabase::ShardOf(name) == shard) names.push_back(name);
  }
  return names;
}

struct CommitRow {
  int64_t objects = 0;
  double populate_ms = 0;
  double compact_ms = 0;
  double baseline_save_ms = 0;  // one whole-file snapshot (the old
                                // per-task durability cost)
  double commit_ms = 0;         // one WAL group commit (the new cost)
  double speedup = 0;
  int engine_commits = 0;
};

struct RecoveryRow {
  double open_ms = 0;
  int64_t restored_objects = 0;
  bool ok = false;
};

struct IncrementalRow {
  int64_t full_bytes = 0;       // compaction cost, all 16 shards dirty
  int64_t one_shard_bytes = 0;  // compaction cost, 1 shard dirty
  double bytes_frac = 1.0;
  int64_t one_shard_sections = 0;
};

/// Phases (b)–(d) share one session directory: populate + compact, time
/// the whole-file baseline against WAL commits, reopen cold, then
/// measure dirty-shard-proportional compaction.
void BenchSession(int64_t objects, CommitRow* commit, RecoveryRow* recovery,
                  IncrementalRow* incremental) {
  std::string dir = FreshDir("session");
  commit->objects = objects;
  {
    SessionOptions options;
    options.standard_environment = false;  // raw storage, no tool sim
    Papyrus session(options);
    if (!session.OpenStorage(dir).ok()) return;

    int64_t t0 = WallMicros();
    for (int64_t i = 0; i < objects; ++i) {
      (void)session.database().CreateVersion(
          "cell" + std::to_string(i),
          oct::TextData{"payload " + std::to_string(i)});
    }
    (void)session.CommitWal();
    commit->populate_ms =
        static_cast<double>(WallMicros() - t0) / 1e3;
    t0 = WallMicros();
    if (!session.SaveGeneration().ok()) return;
    commit->compact_ms = static_cast<double>(WallMicros() - t0) / 1e3;

    // Baseline: the pre-engine daemon made a task durable by rewriting
    // the entire session as a whole-file snapshot.
    std::string baseline_dir = FreshDir("baseline");
    t0 = WallMicros();
    if (!SaveWholeFileSnapshot(session, baseline_dir).ok()) return;
    commit->baseline_save_ms =
        static_cast<double>(WallMicros() - t0) / 1e3;
    std::error_code ec;
    fs::remove_all(baseline_dir, ec);

    // Engine: a task's durability is its mutations' WAL group commit.
    const int kCommits = 64;
    commit->engine_commits = kCommits;
    t0 = WallMicros();
    for (int c = 0; c < kCommits; ++c) {
      for (int k = 0; k < 4; ++k) {
        (void)session.database().CreateVersion(
            "task" + std::to_string(c) + ".out" + std::to_string(k),
            oct::TextData{"task output"});
      }
      (void)session.CommitWal();
    }
    commit->commit_ms =
        static_cast<double>(WallMicros() - t0) / 1e3 / kCommits;
    if (commit->commit_ms > 0) {
      commit->speedup = commit->baseline_save_ms / commit->commit_ms;
    }
  }

  // Cold recovery: manifest sections plus the 64 commits' WAL tail.
  {
    SessionOptions options;
    options.standard_environment = false;
    Papyrus session(options);
    int64_t t0 = WallMicros();
    Status opened = session.OpenStorage(dir);
    recovery->open_ms = static_cast<double>(WallMicros() - t0) / 1e3;
    recovery->restored_objects = session.database().TotalVersionCount();
    recovery->ok = opened.ok() &&
                   recovery->restored_objects == objects + 64 * 4;

    // Incremental compaction: cost follows the dirty-shard count, not
    // the database size.
    if (!session.SaveGeneration().ok()) return;  // absorb the WAL tail
    const auto& stats = session.store()->save_stats();
    int64_t base_bytes = stats.bytes_written;

    for (const std::string& name :
         NamesInShard(0, 50, "one_shard_touch")) {
      (void)session.database().CreateVersion(name,
                                             oct::TextData{"touch"});
    }
    int64_t base_sections = stats.sections_written;
    if (!session.SaveGeneration().ok()) return;
    incremental->one_shard_bytes = stats.bytes_written - base_bytes;
    incremental->one_shard_sections =
        stats.sections_written - base_sections;
    base_bytes = stats.bytes_written;

    for (int shard = 0; shard < oct::OctDatabase::kShardCount; ++shard) {
      for (const std::string& name : NamesInShard(
               shard, 50 / oct::OctDatabase::kShardCount + 1,
               ("all_shard_touch" + std::to_string(shard)).c_str())) {
        (void)session.database().CreateVersion(name,
                                               oct::TextData{"touch"});
      }
    }
    if (!session.SaveGeneration().ok()) return;
    incremental->full_bytes = stats.bytes_written - base_bytes;
    if (incremental->full_bytes > 0) {
      incremental->bytes_frac =
          static_cast<double>(incremental->one_shard_bytes) /
          static_cast<double>(incremental->full_bytes);
    }
  }
  std::error_code ec;
  fs::remove_all(dir, ec);
}

// ---------------------------------------------------------------------------
// Crash identity at pool sizes 1 and 4

std::map<std::string, std::string> SectionFingerprint(Papyrus& session) {
  std::map<std::string, std::string> fp;
  if (!session.SaveGeneration().ok()) return fp;
  for (const auto& [name, file] : session.store()->CurrentSectionFiles()) {
    auto text = session.store()->ReadSection(name);
    fp[name] = text.ok() ? *text : "<unreadable>";
  }
  return fp;
}

void CrashWorkloadPhase1(Papyrus& session) {
  int thread = session.CreateThread("Shifter");
  (void)session.Invoke(thread, "Create_Logic_Description", {},
                       {"shifter.logic"});
  (void)session.CommitWal();
}

void CrashWorkloadPhase2(Papyrus& session) {
  (void)session.Invoke(1, "Standard_Cell_Place_and_Route",
                       {"shifter.logic"}, {"shifter.layout"});
  (void)session.CheckInObject("/bench/notes", oct::TextData{"run 100"});
  (void)session.CommitWal();
}

std::map<std::string, std::string> CrashReference(int workers) {
  SessionOptions options;
  options.worker_threads = workers;
  Papyrus session(options);
  if (!session.OpenStorage(FreshDir("ref_w" + std::to_string(workers)))
           .ok()) {
    return {};
  }
  CrashWorkloadPhase1(session);
  (void)session.SaveGeneration();
  CrashWorkloadPhase2(session);
  return SectionFingerprint(session);
}

std::map<std::string, std::string> CrashRecovered(int workers) {
  std::string dir = FreshDir("crash_w" + std::to_string(workers));
  {
    SessionOptions options;
    options.worker_threads = workers;
    Papyrus session(options);
    if (!session.OpenStorage(dir).ok()) return {};
    CrashWorkloadPhase1(session);
    (void)session.SaveGeneration();
    CrashWorkloadPhase2(session);
    // Kill the process mid-compaction, after the new section files land
    // but before the manifest swap: the WAL tail is authoritative.
    session.store()->set_crash_hook([](storage::SessionStore::CrashPoint at) {
      return at != storage::SessionStore::CrashPoint::kBeforeManifestSwap;
    });
    (void)session.SaveGeneration();
  }
  SessionOptions options;
  options.worker_threads = workers;
  Papyrus session(options);
  if (!session.OpenStorage(dir).ok()) return {};
  return SectionFingerprint(session);
}

struct CrashRow {
  bool w1_identical = false;
  bool w4_identical = false;
  bool cross_pool_identical = false;
};

CrashRow BenchCrashIdentity() {
  CrashRow row;
  auto ref1 = CrashReference(1);
  auto ref4 = CrashReference(4);
  auto rec1 = CrashRecovered(1);
  auto rec4 = CrashRecovered(4);
  row.w1_identical = !ref1.empty() && ref1 == rec1;
  row.w4_identical = !ref4.empty() && ref4 == rec4;
  row.cross_pool_identical = !ref1.empty() && ref1 == ref4;
  return row;
}

void WriteJson(const std::string& path, bool smoke, const WalRow& wal,
               const CommitRow& commit, const RecoveryRow& recovery,
               const IncrementalRow& incremental, const CrashRow& crash) {
  std::ofstream out(path, std::ios::trunc);
  char buf[512];
  out << "{\n  \"bench\": \"storage_engine\",\n";
  out << "  \"smoke\": " << (smoke ? "true" : "false") << ",\n";
  std::snprintf(buf, sizeof(buf),
                "  \"wal\": {\"records\": %" PRId64
                ", \"commits\": %d, \"records_per_sec\": %.0f, "
                "\"mb_per_sec\": %.1f},\n",
                wal.records, wal.commits, wal.records_per_sec,
                wal.mb_per_sec);
  out << buf;
  std::snprintf(buf, sizeof(buf),
                "  \"commit\": {\"objects\": %" PRId64
                ", \"populate_ms\": %.1f, \"compact_ms\": %.1f, "
                "\"baseline_save_ms\": %.2f, \"commit_ms\": %.3f, "
                "\"engine_commits\": %d, \"speedup\": %.1f},\n",
                commit.objects, commit.populate_ms, commit.compact_ms,
                commit.baseline_save_ms, commit.commit_ms,
                commit.engine_commits, commit.speedup);
  out << buf;
  std::snprintf(buf, sizeof(buf),
                "  \"recovery\": {\"open_ms\": %.1f, "
                "\"restored_objects\": %" PRId64 ", \"ok\": %s},\n",
                recovery.open_ms, recovery.restored_objects,
                recovery.ok ? "true" : "false");
  out << buf;
  std::snprintf(buf, sizeof(buf),
                "  \"incremental\": {\"one_shard_bytes\": %" PRId64
                ", \"full_bytes\": %" PRId64
                ", \"bytes_frac\": %.4f, \"one_shard_sections\": %" PRId64
                "},\n",
                incremental.one_shard_bytes, incremental.full_bytes,
                incremental.bytes_frac, incremental.one_shard_sections);
  out << buf;
  out << "  \"crash_identity\": {\"w1_identical\": "
      << (crash.w1_identical ? "true" : "false")
      << ", \"w4_identical\": "
      << (crash.w4_identical ? "true" : "false")
      << ", \"cross_pool_identical\": "
      << (crash.cross_pool_identical ? "true" : "false") << "},\n";
  out << "  \"floors\": {\n"
         "    \"commit/speedup\": {\"min\": 5},\n"
         "    \"recovery/ok\": {\"eq\": true},\n"
         "    \"incremental/bytes_frac\": {\"max\": 0.25},\n"
         "    \"crash_identity/w1_identical\": {\"eq\": true},\n"
         "    \"crash_identity/w4_identical\": {\"eq\": true},\n"
         "    \"crash_identity/cross_pool_identical\": {\"eq\": true}\n"
         "  }\n}\n";
}

}  // namespace
}  // namespace papyrus::bench

int main(int argc, char** argv) {
  bool smoke = false;
  std::string json_path = "BENCH_storage_engine.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    }
  }
  papyrus::bench::Banner(
      "S-engine", "the §5.3 crash-recovery/checkpoint cost model",
      "journaling a task's mutations costs a group commit, not a "
      "whole-session rewrite; recovery replays manifest + WAL tail "
      "byte-identically at any worker-pool size");

  const int64_t wal_records = smoke ? 100'000 : 10'000'000;
  const int64_t objects = smoke ? 20'000 : 1'000'000;

  auto wal = papyrus::bench::BenchWal(wal_records, smoke ? 10 : 100);
  std::printf("wal: %" PRId64 " records, %.0f rec/s, %.1f MB/s\n",
              wal.records, wal.records_per_sec, wal.mb_per_sec);

  papyrus::bench::CommitRow commit;
  papyrus::bench::RecoveryRow recovery;
  papyrus::bench::IncrementalRow incremental;
  papyrus::bench::BenchSession(objects, &commit, &recovery, &incremental);
  std::printf("commit: %" PRId64
              " objects, baseline %.2f ms/task vs engine %.3f ms/task "
              "(%.1fx)\n",
              commit.objects, commit.baseline_save_ms, commit.commit_ms,
              commit.speedup);
  std::printf("recovery: open %.1f ms, %" PRId64 " objects, %s\n",
              recovery.open_ms, recovery.restored_objects,
              recovery.ok ? "ok" : "FAILED");
  std::printf("incremental: 1 shard %" PRId64 " B vs 16 shards %" PRId64
              " B (frac %.4f)\n",
              incremental.one_shard_bytes, incremental.full_bytes,
              incremental.bytes_frac);

  auto crash = papyrus::bench::BenchCrashIdentity();
  std::printf("crash identity: w1 %s, w4 %s, cross-pool %s\n",
              crash.w1_identical ? "ok" : "FAIL",
              crash.w4_identical ? "ok" : "FAIL",
              crash.cross_pool_identical ? "ok" : "FAIL");

  if (!json_path.empty()) {
    papyrus::bench::WriteJson(json_path, smoke, wal, commit, recovery,
                              incremental, crash);
    std::printf("wrote %s\n", json_path.c_str());
  }
  const bool ok = commit.speedup >= 5 && recovery.ok &&
                  incremental.bytes_frac <= 0.25 && crash.w1_identical &&
                  crash.w4_identical && crash.cross_pool_identical;
  if (smoke) {
    std::printf("smoke: %s\n", ok ? "PASS" : "FAIL");
    return ok ? 0 : 1;
  }
  return 0;
}
