#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "base/hash.h"
#include "cache/derivation_cache.h"
#include "obs/metrics.h"
#include "core/papyrus.h"
#include "oct/design_data.h"
#include "server/daemon.h"
#include "storage/cas.h"
#include "task/task_manager.h"

namespace papyrus::storage {
namespace {

namespace fs = std::filesystem;

using oct::BehavioralSpec;
using oct::ObjectId;
using oct::TextData;

/// A fresh, empty scratch directory per test (re-runs included).
std::string FreshDir(const std::string& name) {
  fs::path dir = fs::path(::testing::TempDir()) / ("cas_" + name);
  std::error_code ec;
  fs::remove_all(dir, ec);
  fs::create_directories(dir, ec);
  return dir.string();
}

std::string ReadAll(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

void WriteAll(const fs::path& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << bytes;
}

CasEntryMeta Meta(const std::string& tool, int64_t cost = 1000) {
  CasEntryMeta meta;
  meta.tool = tool;
  meta.tool_version = "1";
  meta.canonical_options = "-f $i0 $o0";
  meta.seed_salt = 7;
  meta.cost_micros = cost;
  return meta;
}

std::vector<CasPublishOutput> OneOutput(const std::string& bytes,
                                        const std::string& name = "out") {
  CasPublishOutput out;
  out.name_hint = name;
  out.visible = true;
  out.bytes = bytes;
  return {out};
}

/// The on-disk blob file backing a published output.
fs::path BlobFile(const std::string& root, const std::string& bytes) {
  std::string hash = Sha256Hex(bytes);
  return fs::path(root) / "blobs" / hash.substr(0, 2) / hash;
}

// ---------------------------------------------------------------------------
// ContentStore basics
// ---------------------------------------------------------------------------

TEST(ContentStoreTest, PublishFetchRoundTripsMetaAndBytes) {
  std::string root = FreshDir("roundtrip");
  auto store = ContentStore::Open(root);
  ASSERT_TRUE(store.ok()) << store.status().message();

  ASSERT_TRUE((*store)->Publish("key-a", Meta("misII", 12345),
                                OneOutput("layout bytes", "a.layout"))
                  .ok());
  EXPECT_TRUE((*store)->Contains("key-a"));
  EXPECT_FALSE((*store)->Contains("key-b"));

  auto hit = (*store)->Fetch("key-a");
  ASSERT_TRUE(hit.ok()) << hit.status().message();
  EXPECT_EQ(hit->meta.tool, "misII");
  EXPECT_EQ(hit->meta.tool_version, "1");
  EXPECT_EQ(hit->meta.cost_micros, 12345);
  ASSERT_EQ(hit->outputs.size(), 1u);
  EXPECT_EQ(hit->outputs[0].name_hint, "a.layout");
  EXPECT_EQ(hit->outputs[0].bytes, "layout bytes");
  EXPECT_EQ(hit->outputs[0].blob_hash, Sha256Hex("layout bytes"));

  EXPECT_TRUE((*store)->Fetch("key-b").status().IsNotFound());
  CasStats s = (*store)->stats();
  EXPECT_EQ(s.published, 1);
  EXPECT_EQ(s.hits, 1);
  EXPECT_EQ(s.misses, 1);
  EXPECT_EQ(s.entries, 1);
  EXPECT_EQ(s.blobs, 1);
  EXPECT_EQ(s.total_bytes,
            static_cast<int64_t>(std::string("layout bytes").size()));
}

TEST(ContentStoreTest, NegativeEntryCacheShortCircuitsKnownAbsentKeys) {
  std::string root = FreshDir("negcache");
  auto store = ContentStore::Open(root);
  ASSERT_TRUE(store.ok());
  obs::MetricsRegistry metrics;
  obs::Observability obs;
  obs.metrics = &metrics;
  (*store)->set_observability(obs);

  // The first probe is a genuine miss that seeds the negative cache...
  EXPECT_TRUE((*store)->Fetch("absent").status().IsNotFound());
  CasStats s = (*store)->stats();
  EXPECT_EQ(s.misses, 1);
  EXPECT_EQ(s.neg_hits, 0);
  EXPECT_EQ(s.neg_entries, 1);

  // ...and every repeat short-circuits on it, Fetch and Contains alike.
  EXPECT_TRUE((*store)->Fetch("absent").status().IsNotFound());
  EXPECT_FALSE((*store)->Contains("absent"));
  s = (*store)->stats();
  EXPECT_EQ(s.misses, 2);  // Contains never counted misses
  EXPECT_EQ(s.neg_hits, 2);
  EXPECT_EQ(metrics.FindOrCreateCounter(obs::kCasNegHits)->value(), 2);

  // Publish invalidates the key: a stale negative entry can never mask a
  // later publication.
  ASSERT_TRUE(
      (*store)->Publish("absent", Meta("misII"), OneOutput("now")).ok());
  EXPECT_TRUE((*store)->Contains("absent"));
  auto hit = (*store)->Fetch("absent");
  ASSERT_TRUE(hit.ok()) << hit.status().message();
  s = (*store)->stats();
  EXPECT_EQ(s.neg_hits, 2);     // no stale short-circuit after Publish
  EXPECT_EQ(s.neg_entries, 0);
  EXPECT_EQ(s.hits, 1);
}

TEST(ContentStoreTest, IdenticalBytesAcrossEntriesShareOneBlob) {
  std::string root = FreshDir("dedup");
  auto store = ContentStore::Open(root);
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE(
      (*store)->Publish("key-a", Meta("misII"), OneOutput("same")).ok());
  ASSERT_TRUE(
      (*store)->Publish("key-b", Meta("wolfe"), OneOutput("same")).ok());

  CasStats s = (*store)->stats();
  EXPECT_EQ(s.entries, 2);
  EXPECT_EQ(s.blobs, 1);  // one physical copy
  EXPECT_EQ(s.dedup_bytes, 4);
  EXPECT_EQ(s.bytes_written, 4);
  EXPECT_EQ(s.live_blobs, 1);       // refs == 2
  EXPECT_EQ(s.evictable_blobs, 0);

  // Re-publishing an existing key with identical content is pure dedup.
  ASSERT_TRUE(
      (*store)->Publish("key-a", Meta("misII"), OneOutput("same")).ok());
  s = (*store)->stats();
  EXPECT_EQ(s.published, 2);
  EXPECT_EQ(s.dedup_bytes, 8);
  EXPECT_EQ(s.entries, 2);
}

TEST(ContentStoreTest, ReopenRestoresEntriesAndServesHits) {
  std::string root = FreshDir("reopen");
  {
    auto store = ContentStore::Open(root);
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE((*store)
                    ->Publish("key-a", Meta("misII", 777),
                              OneOutput("persisted bytes"))
                    .ok());
  }
  auto reopened = ContentStore::Open(root);
  ASSERT_TRUE(reopened.ok()) << reopened.status().message();
  auto hit = (*reopened)->Fetch("key-a");
  ASSERT_TRUE(hit.ok());
  EXPECT_EQ(hit->meta.cost_micros, 777);
  EXPECT_EQ(hit->outputs[0].bytes, "persisted bytes");
  EXPECT_EQ((*reopened)->stats().orphans_collected, 0);
}

// ---------------------------------------------------------------------------
// Corruption and crash recovery
// ---------------------------------------------------------------------------

TEST(ContentStoreTest, BitFlippedBlobIsRejectedAndEntryDropped) {
  std::string root = FreshDir("bitflip");
  auto store = ContentStore::Open(root);
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE((*store)
                  ->Publish("key-a", Meta("misII"),
                            OneOutput("pristine content"))
                  .ok());
  fs::path blob = BlobFile(root, "pristine content");
  ASSERT_TRUE(fs::exists(blob));
  std::string bytes = ReadAll(blob);
  bytes[0] ^= 0x01;  // single bit flip
  WriteAll(blob, bytes);

  // Corrupt bytes are never handed out; the damaged entry is dropped so
  // the caller re-runs the tool.
  EXPECT_TRUE((*store)->Fetch("key-a").status().IsAborted());
  EXPECT_FALSE((*store)->Contains("key-a"));
  EXPECT_EQ((*store)->stats().verify_failures, 1);
  EXPECT_TRUE((*store)->Fetch("key-a").status().IsNotFound());

  // The slate is clean: republishing stores fresh verified bytes.
  ASSERT_TRUE((*store)
                  ->Publish("key-a", Meta("misII"),
                            OneOutput("pristine content"))
                  .ok());
  EXPECT_TRUE((*store)->Fetch("key-a").ok());
}

TEST(ContentStoreTest, TornJournalTailRecoversLongestValidPrefix) {
  std::string root = FreshDir("torn");
  {
    auto store = ContentStore::Open(root);
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE(
        (*store)->Publish("key-a", Meta("misII"), OneOutput("aaaa")).ok());
    ASSERT_TRUE(
        (*store)->Publish("key-b", Meta("wolfe"), OneOutput("bbbb")).ok());
  }
  // Tear the journal mid-way through its last record — the crash left
  // key-b's put half-written. (Open checkpointed the then-empty state,
  // so both puts live in the journal.)
  fs::path journal = fs::path(root) / "cas.journal";
  std::string text = ReadAll(journal);
  ASSERT_FALSE(text.empty());
  WriteAll(journal, text.substr(0, text.size() / 2));

  auto reopened = ContentStore::Open(root);
  ASSERT_TRUE(reopened.ok());
  EXPECT_TRUE((*reopened)->Contains("key-a"));
  EXPECT_FALSE((*reopened)->Contains("key-b"));
  // key-b's blob lost its last reference with the torn put; the orphan
  // sweep reclaimed the file.
  EXPECT_EQ((*reopened)->stats().orphans_collected, 1);
  EXPECT_FALSE(fs::exists(BlobFile(root, "bbbb")));
  auto hit = (*reopened)->Fetch("key-a");
  ASSERT_TRUE(hit.ok());
  EXPECT_EQ(hit->outputs[0].bytes, "aaaa");
}

TEST(ContentStoreTest, CrashBetweenBlobWriteAndJournalLeavesCollectableOrphan) {
  std::string root = FreshDir("orphan");
  {
    auto store = ContentStore::Open(root);
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE(
        (*store)->Publish("key-a", Meta("misII"), OneOutput("kept")).ok());
  }
  // Simulate the publish crash window: the blob file landed, the journal
  // record never did.
  std::string orphan_bytes = "orphaned blob content";
  fs::path orphan = BlobFile(root, orphan_bytes);
  std::error_code ec;
  fs::create_directories(orphan.parent_path(), ec);
  WriteAll(orphan, orphan_bytes);

  auto reopened = ContentStore::Open(root);
  ASSERT_TRUE(reopened.ok());
  EXPECT_FALSE(fs::exists(orphan));
  EXPECT_EQ((*reopened)->stats().orphans_collected, 1);
  // The referenced blob survived the sweep.
  EXPECT_TRUE((*reopened)->Fetch("key-a").ok());
}

TEST(ContentStoreTest, RecoveryIsConsistentAtEveryJournalTruncationPoint) {
  // The journaled ref-count protocol: chopping the journal at *any* byte
  // must recover a consistent store — entries either fully exist or
  // fully don't, blob files exactly match the recovered references, and
  // reopening is always possible. This is the "daemon killed mid
  // ref-count update" property, exhaustively.
  std::string root = FreshDir("chop");
  {
    auto store = ContentStore::Open(root);
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE(
        (*store)->Publish("k1", Meta("misII"), OneOutput("shared")).ok());
    ASSERT_TRUE(
        (*store)->Publish("k2", Meta("wolfe"), OneOutput("shared")).ok());
    ASSERT_TRUE(
        (*store)->Publish("k3", Meta("padp"), OneOutput("solo")).ok());
    ASSERT_TRUE((*store)->Fetch("k1").ok());  // adds a touch record
  }
  fs::path journal = fs::path(root) / "cas.journal";
  fs::path state = fs::path(root) / "cas.state";
  std::string full = ReadAll(journal);
  std::string state_backup = ReadAll(state);
  ASSERT_FALSE(full.empty());
  fs::path blobs_backup = fs::path(root) / "blobs_backup";
  fs::copy(fs::path(root) / "blobs", blobs_backup,
           fs::copy_options::recursive);

  for (size_t cut = 0; cut <= full.size(); cut += 7) {
    // Restore the pre-crash disk state, then crash at byte `cut`.
    // (Each Open compacts journal into checkpoint, so both are reset.)
    std::error_code ec;
    fs::remove_all(fs::path(root) / "blobs", ec);
    fs::copy(blobs_backup, fs::path(root) / "blobs",
             fs::copy_options::recursive);
    WriteAll(state, state_backup);
    WriteAll(journal, full.substr(0, cut));

    auto store = ContentStore::Open(root);
    ASSERT_TRUE(store.ok()) << "cut=" << cut;
    // Every surviving entry must fetch cleanly (its blobs exist and
    // verify); k1 before k2 in the journal, so k2 implies k1.
    CasStats s = (*store)->stats();
    for (const char* key : {"k1", "k2", "k3"}) {
      if ((*store)->Contains(key)) {
        EXPECT_TRUE((*store)->Fetch(key).ok())
            << "cut=" << cut << " key=" << key;
      }
    }
    EXPECT_LE(s.entries, 3) << "cut=" << cut;
    // Open re-checkpointed: the state must also survive a second open.
    store->reset();
    auto again = ContentStore::Open(root);
    ASSERT_TRUE(again.ok()) << "cut=" << cut;
    EXPECT_EQ((*again)->stats().entries, s.entries) << "cut=" << cut;
  }
}

TEST(ContentStoreTest, EveryPublishReachesAnFsync) {
  std::string root = FreshDir("fsync");
  auto store = ContentStore::Open(root);
  ASSERT_TRUE(store.ok());
  int64_t syncs = (*store)->stats().journal_syncs;
  ASSERT_TRUE((*store)->Publish("k1", Meta("misII"), OneOutput("a")).ok());
  EXPECT_EQ((*store)->stats().journal_syncs, syncs + 1) << "publish";
  ASSERT_TRUE((*store)->Publish("k1", Meta("misII"), OneOutput("a")).ok());
  EXPECT_EQ((*store)->stats().journal_syncs, syncs + 2) << "republish";
  ASSERT_TRUE((*store)->Publish("k2", Meta("wolfe"), OneOutput("b")).ok());
  EXPECT_EQ((*store)->stats().journal_syncs, syncs + 3) << "publish";
}

TEST(ContentStoreTest, TwoWritersOnOneRootKeepEachOthersEntries) {
  // Two stores on one root behave like two papyrusd workers: B publishes
  // before and after A's compaction, and neither of B's entries (nor
  // their blobs) may be lost to A's checkpoint or orphan sweep.
  std::string root = FreshDir("two_writers");
  CasOptions options;
  options.checkpoint_interval = 4;
  auto a = ContentStore::Open(root, options);
  auto b = ContentStore::Open(root, options);
  ASSERT_TRUE(a.ok() && b.ok());
  ASSERT_TRUE(
      (*b)->Publish("b-before", Meta("padp"), OneOutput("b before")).ok());
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE((*a)->Publish("a" + std::to_string(i), Meta("misII"),
                              OneOutput("a bytes " + std::to_string(i)))
                    .ok());
  }
  ASSERT_TRUE(
      (*b)->Publish("b-after", Meta("padp"), OneOutput("b after")).ok());
  // Each writer sees the other's entries.
  EXPECT_TRUE((*a)->Fetch("b-after").ok());
  EXPECT_TRUE((*b)->Fetch("a5").ok());
  a->reset();
  b->reset();

  auto reopened = ContentStore::Open(root, options);
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ((*reopened)->stats().orphans_collected, 0);
  EXPECT_EQ((*reopened)->stats().entries, 8);
  for (const char* key : {"b-before", "b-after"}) {
    auto fetched = (*reopened)->Fetch(key);
    EXPECT_TRUE(fetched.ok()) << key << ": " << fetched.status().message();
  }
  EXPECT_TRUE(fs::exists(BlobFile(root, "b before")));
  EXPECT_TRUE(fs::exists(BlobFile(root, "b after")));
}

// ---------------------------------------------------------------------------
// Eviction
// ---------------------------------------------------------------------------

TEST(ContentStoreTest, LruEvictionHonorsBudgetAndNeverEvictsTheNewEntry) {
  std::string root = FreshDir("evict");
  CasOptions options;
  options.size_budget_bytes = 10;
  auto store = ContentStore::Open(root, options);
  ASSERT_TRUE(store.ok());

  ASSERT_TRUE(
      (*store)->Publish("k1", Meta("misII"), OneOutput("11111")).ok());
  ASSERT_TRUE(
      (*store)->Publish("k2", Meta("wolfe"), OneOutput("22222")).ok());
  EXPECT_EQ((*store)->stats().total_bytes, 10);

  // k1 is oldest; publishing k3 (5 bytes) must evict it, not k3 itself.
  ASSERT_TRUE(
      (*store)->Publish("k3", Meta("padp"), OneOutput("33333")).ok());
  EXPECT_FALSE((*store)->Contains("k1"));
  EXPECT_TRUE((*store)->Contains("k2"));
  EXPECT_TRUE((*store)->Contains("k3"));
  EXPECT_FALSE(fs::exists(BlobFile(root, "11111")));
  CasStats s = (*store)->stats();
  EXPECT_EQ(s.evicted_entries, 1);
  EXPECT_EQ(s.evicted_bytes, 5);
  EXPECT_EQ(s.total_bytes, 10);

  // A fetch refreshes k2's LRU position, so the next eviction takes k3.
  ASSERT_TRUE((*store)->Fetch("k2").ok());
  ASSERT_TRUE(
      (*store)->Publish("k4", Meta("mosaico"), OneOutput("44444")).ok());
  EXPECT_TRUE((*store)->Contains("k2"));
  EXPECT_FALSE((*store)->Contains("k3"));
}

TEST(ContentStoreTest, EvictionNeverDeletesABlobAnotherEntryReferences) {
  std::string root = FreshDir("evict_shared");
  CasOptions options;
  options.size_budget_bytes = 13;
  auto store = ContentStore::Open(root, options);
  ASSERT_TRUE(store.ok());

  // k1 carries a private 6-byte blob plus a 6-byte blob it shares with
  // k2; k3's own 6 bytes push unique bytes to 18 > 13, evicting LRU k1.
  std::vector<CasPublishOutput> k1_outputs = OneOutput("shared");
  k1_outputs.push_back(OneOutput("k1only")[0]);
  ASSERT_TRUE((*store)->Publish("k1", Meta("misII"), k1_outputs).ok());
  ASSERT_TRUE(
      (*store)->Publish("k2", Meta("wolfe"), OneOutput("shared")).ok());
  ASSERT_TRUE(
      (*store)->Publish("k3", Meta("padp"), OneOutput("unique")).ok());
  EXPECT_FALSE((*store)->Contains("k1"));
  EXPECT_TRUE((*store)->Contains("k2"));
  // k1's private blob was reclaimed, but the blob k2 still references
  // survived the eviction and still serves verified bytes.
  EXPECT_FALSE(fs::exists(BlobFile(root, "k1only")));
  ASSERT_TRUE(fs::exists(BlobFile(root, "shared")));
  auto hit = (*store)->Fetch("k2");
  ASSERT_TRUE(hit.ok());
  EXPECT_EQ(hit->outputs[0].bytes, "shared");
  // Only the private blob's bytes were freed.
  EXPECT_EQ((*store)->stats().evicted_bytes, 6);
  EXPECT_EQ((*store)->stats().total_bytes, 12);
}

// ---------------------------------------------------------------------------
// Concurrency (exercised under TSan in CI)
// ---------------------------------------------------------------------------

TEST(ContentStoreTest, ConcurrentPublishFetchEvictIsSafe) {
  std::string root = FreshDir("threads");
  CasOptions options;
  options.size_budget_bytes = 200;  // keep eviction constantly active
  options.checkpoint_interval = 16;
  auto opened = ContentStore::Open(root, options);
  ASSERT_TRUE(opened.ok());
  ContentStore* store = opened->get();

  constexpr int kThreads = 4;
  constexpr int kOpsPerThread = 60;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([store, t]() {
      for (int i = 0; i < kOpsPerThread; ++i) {
        // Half the keys are shared across threads, half are private:
        // both the dedup path and the write path race with eviction.
        std::string key = (i % 2 == 0)
                              ? "shared-" + std::to_string(i % 8)
                              : "t" + std::to_string(t) + "-" +
                                    std::to_string(i);
        std::string bytes = "payload-" + key;
        ASSERT_TRUE(
            store->Publish(key, Meta("misII"), OneOutput(bytes)).ok());
        auto hit = store->Fetch(key);
        // Another thread's publish may have evicted it already — but a
        // served hit must always carry verified, correct bytes.
        if (hit.ok()) {
          ASSERT_EQ(hit->outputs[0].bytes, bytes);
        } else {
          ASSERT_TRUE(hit.status().IsNotFound());
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();

  CasStats s = store->stats();
  EXPECT_EQ(s.verify_failures, 0);  // eviction never tore a live read
  EXPECT_LE(s.total_bytes, 200);
  // The store is still fully consistent: a reopen recovers cleanly.
  opened->reset();
  auto reopened = ContentStore::Open(root, options);
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ((*reopened)->stats().orphans_collected, 0);
}

// ---------------------------------------------------------------------------
// Cross-session elision through the derivation cache
// ---------------------------------------------------------------------------

struct FlowRun {
  int64_t executed = 0;
  int64_t elided = 0;
  bool committed = false;
  std::vector<ObjectId> outputs;
};

FlowRun RunFlow(Papyrus& session, const ObjectId& spec,
                const ObjectId& cmds) {
  task::TaskInvocation inv;
  inv.template_name = "Structure_Synthesis";
  inv.inputs = {spec, cmds};
  inv.output_names = {"spec.layout", "spec.stats"};
  inv.seed = 42;
  FlowRun r;
  int64_t e0 = session.task_manager().steps_executed();
  int64_t l0 = session.task_manager().steps_elided();
  auto rec = session.task_manager().Invoke(inv);
  r.executed = session.task_manager().steps_executed() - e0;
  r.elided = session.task_manager().steps_elided() - l0;
  r.committed = rec.ok();
  if (rec.ok()) r.outputs = rec->outputs;
  return r;
}

/// Content hashes of a run's committed task outputs — the byte-level
/// identity a shared-store hit must preserve.
std::vector<std::string> OutputHashes(Papyrus& session,
                                      const std::vector<ObjectId>& ids) {
  std::vector<std::string> hashes;
  for (const ObjectId& id : ids) {
    auto hash = session.database().ContentHash(id);
    EXPECT_TRUE(hash.ok());
    hashes.push_back(hash.ok() ? *hash : "");
  }
  return hashes;
}

TEST(SharedStoreSessionTest, FreshSessionElidesStepsAnotherSessionRan) {
  std::string store_dir = FreshDir("cross_session");

  std::vector<std::string> cold_hashes;
  {
    SessionOptions options;
    options.shared_store_path = store_dir;
    Papyrus cold(options);
    ASSERT_NE(cold.shared_store(), nullptr);
    auto spec = cold.database().CreateVersion(
        "spec", BehavioralSpec{8, 8, 12, 77});
    auto cmds =
        cold.database().CreateVersion("sim.cmd", TextData{"run 100"});
    FlowRun run = RunFlow(cold, *spec, *cmds);
    ASSERT_TRUE(run.committed);
    EXPECT_EQ(run.executed, 6);
    EXPECT_EQ(run.elided, 0);
    cold_hashes = OutputHashes(cold, run.outputs);
    // Commit published the six derivations.
    EXPECT_GE(cold.shared_store()->stats().entries, 6);
  }

  // A brand-new session — empty database, empty session cache — derives
  // the same content keys from identical input bytes and elides every
  // step through the store.
  SessionOptions options;
  options.shared_store_path = store_dir;
  Papyrus warm(options);
  auto spec = warm.database().CreateVersion(
      "spec", BehavioralSpec{8, 8, 12, 77});
  auto cmds =
      warm.database().CreateVersion("sim.cmd", TextData{"run 100"});
  int64_t t0 = warm.clock().NowMicros();
  FlowRun run = RunFlow(warm, *spec, *cmds);
  ASSERT_TRUE(run.committed);
  EXPECT_EQ(run.executed, 0);
  EXPECT_EQ(run.elided, 6);
  // Shared hits complete at zero virtual cost.
  EXPECT_EQ(warm.clock().NowMicros(), t0);
  EXPECT_EQ(warm.step_cache().stats().shared_hits, 6);
  // Byte identity: the re-bound outputs hash exactly as the cold run's.
  EXPECT_EQ(OutputHashes(warm, run.outputs), cold_hashes);

  // Within the warm session the derivation is now locally cached: a
  // rerun hits the session cache, not the store again.
  int64_t shared_hits = warm.step_cache().stats().shared_hits;
  FlowRun rerun = RunFlow(warm, *spec, *cmds);
  ASSERT_TRUE(rerun.committed);
  EXPECT_EQ(rerun.executed, 0);
  EXPECT_EQ(warm.step_cache().stats().shared_hits, shared_hits);
}

TEST(SharedStoreSessionTest, WarmRunsArePoolSizeInvariant) {
  std::string store_dir = FreshDir("pool_invariance");
  {
    SessionOptions options;
    options.shared_store_path = store_dir;
    Papyrus cold(options);
    auto spec = cold.database().CreateVersion(
        "spec", BehavioralSpec{8, 8, 12, 77});
    auto cmds =
        cold.database().CreateVersion("sim.cmd", TextData{"run 100"});
    ASSERT_TRUE(RunFlow(cold, *spec, *cmds).committed);
  }
  // Two fresh warm sessions, 1 worker vs 4: histories and outputs must
  // agree byte-for-byte (CAS hits happen at dispatch on the engine
  // thread, so the pool never reorders them).
  std::vector<std::vector<std::string>> hashes;
  std::vector<std::string> records;
  for (int workers : {1, 4}) {
    SessionOptions options;
    options.shared_store_path = store_dir;
    options.worker_threads = workers;
    Papyrus warm(options);
    auto spec = warm.database().CreateVersion(
        "spec", BehavioralSpec{8, 8, 12, 77});
    auto cmds =
        warm.database().CreateVersion("sim.cmd", TextData{"run 100"});
    task::TaskInvocation inv;
    inv.template_name = "Structure_Synthesis";
    inv.inputs = {*spec, *cmds};
    inv.output_names = {"spec.layout", "spec.stats"};
    inv.seed = 42;
    auto rec = warm.task_manager().Invoke(inv);
    ASSERT_TRUE(rec.ok());
    hashes.push_back(OutputHashes(warm, rec->outputs));
    std::ostringstream steps;
    for (const task::StepRecord& s : rec->steps) {
      steps << s.step_name << '|' << s.invocation << '|' << s.cache_hit
            << '|' << s.completion_micros << '\n';
    }
    records.push_back(steps.str());
  }
  EXPECT_EQ(hashes[0], hashes[1]);
  EXPECT_EQ(records[0], records[1]);
}

TEST(SharedStoreSessionTest, CorruptBlobFallsBackToRerunning) {
  std::string store_dir = FreshDir("corrupt_fallback");
  {
    SessionOptions options;
    options.shared_store_path = store_dir;
    Papyrus cold(options);
    auto spec = cold.database().CreateVersion(
        "spec", BehavioralSpec{8, 8, 12, 77});
    auto cmds =
        cold.database().CreateVersion("sim.cmd", TextData{"run 100"});
    ASSERT_TRUE(RunFlow(cold, *spec, *cmds).committed);
  }
  // Flip one bit in every stored blob.
  std::error_code ec;
  for (const auto& shard : fs::directory_iterator(
           fs::path(store_dir) / "blobs", ec)) {
    if (!shard.is_directory()) continue;
    for (const auto& file : fs::directory_iterator(shard.path(), ec)) {
      std::string bytes = ReadAll(file.path());
      ASSERT_FALSE(bytes.empty());
      bytes[0] ^= 0x01;
      WriteAll(file.path(), bytes);
    }
  }

  SessionOptions options;
  options.shared_store_path = store_dir;
  Papyrus warm(options);
  auto spec = warm.database().CreateVersion(
      "spec", BehavioralSpec{8, 8, 12, 77});
  auto cmds =
      warm.database().CreateVersion("sim.cmd", TextData{"run 100"});
  FlowRun run = RunFlow(warm, *spec, *cmds);
  // No corrupt bytes reached the design data: every step with outputs
  // re-ran. (The Simulate step produces nothing, so its entry has no
  // blobs to corrupt and legitimately still hits.)
  ASSERT_TRUE(run.committed);
  EXPECT_EQ(run.executed, 5);
  EXPECT_EQ(run.elided, 1);
  EXPECT_EQ(warm.step_cache().stats().shared_hits, 1);
  EXPECT_GE(warm.shared_store()->stats().verify_failures, 1);
  // The re-run republished clean bytes; a third session elides again.
  Papyrus healed(options);
  auto spec3 = healed.database().CreateVersion(
      "spec", BehavioralSpec{8, 8, 12, 77});
  auto cmds3 =
      healed.database().CreateVersion("sim.cmd", TextData{"run 100"});
  FlowRun healed_run = RunFlow(healed, *spec3, *cmds3);
  ASSERT_TRUE(healed_run.committed);
  EXPECT_EQ(healed_run.elided, 6);
}

TEST(SharedStoreSessionTest, SessionCacheSnapshotCarriesContentKeys) {
  // The v3 cache section round-trips the content key, so a restored
  // session can republish its entries into a shared store.
  std::string store_dir = FreshDir("snapshot_keys");
  std::string snap_dir = FreshDir("snapshot_keys_snap");
  SessionOptions options;
  options.shared_store_path = store_dir;
  {
    Papyrus session(options);
    ASSERT_TRUE(session.OpenStorage(snap_dir).ok());
    auto spec = session.database().CreateVersion(
        "spec", BehavioralSpec{8, 8, 12, 77});
    auto cmds =
        session.database().CreateVersion("sim.cmd", TextData{"run 100"});
    ASSERT_TRUE(RunFlow(session, *spec, *cmds).committed);
    ASSERT_TRUE(session.SaveGeneration().ok());
    auto pdc = session.store()->ReadSection("cache");
    ASSERT_TRUE(pdc.ok());
    EXPECT_EQ(pdc->rfind("papyrus-cache 3", 0), 0u);
    EXPECT_NE(pdc->find("\nckey "), std::string::npos);
  }

  // Wipe the store; restoring the session republishes all entries.
  fs::remove_all(store_dir);
  Papyrus restored(options);
  ASSERT_TRUE(restored.OpenStorage(snap_dir).ok());
  EXPECT_GE(restored.shared_store()->stats().entries, 6);
}

// ---------------------------------------------------------------------------
// Daemon integration: deferred publication + shared stat surface
// ---------------------------------------------------------------------------

TEST(SharedStoreDaemonTest, PublishesOnlyDurablyCommittedDerivations) {
  std::string root = FreshDir("daemon_defer");
  server::DaemonOptions options;
  options.root = root;
  auto daemon = server::PapyrusDaemon::Start(options);
  ASSERT_TRUE(daemon.ok()) << daemon.status().message();

  EXPECT_EQ((*daemon)->shared_store().stats().entries, 0);
  std::string checkin = (*daemon)->HandleLine(
      "checkin ~session=alpha ~path=/proj/shifter ~type=behav"
      " ~inputs=8 ~outputs=8 ~complexity=12 ~seed=77");
  ASSERT_EQ(checkin.rfind("ok", 0), 0u) << checkin;
  checkin = (*daemon)->HandleLine(
      "checkin ~session=alpha ~path=/proj/sim.cmd ~type=text"
      " ~text=run%20100");
  ASSERT_EQ(checkin.rfind("ok", 0), 0u) << checkin;
  std::string submitted = (*daemon)->HandleLine(
      "submit ~session=alpha ~thread=synth"
      " ~template=Structure_Synthesis ~in=/proj/shifter"
      " ~in=/proj/sim.cmd ~out=s.layout ~out=s.stats ~seed=42");
  ASSERT_EQ(submitted.rfind("ok", 0), 0u) << submitted;
  ASSERT_TRUE((*daemon)->Drain().ok());

  // The task executed and saved; its six derivations are now shared.
  CasStats s = (*daemon)->shared_store().stats();
  EXPECT_GE(s.entries, 6);
  std::string stat = (*daemon)->HandleLine("stat");
  EXPECT_NE(stat.find("~cas_entries="), std::string::npos) << stat;
  EXPECT_NE(stat.find("~cas_blobs="), std::string::npos) << stat;
  EXPECT_NE(stat.find("~cas_dedup_bytes="), std::string::npos) << stat;
  ASSERT_TRUE((*daemon)->Shutdown().ok());

  // The store outlives the daemon: a restart recovers it.
  daemon->reset();
  auto restarted = server::PapyrusDaemon::Start(options);
  ASSERT_TRUE(restarted.ok());
  EXPECT_GE((*restarted)->shared_store().stats().entries, 6);
}

}  // namespace
}  // namespace papyrus::storage
