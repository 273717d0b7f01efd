#include <gtest/gtest.h>

#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "activity/persistence.h"
#include "base/clock.h"
#include "cache/derivation_cache.h"
#include "cadtools/registry.h"
#include "cadtools/tool.h"
#include "core/papyrus.h"
#include "oct/database.h"
#include "oct/design_data.h"
#include "sprite/network.h"
#include "task/task_manager.h"
#include "tdl/template.h"

namespace papyrus::cache {
namespace {

using oct::BehavioralSpec;
using oct::ObjectId;
using oct::TextData;

// ---------------------------------------------------------------------------
// Key derivation units
// ---------------------------------------------------------------------------

TEST(CacheKeyTest, CanonicalizeReplacesActualNamesWithPlaceholders) {
  std::string canon = DerivationCache::CanonicalizeOptions(
      "-f -o out.p3 -r grid in.p3 extra", {"in.p3"}, {"out.p3"});
  EXPECT_EQ(canon, "-f -o $o0 -r grid $i0 extra");
  // Words that only *contain* a name are left alone; matching is per word.
  EXPECT_EQ(DerivationCache::CanonicalizeOptions("x=in.p3", {"in.p3"}, {}),
            "x=in.p3");
}

TEST(CacheKeyTest, KeyDependsOnEveryComponent) {
  std::vector<ObjectId> inputs = {{"a", 1}, {"b", 2}};
  std::string base = DerivationCache::MakeKey("misII", "1", "-f $i0", 7,
                                              inputs);
  EXPECT_NE(base, DerivationCache::MakeKey("wolfe", "1", "-f $i0", 7,
                                           inputs));
  EXPECT_NE(base, DerivationCache::MakeKey("misII", "2", "-f $i0", 7,
                                           inputs));
  EXPECT_NE(base, DerivationCache::MakeKey("misII", "1", "-g $i0", 7,
                                           inputs));
  EXPECT_NE(base, DerivationCache::MakeKey("misII", "1", "-f $i0", 8,
                                           inputs));
  EXPECT_NE(base, DerivationCache::MakeKey("misII", "1", "-f $i0", 7,
                                           {{"a", 1}, {"b", 3}}));
  EXPECT_NE(base, DerivationCache::MakeKey("misII", "1", "-f $i0", 7,
                                           {{"b", 2}, {"a", 1}}));
  EXPECT_EQ(base, DerivationCache::MakeKey("misII", "1", "-f $i0", 7,
                                           inputs));
}

// ---------------------------------------------------------------------------
// Database pin semantics
// ---------------------------------------------------------------------------

TEST(PinTest, PinnedVersionRefusesReclaimUntilUnpinned) {
  ManualClock clock(0);
  oct::OctDatabase db(&clock);
  auto id = db.CreateVersion("x", TextData{"payload"});
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(db.Pin(*id).ok());
  EXPECT_TRUE(db.IsPinned(*id));
  // No handler registered: the pin vetoes reclamation outright.
  EXPECT_TRUE(db.Reclaim(*id).IsFailedPrecondition());
  db.Unpin(*id);
  EXPECT_FALSE(db.IsPinned(*id));
  EXPECT_TRUE(db.Reclaim(*id).ok());
  // Pinning a reclaimed tombstone is refused; Unpin stays a no-op.
  EXPECT_FALSE(db.Pin(*id).ok());
  db.Unpin(*id);
  db.Unpin({"never", 9});
}

// ---------------------------------------------------------------------------
// End-to-end flow reruns (Structure_Synthesis: 6 steps, one subtask; the
// Simulate step consumes the command file and produces nothing)
// ---------------------------------------------------------------------------

struct FlowRun {
  int64_t executed = 0;
  int64_t elided = 0;
  bool committed = false;
  std::vector<ObjectId> outputs;
};

FlowRun RunFlow(Papyrus& session, const ObjectId& spec, const ObjectId& cmds,
                bool disable_step_cache = false,
                task::TaskObserver* observer = nullptr) {
  task::TaskInvocation inv;
  inv.template_name = "Structure_Synthesis";
  inv.inputs = {spec, cmds};
  inv.output_names = {"spec.layout", "spec.stats"};
  inv.seed = 42;
  inv.disable_step_cache = disable_step_cache;
  FlowRun r;
  int64_t e0 = session.task_manager().steps_executed();
  int64_t l0 = session.task_manager().steps_elided();
  auto rec = session.task_manager().Invoke(inv, observer);
  r.executed = session.task_manager().steps_executed() - e0;
  r.elided = session.task_manager().steps_elided() - l0;
  r.committed = rec.ok();
  if (rec.ok()) r.outputs = rec->outputs;
  return r;
}

TEST(DerivationCacheTest, UnchangedRerunIsFullyElided) {
  Papyrus session;
  auto spec = session.database().CreateVersion("spec",
                                               BehavioralSpec{8, 8, 12, 77});
  auto cmds = session.database().CreateVersion("sim.cmd",
                                               TextData{"run 100"});

  FlowRun cold = RunFlow(session, *spec, *cmds);
  ASSERT_TRUE(cold.committed);
  EXPECT_EQ(cold.executed, 6);
  EXPECT_EQ(cold.elided, 0);
  EXPECT_GE(session.step_cache().stats().recorded, 6);

  int64_t t0 = session.clock().NowMicros();
  FlowRun warm = RunFlow(session, *spec, *cmds);
  ASSERT_TRUE(warm.committed);
  EXPECT_EQ(warm.executed, 0);
  EXPECT_EQ(warm.elided, 6);
  // Cache hits complete instantly in virtual time.
  EXPECT_EQ(session.clock().NowMicros(), t0);
  // The rerun binds the recorded versions, not new ones.
  EXPECT_EQ(warm.outputs, cold.outputs);
  EXPECT_EQ(session.step_cache().stats().hits, 6);
  EXPECT_GT(session.step_cache().stats().micros_saved, 0);
}

TEST(DerivationCacheTest, ObserverSeesCacheHits) {
  struct CountingObserver : task::TaskObserver {
    int cache_hits = 0;
    int completed_with_flag = 0;
    void OnCacheHit(const std::string&, int64_t micros_saved) override {
      ++cache_hits;
      EXPECT_GE(micros_saved, 0);
    }
    void OnStepCompleted(const task::StepRecord& rec) override {
      if (rec.cache_hit) {
        ++completed_with_flag;
        EXPECT_EQ(rec.exit_status, 0);
      }
    }
  };
  Papyrus session;
  auto spec = session.database().CreateVersion("spec",
                                               BehavioralSpec{8, 8, 12, 77});
  auto cmds = session.database().CreateVersion("sim.cmd",
                                               TextData{"run 100"});
  ASSERT_TRUE(RunFlow(session, *spec, *cmds).committed);
  CountingObserver obs;
  FlowRun warm = RunFlow(session, *spec, *cmds, false, &obs);
  ASSERT_TRUE(warm.committed);
  EXPECT_EQ(obs.cache_hits, 6);
  EXPECT_EQ(obs.completed_with_flag, 6);
}

TEST(DerivationCacheTest, ChangedInputRerunsOnlyTheDownstreamCone) {
  Papyrus session;
  auto spec = session.database().CreateVersion("spec",
                                               BehavioralSpec{8, 8, 12, 77});
  auto cmds = session.database().CreateVersion("sim.cmd",
                                               TextData{"run 100"});
  ASSERT_TRUE(RunFlow(session, *spec, *cmds).committed);

  // Only the Simulate step consumes the command file: the synthesis
  // backbone (5 of 6 steps) is served from history.
  auto cmds2 = session.database().CreateVersion("sim.cmd",
                                                TextData{"run 200"});
  FlowRun warm = RunFlow(session, *spec, *cmds2);
  ASSERT_TRUE(warm.committed);
  EXPECT_EQ(warm.executed, 1);
  EXPECT_EQ(warm.elided, 5);

  // A changed spec cascades through every derived intermediate.
  auto spec2 = session.database().CreateVersion("spec",
                                                BehavioralSpec{8, 8, 12, 78});
  FlowRun cold2 = RunFlow(session, *spec2, *cmds2);
  ASSERT_TRUE(cold2.committed);
  EXPECT_EQ(cold2.executed, 6);
  EXPECT_EQ(cold2.elided, 0);
}

TEST(DerivationCacheTest, ReclaimedVersionInvalidatesItsEntries) {
  Papyrus session;
  auto spec = session.database().CreateVersion("spec",
                                               BehavioralSpec{8, 8, 12, 77});
  auto cmds = session.database().CreateVersion("sim.cmd",
                                               TextData{"run 100"});
  FlowRun cold = RunFlow(session, *spec, *cmds);
  ASSERT_TRUE(cold.committed);

  // The layout output is pinned by the cache; direct reclamation still
  // succeeds because the database hands the pinned version back to the
  // cache, which drops the dependent entries and releases the pins.
  ObjectId layout{"spec.layout", 1};
  ASSERT_TRUE(session.database().IsPinned(layout));
  ASSERT_TRUE(session.database().Reclaim(layout).ok());
  EXPECT_GT(session.step_cache().stats().invalidated, 0);

  // Producer (Place_and_Route) and consumer (Chip_Statistics_Collection)
  // entries are gone; the other four steps still hit.
  FlowRun warm = RunFlow(session, *spec, *cmds);
  ASSERT_TRUE(warm.committed);
  EXPECT_EQ(warm.executed, 2);
  EXPECT_EQ(warm.elided, 4);
  // The re-executed step created a fresh version past the tombstone.
  auto latest = session.database().LatestVisible("spec.layout");
  ASSERT_TRUE(latest.ok());
  EXPECT_EQ(latest->version, 2);
}

TEST(DerivationCacheTest, DeletedOutputIsNotServedFromHistory) {
  Papyrus session;
  auto spec = session.database().CreateVersion("spec",
                                               BehavioralSpec{8, 8, 12, 77});
  auto cmds = session.database().CreateVersion("sim.cmd",
                                               TextData{"run 100"});
  ASSERT_TRUE(RunFlow(session, *spec, *cmds).committed);

  // Deleting (hiding) a task-level output is a rework signal: the step
  // that produced it must re-execute rather than silently resurrect it.
  ObjectId layout{"spec.layout", 1};
  ASSERT_TRUE(session.database().MarkInvisible(layout).ok());
  FlowRun warm = RunFlow(session, *spec, *cmds);
  ASSERT_TRUE(warm.committed);
  EXPECT_EQ(warm.executed, 2);  // producer + its downstream consumer
  EXPECT_EQ(warm.elided, 4);
  // The deleted version stays deleted; the rerun made a new one.
  auto rec = session.database().Peek(layout);
  ASSERT_TRUE(rec.ok());
  EXPECT_FALSE((*rec)->visible);
  auto latest = session.database().LatestVisible("spec.layout");
  ASSERT_TRUE(latest.ok());
  EXPECT_EQ(latest->version, 2);
}

TEST(DerivationCacheTest, DisabledInvocationExecutesButStillPopulates) {
  Papyrus session;
  auto spec = session.database().CreateVersion("spec",
                                               BehavioralSpec{8, 8, 12, 77});
  auto cmds = session.database().CreateVersion("sim.cmd",
                                               TextData{"run 100"});
  ASSERT_TRUE(RunFlow(session, *spec, *cmds).committed);

  // Escape hatch: the invocation opts out of reuse but its committed
  // results still refresh the cache.
  FlowRun forced = RunFlow(session, *spec, *cmds,
                           /*disable_step_cache=*/true);
  ASSERT_TRUE(forced.committed);
  EXPECT_EQ(forced.executed, 6);
  EXPECT_EQ(forced.elided, 0);

  FlowRun warm = RunFlow(session, *spec, *cmds);
  ASSERT_TRUE(warm.committed);
  EXPECT_EQ(warm.executed, 0);
  EXPECT_EQ(warm.elided, 6);
}

TEST(DerivationCacheTest, GloballyDisabledCacheMissesWithoutCounting) {
  Papyrus session;
  auto spec = session.database().CreateVersion("spec",
                                               BehavioralSpec{8, 8, 12, 77});
  auto cmds = session.database().CreateVersion("sim.cmd",
                                               TextData{"run 100"});
  ASSERT_TRUE(RunFlow(session, *spec, *cmds).committed);
  session.step_cache().set_enabled(false);
  int64_t misses0 = session.step_cache().stats().misses;
  FlowRun off = RunFlow(session, *spec, *cmds);
  ASSERT_TRUE(off.committed);
  EXPECT_EQ(off.executed, 6);
  EXPECT_EQ(session.step_cache().stats().misses, misses0);
  session.step_cache().set_enabled(true);
  FlowRun warm = RunFlow(session, *spec, *cmds);
  EXPECT_EQ(warm.elided, 6);
}

// ---------------------------------------------------------------------------
// Custom-tool scenarios (tool versioning, same-key steps, aborted tasks)
// ---------------------------------------------------------------------------

/// A deterministic single-output tool whose release version is
/// configurable: the cache key must distinguish releases.
std::unique_ptr<cadtools::Tool> MakeCopyTool(const std::string& version) {
  cadtools::ToolDescriptor d;
  d.name = "copytool";
  d.description = "deterministic copier (test)";
  d.version = version;
  d.base_cost_micros = 5000;
  d.num_outputs = 1;
  return std::make_unique<cadtools::Tool>(
      d, [version](const cadtools::ToolRunContext& ctx) {
        cadtools::ToolRunResult r;
        r.outputs.push_back(
            TextData{"copy-v" + version + "-" + std::to_string(ctx.seed)});
        return r;
      });
}

std::unique_ptr<cadtools::Tool> MakeFailTool() {
  cadtools::ToolDescriptor d;
  d.name = "failtool";
  d.description = "always fails permanently (test)";
  d.base_cost_micros = 1000;
  return std::make_unique<cadtools::Tool>(
      d, [](const cadtools::ToolRunContext&) {
        return cadtools::ToolRunResult::Fail(3, "boom");
      });
}

struct Rig {
  ManualClock clock{0};
  oct::OctDatabase db{&clock};
  sprite::Network network{&clock, 4};
  cadtools::ToolRegistry registry;
  tdl::TemplateLibrary library;
  task::TaskManager manager{&db, &registry, &network, &library};
  DerivationCache cache{&db};

  Rig() { manager.set_derivation_cache(&cache); }

  FlowRun Invoke(const std::string& tmpl, const ObjectId& input,
                 const std::vector<std::string>& outputs) {
    task::TaskInvocation inv;
    inv.template_name = tmpl;
    inv.inputs = {input};
    inv.output_names = outputs;
    inv.seed = 7;
    FlowRun r;
    int64_t e0 = manager.steps_executed();
    int64_t l0 = manager.steps_elided();
    auto rec = manager.Invoke(inv);
    r.executed = manager.steps_executed() - e0;
    r.elided = manager.steps_elided() - l0;
    r.committed = rec.ok();
    if (rec.ok()) r.outputs = rec->outputs;
    return r;
  }
};

TEST(DerivationCacheTest, BumpedToolVersionInvalidatesMatches) {
  Rig rig;
  rig.registry.Register(MakeCopyTool("1"));
  ASSERT_TRUE(rig.library
                  .Add("task Copy {In} {Out}\n"
                       "step S {In} {Out} {copytool -o Out In}\n")
                  .ok());
  auto in = rig.db.CreateVersion("src", TextData{"hello"});
  ASSERT_TRUE(in.ok());

  EXPECT_EQ(rig.Invoke("Copy", *in, {"dst"}).executed, 1);
  EXPECT_EQ(rig.Invoke("Copy", *in, {"dst"}).elided, 1);

  // A new tool release must not be served the old release's outputs.
  rig.registry.Register(MakeCopyTool("2"));
  FlowRun bumped = rig.Invoke("Copy", *in, {"dst"});
  ASSERT_TRUE(bumped.committed);
  EXPECT_EQ(bumped.executed, 1);
  EXPECT_EQ(bumped.elided, 0);
  // And the new release's run is itself memoized.
  EXPECT_EQ(rig.Invoke("Copy", *in, {"dst"}).elided, 1);
}

TEST(DerivationCacheTest, IdenticalStepsInOneTaskDoNotSelfHit) {
  Rig rig;
  rig.registry.Register(MakeCopyTool("1"));
  // Two steps with the same tool, options and input: population happens
  // only at commit, so the second cannot be served by the first mid-task.
  ASSERT_TRUE(rig.library
                  .Add("task Twice {In} {}\n"
                       "step A {In} {a.out} {copytool -o a.out In}\n"
                       "step B {In} {b.out} {copytool -o b.out In}\n")
                  .ok());
  auto in = rig.db.CreateVersion("src", TextData{"hello"});
  ASSERT_TRUE(in.ok());

  FlowRun cold = rig.Invoke("Twice", *in, {});
  ASSERT_TRUE(cold.committed);
  EXPECT_EQ(cold.executed, 2);
  EXPECT_EQ(cold.elided, 0);
  EXPECT_EQ(rig.cache.stats().hits, 0);

  FlowRun warm = rig.Invoke("Twice", *in, {});
  ASSERT_TRUE(warm.committed);
  EXPECT_EQ(warm.executed, 0);
  EXPECT_EQ(warm.elided, 2);
}

TEST(DerivationCacheTest, AbortedTaskRecordsNothing) {
  Rig rig;
  rig.registry.Register(MakeCopyTool("1"));
  rig.registry.Register(MakeFailTool());
  ASSERT_TRUE(rig.library
                  .Add("task Doomed {In} {}\n"
                       "step Good {In} {g.out} {copytool -o g.out In}\n"
                       "step Bad {g.out} {} {failtool g.out}\n")
                  .ok());
  auto in = rig.db.CreateVersion("src", TextData{"hello"});
  ASSERT_TRUE(in.ok());

  FlowRun doomed = rig.Invoke("Doomed", *in, {});
  EXPECT_FALSE(doomed.committed);
  // The successful first step is NOT cached: only committed tasks
  // populate, so a rerun re-executes it.
  EXPECT_EQ(rig.cache.stats().recorded, 0);
  EXPECT_EQ(rig.cache.size(), 0u);
  FlowRun again = rig.Invoke("Doomed", *in, {});
  EXPECT_FALSE(again.committed);
  EXPECT_EQ(again.elided, 0);
  EXPECT_GE(again.executed, 1);
}

// ---------------------------------------------------------------------------
// ADG reuse edges and metadata
// ---------------------------------------------------------------------------

TEST(DerivationCacheTest, RerunAddsAdgReuseEdgesNotDuplicateProducers) {
  Papyrus session;
  int tid = session.CreateThread("T");
  ASSERT_TRUE(session
                  .CheckInObject("/lib/spec", BehavioralSpec{8, 8, 12, 77})
                  .ok());
  ASSERT_TRUE(
      session.CheckInObject("/lib/sim.cmd", TextData{"run 100"}).ok());

  ASSERT_TRUE(session
                  .Invoke(tid, "Structure_Synthesis",
                          {"/lib/spec", "/lib/sim.cmd"},
                          {"cell.layout", "cell.stats"})
                  .ok());
  const meta::Adg& adg = session.metadata().adg();
  size_t edges_cold = adg.edge_count();
  ASSERT_EQ(adg.reuse_count(), 0u);

  ASSERT_TRUE(session
                  .Invoke(tid, "Structure_Synthesis",
                          {"/lib/spec", "/lib/sim.cmd"},
                          {"cell.layout", "cell.stats"})
                  .ok());
  // Every elided step shows up as a reuse edge; the real derivations are
  // not re-recorded, so the producer index is unchanged.
  EXPECT_EQ(adg.reuse_count(), 6u);
  EXPECT_EQ(adg.edge_count(), edges_cold + 6);

  auto layout = session.database().LatestVisible("cell.layout");
  ASSERT_TRUE(layout.ok());
  auto producer = adg.Producer(*layout);
  ASSERT_TRUE(producer.ok());
  EXPECT_FALSE((*producer)->reuse);
  auto reuses = adg.Reuses(*layout);
  ASSERT_EQ(reuses.size(), 1u);
  EXPECT_TRUE(reuses[0]->reuse);
  EXPECT_EQ(reuses[0]->tool, (*producer)->tool);
}

TEST(DerivationCacheTest, ReworkEraseInvalidatesThroughTheCursor) {
  Papyrus session;
  int tid = session.CreateThread("T");
  auto p1 = session.Invoke(tid, "Create_Logic_Description", {},
                           {"cell.logic"});
  ASSERT_TRUE(p1.ok());
  auto p2 = session.Invoke(tid, "Standard_Cell_Place_and_Route",
                           {"cell.logic"}, {"cell.layout"});
  ASSERT_TRUE(p2.ok());

  // Erasing back to p1 deletes the place-and-route record; its memoized
  // derivation must not survive the rework.
  int64_t invalidated0 = session.step_cache().stats().invalidated;
  ASSERT_TRUE(session.MoveCursor(tid, *p1, /*erase=*/true).ok());
  EXPECT_GT(session.step_cache().stats().invalidated, invalidated0);

  int64_t e0 = session.task_manager().steps_executed();
  ASSERT_TRUE(session
                  .Invoke(tid, "Standard_Cell_Place_and_Route",
                          {"cell.logic"}, {"cell.layout"})
                  .ok());
  EXPECT_GT(session.task_manager().steps_executed(), e0);
}

// ---------------------------------------------------------------------------
// Persistence
// ---------------------------------------------------------------------------

TEST(DerivationCachePersistenceTest, SaveLoadRoundTripServesHits) {
  namespace fs = std::filesystem;
  fs::path dir = fs::temp_directory_path() / "papyrus_cache_roundtrip";
  fs::remove_all(dir);

  ObjectId spec_id, cmds_id;
  size_t saved_entries = 0;
  {
    Papyrus session;
    ASSERT_TRUE(session.OpenStorage(dir.string()).ok());
    auto spec = session.database().CreateVersion(
        "spec", BehavioralSpec{8, 8, 12, 77});
    auto cmds = session.database().CreateVersion("sim.cmd",
                                                 TextData{"run 100"});
    ASSERT_TRUE(RunFlow(session, *spec, *cmds).committed);
    spec_id = *spec;
    cmds_id = *cmds;
    saved_entries = session.step_cache().size();
    ASSERT_GT(saved_entries, 0u);
    ASSERT_TRUE(session.SaveGeneration().ok());
  }

  Papyrus fresh;
  ASSERT_TRUE(fresh.OpenStorage(dir.string()).ok());
  EXPECT_EQ(fresh.step_cache().size(), saved_entries);
  // The restored cache serves the flow entirely from the snapshot.
  FlowRun warm = RunFlow(fresh, spec_id, cmds_id);
  ASSERT_TRUE(warm.committed);
  EXPECT_EQ(warm.executed, 0);
  EXPECT_EQ(warm.elided, 6);
  fs::remove_all(dir);
}

TEST(DerivationCachePersistenceTest, RestoreSkipsEntriesWithLostVersions) {
  ManualClock clock(0);
  oct::OctDatabase db(&clock);
  auto in = db.CreateVersion("in", TextData{"x"});
  auto keep = db.CreateVersion("keep", TextData{"y"});
  auto lost = db.CreateVersion("lost", TextData{"z"});
  ASSERT_TRUE(in.ok() && keep.ok() && lost.ok());

  std::string snapshot;
  {
    DerivationCache cache(&db);
    CacheEntry a;
    a.tool = "t";
    a.tool_version = "1";
    a.canonical_options = "-o $o0 $i0";
    a.seed_salt = 5;
    a.inputs = {*in};
    a.outputs = {{*keep, true}};
    ASSERT_TRUE(cache.Record(
        DerivationCache::MakeKey(a.tool, a.tool_version,
                                 a.canonical_options, a.seed_salt,
                                 a.inputs),
        a));
    CacheEntry b = a;
    b.seed_salt = 6;
    b.outputs = {{*lost, true}};
    ASSERT_TRUE(cache.Record(
        DerivationCache::MakeKey(b.tool, b.tool_version,
                                 b.canonical_options, b.seed_salt,
                                 b.inputs),
        b));
    snapshot = activity::SerializeDerivationCache(cache);
  }
  // One recorded output does not survive into the restored database.
  ASSERT_TRUE(db.Reclaim(*lost).ok());

  DerivationCache restored(&db);
  activity::RestoreStats stats;
  ASSERT_TRUE(
      activity::RestoreDerivationCache(snapshot, &restored, &stats).ok());
  EXPECT_EQ(restored.size(), 1u);
  EXPECT_TRUE(db.IsPinned(*keep));

  DerivationCache empty(&db);
  EXPECT_FALSE(activity::RestoreDerivationCache("garbage", &empty).ok());
}

// ---------------------------------------------------------------------------
// cache.pdc format versioning (v3 added the shared-store content key)
// ---------------------------------------------------------------------------

/// One recorded entry whose only output is `out`, with `content_key`.
std::string SnapshotWithEntry(oct::OctDatabase* db, const oct::ObjectId& in,
                              const oct::ObjectId& out,
                              const std::string& content_key) {
  DerivationCache cache(db);
  CacheEntry e;
  e.tool = "t";
  e.tool_version = "1";
  e.canonical_options = "-o $o0 $i0";
  e.seed_salt = 5;
  e.inputs = {in};
  e.outputs = {{out, true}};
  e.content_key = content_key;
  EXPECT_TRUE(cache.Record(
      DerivationCache::MakeKey(e.tool, e.tool_version, e.canonical_options,
                               e.seed_salt, e.inputs),
      e));
  return activity::SerializeDerivationCache(cache);
}

TEST(DerivationCachePersistenceTest, V3RoundTripPreservesContentKey) {
  ManualClock clock(0);
  oct::OctDatabase db(&clock);
  auto in = db.CreateVersion("in", TextData{"x"});
  auto out = db.CreateVersion("out", TextData{"y"});
  ASSERT_TRUE(in.ok() && out.ok());

  std::string snapshot = SnapshotWithEntry(&db, *in, *out, "cas-key-77");
  EXPECT_EQ(snapshot.rfind("papyrus-cache 3", 0), 0u);
  EXPECT_NE(snapshot.find("\nckey "), std::string::npos);

  DerivationCache restored(&db);
  ASSERT_TRUE(activity::RestoreDerivationCache(snapshot, &restored).ok());
  EXPECT_EQ(restored.size(), 1u);
  // The content key round-tripped: re-serializing reproduces the bytes.
  EXPECT_EQ(activity::SerializeDerivationCache(restored), snapshot);
}

TEST(DerivationCachePersistenceTest, V2SnapshotRestoresWithoutContentKeys) {
  ManualClock clock(0);
  oct::OctDatabase db(&clock);
  auto in = db.CreateVersion("in", TextData{"x"});
  auto out = db.CreateVersion("out", TextData{"y"});
  ASSERT_TRUE(in.ok() && out.ok());

  // A pre-PR-8 cache had no content keys; its serialized form is the v3
  // text minus ckey lines, under the old header. (The header line carries
  // no checksum, so the rewrite yields a valid v2 snapshot.)
  std::string v3 = SnapshotWithEntry(&db, *in, *out, /*content_key=*/"");
  EXPECT_EQ(v3.find("\nckey "), std::string::npos);
  std::string v2 = "papyrus-cache 2" + v3.substr(std::string(
                       "papyrus-cache 3").size());

  DerivationCache restored(&db);
  activity::RestoreStats stats;
  ASSERT_TRUE(
      activity::RestoreDerivationCache(v2, &restored, &stats).ok());
  EXPECT_EQ(restored.size(), 1u);
  EXPECT_EQ(stats.records_dropped, 0);
  // Backward compatibility is upgrade-on-save: the restored cache
  // serializes as v3.
  EXPECT_EQ(activity::SerializeDerivationCache(restored), v3);

  // A ckey line inside a v2 body is malformed, not silently accepted.
  std::string v2_with_ckey = SnapshotWithEntry(&db, *in, *out, "k");
  v2_with_ckey = "papyrus-cache 2" + v2_with_ckey.substr(std::string(
                     "papyrus-cache 3").size());
  DerivationCache strict(&db);
  EXPECT_FALSE(
      activity::RestoreDerivationCache(v2_with_ckey, &strict).ok());
}

TEST(DerivationCachePersistenceTest, FutureFormatVersionIsRejected) {
  ManualClock clock(0);
  oct::OctDatabase db(&clock);
  auto in = db.CreateVersion("in", TextData{"x"});
  auto out = db.CreateVersion("out", TextData{"y"});
  ASSERT_TRUE(in.ok() && out.ok());
  std::string v3 = SnapshotWithEntry(&db, *in, *out, "k");
  std::string v4 = "papyrus-cache 4" + v3.substr(std::string(
                       "papyrus-cache 3").size());
  DerivationCache restored(&db);
  EXPECT_FALSE(activity::RestoreDerivationCache(v4, &restored).ok());
}

}  // namespace
}  // namespace papyrus::cache
