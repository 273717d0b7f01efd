#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "activity/persistence.h"
#include "base/clock.h"
#include "base/strings.h"
#include "core/papyrus.h"

namespace papyrus::activity {
namespace {

using oct::Layout;
using oct::LogicNetwork;
using oct::ObjectId;
using oct::TextData;

std::string ReadAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

TEST(PercentEncodingTest, RoundTripsArbitraryStrings) {
  for (const std::string& s :
       {std::string("plain"), std::string("has space"),
        std::string("new\nline\tand\ttabs"), std::string("100% sure"),
        std::string(""), std::string("%41 literal"),
        std::string("~tilde kept")}) {
    EXPECT_EQ(PercentDecode(PercentEncode(s)), s) << s;
  }
  EXPECT_EQ(PercentEncode("a b"), "a%20b");
}

TEST(DatabasePersistenceTest, RoundTripsAllStateBits) {
  ManualClock clock(5000);
  oct::OctDatabase db(&clock);
  auto v1 = db.CreateVersion("alu layout",  // name with a space
                             Layout{.num_cells = 7,
                                    .area = 123.456,
                                    .delay_ns = 1.25,
                                    .power_mw = 0.5,
                                    .wire_length = 99.5,
                                    .has_pads = true,
                                    .routed = true,
                                    .style = "standard cell",
                                    .seed = 42},
                             "wolfe");
  clock.AdvanceSeconds(10);
  auto v2 = db.CreateVersion("alu layout", Layout{.area = 1.0});
  auto logic = db.CreateVersion(
      "net", LogicNetwork{.num_inputs = 3, .minterms = 9, .seed = 2});
  auto text = db.CreateVersion("report", TextData{"line1\nline2 100%"});
  auto empty = db.CreateVersion("empty", oct::DesignPayload{});
  ASSERT_TRUE(v1.ok() && v2.ok() && logic.ok() && text.ok() && empty.ok());
  ASSERT_TRUE(db.MarkInvisible(*v2).ok());
  ASSERT_TRUE(db.Reclaim(*empty).ok());

  std::string snapshot = SerializeDatabase(db);
  ManualClock clock2(0);
  auto restored = RestoreDatabase(snapshot, &clock2);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();

  EXPECT_EQ((*restored)->TotalVersionCount(), db.TotalVersionCount());
  EXPECT_EQ((*restored)->TotalLiveBytes(), db.TotalLiveBytes());
  // v1 payload identical.
  auto rec = (*restored)->Get(*v1);
  ASSERT_TRUE(rec.ok());
  const auto& lay = std::get<Layout>((*rec)->payload);
  EXPECT_EQ(lay.num_cells, 7);
  EXPECT_DOUBLE_EQ(lay.area, 123.456);
  EXPECT_TRUE(lay.has_pads);
  EXPECT_EQ(lay.style, "standard cell");
  EXPECT_EQ((*rec)->creator_tool, "wolfe");
  EXPECT_EQ((*rec)->created_micros, 5000);
  // v2 invisible, `empty` reclaimed (and undeletable).
  EXPECT_TRUE((*restored)->Get(*v2).status().IsNotFound());
  EXPECT_TRUE((*restored)->Peek(*v2).ok());
  EXPECT_TRUE((*restored)->MarkVisible(*empty).IsFailedPrecondition());
  // Text payload with newline survived.
  auto trec = (*restored)->Get(*text);
  ASSERT_TRUE(trec.ok());
  EXPECT_EQ(std::get<TextData>((*trec)->payload).text,
            "line1\nline2 100%");
  // Version numbering continues correctly after restore.
  auto v3 = (*restored)->CreateVersion("alu layout", Layout{});
  ASSERT_TRUE(v3.ok());
  EXPECT_EQ(v3->version, 3);
}

TEST(DatabasePersistenceTest, FullRangeSeedsRoundTrip) {
  // Tool-derived payload seeds are raw 64-bit hashes, routinely above
  // INT64_MAX; restoring them through a signed parser silently zeroed
  // them (breaking byte-identical re-serialization after recovery).
  constexpr uint64_t kBig = 15855573893945410426ull;
  ManualClock clock(0);
  oct::OctDatabase db(&clock);
  auto logic =
      db.CreateVersion("n", LogicNetwork{.minterms = 3, .seed = kBig});
  auto layout = db.CreateVersion("l", Layout{.num_cells = 1, .seed = kBig});
  auto behav = db.CreateVersion(
      "b", oct::BehavioralSpec{.num_inputs = 1, .seed = kBig});
  ASSERT_TRUE(logic.ok() && layout.ok() && behav.ok());

  std::string snapshot = SerializeDatabase(db);
  ManualClock clock2(0);
  auto restored = RestoreDatabase(snapshot, &clock2);
  ASSERT_TRUE(restored.ok());
  auto lrec = (*restored)->Get(*logic);
  auto yrec = (*restored)->Get(*layout);
  auto brec = (*restored)->Get(*behav);
  ASSERT_TRUE(lrec.ok() && yrec.ok() && brec.ok());
  EXPECT_EQ(std::get<LogicNetwork>((*lrec)->payload).seed, kBig);
  EXPECT_EQ(std::get<Layout>((*yrec)->payload).seed, kBig);
  EXPECT_EQ(std::get<oct::BehavioralSpec>((*brec)->payload).seed, kBig);
  // Re-serialization of the restored database is byte-identical.
  EXPECT_EQ(SerializeDatabase(**restored), snapshot);
}

TEST(DatabasePersistenceTest, RejectsGarbage) {
  ManualClock clock(0);
  EXPECT_FALSE(RestoreDatabase("not a snapshot", &clock).ok());
  EXPECT_FALSE(
      RestoreDatabase("papyrus-db 1\nobject broken\n", &clock).ok());
  // Out-of-order versions rejected.
  EXPECT_FALSE(RestoreDatabase("papyrus-db 1\n"
                               "object ~x 2 ~ 0 0 0 1 0 none\n",
                               &clock)
                   .ok());
}

class ThreadPersistenceTest : public ::testing::Test {
 protected:
  /// Builds a branching thread with annotations, junctions and step
  /// records via a real session, then round-trips it.
  void BuildAndRoundTrip() {
    session_ = std::make_unique<Papyrus>();
    int tid = session_->CreateThread("Shifter design");
    auto p1 = session_->Invoke(tid, "Create_Logic_Description", {},
                               {"s.logic"});
    ASSERT_TRUE(p1.ok());
    auto p2 = session_->Invoke(tid, "Standard_Cell_Place_and_Route",
                               {"s.logic"}, {"s.sc"});
    ASSERT_TRUE(p2.ok());
    ASSERT_TRUE(session_->MoveCursor(tid, *p1).ok());
    auto p3 =
        session_->Invoke(tid, "PLA_Generation", {"s.logic"}, {"s.pla"});
    ASSERT_TRUE(p3.ok());
    auto thread = session_->activity().GetThread(tid);
    ASSERT_TRUE(thread.ok());
    original_ = *thread;
    ASSERT_TRUE(
        original_->Annotate(*p3, "The Start of PLA Approach").ok());

    std::string snapshot = SerializeThread(*original_);
    auto restored = RestoreThread(snapshot, &clock_);
    ASSERT_TRUE(restored.ok()) << restored.status().ToString();
    restored_ = std::move(*restored);
  }

  ManualClock clock_{0};
  std::unique_ptr<Papyrus> session_;
  DesignThread* original_ = nullptr;
  std::unique_ptr<DesignThread> restored_;
};

TEST_F(ThreadPersistenceTest, StructureSurvives) {
  BuildAndRoundTrip();
  EXPECT_EQ(restored_->id(), original_->id());
  EXPECT_EQ(restored_->name(), "Shifter design");
  EXPECT_EQ(restored_->size(), original_->size());
  EXPECT_EQ(restored_->current_cursor(), original_->current_cursor());
  EXPECT_EQ(restored_->cache_interval(), original_->cache_interval());
  EXPECT_EQ(restored_->FrontierCursors().size(),
            original_->FrontierCursors().size());
  // Node-by-node comparison.
  for (const auto& [id, node] : original_->nodes()) {
    auto copy = restored_->GetNode(id);
    ASSERT_TRUE(copy.ok()) << id;
    EXPECT_EQ((*copy)->parents, node.parents);
    EXPECT_EQ((*copy)->children, node.children);
    EXPECT_EQ((*copy)->annotation, node.annotation);
    EXPECT_EQ((*copy)->appended_micros, node.appended_micros);
    EXPECT_EQ((*copy)->record.task_name, node.record.task_name);
    EXPECT_EQ((*copy)->record.inputs, node.record.inputs);
    EXPECT_EQ((*copy)->record.outputs, node.record.outputs);
    ASSERT_EQ((*copy)->record.steps.size(), node.record.steps.size());
    for (size_t i = 0; i < node.record.steps.size(); ++i) {
      EXPECT_EQ((*copy)->record.steps[i].invocation,
                node.record.steps[i].invocation);
      EXPECT_EQ((*copy)->record.steps[i].outputs,
                node.record.steps[i].outputs);
      EXPECT_EQ((*copy)->record.steps[i].exit_status,
                node.record.steps[i].exit_status);
    }
  }
}

TEST_F(ThreadPersistenceTest, BehaviourSurvives) {
  BuildAndRoundTrip();
  // Data scope agrees.
  auto a = original_->DataScope();
  auto b = restored_->DataScope();
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(*a, *b);
  // Annotation access works on the restored thread.
  auto found = restored_->FindAnnotation("The Start of PLA Approach");
  ASSERT_TRUE(found.ok());
  // Appending continues with fresh node ids.
  task::TaskHistoryRecord rec;
  rec.task_name = "post-recovery";
  auto node = restored_->Append(std::move(rec),
                                restored_->current_cursor());
  ASSERT_TRUE(node.ok());
  EXPECT_FALSE(original_->HasNode(*node));  // id beyond the original's
  EXPECT_GT(*node, original_->size());
}

TEST_F(ThreadPersistenceTest, FullSessionCrashRecovery) {
  BuildAndRoundTrip();
  // Also persist the database and verify the restored pair still resolves
  // names as before the "crash".
  std::string db_snapshot = SerializeDatabase(session_->database());
  auto db = RestoreDatabase(db_snapshot, &clock_);
  ASSERT_TRUE(db.ok());
  auto id = restored_->ResolveInScope("s.pla");
  ASSERT_TRUE(id.ok());
  EXPECT_TRUE((*db)->Get(*id).ok());
  // The abandoned branch's objects are also reachable after rework.
  ASSERT_TRUE(restored_->MoveCursor(2).ok());
  auto sc = restored_->ResolveInScope("s.sc");
  ASSERT_TRUE(sc.ok());
  EXPECT_TRUE((*db)->Get(*sc).ok());
}

TEST(PercentEncodingTest, StrictDecoderRejectsMalformedEscapes) {
  // Valid input decodes identically to the lenient decoder.
  for (const std::string& s :
       {std::string("plain"), std::string("has space"),
        std::string("new\nline"), std::string("100% sure")}) {
    auto dec = PercentDecodeStrict(PercentEncode(s));
    ASSERT_TRUE(dec.ok()) << s;
    EXPECT_EQ(*dec, s);
  }
  // Malformed escapes are errors, not pass-throughs.
  EXPECT_TRUE(PercentDecodeStrict("%G1").status().IsInvalidArgument());
  EXPECT_TRUE(PercentDecodeStrict("%1G").status().IsInvalidArgument());
  EXPECT_TRUE(PercentDecodeStrict("abc%").status().IsInvalidArgument());
  EXPECT_TRUE(PercentDecodeStrict("abc%4").status().IsInvalidArgument());
  EXPECT_TRUE(PercentDecodeStrict("ok%20fine").ok());
  // The lenient decoder keeps its historical pass-through behavior.
  EXPECT_EQ(PercentDecode("%G1"), "%G1");
}

class CorruptionRecoveryTest : public ::testing::Test {
 protected:
  /// A database with several objects, serialized in v2 format.
  std::string MakeSnapshot(int objects) {
    ManualClock clock(0);
    oct::OctDatabase db(&clock);
    for (int i = 0; i < objects; ++i) {
      auto v = db.CreateVersion("obj" + std::to_string(i),
                                TextData{"payload " + std::to_string(i)});
      EXPECT_TRUE(v.ok());
    }
    return SerializeDatabase(db);
  }
  ManualClock clock_{0};
};

TEST_F(CorruptionRecoveryTest, CleanSnapshotReportsNoDamage) {
  std::string snap = MakeSnapshot(5);
  RestoreStats stats;
  auto db = RestoreDatabase(snap, &clock_, &stats);
  ASSERT_TRUE(db.ok());
  EXPECT_EQ(stats.records_restored, 5);
  EXPECT_EQ(stats.records_dropped, 0);
  EXPECT_FALSE(stats.truncated);
  EXPECT_EQ((*db)->TotalVersionCount(), 5);
}

TEST_F(CorruptionRecoveryTest, TruncationRecoversThePrefix) {
  std::string snap = MakeSnapshot(6);
  // Cut the file mid-way: keep the header and roughly half the records.
  size_t cut = snap.size() / 2;
  std::string truncated = snap.substr(0, snap.rfind('\n', cut) + 1);
  RestoreStats stats;
  auto db = RestoreDatabase(truncated, &clock_, &stats);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  EXPECT_TRUE(stats.truncated);
  EXPECT_GT(stats.records_restored, 0);
  EXPECT_LT(stats.records_restored, 6);
  EXPECT_EQ((*db)->TotalVersionCount(), stats.records_restored);
}

TEST_F(CorruptionRecoveryTest, BitFlipDropsTheDamagedSuffix) {
  std::string snap = MakeSnapshot(6);
  // Flip a byte inside the third record line's body.
  std::vector<std::string> lines = Split(snap, '\n');
  ASSERT_GT(lines.size(), 4u);
  std::string& victim = lines[3];  // header + two intact records first
  victim[victim.size() / 2] ^= 0x20;
  std::string damaged = Join(lines, "\n");
  RestoreStats stats;
  auto db = RestoreDatabase(damaged, &clock_, &stats);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  EXPECT_TRUE(stats.truncated);
  EXPECT_EQ(stats.records_restored, 2);
  EXPECT_EQ(stats.records_dropped, 4);
  EXPECT_EQ((*db)->TotalVersionCount(), 2);
}

TEST_F(CorruptionRecoveryTest, LegacyV1SnapshotsStillRestore) {
  ManualClock clock(0);
  EXPECT_TRUE(RestoreDatabase("papyrus-db 1\n"
                              "object ~x 1 ~ 0 0 4 1 0 none\n"
                              "end\n",
                              &clock)
                  .ok());
  EXPECT_TRUE(RestoreThread("papyrus-thread 1\nmeta 3 ~legacy 0 8\nend\n",
                            &clock)
                  .ok());
}

TEST_F(CorruptionRecoveryTest, DamagedThreadPrunesDanglingLinks) {
  // Build a real two-node thread, then chop the snapshot so the second
  // node is lost; the survivor's child link and the cursor must not
  // reference the dropped node.
  Papyrus session;
  int tid = session.CreateThread("chopped");
  auto p1 =
      session.Invoke(tid, "Create_Logic_Description", {}, {"c.logic"});
  ASSERT_TRUE(p1.ok());
  auto p2 = session.Invoke(tid, "PLA_Generation", {"c.logic"}, {"c.pla"});
  ASSERT_TRUE(p2.ok());
  auto thread = session.activity().GetThread(tid);
  ASSERT_TRUE(thread.ok());
  std::string snap = SerializeThread(**thread);

  // Drop every line belonging to node p2 and the trailer.
  std::vector<std::string> lines = Split(snap, '\n');
  std::string marker = "node " + std::to_string(*p2) + ' ';
  size_t keep = lines.size();
  for (size_t i = 0; i < lines.size(); ++i) {
    if (StartsWith(lines[i], marker)) {
      keep = i;
      break;
    }
  }
  ASSERT_LT(keep, lines.size());
  lines.resize(keep);
  std::string damaged = Join(lines, "\n") + "\n";

  RestoreStats stats;
  auto restored = RestoreThread(damaged, &clock_, &stats);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_TRUE(stats.truncated);
  EXPECT_TRUE((*restored)->HasNode(*p1));
  EXPECT_FALSE((*restored)->HasNode(*p2));
  auto node = (*restored)->GetNode(*p1);
  ASSERT_TRUE(node.ok());
  EXPECT_TRUE((*node)->children.empty());
  // The cursor pointed at p2; it falls back to a valid point.
  EXPECT_NE((*restored)->current_cursor(), *p2);
  // The recovered thread still works.
  EXPECT_TRUE((*restored)->DataScope().ok());
}

TEST(AtomicSaveTest, SaveLeavesNoTempFilesAndRoundTrips) {
  namespace fs = std::filesystem;
  fs::path dir =
      fs::temp_directory_path() / "papyrus_atomic_save_test";
  fs::remove_all(dir);

  Papyrus session;
  ASSERT_TRUE(session.OpenStorage(dir.string()).ok());
  int tid = session.CreateThread("saved");
  auto p1 =
      session.Invoke(tid, "Create_Logic_Description", {}, {"a.logic"});
  ASSERT_TRUE(p1.ok());
  ASSERT_TRUE(session.SaveGeneration().ok());
  // Save again over the existing generation: the rename path must handle
  // replacement, and no temp-file litter may remain.
  ASSERT_TRUE(session.SaveGeneration().ok());
  for (const auto& entry : fs::directory_iterator(dir)) {
    EXPECT_EQ(entry.path().filename().string().find(".tmp"),
              std::string::npos)
        << entry.path();
  }

  Papyrus fresh;
  ASSERT_TRUE(fresh.OpenStorage(dir.string()).ok());
  EXPECT_EQ(fresh.last_restore_stats().records_dropped, 0);
  EXPECT_FALSE(fresh.last_restore_stats().truncated);
  EXPECT_EQ(fresh.database().TotalVersionCount(),
            session.database().TotalVersionCount());
  fs::remove_all(dir);
}

// ---------------------------------------------------------------------------
// Legacy-layout migration through the storage engine

/// The deterministic workload used to compare a migrated legacy snapshot
/// against a session that lived on the engine from the start.
void RunMigrationWorkload(Papyrus& session) {
  int tid = session.CreateThread("mig");
  ASSERT_TRUE(
      session.Invoke(tid, "Create_Logic_Description", {}, {"m.logic"})
          .ok());
  ASSERT_TRUE(session
                  .Invoke(tid, "Standard_Cell_Place_and_Route",
                          {"m.logic"}, {"m.layout"})
                  .ok());
  ASSERT_TRUE(
      session.CheckInObject("/u/alice/notes", TextData{"run 100"}).ok());
}

/// Writes `session` in the pre-engine whole-file layout the one-time
/// migration reads: database.pdb, thread_<id>.pth, cache.pdc and the
/// session state file a daemon's snap.<N> directory carried, state.pss
/// (its format by hand: a standalone session has no applied lines).
void WriteLegacySnapshot(Papyrus& session, const std::string& dir) {
  namespace fs = std::filesystem;
  fs::create_directories(dir);
  auto write = [&](const std::string& name, const std::string& text) {
    std::ofstream(fs::path(dir) / name, std::ios::binary) << text;
  };
  write("database.pdb", SerializeDatabase(session.database()));
  write("cache.pdc", SerializeDerivationCache(session.step_cache()));
  write("state.pss",
        "papyrus-session-state v1\nclock " +
            std::to_string(session.clock().NowMicros()) + "\nnextexec " +
            std::to_string(session.task_manager().next_execution_id()) +
            "\n");
  for (int id : session.activity().ThreadIds()) {
    auto thread = session.activity().GetThread(id);
    ASSERT_TRUE(thread.ok());
    write("thread_" + std::to_string(id) + ".pth", SerializeThread(**thread));
  }
}

/// Compacts and returns every live section's bytes, keyed by name.
std::map<std::string, std::string> SectionFingerprint(Papyrus& session) {
  std::map<std::string, std::string> fp;
  EXPECT_TRUE(session.SaveGeneration().ok());
  for (const auto& [name, file] :
       session.store()->CurrentSectionFiles()) {
    auto text = session.store()->ReadSection(name);
    EXPECT_TRUE(text.ok()) << name << ": " << text.status().message();
    fp[name] = text.ok() ? *text : "<unreadable>";
  }
  return fp;
}

std::string MigrationDir(const std::string& name) {
  namespace fs = std::filesystem;
  fs::path dir = fs::temp_directory_path() / ("papyrus_mig_" + name);
  std::error_code ec;
  fs::remove_all(dir, ec);
  fs::create_directories(dir, ec);
  return dir.string();
}

TEST(LegacyMigrationTest, FlatLayoutRestoresByteIdenticallyAndMigrates) {
  namespace fs = std::filesystem;
  // Reference: the same work done on the engine from the start.
  std::map<std::string, std::string> reference;
  {
    Papyrus session;
    ASSERT_TRUE(session.OpenStorage(MigrationDir("flat_ref")).ok());
    RunMigrationWorkload(session);
    reference = SectionFingerprint(session);
  }
  ASSERT_GT(reference.size(), 0u);

  // A pre-engine session saved with the PR 1 whole-file flat layout.
  std::string dir = MigrationDir("flat_legacy");
  {
    Papyrus session;
    RunMigrationWorkload(session);
    WriteLegacySnapshot(session, dir);
  }
  ASSERT_TRUE(fs::exists(fs::path(dir) / "database.pdb"));

  // Opening through the engine migrates: the restored state serializes
  // byte-identically to the never-legacy reference, and the next open
  // finds an engine layout.
  {
    Papyrus session;
    ASSERT_TRUE(session.OpenStorage(dir).ok());
    EXPECT_EQ(session.last_restore_stats().records_dropped, 0);
    std::map<std::string, std::string> migrated =
        SectionFingerprint(session);
    EXPECT_EQ(migrated, reference);
  }
  EXPECT_NE(ReadAll((fs::path(dir) / "CURRENT").string())
                .find("manifest."),
            std::string::npos);
  {
    Papyrus session;
    ASSERT_TRUE(session.OpenStorage(dir).ok());
    EXPECT_TRUE(
        session.database().LatestVisible("m.layout").ok());
  }
}

TEST(LegacyMigrationTest, SnapDirLayoutMigratesAndContinuesNumbering) {
  namespace fs = std::filesystem;
  std::map<std::string, std::string> reference;
  {
    Papyrus session;
    ASSERT_TRUE(session.OpenStorage(MigrationDir("snap_ref")).ok());
    RunMigrationWorkload(session);
    reference = SectionFingerprint(session);
  }

  // A pre-engine daemon session: CURRENT -> snap.<N>/ of whole files.
  std::string dir = MigrationDir("snap_legacy");
  {
    Papyrus session;
    RunMigrationWorkload(session);
    WriteLegacySnapshot(session, (fs::path(dir) / "snap.7").string());
    std::ofstream current(fs::path(dir) / "CURRENT",
                          std::ios::binary | std::ios::trunc);
    current << "snap.7\n";
  }

  Papyrus session;
  ASSERT_TRUE(session.OpenStorage(dir).ok());
  std::map<std::string, std::string> migrated =
      SectionFingerprint(session);
  EXPECT_EQ(migrated, reference);
  // Engine generations continue after the legacy number, and the
  // migrated snapshot directory is pruned once a manifest owns the data.
  EXPECT_EQ(session.store()->generation(), 8u);
  EXPECT_FALSE(fs::exists(fs::path(dir) / "snap.7"));
}

TEST(ThreadPersistenceErrorTest, RejectsGarbage) {
  ManualClock clock(0);
  EXPECT_FALSE(RestoreThread("nope", &clock).ok());
  EXPECT_FALSE(RestoreThread("papyrus-thread 1\nnode 1 0 0 0 ~\n", &clock)
                   .ok());  // missing meta
  EXPECT_FALSE(
      RestoreThread("papyrus-thread 1\nmeta 1 ~t 99 8\n", &clock).ok());
  // ^ cursor points at a missing node
}

}  // namespace
}  // namespace papyrus::activity
