#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <random>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "activity/design_thread.h"
#include "activity/persistence.h"
#include "base/strings.h"
#include "core/papyrus.h"
#include "storage/engine.h"
#include "storage/journal.h"
#include "storage/wal.h"

namespace papyrus::storage {
namespace {

namespace fs = std::filesystem;

/// A fresh, empty scratch directory per test (re-runs included).
std::string FreshDir(const std::string& name) {
  fs::path dir = fs::path(::testing::TempDir()) / ("engine_" + name);
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

/// Version-4 record bodies of the multi-line kinds, a history node (`thr`)
/// and a cache entry (`cput`), with a one-line record between them.
std::vector<std::string> MultiLineRecords() {
  std::vector<std::string> bodies;
  for (int k = 1; k <= 2; ++k) {
    activity::HistoryNode node;
    node.id = k + 1;
    node.parents = {k};
    node.appended_micros = 1000 * k;
    node.record.task_name = "Place and route";
    node.record.inputs = {oct::ObjectId{"in 100%", k}};
    task::StepRecord step;
    step.step_name = "Route";
    step.tool = "wolfe";
    step.invocation = "wolfe -r 2 -o out.sc in.logic";
    step.inputs = {oct::ObjectId{"in 100%", k}};
    step.outputs = {oct::ObjectId{"out.sc", k}};
    node.record.steps.push_back(step);
    bodies.push_back(activity::NodeRecord("thr 1", node));
    cache::CacheEntry entry;
    entry.tool = "wolfe";
    entry.tool_version = "1";
    entry.canonical_options = "-r 2 -o $o0 $i0";
    entry.seed_salt = 0xfeed + k;
    entry.inputs = {oct::ObjectId{"in 100%", k}};
    entry.outputs = {cache::CachedOutput{oct::ObjectId{"out.sc", k}, true}};
    entry.content_key = "c0ffee" + std::to_string(k);
    bodies.push_back(activity::CacheEntryRecord("cput", entry));
    if (k == 1) bodies.push_back("state clock 5");
  }
  return bodies;
}

// ---------------------------------------------------------------------------
// Write-ahead log

TEST(WalTest, GroupCommitBatchesAppendsIntoOneSync) {
  std::string dir = FreshDir("wal_batch");
  std::string path = (fs::path(dir) / "wal.log").string();
  WriteAheadLog wal;
  auto opened = wal.Open(path);
  ASSERT_TRUE(opened.ok()) << opened.status().message();

  EXPECT_EQ(wal.Append("object one"), 1u);
  EXPECT_EQ(wal.Append("object two"), 2u);
  EXPECT_EQ(wal.Append("state clock 5"), 3u);
  EXPECT_EQ(wal.buffered_records(), 3u);

  auto bytes = wal.Commit();
  ASSERT_TRUE(bytes.ok());
  EXPECT_GT(*bytes, 0);
  EXPECT_EQ(wal.buffered_records(), 0u);
  EXPECT_EQ(wal.stats().commits, 1);
  EXPECT_EQ(wal.stats().syncs, 1);  // one durability barrier for the batch
  EXPECT_EQ(wal.stats().records_appended, 3);

  // An empty commit is free: no write, no sync.
  auto empty = wal.Commit();
  ASSERT_TRUE(empty.ok());
  EXPECT_EQ(*empty, 0);
  EXPECT_EQ(wal.stats().syncs, 1);

  auto replay = WriteAheadLog::Scan(path);
  ASSERT_TRUE(replay.ok());
  ASSERT_EQ(replay->records.size(), 3u);
  EXPECT_EQ(replay->records[0].body, "object one");
  EXPECT_EQ(replay->records[1].body, "object two");
  EXPECT_EQ(replay->records[2].body, "state clock 5");
  EXPECT_EQ(replay->next_seq, 4u);
  EXPECT_FALSE(replay->truncated);
}

TEST(WalTest, UncommittedAppendsAreNotDurable) {
  std::string dir = FreshDir("wal_uncommitted");
  std::string path = (fs::path(dir) / "wal.log").string();
  {
    WriteAheadLog wal;
    ASSERT_TRUE(wal.Open(path).ok());
    wal.Append("committed");
    ASSERT_TRUE(wal.Commit().ok());
    wal.Append("lost in the crash");
    // No commit: the process dies here.
  }
  auto replay = WriteAheadLog::Scan(path);
  ASSERT_TRUE(replay.ok());
  ASSERT_EQ(replay->records.size(), 1u);
  EXPECT_EQ(replay->records[0].body, "committed");
}

TEST(WalTest, TornTailRecoversLongestValidPrefixAtEveryByteOffset) {
  std::string dir = FreshDir("wal_torn");
  std::string path = (fs::path(dir) / "wal.log").string();
  // Multi-line node and cache-entry records, each one framed line.
  const std::vector<std::string> bodies = MultiLineRecords();
  ASSERT_EQ(bodies.size(), 5u);
  {
    WriteAheadLog wal;
    ASSERT_TRUE(wal.Open(path).ok());
    for (const std::string& body : bodies) wal.Append(body);
    ASSERT_TRUE(wal.Commit().ok());
  }
  const std::string bytes = ReadAll(path);
  ASSERT_GT(bytes.size(), 0u);

  // Line boundaries: offset of the first byte after each '\n'. Records
  // are valid exactly when their terminating newline survived.
  std::vector<size_t> boundaries;  // boundaries[i] = end of line i
  for (size_t i = 0; i < bytes.size(); ++i) {
    if (bytes[i] == '\n') boundaries.push_back(i + 1);
  }
  ASSERT_EQ(boundaries.size(), 6u);  // header + 5 records
  const size_t header_end = boundaries[0];

  std::string torn = (fs::path(dir) / "torn.log").string();
  std::string raw = (fs::path(dir) / "raw.log").string();
  for (size_t cut = 0; cut <= bytes.size(); ++cut) {
    WriteAll(torn, bytes.substr(0, cut));
    // The shared journal scan under every log: it keeps exactly the
    // complete lines, and a plain Journal open cuts the torn rest off
    // so the next commit extends the valid prefix.
    size_t complete = 0;
    while (complete < boundaries.size() && boundaries[complete] <= cut) {
      ++complete;
    }
    const size_t kept = complete == 0 ? 0 : boundaries[complete - 1];
    JournalScan scan = ScanJournal(bytes.substr(0, cut), 0,
                                   [](std::string_view) { return true; });
    EXPECT_EQ(scan.lines, static_cast<int64_t>(complete)) << "cut=" << cut;
    EXPECT_EQ(scan.valid_end, kept) << "cut=" << cut;
    EXPECT_EQ(scan.torn, kept != cut) << "cut=" << cut;
    WriteAll(raw, bytes.substr(0, cut));
    for (int pass = 0; pass < 2; ++pass) {
      Journal journal;
      int64_t lines = 0;
      auto lock = journal.Open({.path = raw}, [&](std::string_view) {
        ++lines;
        return true;
      });
      ASSERT_TRUE(lock.ok()) << "cut=" << cut;
      EXPECT_EQ(lines, static_cast<int64_t>(complete + pass))
          << "cut=" << cut;
      const size_t appended = FrameLine("appended after recovery").size() + 1;
      EXPECT_EQ(fs::file_size(raw), kept + pass * appended) << "cut=" << cut;
      journal.Append("appended after recovery");
      ASSERT_TRUE(journal.Commit().ok()) << "cut=" << cut;
    }
    if (cut == 0) {
      // Empty file: a fresh log.
      auto replay = WriteAheadLog::Scan(torn);
      ASSERT_TRUE(replay.ok());
      EXPECT_EQ(replay->records.size(), 0u);
      continue;
    }
    if (cut < header_end) {
      // A torn header is unreachable by crashes (headers land whole via
      // atomic rename; appends never touch them) and is rejected rather
      // than silently treated as empty.
      EXPECT_FALSE(WriteAheadLog::Scan(torn).ok()) << "cut=" << cut;
      continue;
    }
    size_t expected = 0;
    for (size_t i = 1; i < boundaries.size(); ++i) {
      if (boundaries[i] <= cut) ++expected;
    }
    auto replay = WriteAheadLog::Scan(torn);
    ASSERT_TRUE(replay.ok()) << "cut=" << cut;
    ASSERT_EQ(replay->records.size(), expected) << "cut=" << cut;
    for (size_t i = 0; i < expected; ++i) {
      EXPECT_EQ(replay->records[i].body, bodies[i]);
    }
    const bool at_boundary = boundaries[expected] == cut;
    EXPECT_EQ(replay->truncated, !at_boundary) << "cut=" << cut;
    EXPECT_EQ(replay->dropped_bytes,
              static_cast<int64_t>(cut - boundaries[expected]))
        << "cut=" << cut;

    // Open() truncates the torn tail and the log stays appendable: the
    // next record lands right after the longest valid prefix.
    WriteAheadLog wal;
    auto reopened = wal.Open(torn);
    ASSERT_TRUE(reopened.ok()) << "cut=" << cut;
    wal.Append("post-recovery");
    ASSERT_TRUE(wal.Commit().ok());
    wal.Close();
    auto final = WriteAheadLog::Scan(torn);
    ASSERT_TRUE(final.ok()) << "cut=" << cut;
    ASSERT_EQ(final->records.size(), expected + 1) << "cut=" << cut;
    EXPECT_EQ(final->records.back().body, "post-recovery");
    EXPECT_FALSE(final->truncated);
  }
}

TEST(WalTest, HeaderVersionIsReportedAndFutureVersionsRefused) {
  std::string dir = FreshDir("wal_version");
  std::string path = (fs::path(dir) / "wal.log").string();
  {
    WriteAheadLog wal;
    auto fresh = wal.Open(path);
    ASSERT_TRUE(fresh.ok());
    EXPECT_EQ(fresh->version, kWalVersion);
  }
  auto scanned = WriteAheadLog::Scan(path);
  ASSERT_TRUE(scanned.ok());
  EXPECT_EQ(scanned->version, kWalVersion);
  for (int version = 1; version <= kWalVersion + 1; ++version) {
    WriteAll(path, FrameLine("papyrus-wal " + std::to_string(version) +
                             " 4") +
                       "\n" + FrameLine("w 5 object x") + "\n");
    auto replay = WriteAheadLog::Scan(path);
    if (version > kWalVersion) {
      // A log from a later format is refused, never half-understood.
      EXPECT_FALSE(replay.ok());
      continue;
    }
    ASSERT_TRUE(replay.ok()) << version;
    EXPECT_EQ(replay->version, version);
    EXPECT_EQ(replay->base_seq, 4u);
    ASSERT_EQ(replay->records.size(), 1u);
  }
}

TEST(WalTest, ResetHandsRecordsToTheGenerationAndStaysMonotonic) {
  std::string dir = FreshDir("wal_reset");
  std::string path = (fs::path(dir) / "wal.log").string();
  WriteAheadLog wal;
  ASSERT_TRUE(wal.Open(path).ok());
  wal.Append("a");
  wal.Append("b");
  ASSERT_TRUE(wal.Commit().ok());
  ASSERT_TRUE(wal.Reset(2).ok());  // a snapshot generation owns seq 1..2
  EXPECT_EQ(wal.Append("c"), 3u);  // sequence numbers never reuse
  ASSERT_TRUE(wal.Commit().ok());

  auto replay = WriteAheadLog::Scan(path);
  ASSERT_TRUE(replay.ok());
  EXPECT_EQ(replay->base_seq, 2u);
  ASSERT_EQ(replay->records.size(), 1u);
  EXPECT_EQ(replay->records[0].seq, 3u);
  EXPECT_EQ(replay->records[0].body, "c");
  EXPECT_EQ(wal.stats().resets, 1);
}

// ---------------------------------------------------------------------------
// Session store: delta snapshots behind a manifest swap

TEST(SessionStoreTest, SaveGenerationRewritesOnlyDirtySections) {
  std::string dir = FreshDir("store_delta");
  SessionStore store;
  auto opened = store.Open(dir);
  ASSERT_TRUE(opened.ok()) << opened.status().message();
  EXPECT_EQ(opened->layout, SessionStore::Layout::kEmpty);

  ASSERT_TRUE(store
                  .SaveGeneration({{"a", "alpha v1"}, {"b", "beta v1"}},
                                  {"a", "b"})
                  .ok());
  auto files1 = store.CurrentSectionFiles();

  // Only `a` changed: `b`'s file is carried over untouched.
  ASSERT_TRUE(store.SaveGeneration({{"a", "alpha v2"}}, {"a", "b"}).ok());
  auto files2 = store.CurrentSectionFiles();
  EXPECT_EQ(files2["b"], files1["b"]);
  EXPECT_NE(files2["a"], files1["a"]);
  auto a = store.ReadSection("a");
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(*a, "alpha v2");
  auto b = store.ReadSection("b");
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(*b, "beta v1");
  EXPECT_EQ(store.save_stats().generations, 2);
  EXPECT_EQ(store.save_stats().sections_written, 3);
  EXPECT_EQ(store.save_stats().sections_reused, 1);

  // A section absent from `live` is dropped from the manifest, and
  // pruning leaves exactly the referenced files behind.
  ASSERT_TRUE(store.SaveGeneration({}, {"a"}).ok());
  EXPECT_EQ(store.CurrentSectionFiles().count("b"), 0u);
  EXPECT_TRUE(store.ReadSection("b").status().IsNotFound());
  std::set<std::string> names;
  for (const auto& entry : fs::directory_iterator(dir)) {
    names.insert(entry.path().filename().string());
  }
  EXPECT_EQ(names, (std::set<std::string>{"CURRENT", "wal.log",
                                          "manifest.3", "a.g2"}));
}

TEST(SessionStoreTest, ReopenReplaysOnlyWalRecordsAboveTheManifestBase) {
  std::string dir = FreshDir("store_reopen");
  {
    SessionStore store;
    ASSERT_TRUE(store.Open(dir).ok());
    store.AppendWal("compacted one");
    store.AppendWal("compacted two");
    ASSERT_TRUE(store.CommitWal().ok());
    ASSERT_TRUE(store.SaveGeneration({{"s", "section text"}}, {"s"}).ok());
    store.AppendWal("tail record");
    ASSERT_TRUE(store.CommitWal().ok());
    store.AppendWal("never committed");  // dies with the process
  }
  SessionStore store;
  auto opened = store.Open(dir);
  ASSERT_TRUE(opened.ok()) << opened.status().message();
  EXPECT_EQ(opened->layout, SessionStore::Layout::kEngine);
  EXPECT_EQ(opened->generation, 1u);
  ASSERT_EQ(opened->sections.size(), 1u);
  EXPECT_EQ(opened->sections.at("s"), "section text");
  // Records the generation already owns are filtered out; only the tail
  // that postdates the manifest replays.
  ASSERT_EQ(opened->wal.size(), 1u);
  EXPECT_EQ(opened->wal[0].body, "tail record");
}

TEST(SessionStoreTest, CrashMatrixLeavesAConsistentStoreAtEveryPoint) {
  const SessionStore::CrashPoint points[] = {
      SessionStore::CrashPoint::kAfterWalCommit,
      SessionStore::CrashPoint::kAfterShardWrite,
      SessionStore::CrashPoint::kBeforeManifestSwap,
      SessionStore::CrashPoint::kAfterManifestSwap,
      SessionStore::CrashPoint::kAfterWalReset,
  };
  for (SessionStore::CrashPoint point : points) {
    SCOPED_TRACE(static_cast<int>(point));
    std::string dir =
        FreshDir("store_crash_" + std::to_string(static_cast<int>(point)));
    {
      SessionStore store;
      ASSERT_TRUE(store.Open(dir).ok());
      ASSERT_TRUE(
          store.SaveGeneration({{"a", "a1"}, {"b", "b1"}}, {"a", "b"})
              .ok());
      store.AppendWal("delta one");
      store.AppendWal("delta two");
      if (point == SessionStore::CrashPoint::kAfterWalCommit) {
        // This point lives on the commit path: the crash lands after the
        // sync, so the deltas are durable but unacknowledged.
        store.set_crash_hook(
            [point](SessionStore::CrashPoint at) { return at != point; });
        Status st = store.CommitWal().status();
        EXPECT_TRUE(st.IsAborted()) << st.ToString();
      } else {
        ASSERT_TRUE(store.CommitWal().ok());
        // Crash at `point` during the next compaction.
        store.set_crash_hook(
            [point](SessionStore::CrashPoint at) { return at != point; });
        Status st = store.SaveGeneration({{"a", "a2"}}, {"a", "b"});
        EXPECT_TRUE(st.IsAborted()) << st.ToString();
      }
      // The dead incarnation writes nothing further.
    }

    SessionStore store;
    auto opened = store.Open(dir);
    ASSERT_TRUE(opened.ok()) << opened.status().message();
    EXPECT_EQ(opened->layout, SessionStore::Layout::kEngine);
    EXPECT_FALSE(opened->wal_truncated);
    const bool swapped =
        point == SessionStore::CrashPoint::kAfterManifestSwap ||
        point == SessionStore::CrashPoint::kAfterWalReset;
    if (swapped) {
      // The swap landed: generation 2 is authoritative and the WAL tail
      // it absorbed no longer replays (its records are <= the base).
      EXPECT_EQ(opened->generation, 2u);
      EXPECT_EQ(opened->sections.at("a"), "a2");
      EXPECT_EQ(opened->sections.at("b"), "b1");
      EXPECT_EQ(opened->wal.size(), 0u);
    } else {
      // The swap never landed: generation 1 plus the committed WAL tail
      // is authoritative; half-written generation-2 files are garbage.
      EXPECT_EQ(opened->generation, 1u);
      EXPECT_EQ(opened->sections.at("a"), "a1");
      EXPECT_EQ(opened->sections.at("b"), "b1");
      ASSERT_EQ(opened->wal.size(), 2u);
      EXPECT_EQ(opened->wal[0].body, "delta one");
      EXPECT_EQ(opened->wal[1].body, "delta two");
    }
    // Either way the store keeps working: the next compaction succeeds
    // and prunes whatever the crash left behind.
    ASSERT_TRUE(store.SaveGeneration({{"a", "a3"}}, {"a", "b"}).ok());
    auto a = store.ReadSection("a");
    ASSERT_TRUE(a.ok());
    EXPECT_EQ(*a, "a3");
    auto b = store.ReadSection("b");
    ASSERT_TRUE(b.ok());
    EXPECT_EQ(*b, "b1");
  }
}

// ---------------------------------------------------------------------------
// Full-session crash matrix: byte-identical recovery through Papyrus

/// Compacts and returns every live section's bytes, keyed by name.
/// Section *texts* are the recovery invariant; generation numbers and
/// file names legitimately differ between crashy and crash-free runs.
std::map<std::string, std::string> SectionFingerprint(Papyrus& session) {
  std::map<std::string, std::string> fp;
  EXPECT_TRUE(session.SaveGeneration().ok());
  for (const auto& [name, file] : session.store()->CurrentSectionFiles()) {
    auto text = session.store()->ReadSection(name);
    EXPECT_TRUE(text.ok()) << name << ": " << text.status().message();
    fp[name] = text.ok() ? *text : "<unreadable>";
  }
  return fp;
}

/// The deterministic workload both runs execute: two committed phases
/// with a compaction between them, so the crash lands on a store that
/// has both a manifest and a WAL tail.
void RunWorkloadPhase1(Papyrus& session) {
  int thread = session.CreateThread("Shifter");
  ASSERT_TRUE(session
                  .Invoke(thread, "Create_Logic_Description", {},
                          {"shifter.logic"})
                  .ok());
  ASSERT_TRUE(session.CommitWal().ok());
}

void RunWorkloadPhase2(Papyrus& session) {
  ASSERT_TRUE(session
                  .Invoke(1, "Standard_Cell_Place_and_Route",
                          {"shifter.logic"}, {"shifter.layout"})
                  .ok());
  ASSERT_TRUE(
      session.CheckInObject("/proj/notes", oct::TextData{"run 100"}).ok());
  ASSERT_TRUE(session.CommitWal().ok());
}

TEST(StorageEngineSessionTest, CrashMatrixRecoversByteIdenticalSessions) {
  // Crash-free reference.
  std::map<std::string, std::string> reference;
  {
    Papyrus session;
    ASSERT_TRUE(session.OpenStorage(FreshDir("session_reference")).ok());
    RunWorkloadPhase1(session);
    ASSERT_TRUE(session.SaveGeneration().ok());
    RunWorkloadPhase2(session);
    reference = SectionFingerprint(session);
  }
  ASSERT_GT(reference.size(), 0u);
  ASSERT_EQ(reference.count("thread/1"), 1u);
  ASSERT_EQ(reference.count("state"), 1u);

  const SessionStore::CrashPoint points[] = {
      SessionStore::CrashPoint::kAfterWalCommit,
      SessionStore::CrashPoint::kAfterShardWrite,
      SessionStore::CrashPoint::kBeforeManifestSwap,
      SessionStore::CrashPoint::kAfterManifestSwap,
      SessionStore::CrashPoint::kAfterWalReset,
  };
  for (SessionStore::CrashPoint point : points) {
    SCOPED_TRACE(static_cast<int>(point));
    std::string dir = FreshDir("session_crash_" +
                               std::to_string(static_cast<int>(point)));
    {
      Papyrus session;
      ASSERT_TRUE(session.OpenStorage(dir).ok());
      RunWorkloadPhase1(session);
      ASSERT_TRUE(session.SaveGeneration().ok());
      RunWorkloadPhase2(session);
      session.store()->set_crash_hook(
          [point](SessionStore::CrashPoint at) { return at != point; });
      EXPECT_TRUE(session.SaveGeneration().IsAborted());
    }
    // The next incarnation recovers from manifest + WAL tail and must be
    // byte-identical to the crash-free run, section for section.
    Papyrus session;
    ASSERT_TRUE(session.OpenStorage(dir).ok());
    std::map<std::string, std::string> recovered =
        SectionFingerprint(session);
    ASSERT_EQ(recovered.size(), reference.size());
    for (const auto& [name, bytes] : reference) {
      ASSERT_EQ(recovered.count(name), 1u) << "missing section " << name;
      EXPECT_EQ(recovered[name], bytes) << "section " << name
                                        << " diverged";
    }
  }
}

TEST(StorageEngineSessionTest, ReopenedSessionContinuesTheSameHistory) {
  // The second phase, plus a task whose intermediate object's name
  // embeds its execution id (".p<exec>").
  auto second_phase = [](Papyrus& session) {
    RunWorkloadPhase2(session);
    ASSERT_TRUE(
        session.Invoke(1, "Create_Logic_Description", {}, {"again.logic"})
            .ok());
    ASSERT_TRUE(session.CommitWal().ok());
  };
  // A session that never closed...
  Papyrus live;
  ASSERT_TRUE(live.OpenStorage(FreshDir("continue_live")).ok());
  RunWorkloadPhase1(live);
  second_phase(live);

  // ...and one destroyed after the first phase and reopened from its
  // store: the clock and the execution ids pick up where they stopped,
  // so the second phase's timestamps and object names are the same.
  const std::string dir = FreshDir("continue_reopened");
  {
    Papyrus first;
    ASSERT_TRUE(first.OpenStorage(dir).ok());
    RunWorkloadPhase1(first);
  }
  Papyrus reopened;
  ASSERT_TRUE(reopened.OpenStorage(dir).ok());
  second_phase(reopened);

  EXPECT_EQ(reopened.clock().NowMicros(), live.clock().NowMicros());
  EXPECT_EQ(reopened.task_manager().next_execution_id(),
            live.task_manager().next_execution_id());
  const std::map<std::string, std::string> expected =
      SectionFingerprint(live);
  const std::map<std::string, std::string> actual =
      SectionFingerprint(reopened);
  ASSERT_EQ(expected.count("state"), 1u);
  ASSERT_EQ(actual.size(), expected.size());
  for (const auto& [name, bytes] : expected) {
    ASSERT_EQ(actual.count(name), 1u) << "missing section " << name;
    EXPECT_EQ(actual.at(name), bytes) << "section " << name << " diverged";
  }
}

// ---------------------------------------------------------------------------
// Edge-carrying node records: a new history node is journaled alone, its
// record carrying the parent edge, and replay re-links the parent.

using activity::DesignThread;
using activity::NodeId;

/// What recovery must reproduce of a thread: the cursor, the node-id
/// allocator, the roots (as a set: snapshot restore lists them in id
/// order), and every node's journaled block — record, timestamps, and
/// parents and children in order.
std::string ThreadGraph(const DesignThread& t) {
  std::ostringstream out;
  out << "cursor " << t.current_cursor() << "\nnext id " << t.next_node_id()
      << "\nroots";
  std::vector<NodeId> roots = t.roots();
  std::sort(roots.begin(), roots.end());
  for (NodeId r : roots) out << ' ' << r;
  out << '\n';
  for (const auto& [id, node] : t.nodes()) {
    out << activity::NodeRecord("", node) << '\n';
  }
  return out.str();
}

/// Opens a copy of `dir` in a fresh session and renders thread `id`.
std::string ReopenedGraph(const std::string& dir, const std::string& copy,
                          int id) {
  std::error_code ec;
  fs::remove_all(copy, ec);
  fs::copy(dir, copy, fs::copy_options::recursive, ec);
  EXPECT_FALSE(ec) << ec.message();
  Papyrus reopened;
  Status st = reopened.OpenStorage(copy);
  EXPECT_TRUE(st.ok()) << st.ToString();
  auto thread = reopened.activity().GetThread(id);
  return thread.ok() ? ThreadGraph(**thread) : "<no thread>";
}

/// Parent and child links that do not mirror each other, and roots that
/// disagree with the parent lists; empty when the graph is consistent.
std::string LinkMismatches(const DesignThread& t) {
  std::ostringstream out;
  auto has = [](const std::vector<NodeId>& v, NodeId x) {
    return std::find(v.begin(), v.end(), x) != v.end();
  };
  for (const auto& [id, node] : t.nodes()) {
    for (NodeId p : node.parents) {
      auto parent = t.GetNode(p);
      if (!parent.ok() || !has((*parent)->children, id)) {
        out << "node " << id << " names parent " << p << " without link\n";
      }
    }
    for (NodeId c : node.children) {
      auto child = t.GetNode(c);
      if (!child.ok() || !has((*child)->parents, id)) {
        out << "node " << id << " names child " << c << " without link\n";
      }
    }
    if (node.parents.empty() != has(t.roots(), id)) {
      out << "node " << id << " root status disagrees\n";
    }
  }
  return out.str();
}

task::TaskHistoryRecord Record(int k) {
  task::TaskHistoryRecord rec;
  rec.task_name = "op" + std::to_string(k);
  rec.outputs = {oct::ObjectId{"obj" + std::to_string(k), 1}};
  return rec;
}

/// Picks a random live node (kInitialPoint when the thread is empty).
NodeId AnyNode(const DesignThread& t, std::mt19937_64* rng) {
  if (t.nodes().empty()) return activity::kInitialPoint;
  auto it = t.nodes().begin();
  std::advance(it, static_cast<long>((*rng)() % t.nodes().size()));
  return it->first;
}

/// True when `to` is reachable from `from` along child links.
bool Reaches(const DesignThread& t, NodeId from, NodeId to) {
  std::vector<NodeId> stack = {from};
  std::set<NodeId> seen;
  while (!stack.empty()) {
    NodeId cur = stack.back();
    stack.pop_back();
    if (cur == to) return true;
    if (!seen.insert(cur).second) continue;
    auto node = t.GetNode(cur);
    if (!node.ok()) continue;
    for (NodeId c : (*node)->children) stack.push_back(c);
  }
  return false;
}

TEST(EdgeCarryingWalTest, RandomHistorySurgeryReplaysToTheLiveThread) {
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const std::string dir = FreshDir("surgery_" + std::to_string(seed));
    const std::string copy = dir + ".copy";
    std::mt19937_64 rng(seed);
    Papyrus session;
    ASSERT_TRUE(session.OpenStorage(dir).ok());
    const int id = session.CreateThread("surgery");
    auto thread = session.activity().GetThread(id);
    ASSERT_TRUE(thread.ok());
    DesignThread* t = *thread;
    int appended = 0, checks = 0;
    for (int op = 0; op < 80; ++op) {
      session.clock().AdvanceMicros(1 + static_cast<int64_t>(rng() % 5000));
      switch (rng() % 10) {
        case 0:
        case 1:
        case 2:  // append at the cursor (a splice when its path branches)
          ASSERT_TRUE(
              t->Append(Record(++appended), t->current_cursor(), false).ok());
          break;
        case 3: {  // rework: a new branch at some earlier record
          NodeId at = AnyNode(*t, &rng);
          ASSERT_TRUE(t->MoveCursor(at).ok());
          ASSERT_TRUE(t->Append(Record(++appended), at, true).ok());
          break;
        }
        case 4: {  // append on another record's path: may splice
          NodeId at = AnyNode(*t, &rng);
          ASSERT_TRUE(t->Append(Record(++appended), at, false).ok());
          break;
        }
        case 5: {  // rework with erasure of the branch holding the cursor
          NodeId at = AnyNode(*t, &rng);
          ASSERT_TRUE(t->MoveCursorAndErase(at, nullptr).ok());
          break;
        }
        case 6: {  // delete: a subtree, or one record spliced out
          if (t->nodes().size() < 4) break;
          NodeId victim = AnyNode(*t, &rng);
          if (rng() % 2 == 0) {
            ASSERT_TRUE(t->EraseSubtree(victim, nullptr).ok());
          } else {
            ASSERT_TRUE(t->SpliceOutNode(victim, nullptr).ok());
          }
          break;
        }
        case 7: {  // join-style edge between unordered records
          NodeId a = AnyNode(*t, &rng), b = AnyNode(*t, &rng);
          if (a != b && a != activity::kInitialPoint &&
              !Reaches(*t, b, a)) {
            // As Cascade does: a root gaining a parent leaves the roots.
            if (t->nodes().at(b).parents.empty()) t->UnmarkRoot(b);
            t->LinkNodes(a, b);
          }
          break;
        }
        default: {  // commit, now and then as a compaction
          if (rng() % 4 == 0) {
            ASSERT_TRUE(session.SaveGeneration().ok());
          } else {
            ASSERT_TRUE(session.CommitWal().ok());
          }
          ASSERT_EQ(LinkMismatches(*t), "");
          ASSERT_EQ(ReopenedGraph(dir, copy, id), ThreadGraph(*t))
              << "after op " << op;
          ++checks;
          break;
        }
      }
    }
    ASSERT_TRUE(session.CommitWal().ok());
    EXPECT_EQ(ReopenedGraph(dir, copy, id), ThreadGraph(*t));
    EXPECT_GT(checks, 0);
    EXPECT_GT(appended, 10);
  }
}

TEST(EdgeCarryingWalTest, PlainAppendJournalsOnlyTheNewNode) {
  const std::string dir = FreshDir("append_records");
  Papyrus session;
  ASSERT_TRUE(session.OpenStorage(dir).ok());
  const int id = session.CreateThread("line");
  auto thread = session.activity().GetThread(id);
  ASSERT_TRUE(thread.ok());
  DesignThread* t = *thread;
  ASSERT_TRUE(t->Append(Record(1), t->current_cursor()).ok());
  ASSERT_TRUE(session.CommitWal().ok());
  const std::string wal = (fs::path(dir) / "wal.log").string();
  auto before = WriteAheadLog::Scan(wal);
  ASSERT_TRUE(before.ok());
  ASSERT_TRUE(t->Append(Record(2), t->current_cursor()).ok());
  ASSERT_TRUE(session.CommitWal().ok());
  auto after = WriteAheadLog::Scan(wal);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->version, kWalVersion);
  std::vector<std::string> thr;
  for (size_t i = before->records.size(); i < after->records.size(); ++i) {
    const std::string_view body = after->records[i].body;
    if (StartsWith(body, "thr ")) thr.emplace_back(body);
  }
  // Node 2 alone; node 1 gained a child but is not re-journaled.
  ASSERT_EQ(thr.size(), 1u);
  EXPECT_TRUE(StartsWith(thr[0], "thr 1 | node 2 ")) << thr[0];
  const size_t node_line = thr[0].find(" | node ");
  EXPECT_EQ(thr[0].find(" | node ", node_line + 1), std::string::npos)
      << thr[0];
}

TEST(EdgeCarryingWalTest, EveryRecordBoundaryReplaysConsistentLinks) {
  // Appends and new branches, one commit each as every invocation
  // commits its own record: the new node is the batch's only node
  // record, so a log cut at any record boundary holds whole edges only.
  const std::string dir = FreshDir("boundaries");
  std::mt19937_64 rng(7);
  {
    Papyrus session;
    ASSERT_TRUE(session.OpenStorage(dir).ok());
    const int id = session.CreateThread("cut");
    ASSERT_TRUE(session.CommitWal().ok());
    auto thread = session.activity().GetThread(id);
    ASSERT_TRUE(thread.ok());
    DesignThread* t = *thread;
    for (int k = 1; k <= 24; ++k) {
      session.clock().AdvanceMicros(1000);
      if (k % 6 == 3) {
        // A real invocation: its node and its steps' cache entries
        // journal as multi-line `thr` and `cput` records.
        ASSERT_TRUE(session
                        .Invoke(id, "Create_Logic_Description", {},
                                {"l" + std::to_string(k) + ".logic"})
                        .ok());
      } else if (k % 5 == 0) {
        NodeId at = AnyNode(*t, &rng);
        ASSERT_TRUE(t->MoveCursor(at).ok());
        ASSERT_TRUE(session.CommitWal().ok());  // the rework is its own act
        ASSERT_TRUE(t->Append(Record(k), at, true).ok());
      } else {
        ASSERT_TRUE(t->Append(Record(k), t->current_cursor()).ok());
      }
      ASSERT_TRUE(session.CommitWal().ok());
    }
  }
  auto scanned = WriteAheadLog::Scan((fs::path(dir) / "wal.log").string());
  ASSERT_TRUE(scanned.ok());
  int multi_line_thr = 0, multi_line_cput = 0;
  for (const WalRecord& rec : scanned->records) {
    multi_line_thr += StartsWith(rec.body, "thr 1 | node ") &&
                      rec.body.find(" | record ") != std::string::npos;
    multi_line_cput += StartsWith(rec.body, "cput | entry ") &&
                       rec.body.find(" | eout ") != std::string::npos;
  }
  EXPECT_GT(multi_line_thr, 20);
  EXPECT_GE(multi_line_cput, 2);
  const std::string bytes = ReadAll(fs::path(dir) / "wal.log");
  std::vector<size_t> boundaries;
  for (size_t i = 0; i < bytes.size(); ++i) {
    if (bytes[i] == '\n') boundaries.push_back(i + 1);
  }
  ASSERT_GT(boundaries.size(), 30u);
  int threads_seen = 0;
  for (size_t cut : boundaries) {
    const std::string cut_dir = FreshDir("boundaries_cut");
    WriteAll(fs::path(cut_dir) / "wal.log", bytes.substr(0, cut));
    Papyrus reopened;
    ASSERT_TRUE(reopened.OpenStorage(cut_dir).ok()) << "cut=" << cut;
    auto thread = reopened.activity().GetThread(1);
    if (!thread.ok()) continue;  // cut before the thread's first record
    ++threads_seen;
    EXPECT_EQ(LinkMismatches(**thread), "") << "cut=" << cut;
  }
  EXPECT_GT(threads_seen, 20);
}

TEST(StorageEngineSessionTest, SnapshotRestoredThreadKeepsItsRoots) {
  const std::string dir = FreshDir("restored_roots");
  int id = 0;
  {
    Papyrus session;
    ASSERT_TRUE(session.OpenStorage(dir).ok());
    id = session.CreateThread("rooted");
    auto thread = session.activity().GetThread(id);
    ASSERT_TRUE(thread.ok());
    ASSERT_TRUE((*thread)->Append(Record(1), activity::kInitialPoint).ok());
    ASSERT_TRUE((*thread)->Append(Record(2), (*thread)->current_cursor())
                    .ok());
    ASSERT_TRUE(session.SaveGeneration().ok());
  }
  Papyrus reopened;
  ASSERT_TRUE(reopened.OpenStorage(dir).ok());
  auto thread = reopened.activity().GetThread(id);
  ASSERT_TRUE(thread.ok());
  EXPECT_EQ((*thread)->roots(), std::vector<NodeId>{1});
  // Rework to the initial point with erasure drops the stream, as it
  // does on the live thread.
  ASSERT_TRUE(
      (*thread)->MoveCursorAndErase(activity::kInitialPoint, nullptr).ok());
  EXPECT_EQ((*thread)->size(), 0);
}

TEST(StorageEngineSessionTest, VersionOneWalReplaysAndIsFoldedAtOpen) {
  const fs::path data = fs::path(PAPYRUS_SOURCE_DIR) / "tests/data/v1_wal";
  const std::string dir = FreshDir("v1_wal");
  fs::copy(data / "session", dir, fs::copy_options::recursive);
  const fs::path wal = fs::path(dir) / "wal.log";
  auto scanned = WriteAheadLog::Scan(wal.string());
  ASSERT_TRUE(scanned.ok());
  ASSERT_EQ(scanned->version, 1);
  ASSERT_GT(scanned->records.size(), 0u);

  {
    Papyrus session;
    ASSERT_TRUE(session.OpenStorage(dir).ok());
    auto thread = session.activity().GetThread(1);
    ASSERT_TRUE(thread.ok());
    // The re-journaled parents replay exactly as they did before.
    EXPECT_EQ(activity::SerializeThread(**thread),
              ReadAll(data / "thread.golden"));
    EXPECT_EQ(LinkMismatches(**thread), "");
    // Folded at open: a generation holds the replayed state and the log
    // restarted, empty, under the current header.
    EXPECT_EQ(session.store()->generation(), 1u);
    auto folded = WriteAheadLog::Scan(wal.string());
    ASSERT_TRUE(folded.ok());
    EXPECT_EQ(folded->version, kWalVersion);
    EXPECT_EQ(folded->records.size(), 0u);

    // Later invocations land in the current-format log.
    ASSERT_TRUE(session
                    .Invoke(1, "Standard_Cell_Place_and_Route",
                            {"shifter.logic"}, {"shifter.sc3"})
                    .ok());
    ASSERT_TRUE(session.CommitWal().ok());
    auto grown = WriteAheadLog::Scan(wal.string());
    ASSERT_TRUE(grown.ok());
    EXPECT_EQ(grown->version, kWalVersion);
    EXPECT_GT(grown->records.size(), 0u);
    EXPECT_EQ(ReopenedGraph(dir, dir + ".copy", 1), ThreadGraph(**thread));
  }
  // No version-1 log is left anywhere in the store.
  for (const auto& entry : fs::recursive_directory_iterator(dir)) {
    if (!entry.is_regular_file()) continue;
    std::string text = ReadAll(entry.path());
    size_t nl = text.find('\n');
    if (nl == std::string::npos) continue;
    std::string_view first_line(text.data(), nl);
    std::string_view body;
    if (UnframeLine(first_line, &body)) {
      EXPECT_FALSE(StartsWith(std::string(body), "papyrus-wal 1 "))
          << entry.path();
    }
  }
}

TEST(StorageEngineSessionTest, VersionThreeWalReplaysAndIsFoldedAtOpen) {
  const fs::path data = fs::path(PAPYRUS_SOURCE_DIR) / "tests/data/v3_wal";
  const std::string dir = FreshDir("v3_wal");
  fs::copy(data / "session", dir, fs::copy_options::recursive);
  const fs::path wal = fs::path(dir) / "wal.log";
  auto scanned = WriteAheadLog::Scan(wal.string());
  ASSERT_TRUE(scanned.ok());
  ASSERT_EQ(scanned->version, 3);
  ASSERT_GT(scanned->records.size(), 0u);

  Papyrus session;
  Status opened = session.OpenStorage(dir);
  ASSERT_TRUE(opened.ok()) << opened.ToString();
  auto thread = session.activity().GetThread(1);
  ASSERT_TRUE(thread.ok());
  // The percent-encoded line blocks replay to what the code that wrote
  // them restored: the forked, reworked thread with its check-in, the
  // cache with its content keys, the database and the session state.
  EXPECT_EQ(activity::SerializeThread(**thread),
            ReadAll(data / "thread.golden"));
  EXPECT_EQ(activity::SerializeDerivationCache(session.step_cache()),
            ReadAll(data / "cache.golden"));
  EXPECT_EQ(activity::SerializeDatabase(session.database()),
            ReadAll(data / "db.golden"));
  const Papyrus::AppliedRequest* applied = session.FindApplied(41);
  ASSERT_NE(applied, nullptr);
  EXPECT_EQ("clock " + std::to_string(session.clock().NowMicros()) +
                "\nnextexec " +
                std::to_string(session.task_manager().next_execution_id()) +
                "\napplied 41 " + std::to_string(applied->thread_id) + " " +
                std::to_string(applied->node) + "\n",
            ReadAll(data / "state.golden"));
  EXPECT_EQ(LinkMismatches(**thread), "");

  // Folded at open: a generation holds the replayed state and the log
  // restarted, empty, under the current header.
  EXPECT_EQ(session.store()->generation(), 1u);
  auto folded = WriteAheadLog::Scan(wal.string());
  ASSERT_TRUE(folded.ok());
  EXPECT_EQ(folded->version, kWalVersion);
  EXPECT_EQ(folded->records.size(), 0u);

  // The next commit lands under the current header, in its record form.
  ASSERT_TRUE(session
                  .Invoke(1, "PLA_Generation", {"shifter.logic"},
                          {"shifter.pla2"})
                  .ok());
  ASSERT_TRUE(session.CommitWal().ok());
  auto grown = WriteAheadLog::Scan(wal.string());
  ASSERT_TRUE(grown.ok());
  EXPECT_EQ(grown->version, kWalVersion);
  int thr = 0, cput = 0;
  for (const WalRecord& rec : grown->records) {
    thr += StartsWith(rec.body, "thr 1 | node 8 ");
    cput += StartsWith(rec.body, "cput | entry 0 ");
  }
  EXPECT_EQ(thr, 1);
  EXPECT_GT(cput, 0);
  EXPECT_EQ(ReopenedGraph(dir, dir + ".copy", 1), ThreadGraph(**thread));
}

/// Rewrites the body of record `seq` in the WAL of `dir` and frames its
/// line again, so the frame verifies whatever the new body holds.
void RewriteWalRecord(const std::string& dir, uint64_t seq,
                      const std::function<std::string(std::string)>& edit) {
  const fs::path path = fs::path(dir) / "wal.log";
  const std::string prefix = "w " + std::to_string(seq) + " ";
  std::string out;
  for (const std::string& line : Split(ReadAll(path), '\n')) {
    std::string_view body;
    if (!line.empty() && UnframeLine(line, &body) &&
        StartsWith(body, prefix)) {
      out += FrameLine(prefix + edit(std::string(body.substr(prefix.size()))));
    } else {
      out += line;
    }
    out += '\n';
  }
  out.pop_back();
  WriteAll(path, out);
}

TEST(StorageEngineSessionTest, UnparsableRecordFailsOpenNamingItsSequence) {
  const std::string dir = FreshDir("strict_replay");
  {
    Papyrus session;
    ASSERT_TRUE(session.OpenStorage(dir).ok());
    const int id = session.CreateThread("strict");
    ASSERT_TRUE(
        session.Invoke(id, "Create_Logic_Description", {}, {"s.logic"}).ok());
    ASSERT_TRUE(session.CommitWal().ok());
  }
  auto scanned = WriteAheadLog::Scan((fs::path(dir) / "wal.log").string());
  ASSERT_TRUE(scanned.ok());
  uint64_t thr_seq = 0, cput_seq = 0;
  for (const WalRecord& rec : scanned->records) {
    if (StartsWith(rec.body, "thr ")) thr_seq = rec.seq;
    if (StartsWith(rec.body, "cput ")) cput_seq = rec.seq;
  }
  ASSERT_GT(thr_seq, 0u);
  ASSERT_GT(cput_seq, 0u);
  // A '%' that starts no escape, put at the front of the first `~` field.
  auto bad_escape = [](std::string body) {
    return body.insert(body.find(" ~") + 2, "%G");
  };
  // The same node with a `step` line ahead of its `node` line.
  auto step_first = [](std::string body) {
    const size_t node = body.find(" | node ");
    return body.substr(0, node) + " | step 1 ~s ~t ~i 0 0 0 0 ~" +
           body.substr(node);
  };
  struct Case {
    const char* what;
    uint64_t seq;
    std::function<std::string(std::string)> edit;
  };
  for (const Case& c : {Case{"thr escape", thr_seq, bad_escape},
                        Case{"thr step before node", thr_seq, step_first},
                        Case{"cput escape", cput_seq, bad_escape}}) {
    SCOPED_TRACE(c.what);
    const std::string copy = FreshDir("strict_replay_case");
    fs::copy(dir, copy, fs::copy_options::recursive |
                            fs::copy_options::overwrite_existing);
    RewriteWalRecord(copy, c.seq, c.edit);
    auto rescanned =
        WriteAheadLog::Scan((fs::path(copy) / "wal.log").string());
    ASSERT_TRUE(rescanned.ok());
    ASSERT_FALSE(rescanned->truncated);  // every frame still verifies
    ASSERT_EQ(rescanned->records.size(), scanned->records.size());
    Papyrus reopened;
    Status st = reopened.OpenStorage(copy);
    EXPECT_FALSE(st.ok());
    EXPECT_NE(st.message().find("WAL record " + std::to_string(c.seq) + ":"),
              std::string::npos)
        << st.ToString();
  }
}

/// A record whose only child branches, so a plain append on its path
/// splices in before that child; any record when there is none.
NodeId SpliceSite(const DesignThread& t, std::mt19937_64* rng) {
  for (const auto& [id, node] : t.nodes()) {
    if (node.children.size() == 1 &&
        t.nodes().at(node.children[0]).children.size() > 1) {
      return id;
    }
  }
  return AnyNode(t, rng);
}

TEST(StorageEngineSessionTest, TornCommitReplaysTheLastWholeCommit) {
  // Commits that journal several thread records: a rework and its new
  // branch in one commit, appends that splice in before a branching
  // record, erasures. A log cut anywhere must replay exactly the thread
  // the last whole commit made durable.
  const std::string dir = FreshDir("torn_commits");
  const fs::path wal = fs::path(dir) / "wal.log";
  std::mt19937_64 rng(11);
  // WAL size after each commit, and the thread that commit made durable.
  std::vector<std::pair<uintmax_t, std::string>> durable;
  int reworks = 0, splices = 0, erasures = 0;
  {
    Papyrus session;
    ASSERT_TRUE(session.OpenStorage(dir).ok());
    const int id = session.CreateThread("torn");
    ASSERT_TRUE(session.CommitWal().ok());
    auto thread = session.activity().GetThread(id);
    ASSERT_TRUE(thread.ok());
    DesignThread* t = *thread;
    durable.emplace_back(fs::file_size(wal), ThreadGraph(*t));
    for (int k = 1; k <= 30; ++k) {
      session.clock().AdvanceMicros(1000);
      const size_t nodes = t->nodes().size();
      switch (k % 5) {
        case 0: {  // rework: the cursor move and the new branch together
          NodeId at = AnyNode(*t, &rng);
          ASSERT_TRUE(t->MoveCursor(at).ok());
          ASSERT_TRUE(t->Append(Record(k), at, true).ok());
          ++reworks;
          break;
        }
        case 2: {  // append on a path that ends at a branching record
          ASSERT_TRUE(t->Append(Record(k), SpliceSite(*t, &rng), false).ok());
          if (!t->nodes().rbegin()->second.children.empty()) ++splices;
          break;
        }
        case 4: {  // rework with erasure, then an append at the new cursor
          ASSERT_TRUE(t->MoveCursorAndErase(AnyNode(*t, &rng), nullptr).ok());
          if (t->nodes().size() < nodes) ++erasures;
          ASSERT_TRUE(t->Append(Record(k), t->current_cursor()).ok());
          break;
        }
        default:
          ASSERT_TRUE(t->Append(Record(k), t->current_cursor()).ok());
          break;
      }
      ASSERT_TRUE(session.CommitWal().ok());
      durable.emplace_back(fs::file_size(wal), ThreadGraph(*t));
    }
  }
  EXPECT_GT(reworks, 0);
  EXPECT_GT(splices, 0);
  EXPECT_GT(erasures, 0);

  const std::string bytes = ReadAll(wal);
  std::vector<size_t> cuts;
  for (size_t i = 0; i < bytes.size(); ++i) {
    if (bytes[i] == '\n') cuts.push_back(i + 1);
  }
  // A few cuts inside a line too: the torn line goes first.
  for (size_t i = 1; i < 8; ++i) cuts.push_back(bytes.size() * i / 8 + 5);
  int torn_batches = 0;
  for (size_t cut : cuts) {
    SCOPED_TRACE("cut=" + std::to_string(cut));
    std::string expected;
    for (const auto& [size, graph] : durable) {
      if (size <= cut) expected = graph;
    }
    const std::string cut_dir = FreshDir("torn_commits_cut");
    WriteAll(fs::path(cut_dir) / "wal.log", bytes.substr(0, cut));
    Papyrus reopened;
    ASSERT_TRUE(reopened.OpenStorage(cut_dir).ok());
    auto thread = reopened.activity().GetThread(1);
    if (expected.empty()) {  // cut before the thread's first commit
      EXPECT_FALSE(thread.ok());
      continue;
    }
    ASSERT_TRUE(thread.ok());
    if (reopened.last_restore_stats().records_dropped > 0) ++torn_batches;
    EXPECT_EQ(ThreadGraph(**thread), expected);
    EXPECT_EQ(LinkMismatches(**thread), "");
    EXPECT_TRUE(
        (*thread)->Append(Record(99), (*thread)->current_cursor()).ok());
  }
  EXPECT_GT(torn_batches, 20);
}

/// The sections the records of `dir`'s WAL belong to: the db shard of
/// each object record's name, thread/<id> for thread records, and the
/// cache and the state for theirs.
std::set<std::string> SectionsOfWalRecords(const std::string& dir) {
  std::set<std::string> sections;
  auto scanned = WriteAheadLog::Scan((fs::path(dir) / "wal.log").string());
  EXPECT_TRUE(scanned.ok());
  if (!scanned.ok()) return sections;
  for (const WalRecord& rec : scanned->records) {
    std::vector<std::string> f = SplitWhitespace(rec.body);
    const std::string& tag = f[0];
    if (tag == "object") {
      sections.insert("db/" + std::to_string(oct::OctDatabase::ShardOf(
                                  DecodeField(f[1]))));
    } else if (StartsWith(tag, "thr") && tag != "thrrm") {
      sections.insert("thread/" + f[1]);
    } else if (tag == "cput" || tag == "cdel") {
      sections.insert("cache");
    } else if (tag == "state") {
      sections.insert("state");
    }
  }
  return sections;
}

/// Runs SaveGeneration and returns the sections it wrote: the manifest
/// entries whose files carry the new generation's `.g<N>` suffix, which
/// must also be what save_stats() counts.
std::set<std::string> SectionsWrittenBySave(Papyrus& session) {
  const int64_t before = session.store()->save_stats().sections_written;
  EXPECT_TRUE(session.SaveGeneration().ok());
  const std::string suffix =
      ".g" + std::to_string(session.store()->generation());
  std::set<std::string> written;
  for (const auto& [name, file] : session.store()->CurrentSectionFiles()) {
    if (EndsWith(file, suffix)) written.insert(name);
  }
  EXPECT_EQ(session.store()->save_stats().sections_written - before,
            static_cast<int64_t>(written.size()));
  return written;
}

TEST(StorageEngineSessionTest, GenerationRewritesExactlyTheJournaledSections) {
  const std::string dir = FreshDir("journaled_sections");
  auto shard = [](const std::string& name) {
    return "db/" + std::to_string(oct::OctDatabase::ShardOf(name));
  };
  const std::set<std::string> none;
  std::string thread_section;
  int64_t clock = 0;
  {
    Papyrus session;
    ASSERT_TRUE(session.OpenStorage(dir).ok());
    const int id = session.CreateThread("sections");
    thread_section = "thread/" + std::to_string(id);
    ASSERT_TRUE(
        session.Invoke(id, "Create_Logic_Description", {}, {"shifter.logic"})
            .ok());
    // The first generation writes every live section.
    const std::set<std::string> first = SectionsWrittenBySave(session);
    EXPECT_EQ(first.size(), session.store()->CurrentSectionFiles().size());

    // (d) No change at all.
    EXPECT_EQ(SectionsWrittenBySave(session), none);

    // (a) One invocation and its commit; it moves the clock and the
    // execution ids, so the state section is among them.
    ASSERT_TRUE(session
                    .Invoke(id, "Standard_Cell_Place_and_Route",
                            {"shifter.logic"}, {"shifter.layout"})
                    .ok());
    ASSERT_TRUE(session.CommitWal().ok());
    const std::set<std::string> invoked = SectionsOfWalRecords(dir);
    for (const std::string& name : {shard("shifter.layout"), thread_section,
                                    std::string("cache"),
                                    std::string("state")}) {
      EXPECT_EQ(invoked.count(name), 1u) << name;
    }
    EXPECT_LT(invoked.size(), session.store()->CurrentSectionFiles().size());
    EXPECT_EQ(SectionsWrittenBySave(session), invoked);

    // (b) A check-in alone: its shard and nothing else (the clock does
    // not move).
    ASSERT_TRUE(
        session.CheckInObject("/proj/notes", oct::TextData{"run 100"}).ok());
    EXPECT_EQ(SectionsWrittenBySave(session),
              std::set<std::string>{shard("/proj/notes")});

    // A committed WAL tail for (c).
    ASSERT_TRUE(session
                    .Invoke(id, "Standard_Cell_Place_and_Route",
                            {"shifter.logic"}, {"shifter.layout2"})
                    .ok());
    ASSERT_TRUE(session.CommitWal().ok());
    clock = session.clock().NowMicros();
  }
  // (c) A reopen replays the tail: the next generation rewrites the
  // sections of the replayed records.
  const std::set<std::string> tail = SectionsOfWalRecords(dir);
  EXPECT_EQ(tail.count(thread_section), 1u);
  EXPECT_EQ(tail.count("state"), 1u);
  {
    Papyrus reopened;
    ASSERT_TRUE(reopened.OpenStorage(dir).ok());
    EXPECT_EQ(reopened.clock().NowMicros(), clock);
    EXPECT_EQ(SectionsWrittenBySave(reopened), tail);
    // (d) Again, after the reopen.
    EXPECT_EQ(SectionsWrittenBySave(reopened), none);
  }
  // (b) Again, in a session reopened from a generation alone: the clock
  // and execution ids it restored count as journaled.
  Papyrus again;
  ASSERT_TRUE(again.OpenStorage(dir).ok());
  ASSERT_TRUE(
      again.CheckInObject("/proj/notes", oct::TextData{"run 200"}).ok());
  EXPECT_EQ(SectionsWrittenBySave(again),
            std::set<std::string>{shard("/proj/notes")});
}

}  // namespace
}  // namespace papyrus::storage
