#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

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
  {
    WriteAheadLog wal;
    ASSERT_TRUE(wal.Open(path).ok());
    for (int i = 0; i < 5; ++i) {
      wal.Append("record number " + std::to_string(i) + " with payload");
    }
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
      EXPECT_EQ(replay->records[i].body,
                "record number " + std::to_string(i) + " with payload");
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

}  // namespace
}  // namespace papyrus::storage
