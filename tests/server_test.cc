#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "base/macros.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "server/daemon.h"
#include "server/fingerprint.h"
#include "server/queue.h"
#include "server/session_manager.h"
#include "server/wire.h"
#include "storage/cas.h"

namespace papyrus::server {
namespace {

namespace fs = std::filesystem;

/// A fresh, empty scratch directory per test (re-runs included).
std::string FreshDir(const std::string& name) {
  fs::path dir = fs::path(::testing::TempDir()) / ("server_" + name);
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

// ---------------------------------------------------------------------------
// Wire protocol

TEST(WireTest, MessageRoundTripsHostileValues) {
  WireMessage msg;
  msg.verb = "submit";
  msg.Add("session", "alpha beta");          // space
  msg.Add("opts", "-p 4 ~weird=100%досье");  // ~, =, %, non-ASCII
  msg.Add("text", "line one\nline two");     // newline must not split
  msg.Add("empty", "");
  std::string line = msg.Format();
  EXPECT_EQ(line.find('\n'), std::string::npos);

  auto parsed = WireMessage::Parse(line);
  ASSERT_TRUE(parsed.ok()) << parsed.status().message();
  EXPECT_EQ(parsed->verb, "submit");
  ASSERT_EQ(parsed->fields.size(), 4u);
  EXPECT_EQ(*parsed->Find("session"), "alpha beta");
  EXPECT_EQ(*parsed->Find("opts"), "-p 4 ~weird=100%досье");
  EXPECT_EQ(*parsed->Find("text"), "line one\nline two");
  EXPECT_EQ(*parsed->Find("empty"), "");
}

TEST(WireTest, MalformedLinesAreRejected) {
  EXPECT_FALSE(WireMessage::Parse("").ok());
  EXPECT_FALSE(WireMessage::Parse("   ").ok());
  EXPECT_FALSE(WireMessage::Parse("verb bare-token").ok());
  EXPECT_FALSE(WireMessage::Parse("verb ~no-equals").ok());
  EXPECT_FALSE(WireMessage::Parse("verb ~k=%zz").ok());  // bad escape
  EXPECT_TRUE(WireMessage::Parse("verb ~k=v").ok());
}

TEST(WireTest, TaskDescriptionRoundTrips) {
  TaskDescription desc;
  desc.session = "alpha";
  desc.thread = "synth main";
  desc.template_name = "Structure_Synthesis";
  desc.seed = 42;
  desc.input_refs = {"/proj/shifter", "/proj/sim.cmd"};
  desc.output_names = {"s.layout", "s.stats"};
  desc.option_overrides["Synthesis"] = "-effort high";

  auto decoded = TaskDescription::Decode(desc.Encode());
  ASSERT_TRUE(decoded.ok()) << decoded.status().message();
  EXPECT_EQ(decoded->session, "alpha");
  EXPECT_EQ(decoded->thread, "synth main");
  EXPECT_EQ(decoded->template_name, "Structure_Synthesis");
  EXPECT_EQ(decoded->seed, 42u);
  EXPECT_EQ(decoded->input_refs, desc.input_refs);
  EXPECT_EQ(decoded->output_names, desc.output_names);
  EXPECT_EQ(decoded->option_overrides.at("Synthesis"), "-effort high");
}

TEST(WireTest, TaskDescriptionRequiresCoreFields) {
  EXPECT_FALSE(TaskDescription::Decode("task ~session=a").ok());
  EXPECT_FALSE(
      TaskDescription::Decode("task ~session=a ~thread=t").ok());
  EXPECT_FALSE(TaskDescription::Decode("notatask ~session=a").ok());
  EXPECT_FALSE(
      TaskDescription::Decode(
          "task ~session=a ~thread=t ~template=T ~bogus=1")
          .ok());
  EXPECT_TRUE(
      TaskDescription::Decode("task ~session=a ~thread=t ~template=T")
          .ok());
}

// ---------------------------------------------------------------------------
// Persistent queue

TEST(QueueTest, StateSurvivesReopen) {
  std::string dir = FreshDir("queue_reopen");
  ManualClock clock(0);
  {
    auto queue = PersistentQueue::Open(dir, &clock);
    ASSERT_TRUE(queue.ok()) << queue.status().message();
    ASSERT_TRUE((*queue)->Enqueue("alpha", "task one").ok());
    ASSERT_TRUE((*queue)->Enqueue("beta", "task two").ok());
    auto claimed = (*queue)->Claim("w1", 1'000'000);
    ASSERT_TRUE(claimed.ok() && claimed->has_value());
    EXPECT_EQ((*claimed)->id, 1);
    ASSERT_TRUE((*queue)->Complete(1, "w1").ok());
  }
  auto queue = PersistentQueue::Open(dir, &clock);
  ASSERT_TRUE(queue.ok()) << queue.status().message();
  EXPECT_EQ((*queue)->DoneCount(), 1);
  EXPECT_EQ((*queue)->PendingCount(), 1);
  EXPECT_EQ((*queue)->recovered(), 0);
  auto task = (*queue)->Get(2);
  ASSERT_TRUE(task.ok());
  EXPECT_EQ(task->session, "beta");
  EXPECT_EQ(task->description, "task two");
  // Ids continue past the restored high-water mark.
  auto id = (*queue)->Enqueue("alpha", "task three");
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(*id, 3);
}

TEST(QueueTest, LeaseExpiryReturnsTaskToPending) {
  std::string dir = FreshDir("queue_lease");
  ManualClock clock(0);
  auto queue = PersistentQueue::Open(dir, &clock);
  ASSERT_TRUE(queue.ok());
  ASSERT_TRUE((*queue)->Enqueue("alpha", "t").ok());
  auto first = (*queue)->Claim("w1", 5'000);
  ASSERT_TRUE(first.ok() && first->has_value());
  EXPECT_EQ((*first)->attempts, 1);

  // While the lease is live the task is invisible to other claimers.
  auto blocked = (*queue)->Claim("w2", 5'000);
  ASSERT_TRUE(blocked.ok());
  EXPECT_FALSE(blocked->has_value());
  EXPECT_EQ((*queue)->ExpireLeases(), 0);

  clock.AdvanceMicros(5'001);
  EXPECT_EQ((*queue)->ExpireLeases(), 1);
  auto second = (*queue)->Claim("w2", 5'000);
  ASSERT_TRUE(second.ok() && second->has_value());
  EXPECT_EQ((*second)->id, 1);
  EXPECT_EQ((*second)->attempts, 2);
  EXPECT_EQ((*second)->owner, "w2");
}

TEST(QueueTest, StaleOwnerCannotResolveAReclaimedTask) {
  std::string dir = FreshDir("queue_stale");
  ManualClock clock(0);
  auto queue = PersistentQueue::Open(dir, &clock);
  ASSERT_TRUE(queue.ok());
  ASSERT_TRUE((*queue)->Enqueue("alpha", "t").ok());
  ASSERT_TRUE((*queue)->Claim("w1", 5'000).ok());
  clock.AdvanceMicros(10'000);
  (*queue)->ExpireLeases();
  ASSERT_TRUE((*queue)->Claim("w2", 5'000).ok());

  // w1's lease was reaped and w2 holds the task now: the stale owner
  // must not be able to complete, fail, or release it.
  EXPECT_FALSE((*queue)->Complete(1, "w1").ok());
  EXPECT_FALSE((*queue)->Fail(1, "w1", "boom").ok());
  EXPECT_FALSE((*queue)->Release(1, "w1").ok());
  EXPECT_TRUE((*queue)->Complete(1, "w2").ok());
  // Terminal states never regress.
  EXPECT_FALSE((*queue)->Complete(1, "w2").ok());
  EXPECT_EQ((*queue)->DoneCount(), 1);
}

TEST(QueueTest, ReopenRePendsOrphanedClaims) {
  std::string dir = FreshDir("queue_orphan");
  ManualClock clock(0);
  {
    auto queue = PersistentQueue::Open(dir, &clock);
    ASSERT_TRUE(queue.ok());
    ASSERT_TRUE((*queue)->Enqueue("alpha", "t1").ok());
    ASSERT_TRUE((*queue)->Enqueue("alpha", "t2").ok());
    ASSERT_TRUE((*queue)->Claim("w1", 60'000'000).ok());
    // Daemon dies here: the claim is journaled but never resolved.
  }
  auto queue = PersistentQueue::Open(dir, &clock);
  ASSERT_TRUE(queue.ok());
  EXPECT_EQ((*queue)->recovered(), 1);
  EXPECT_EQ((*queue)->PendingCount(), 2);
  EXPECT_EQ((*queue)->ClaimedCount(), 0);
  auto claimed = (*queue)->Claim("w2", 1'000);
  ASSERT_TRUE(claimed.ok() && claimed->has_value());
  EXPECT_EQ((*claimed)->id, 1);
  EXPECT_EQ((*claimed)->attempts, 2);
}

TEST(QueueTest, CheckpointCompactsTheJournal) {
  std::string dir = FreshDir("queue_checkpoint");
  fs::path journal = fs::path(dir) / "queue.pjq";
  ManualClock clock(0);
  {
    auto queue = PersistentQueue::Open(dir, &clock);
    ASSERT_TRUE(queue.ok());
    for (int i = 0; i < 8; ++i) {
      ASSERT_TRUE((*queue)->Enqueue("alpha", "t" + std::to_string(i))
                      .ok());
    }
    ASSERT_TRUE((*queue)->Claim("w1", 1'000).ok());
    ASSERT_TRUE((*queue)->Complete(1, "w1").ok());
    EXPECT_GT(fs::file_size(journal), 0u);
    ASSERT_TRUE((*queue)->Checkpoint().ok());
    EXPECT_EQ(fs::file_size(journal), 0u);
    // Post-checkpoint traffic journals again.
    ASSERT_TRUE((*queue)->Enqueue("alpha", "after").ok());
    EXPECT_GT(fs::file_size(journal), 0u);
  }
  auto queue = PersistentQueue::Open(dir, &clock);
  ASSERT_TRUE(queue.ok());
  EXPECT_EQ((*queue)->DoneCount(), 1);
  EXPECT_EQ((*queue)->PendingCount(), 8);
  auto after = (*queue)->Get(9);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->description, "after");
}

TEST(QueueTest, TornJournalTailIsDropped) {
  std::string dir = FreshDir("queue_torn");
  fs::path journal = fs::path(dir) / "queue.pjq";
  ManualClock clock(0);
  {
    auto queue = PersistentQueue::Open(dir, &clock);
    ASSERT_TRUE(queue.ok());
    ASSERT_TRUE((*queue)->Enqueue("alpha", "t1").ok());
    ASSERT_TRUE((*queue)->Enqueue("alpha", "t2").ok());
    ASSERT_TRUE((*queue)->Enqueue("alpha", "t3").ok());
  }
  // Tear the tail mid-line, as a crash mid-write would.
  std::string bytes = ReadAll(journal);
  ASSERT_GT(bytes.size(), 10u);
  {
    std::ofstream out(journal, std::ios::binary | std::ios::trunc);
    out << bytes.substr(0, bytes.size() - 7);
  }
  auto queue = PersistentQueue::Open(dir, &clock);
  ASSERT_TRUE(queue.ok()) << queue.status().message();
  // The longest valid prefix survives; the damaged record is gone.
  EXPECT_EQ((*queue)->PendingCount(), 2);
  // The queue stays writable after recovery.
  auto id = (*queue)->Enqueue("alpha", "t4");
  ASSERT_TRUE(id.ok());
}

TEST(QueueTest, EveryOperationReachesAnFsync) {
  std::string dir = FreshDir("queue_fsync");
  ManualClock clock(0);
  auto opened = PersistentQueue::Open(dir, &clock);
  ASSERT_TRUE(opened.ok());
  PersistentQueue& queue = **opened;
  int64_t syncs = queue.journal_stats().syncs;
  auto expect_synced = [&](const char* op) {
    EXPECT_EQ(queue.journal_stats().syncs, syncs + 1) << op;
    syncs = queue.journal_stats().syncs;
  };
  ASSERT_TRUE(queue.Enqueue("alpha", "t1").ok());
  expect_synced("enqueue");
  ASSERT_TRUE(queue.Enqueue("alpha", "t2").ok());
  expect_synced("enqueue");
  ASSERT_TRUE(queue.Claim("w", 1'000).ok());
  expect_synced("claim");
  ASSERT_TRUE(queue.Release(1, "w").ok());
  expect_synced("release");
  ASSERT_TRUE(queue.Claim("w", 1'000).ok());
  expect_synced("claim");
  ASSERT_TRUE(queue.Complete(1, "w").ok());
  expect_synced("complete");
  ASSERT_TRUE(queue.Claim("w", 1'000).ok());
  expect_synced("claim");
  ASSERT_TRUE(queue.Fail(2, "w", "boom").ok());
  expect_synced("fail");
  ASSERT_TRUE(queue.Enqueue("alpha", "t3").ok());
  expect_synced("enqueue");
  ASSERT_TRUE(queue.Claim("w", 1'000).ok());
  expect_synced("claim");
  clock.AdvanceMicros(2'000);
  EXPECT_EQ(queue.ExpireLeases(), 1);
  expect_synced("expire");
}

TEST(LegacyJournalTest, UnpaddedChecksumFilesStillLoad) {
  // tests/data/legacy_journals holds a queue and an artifact store
  // written by the code before the shared storage::Journal: unpadded
  // line checksums, a torn-free journal over a checkpoint, a claim left
  // unresolved, percent-encoded fields.
  std::string dir = FreshDir("legacy_journals");
  fs::copy(fs::path(PAPYRUS_SOURCE_DIR) / "tests/data/legacy_journals",
           dir, fs::copy_options::recursive);
  for (const char* file : {"queue/queue.pjq", "queue/queue.pjc",
                           "cas/cas.state", "cas/cas.journal"}) {
    bool unpadded = false;
    std::istringstream lines(ReadAll(fs::path(dir) / file));
    for (std::string line; std::getline(lines, line);) {
      size_t mark = line.rfind(" !");
      if (mark != std::string::npos && line.size() - mark - 2 < 16) {
        unpadded = true;
      }
    }
    EXPECT_TRUE(unpadded) << file << " no longer pins unpadded checksums";
  }

  ManualClock clock(0);
  auto queue = PersistentQueue::Open(dir + "/queue", &clock);
  ASSERT_TRUE(queue.ok()) << queue.status().message();
  EXPECT_EQ(clock.NowMicros(), 12'345);
  EXPECT_EQ((*queue)->recovered(), 1);
  const std::vector<TaskState> states = {
      TaskState::kDone, TaskState::kFailed, TaskState::kPending,
      TaskState::kDone, TaskState::kPending};
  ASSERT_EQ((*queue)->Tasks().size(), states.size());
  for (const QueueTask& task : (*queue)->Tasks()) {
    EXPECT_EQ(task.state, states[task.id - 1]) << "task " << task.id;
  }
  auto two = (*queue)->Get(2);
  ASSERT_TRUE(two.ok());
  EXPECT_EQ(two->description, "task ~two% with spaces");
  EXPECT_EQ(two->failure, "boom reason-1206");
  auto three = (*queue)->Get(3);
  ASSERT_TRUE(three.ok());
  EXPECT_EQ(three->attempts, 1);
  EXPECT_EQ(three->description, "");
  auto next = (*queue)->Enqueue("alpha", "new");
  ASSERT_TRUE(next.ok());
  EXPECT_EQ(*next, 6);

  auto store = storage::ContentStore::Open(dir + "/cas");
  ASSERT_TRUE(store.ok()) << store.status().message();
  storage::CasStats stats = (*store)->stats();
  EXPECT_EQ(stats.entries, 3);
  EXPECT_EQ(stats.blobs, 3);
  EXPECT_EQ(stats.orphans_collected, 0);
  auto k1 = (*store)->Fetch("k1");
  ASSERT_TRUE(k1.ok()) << k1.status().message();
  EXPECT_EQ(k1->meta.tool, "misII");
  EXPECT_EQ(k1->meta.seed_salt, 0xab12u);
  ASSERT_EQ(k1->outputs.size(), 1u);
  EXPECT_EQ(k1->outputs[0].bytes, "shared bytes");
  auto k2 = (*store)->Fetch("k2");
  ASSERT_TRUE(k2.ok()) << k2.status().message();
  EXPECT_EQ(k2->meta.tool, "wolfe-92");
  auto k3 = (*store)->Fetch("k 3%~");
  ASSERT_TRUE(k3.ok()) << k3.status().message();
  EXPECT_EQ(k3->meta.seed_salt, 0xfeedface00000001u);
  ASSERT_EQ(k3->outputs.size(), 2u);
  EXPECT_EQ(k3->outputs[0].bytes, "solo");
  EXPECT_FALSE(k3->outputs[1].visible);
  EXPECT_EQ(k3->outputs[1].bytes, "second");
}

// ---------------------------------------------------------------------------
// Daemon harness

/// Owns everything that must outlive a daemon crash: the virtual clock,
/// the metrics registry, the trace, and the crash plan. `Boot` starts a
/// fresh incarnation over the same root; `Settle` drains the queue,
/// rebooting after every injected crash like init restarting a dead
/// service.
struct DaemonHarness {
  explicit DaemonHarness(const std::string& root_dir)
      : root(root_dir), trace(&clock) {
    trace.set_enabled(true);
  }

  Status Boot() {
    daemon.reset();  // the old incarnation's memory dies first
    DaemonOptions options;
    options.root = root;
    options.session.worker_threads = workers;
    options.session.fault = fault;
    options.max_open_sessions = max_open_sessions;
    options.crash_plan = plan;
    options.clock = &clock;
    options.trace = &trace;
    options.metrics = &metrics;
    auto started = PapyrusDaemon::Start(options);
    if (!started.ok()) return started.status();
    daemon = std::move(*started);
    ++boots;
    return Status::OK();
  }

  /// Drains to empty, restarting on injected crashes. Returns the number
  /// of restarts performed.
  Result<int> Settle(int max_restarts = 20) {
    int restarts = 0;
    while (true) {
      Status st = daemon->Drain();
      if (st.ok()) return restarts;
      if (!st.IsAborted()) return st;
      if (++restarts > max_restarts) {
        return Status::Internal("daemon did not settle after " +
                                std::to_string(max_restarts) +
                                " restarts");
      }
      PAPYRUS_RETURN_IF_ERROR(Boot());
    }
  }

  std::string Ok(const std::string& line) {
    std::string response = daemon->HandleLine(line);
    EXPECT_EQ(response.rfind("ok", 0), 0u) << line << " -> " << response;
    return response;
  }

  std::string root;
  ManualClock clock{0};
  obs::MetricsRegistry metrics;
  obs::TraceRecorder trace;
  DaemonCrashPlan* plan = nullptr;
  int workers = 1;
  int max_open_sessions = 0;
  fault::FaultPlanOptions fault = {.seed = 0};
  int boots = 0;
  std::unique_ptr<PapyrusDaemon> daemon;
};

/// The standard two-session workload: three synthesis flows in `alpha`,
/// three pad placements in `beta`, all fed over the wire. Returns the
/// number of tasks submitted.
int SubmitWorkload(DaemonHarness& h) {
  h.Ok("checkin ~session=alpha ~path=/proj/shifter ~type=behav"
       " ~inputs=8 ~outputs=8 ~complexity=12 ~seed=77");
  h.Ok("checkin ~session=alpha ~path=/proj/sim.cmd ~type=text"
       " ~text=run%20100");
  h.Ok("checkin ~session=beta ~path=/proj/cell ~type=layout"
       " ~cells=12 ~area=1200 ~seed=3");
  for (int k = 0; k < 3; ++k) {
    h.Ok("submit ~session=alpha ~thread=synth"
         " ~template=Structure_Synthesis"
         " ~in=/proj/shifter ~in=/proj/sim.cmd"
         " ~out=s" +
         std::to_string(k) + ".layout ~out=s" + std::to_string(k) +
         ".stats ~seed=" + std::to_string(42 + k));
    h.Ok("submit ~session=beta ~thread=pads ~template=Padp"
         " ~in=/proj/cell ~out=cell" +
         std::to_string(k) + ".padded ~seed=" + std::to_string(9 + k));
  }
  return 6;
}

/// Everything a daemon crash could conceivably perturb, as the library's
/// logical replay fingerprint (live section bytes plus the ADG).
ReplayFingerprint Fingerprint(DaemonHarness& h,
                              const std::vector<std::string>& sessions) {
  auto fp = FingerprintSessions(h.daemon.get(), sessions);
  EXPECT_TRUE(fp.ok()) << fp.status().message();
  return fp.ok() ? *fp : ReplayFingerprint{};
}

void ExpectSameFingerprint(const ReplayFingerprint& expected,
                           const ReplayFingerprint& actual) {
  EXPECT_FALSE(expected.sections.empty());
  EXPECT_EQ(DiffFingerprints(expected, actual), "");
}

/// One crash-free reference run at the given worker count; the chaos
/// tests compare their final state against its fingerprint. The scratch
/// directory embeds the calling test's name: ctest runs each test in its
/// own process, possibly concurrently, and a shared path would let one
/// test remove_all() the directory out from under another's daemon.
ReplayFingerprint ReferenceRun(int workers) {
  const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
  std::string test_name = info != nullptr ? info->name() : "unknown";
  DaemonHarness h(FreshDir("daemon_reference_" + test_name + "_w" +
                           std::to_string(workers)));
  h.workers = workers;
  EXPECT_TRUE(h.Boot().ok());
  int n = SubmitWorkload(h);
  auto restarts = h.Settle();
  EXPECT_TRUE(restarts.ok() && *restarts == 0);
  EXPECT_EQ(h.daemon->queue().DoneCount(), n);
  EXPECT_EQ(h.daemon->queue().FailedCount(), 0);
  return Fingerprint(h, {"alpha", "beta"});
}

TEST(ReplayFingerprintTest, OneFlippedSectionByteIsADifference) {
  // The check must not go hollow: it compares real section contents, and
  // one flipped byte in any of them is a difference.
  ReplayFingerprint reference = ReferenceRun(1);
  ASSERT_GT(reference.sections.size(), 4u);
  EXPECT_EQ(DiffFingerprints(reference, reference), "");
  for (const auto& [key, text] : reference.sections) {
    if (text.empty()) continue;
    ReplayFingerprint flipped = reference;
    flipped.sections[key][text.size() / 2] ^= 0x01;
    EXPECT_NE(DiffFingerprints(reference, flipped), "") << key;
  }
  ReplayFingerprint other_adg = reference;
  other_adg.adg += "x";
  EXPECT_NE(DiffFingerprints(reference, other_adg), "");
}

// ---------------------------------------------------------------------------
// Daemon behaviour

TEST(DaemonTest, ExecutesWireSubmittedTasksAcrossSessions) {
  DaemonHarness h(FreshDir("daemon_basic"));
  ASSERT_TRUE(h.Boot().ok());
  EXPECT_EQ(h.Ok("ping"), "ok ~pong=1");
  int n = SubmitWorkload(h);

  std::string drained = h.Ok("drain");
  EXPECT_NE(drained.find("~done=6"), std::string::npos) << drained;
  EXPECT_NE(drained.find("~failed=0"), std::string::npos) << drained;
  EXPECT_EQ(h.daemon->queue().DoneCount(), n);

  // Introspection verbs see the drained queue and both sessions.
  std::string stat = h.Ok("stat");
  EXPECT_NE(stat.find("~pending=0"), std::string::npos) << stat;
  EXPECT_NE(stat.find("~depth=0"), std::string::npos) << stat;
  std::string task = h.Ok("task ~id=1");
  EXPECT_NE(task.find("~state=done"), std::string::npos) << task;
  std::string sessions = h.Ok("sessions");
  EXPECT_NE(sessions.find("~session=alpha"), std::string::npos);
  EXPECT_NE(sessions.find("~session=beta"), std::string::npos);

  EXPECT_EQ(
      h.metrics.FindOrCreateCounter(obs::kServerTasksExecuted)->value(),
      n);
  EXPECT_EQ(
      h.metrics.FindOrCreateCounter(obs::kServerTasksDeduped)->value(),
      0);
  EXPECT_EQ(h.metrics.FindOrCreateCounter(obs::kQueueEnqueued)->value(),
            n);
  EXPECT_EQ(h.metrics.FindOrCreateCounter(obs::kQueueCompleted)->value(),
            n);
  EXPECT_EQ(h.Ok("shutdown"), "ok ~bye=1");
}

TEST(DaemonTest, DaemonWideCountersSumOverSessions) {
  // Every session binds its database, network and cache to the daemon's
  // registry. Opening a second session must add to the shared counters,
  // not reset them to the newcomer's own (zero) totals.
  DaemonHarness h(FreshDir("daemon_counter_sum"));
  ASSERT_TRUE(h.Boot().ok());
  h.Ok("checkin ~session=alpha ~path=/proj/cell ~type=layout"
       " ~cells=12 ~area=1200 ~seed=3");
  for (int k = 0; k < 3; ++k) {
    h.Ok("submit ~session=alpha ~thread=pads ~template=Padp"
         " ~in=/proj/cell ~out=cell" +
         std::to_string(k) + ".padded ~seed=" + std::to_string(9 + k));
  }
  h.Ok("drain");
  auto daemon_total = [&](const char* name) {
    return h.metrics.FindOrCreateCounter(name)->value();
  };
  const int64_t versions_before = daemon_total(obs::kOctVersionsCreated);
  ASSERT_GT(versions_before, 0);
  h.Ok("attach ~session=beta");
  EXPECT_EQ(daemon_total(obs::kOctVersionsCreated), versions_before);

  int64_t versions = 0, misses = 0, spawns = 0;
  for (const char* name : {"alpha", "beta"}) {
    auto session = h.daemon->OpenSession(name);
    ASSERT_TRUE(session.ok()) << session.status().message();
    Papyrus& s = (*session)->session();
    versions += s.database().TotalVersionCount();
    misses += s.step_cache().stats().misses;
    spawns += s.network().total_spawns();
  }
  EXPECT_EQ(daemon_total(obs::kOctVersionsCreated), versions);
  EXPECT_EQ(daemon_total(obs::kCacheMisses), misses);
  EXPECT_EQ(daemon_total(obs::kSpriteSpawns), spawns);
  EXPECT_EQ(daemon_total(obs::kCacheMisses), 3);
  EXPECT_EQ(daemon_total(obs::kSpriteSpawns), 3);
}

TEST(DaemonTest, RejectsMalformedRequestsAndSessionNames) {
  DaemonHarness h(FreshDir("daemon_reject"));
  ASSERT_TRUE(h.Boot().ok());
  EXPECT_EQ(h.daemon->HandleLine("").rfind("err", 0), 0u);
  EXPECT_EQ(h.daemon->HandleLine("bogusverb").rfind("err", 0), 0u);
  EXPECT_EQ(h.daemon->HandleLine("submit ~session=a").rfind("err", 0),
            0u);
  EXPECT_EQ(h.daemon
                ->HandleLine("checkin ~session=../evil ~path=/x"
                             " ~type=text ~text=boo")
                .rfind("err", 0),
            0u);
  EXPECT_FALSE(h.daemon->OpenSession("..").ok());
  EXPECT_FALSE(h.daemon->OpenSession("a/b").ok());
  EXPECT_FALSE(h.daemon->OpenSession("").ok());
}

TEST(DaemonTest, MalformedQueuedTaskFailsPermanently) {
  DaemonHarness h(FreshDir("daemon_malformed"));
  ASSERT_TRUE(h.Boot().ok());
  ASSERT_TRUE(
      h.daemon->queue().Enqueue("alpha", "this is not a task").ok());
  auto ran = h.daemon->RunOne();
  ASSERT_TRUE(ran.ok());
  EXPECT_TRUE(*ran);
  EXPECT_EQ(h.daemon->queue().FailedCount(), 1);
  auto task = h.daemon->queue().Get(1);
  ASSERT_TRUE(task.ok());
  EXPECT_FALSE(task->failure.empty());
}

TEST(DaemonTest, CrashAfterExecuteRerunsByteIdentically) {
  ReplayFingerprint reference = ReferenceRun(1);

  // Draw 2 is task 1's after_execute point: the work happened, nothing
  // was saved. The restarted daemon must reproduce it byte-for-byte.
  DaemonCrashPlan plan(std::vector<int64_t>{2});
  DaemonHarness h(FreshDir("daemon_crash_exec"));
  h.plan = &plan;
  ASSERT_TRUE(h.Boot().ok());
  int n = SubmitWorkload(h);
  auto restarts = h.Settle();
  ASSERT_TRUE(restarts.ok()) << restarts.status().message();
  EXPECT_EQ(*restarts, 1);
  EXPECT_EQ(plan.crashes_fired(), 1);

  EXPECT_EQ(h.daemon->queue().DoneCount(), n);
  EXPECT_EQ(h.daemon->queue().FailedCount(), 0);
  // The lost execution re-ran; nothing was deduped.
  EXPECT_EQ(
      h.metrics.FindOrCreateCounter(obs::kServerTasksDeduped)->value(),
      0);
  EXPECT_EQ(
      h.metrics.FindOrCreateCounter(obs::kServerTasksExecuted)->value(),
      n);
  EXPECT_EQ(
      h.metrics.FindOrCreateCounter(obs::kServerRestarts)->value(), 1);
  ExpectSameFingerprint(reference, Fingerprint(h, {"alpha", "beta"}));
}

TEST(DaemonTest, CrashAfterSaveDedupesTheRedeliveredTask) {
  ReplayFingerprint reference = ReferenceRun(1);

  // Draw 3 is task 1's after_save point: effects durable, done never
  // journaled. Recovery re-delivers the task and the applied ledger must
  // complete it without re-executing.
  DaemonCrashPlan plan(std::vector<int64_t>{3});
  DaemonHarness h(FreshDir("daemon_crash_save"));
  h.plan = &plan;
  ASSERT_TRUE(h.Boot().ok());
  int n = SubmitWorkload(h);
  auto restarts = h.Settle();
  ASSERT_TRUE(restarts.ok()) << restarts.status().message();
  EXPECT_EQ(plan.crashes_fired(), 1);

  EXPECT_EQ(h.daemon->queue().DoneCount(), n);
  EXPECT_EQ(
      h.metrics.FindOrCreateCounter(obs::kServerTasksDeduped)->value(),
      1);
  // n tasks committed but only n - 1 executions were acknowledged live:
  // the crashed task's execution survived on disk and was never re-run.
  EXPECT_EQ(
      h.metrics.FindOrCreateCounter(obs::kServerTasksExecuted)->value(),
      n - 1);
  ExpectSameFingerprint(reference, Fingerprint(h, {"alpha", "beta"}));
}

TEST(ManagedSessionTest, TornSaveKeepsTheLedgerWithItsHistoryNode) {
  // A log cut inside one task's Save: the task's history node and its
  // applied-ledger line (drained last) are durable together or not at
  // all, so a re-delivered task is neither lost nor run twice.
  const std::string dir = FreshDir("torn_ledger");
  const fs::path wal = fs::path(dir) / "wal.log";
  SessionConfig config;
  config.worker_threads = 1;
  config.snapshot_interval = 1 << 30;  // every Save is one WAL commit
  auto task = [](const std::string& output) {
    TaskDescription desc;
    desc.session = "torn";
    desc.thread = "t";
    desc.template_name = "Create_Logic_Description";
    desc.output_names = {output};
    return desc;
  };
  uintmax_t first_save = 0;
  activity::NodeId node = 0;
  {
    auto opened = ManagedSession::Open(dir, "torn", config);
    ASSERT_TRUE(opened.ok()) << opened.status().message();
    ASSERT_TRUE((*opened)->Execute(1, task("a.logic")).ok());
    ASSERT_TRUE((*opened)->Save().ok());
    first_save = fs::file_size(wal);
    auto executed = (*opened)->Execute(2, task("b.logic"));
    ASSERT_TRUE(executed.ok());
    node = *executed;
    ASSERT_TRUE((*opened)->Save().ok());
  }
  const std::string bytes = ReadAll(wal);
  int with_node = 0, without_node = 0;
  for (size_t cut = first_save; cut <= bytes.size(); ++cut) {
    // Every line boundary of the second Save, and some offsets inside
    // its lines.
    if (bytes[cut - 1] != '\n' && cut % 61 != 0) continue;
    SCOPED_TRACE("cut=" + std::to_string(cut));
    const std::string cut_dir = FreshDir("torn_ledger_cut");
    std::ofstream(fs::path(cut_dir) / "wal.log", std::ios::binary)
        << bytes.substr(0, cut);
    auto reopened = ManagedSession::Open(cut_dir, "torn", config);
    ASSERT_TRUE(reopened.ok()) << reopened.status().message();
    Papyrus& engine = (*reopened)->session();
    bool has_node = false;
    for (int id : engine.activity().ThreadIds()) {
      auto thread = engine.activity().GetThread(id);
      if (thread.ok() && (*thread)->name() == "t") {
        has_node = (*thread)->HasNode(node);
      }
    }
    EXPECT_TRUE((*reopened)->HasApplied(1));
    EXPECT_EQ((*reopened)->HasApplied(2), has_node);
    ++(has_node ? with_node : without_node);
  }
  EXPECT_EQ(with_node, 1);  // only the whole log carries the commit
  EXPECT_GT(without_node, 5);
}

TEST(ManagedSessionTest, ReopensAStoreWithTheV1StateFormat) {
  // tests/data/session_state_v1 (see its README): a generation whose
  // state section holds tasks 11 and 12, and a WAL tail whose batch for
  // task 13 ends in state clock, nextexec and applied records.
  const fs::path data =
      fs::path(PAPYRUS_SOURCE_DIR) / "tests/data/session_state_v1";
  const std::string dir = FreshDir("state_v1");
  fs::copy(data / "session", dir, fs::copy_options::recursive);
  SessionConfig config;
  config.worker_threads = 1;
  auto opened = ManagedSession::Open(dir, "fixture", config);
  ASSERT_TRUE(opened.ok()) << opened.status().message();
  ManagedSession& session = **opened;
  // The version-3 log replays, and is folded into generation 2 at open.
  EXPECT_EQ(session.generation(), 2);
  for (int64_t task : {11, 12, 13}) {
    SCOPED_TRACE("task " + std::to_string(task));
    EXPECT_TRUE(session.HasApplied(task));
    auto node = session.AppliedNode(task);
    ASSERT_TRUE(node.ok()) << node.status().message();
    EXPECT_EQ(*node, task - 10);
  }
  EXPECT_FALSE(session.HasApplied(14));
  EXPECT_FALSE(session.AppliedNode(14).ok());
  EXPECT_EQ(session.session().clock().NowMicros(), 1'076'848);
  EXPECT_EQ(session.session().task_manager().next_execution_id(), 4);

  ASSERT_TRUE(session.Checkpoint().ok());
  EXPECT_EQ(session.generation(), 3);
  auto state = session.session().store()->ReadSection("state");
  ASSERT_TRUE(state.ok()) << state.status().message();
  EXPECT_EQ(*state, ReadAll(data / "state.golden"));
}

TEST(DaemonTest, CheckinRefusesMalformedNumbers) {
  DaemonHarness h(FreshDir("daemon_checkin_numbers"));
  ASSERT_TRUE(h.Boot().ok());
  const char* refused[] = {
      "checkin ~session=a ~path=/p/spec ~type=behav ~inputs=eight",
      "checkin ~session=a ~path=/p/spec ~type=behav ~outputs=-1",
      "checkin ~session=a ~path=/p/spec ~type=behav ~complexity=2147483648",
      "checkin ~session=a ~path=/p/spec ~type=behav ~seed=-7",
      "checkin ~session=a ~path=/p/cell ~type=layout ~cells=1.5",
      "checkin ~session=a ~path=/p/cell ~type=layout ~area=big",
      "checkin ~session=a ~path=/p/cell ~type=layout"
      " ~seed=99999999999999999999",
  };
  for (const char* line : refused) {
    EXPECT_EQ(h.daemon->HandleLine(line).rfind("err", 0), 0u) << line;
  }
  auto session = h.daemon->OpenSession("a");
  ASSERT_TRUE(session.ok()) << session.status().message();
  oct::OctDatabase& db = (*session)->session().database();
  EXPECT_EQ(db.TotalVersionCount(), 0);

  // An absent number is 0; the largest value each field holds is taken.
  h.Ok("checkin ~session=a ~path=/p/spec ~type=behav");
  h.Ok("checkin ~session=a ~path=/p/cell ~type=layout ~cells=2147483647"
       " ~area=1200 ~seed=9223372036854775807");
  EXPECT_EQ(db.TotalVersionCount(), 2);
  auto cell = db.LatestVisible("/p/cell");
  ASSERT_TRUE(cell.ok()) << cell.status().message();
  auto record = db.Peek(*cell);
  ASSERT_TRUE(record.ok()) << record.status().message();
  const auto* layout = std::get_if<oct::Layout>(&(*record)->payload);
  ASSERT_NE(layout, nullptr);
  EXPECT_EQ(layout->num_cells, 2147483647);
  EXPECT_EQ(layout->seed, 9223372036854775807ull);
}

/// The acceptance-criteria soak: many mid-flow daemon kills, then proof
/// of exactly-once commit and byte-identical state against a crash-free
/// run — at two worker-pool sizes.
void RunChaosSoak(int workers) {
  ReplayFingerprint reference = ReferenceRun(workers);

  // Five kills spread across the pipeline: draws 2 and 14 are
  // after_execute points, 5 an after_save, 9 and 19 before_execute /
  // wherever the recovery schedule lands them. What matters is that all
  // five fire mid-flow.
  DaemonCrashPlan plan(std::vector<int64_t>{2, 5, 9, 14, 19});
  DaemonHarness h(
      FreshDir("daemon_soak_w" + std::to_string(workers)));
  h.plan = &plan;
  h.workers = workers;
  ASSERT_TRUE(h.Boot().ok());
  int n = SubmitWorkload(h);
  auto restarts = h.Settle();
  ASSERT_TRUE(restarts.ok()) << restarts.status().message();
  EXPECT_EQ(*restarts, 5);
  EXPECT_EQ(plan.crashes_fired(), 5);
  EXPECT_EQ(
      h.metrics.FindOrCreateCounter(obs::kServerCrashesInjected)->value(),
      5);

  // Every enqueued task committed exactly once.
  EXPECT_EQ(h.daemon->queue().DoneCount(), n);
  EXPECT_EQ(h.daemon->queue().FailedCount(), 0);
  EXPECT_EQ(h.daemon->queue().depth(), 0);
  int64_t executed =
      h.metrics.FindOrCreateCounter(obs::kServerTasksExecuted)->value();
  int64_t deduped =
      h.metrics.FindOrCreateCounter(obs::kServerTasksDeduped)->value();
  EXPECT_EQ(executed + deduped, n);

  ExpectSameFingerprint(reference, Fingerprint(h, {"alpha", "beta"}));
}

TEST(DaemonTest, ChaosSoakIsExactlyOnceAndByteIdenticalSerial) {
  RunChaosSoak(1);
}

TEST(DaemonTest, ChaosSoakIsExactlyOnceAndByteIdenticalParallel) {
  RunChaosSoak(4);
}

TEST(DaemonTest, IntraSessionFaultPlanStillCommitsExactlyOnce) {
  // PR 1 chaos *inside* the hosted sessions: hosts crash and tools fail
  // transiently while the daemon feeds them. Byte-identity with a
  // chaos-free run is out of scope (the plan schedules against absolute
  // virtual times) but exactly-once commit must hold.
  DaemonHarness h(FreshDir("daemon_fault_plan"));
  h.fault.seed = 1234;
  h.fault.host_crash_rate = 0.5;
  h.fault.reboot_delay_micros = 400'000;
  h.fault.tool_transient_rate = 0.05;
  ASSERT_TRUE(h.Boot().ok());
  int n = SubmitWorkload(h);
  auto restarts = h.Settle();
  ASSERT_TRUE(restarts.ok()) << restarts.status().message();

  EXPECT_EQ(h.daemon->queue().DoneCount() +
                h.daemon->queue().FailedCount(),
            n);
  EXPECT_EQ(h.daemon->queue().depth(), 0);
  // Every done task maps to exactly one committed history node.
  std::map<std::string, std::map<int64_t, int>> seen;
  for (const QueueTask& task : h.daemon->queue().Tasks()) {
    if (task.state != TaskState::kDone) continue;
    auto session = h.daemon->OpenSession(task.session);
    ASSERT_TRUE(session.ok());
    auto node = (*session)->AppliedNode(task.id);
    ASSERT_TRUE(node.ok()) << "done task " << task.id
                           << " missing from the applied ledger";
    EXPECT_EQ(++seen[task.session][*node], 1)
        << "two done tasks share node " << *node;
  }
  EXPECT_TRUE(h.daemon->Shutdown().ok());
}

TEST(DaemonTest, TiedCommitsKeepTheirAdgAcrossEvictionAndReopen) {
  // Two threads of one session run the same task under the same names,
  // alternately: after the first run every step is served by the step
  // cache, so the commits of both threads land at one virtual instant.
  // The ADG derived from the history orders them alike, live and after
  // the session was evicted and reopened.
  DaemonHarness h(FreshDir("daemon_tie"));
  h.max_open_sessions = 1;
  ASSERT_TRUE(h.Boot().ok());
  for (int k = 0; k < 3; ++k) {
    for (const std::string thread : {"a", "b"}) {
      h.Ok("submit ~session=tie ~thread=" + thread +
           " ~template=Create_Logic_Description ~out=cell.logic ~seed=5");
    }
  }
  std::string drained = h.Ok("drain");
  EXPECT_NE(drained.find("~done=6"), std::string::npos) << drained;
  ReplayFingerprint live = Fingerprint(h, {"tie"});
  ASSERT_NE(live.adg.find("|1\n"), std::string::npos)  // reuse edges
      << live.adg;

  // Opening another session evicts "tie" under the one-session cap.
  ASSERT_TRUE(h.daemon->OpenSession("other").ok());
  ASSERT_EQ(h.daemon->open_sessions(), 1);
  ExpectSameFingerprint(live, Fingerprint(h, {"tie"}));
}

TEST(DaemonTest, GracefulShutdownCheckpointsTheQueue) {
  DaemonHarness h(FreshDir("daemon_shutdown"));
  ASSERT_TRUE(h.Boot().ok());
  SubmitWorkload(h);
  ASSERT_TRUE(h.daemon->Drain().ok());
  ASSERT_TRUE(h.daemon->Shutdown().ok());
  // Shutdown compacted the journal into the checkpoint.
  EXPECT_EQ(fs::file_size(fs::path(h.root) / "queue" / "queue.pjq"), 0u);
  EXPECT_GT(fs::file_size(fs::path(h.root) / "queue" / "queue.pjc"), 0u);
  // A crashed or shut-down daemon refuses further work.
  EXPECT_FALSE(h.daemon->RunOne().ok());
  EXPECT_FALSE(h.daemon->Submit(TaskDescription{}).ok());

  // The next incarnation restores from the checkpoint cleanly.
  ASSERT_TRUE(h.Boot().ok());
  EXPECT_EQ(h.daemon->queue().DoneCount(), 6);
  EXPECT_EQ(h.daemon->queue().recovered(), 0);
}

}  // namespace
}  // namespace papyrus::server
