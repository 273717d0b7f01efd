#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "base/clock.h"
#include "obs/metrics.h"
#include "oct/design_data.h"
#include "server/daemon.h"
#include "server/queue.h"
#include "server/transport.h"
#include "storage/file_lock.h"

namespace papyrus::server {
namespace {

namespace fs = std::filesystem;

/// A fresh, empty scratch directory per test (re-runs included).
std::string FreshDir(const std::string& name) {
  fs::path dir = fs::path(::testing::TempDir()) / ("transport_" + name);
  std::error_code ec;
  fs::remove_all(dir, ec);
  fs::create_directories(dir, ec);
  return dir.string();
}

/// Short socket path: AF_UNIX sun_path caps out near 104 bytes and
/// gtest temp dirs can be deep, so sockets live under /tmp directly.
std::string SocketPath(const std::string& name) {
  fs::path p = fs::path("/tmp") / ("papyrus_" + name + "_" +
                                   std::to_string(::getpid()) + ".sock");
  std::error_code ec;
  fs::remove(p, ec);
  return p.string();
}

// ---------------------------------------------------------------------------
// Line framing over arbitrary fragmentation

TEST(LineFramerTest, EmitsCoalescedLinesInOrder) {
  LineFramer framer;
  auto lines = framer.Feed("ping\nstat\nsubmit ~k=v\n");
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_EQ(lines[0].text, "ping");
  EXPECT_EQ(lines[1].text, "stat");
  EXPECT_EQ(lines[2].text, "submit ~k=v");
  EXPECT_FALSE(lines[0].oversized);
  EXPECT_FALSE(framer.HasPartial());
}

TEST(LineFramerTest, ReassemblesByteWiseFragmentsMidEscape) {
  // One request whose percent-escape straddles every possible read
  // boundary: fed a byte at a time, the framer must stay silent until
  // the newline and then emit the exact original line.
  const std::string line =
      "checkin ~session=alpha ~path=/proj/sim.cmd ~type=text"
      " ~text=run%20100";
  LineFramer framer;
  std::vector<LineFramer::Line> got;
  for (char c : line) {
    auto emitted = framer.Feed(std::string_view(&c, 1));
    EXPECT_TRUE(emitted.empty()) << "emitted before the terminator";
    EXPECT_TRUE(framer.HasPartial());
    got.insert(got.end(), emitted.begin(), emitted.end());
  }
  auto emitted = framer.Feed("\n");
  got.insert(got.end(), emitted.begin(), emitted.end());
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].text, line);
  EXPECT_FALSE(got[0].oversized);
  EXPECT_FALSE(framer.HasPartial());
}

TEST(LineFramerTest, SplitsAcrossFeedsAndCoalescesWithinOne) {
  LineFramer framer;
  auto first = framer.Feed("pi");
  EXPECT_TRUE(first.empty());
  // The closing fragment completes one request and carries two more.
  auto rest = framer.Feed("ng\nstat\nta");
  ASSERT_EQ(rest.size(), 2u);
  EXPECT_EQ(rest[0].text, "ping");
  EXPECT_EQ(rest[1].text, "stat");
  EXPECT_TRUE(framer.HasPartial());
  auto last = framer.Feed("sk ~id=1\n");
  ASSERT_EQ(last.size(), 1u);
  EXPECT_EQ(last[0].text, "task ~id=1");
}

TEST(LineFramerTest, OversizedLineIsDiscardedAndFramingRecovers) {
  LineFramer framer(/*max_line_bytes=*/32);
  // 100 bytes without a newline: over budget, the framer flips to
  // discard mode instead of buffering without bound.
  auto silent = framer.Feed(std::string(100, 'x'));
  EXPECT_TRUE(silent.empty());
  EXPECT_TRUE(framer.HasPartial());
  // More of the same line, still discarding.
  EXPECT_TRUE(framer.Feed(std::string(50, 'y')).empty());
  // The terminator surfaces exactly one oversized marker, and the next
  // line parses normally — one hostile client request, one error.
  auto lines = framer.Feed("zzz\nping\n");
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_TRUE(lines[0].oversized);
  EXPECT_EQ(lines[1].text, "ping");
  EXPECT_FALSE(lines[1].oversized);
  EXPECT_FALSE(framer.HasPartial());
}

TEST(LineFramerTest, LineExactlyAtTheLimitPasses) {
  LineFramer framer(/*max_line_bytes=*/8);
  auto ok = framer.Feed("12345678\n");
  ASSERT_EQ(ok.size(), 1u);
  EXPECT_FALSE(ok[0].oversized);
  auto over = framer.Feed("123456789\n");
  ASSERT_EQ(over.size(), 1u);
  EXPECT_TRUE(over[0].oversized);
}

// ---------------------------------------------------------------------------
// File locks (the shared-queue and session-ownership primitive)

TEST(FileLockTest, ExcludesSecondHolderUntilReleased) {
  std::string dir = FreshDir("filelock");
  std::string path = dir + "/x.lock";
  auto first = storage::FileLock::TryAcquire(path);
  ASSERT_TRUE(first.ok()) << first.status().message();

  auto blocked = storage::FileLock::TryAcquire(path);
  EXPECT_FALSE(blocked.ok());
  EXPECT_TRUE(blocked.status().IsUnavailable())
      << blocked.status().ToString();

  first->reset();  // release
  auto second = storage::FileLock::TryAcquire(path);
  EXPECT_TRUE(second.ok()) << second.status().message();
}

// ---------------------------------------------------------------------------
// Fair (weighted round-robin) claim order

/// Enqueues `per_session` tasks into each named session, in session
/// round-robin id order (a1 b1 a2 b2 ...) so ids alone don't encode the
/// expected claim order.
void EnqueueMatrix(PersistentQueue& q,
                   const std::vector<std::string>& sessions,
                   int per_session) {
  for (int k = 0; k < per_session; ++k) {
    for (const std::string& s : sessions) {
      ASSERT_TRUE(q.Enqueue(s, "task").ok());
    }
  }
}

std::vector<std::string> ClaimAllSessions(PersistentQueue& q,
                                          const ClaimPolicy& policy) {
  std::vector<std::string> order;
  while (true) {
    auto claimed = q.Claim("w", 1'000'000, policy);
    EXPECT_TRUE(claimed.ok()) << claimed.status().message();
    if (!claimed.ok() || !claimed->has_value()) break;
    order.push_back((*claimed)->session);
    EXPECT_TRUE(q.Complete((*claimed)->id, "w").ok());
  }
  return order;
}

TEST(FairQueueTest, RotatesAcrossSessionsInsteadOfFifo) {
  std::string dir = FreshDir("fair_rotate");
  ManualClock clock(0);
  auto queue = PersistentQueue::Open(dir, &clock);
  ASSERT_TRUE(queue.ok());
  // alpha floods 6 tasks first, then beta submits 2: global FIFO would
  // starve beta behind all of alpha's.
  for (int k = 0; k < 6; ++k) {
    ASSERT_TRUE((*queue)->Enqueue("alpha", "t").ok());
  }
  for (int k = 0; k < 2; ++k) {
    ASSERT_TRUE((*queue)->Enqueue("beta", "t").ok());
  }
  ClaimPolicy fair;
  fair.fair = true;
  auto order = ClaimAllSessions(**queue, fair);
  ASSERT_EQ(order.size(), 8u);
  // beta's two tasks are served within the first four claims, not after
  // alpha drains.
  int beta_rank = 0;
  for (size_t i = 0; i < order.size(); ++i) {
    if (order[i] == "beta") beta_rank = static_cast<int>(i);
  }
  EXPECT_LT(beta_rank, 4) << "beta starved behind alpha's backlog";
}

TEST(FairQueueTest, PerSessionClaimOrderIsAlwaysAscendingId) {
  // Whatever the cross-session interleave, each session's own tasks are
  // claimed in id order — the invariant that makes fair-dispatch
  // snapshots byte-identical to FIFO ones.
  std::string dir = FreshDir("fair_session_order");
  ManualClock clock(0);
  auto queue = PersistentQueue::Open(dir, &clock);
  ASSERT_TRUE(queue.ok());
  EnqueueMatrix(**queue, {"alpha", "beta", "gamma"}, 4);
  ClaimPolicy fair;
  fair.fair = true;
  std::map<std::string, std::vector<int64_t>> by_session;
  while (true) {
    auto claimed = (*queue)->Claim("w", 1'000'000, fair);
    ASSERT_TRUE(claimed.ok());
    if (!claimed->has_value()) break;
    by_session[(*claimed)->session].push_back((*claimed)->id);
    ASSERT_TRUE((*queue)->Complete((*claimed)->id, "w").ok());
  }
  ASSERT_EQ(by_session.size(), 3u);
  for (const auto& [session, ids] : by_session) {
    EXPECT_EQ(ids.size(), 4u) << session;
    for (size_t i = 1; i < ids.size(); ++i) {
      EXPECT_LT(ids[i - 1], ids[i]) << session << " out of id order";
    }
  }
  // The claim log records the same grant order the claims returned.
  EXPECT_EQ((*queue)->claim_log().size(), 12u);
}

TEST(FairQueueTest, WeightsServeMultipleTasksPerRotationStop) {
  std::string dir = FreshDir("fair_weights");
  ManualClock clock(0);
  auto queue = PersistentQueue::Open(dir, &clock);
  ASSERT_TRUE(queue.ok());
  EnqueueMatrix(**queue, {"alpha", "beta"}, 6);
  std::map<std::string, int> weights{{"alpha", 2}};
  ClaimPolicy fair;
  fair.fair = true;
  fair.weights = &weights;
  auto order = ClaimAllSessions(**queue, fair);
  ASSERT_EQ(order.size(), 12u);
  // Weight 2 vs 1: within any rotation window alpha gets two claims for
  // each of beta's one, until alpha drains and beta serves back-to-back.
  int alpha_runs = 0;
  for (size_t i = 0; i + 1 < order.size(); ++i) {
    if (order[i] == "alpha" && order[i + 1] == "alpha") ++alpha_runs;
  }
  EXPECT_GE(alpha_runs, 3) << "weight=2 never produced alpha pairs";
  // All tasks of both sessions were eventually served.
  EXPECT_EQ((*queue)->DoneCount(), 12);
}

TEST(FairQueueTest, InflightCapSkipsSaturatedSessions) {
  std::string dir = FreshDir("fair_cap");
  ManualClock clock(0);
  auto queue = PersistentQueue::Open(dir, &clock);
  ASSERT_TRUE(queue.ok());
  ASSERT_TRUE((*queue)->Enqueue("alpha", "a1").ok());  // id 1
  ASSERT_TRUE((*queue)->Enqueue("alpha", "a2").ok());  // id 2
  ASSERT_TRUE((*queue)->Enqueue("beta", "b1").ok());   // id 3
  ClaimPolicy fair;
  fair.fair = true;
  fair.max_inflight_per_session = 1;

  auto first = (*queue)->Claim("w", 1'000'000, fair);
  ASSERT_TRUE(first.ok() && first->has_value());
  EXPECT_EQ((*first)->session, "alpha");
  EXPECT_EQ((*first)->id, 1);

  // alpha is at its cap: the next claim must come from beta even though
  // alpha holds the lower pending id.
  auto second = (*queue)->Claim("w", 1'000'000, fair);
  ASSERT_TRUE(second.ok() && second->has_value());
  EXPECT_EQ((*second)->session, "beta");

  // Both sessions saturated/empty: nothing claimable until a resolve.
  auto blocked = (*queue)->Claim("w", 1'000'000, fair);
  ASSERT_TRUE(blocked.ok());
  EXPECT_FALSE(blocked->has_value());

  ASSERT_TRUE((*queue)->Complete(1, "w").ok());
  auto third = (*queue)->Claim("w", 1'000'000, fair);
  ASSERT_TRUE(third.ok() && third->has_value());
  EXPECT_EQ((*third)->id, 2);
}

TEST(FairQueueTest, SessionFilterMasksForeignSessions) {
  std::string dir = FreshDir("fair_filter");
  ManualClock clock(0);
  auto queue = PersistentQueue::Open(dir, &clock);
  ASSERT_TRUE(queue.ok());
  EnqueueMatrix(**queue, {"alpha", "beta"}, 2);
  ClaimPolicy fair;
  fair.fair = true;
  fair.session_filter = [](const std::string& s) { return s == "beta"; };
  auto order = ClaimAllSessions(**queue, fair);
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], "beta");
  EXPECT_EQ(order[1], "beta");
  EXPECT_EQ((*queue)->PendingCount(), 2);  // alpha untouched
}

// ---------------------------------------------------------------------------
// Shared (multi-process) queue mode, exercised with two in-process
// instances — flock is per-open-description, so two PersistentQueue
// objects in one test behave exactly like two worker processes.

TEST(SharedQueueTest, SiblingSeesAppendsAfterRefresh) {
  std::string dir = FreshDir("shared_appends");
  ManualClock clock(0);
  QueueOptions shared{.shared = true};
  auto q1 = PersistentQueue::Open(dir, &clock, {}, shared);
  ASSERT_TRUE(q1.ok()) << q1.status().message();
  auto q2 = PersistentQueue::Open(dir, &clock, {}, shared);
  ASSERT_TRUE(q2.ok()) << q2.status().message();

  ASSERT_TRUE((*q1)->Enqueue("alpha", "from q1").ok());
  ASSERT_TRUE((*q2)->Refresh().ok());
  EXPECT_EQ((*q2)->PendingCount(), 1);

  // q2 claims the task q1 enqueued; q1 observes the claim.
  auto claimed = (*q2)->Claim("w2", 1'000'000);
  ASSERT_TRUE(claimed.ok() && claimed->has_value());
  ASSERT_TRUE((*q1)->Refresh().ok());
  EXPECT_EQ((*q1)->ClaimedCount(), 1);
  EXPECT_EQ((*q1)->PendingCount(), 0);

  ASSERT_TRUE((*q2)->Complete((*claimed)->id, "w2").ok());
  ASSERT_TRUE((*q1)->Refresh().ok());
  EXPECT_EQ((*q1)->DoneCount(), 1);
}

TEST(SharedQueueTest, StaleOwnerRejectedAcrossInstances) {
  std::string dir = FreshDir("shared_stale");
  ManualClock clock(0);
  QueueOptions shared{.shared = true};
  auto q1 = PersistentQueue::Open(dir, &clock, {}, shared);
  auto q2 = PersistentQueue::Open(dir, &clock, {}, shared);
  ASSERT_TRUE(q1.ok() && q2.ok());

  ASSERT_TRUE((*q1)->Enqueue("alpha", "t").ok());
  auto claimed = (*q2)->Claim("w2", 5'000);
  ASSERT_TRUE(claimed.ok() && claimed->has_value());

  // q2 goes quiet past its lease; q1 reaps it and re-claims.
  clock.AdvanceMicros(5'001);
  EXPECT_EQ((*q1)->ExpireLeases(), 1);
  auto reclaimed = (*q1)->Claim("w1", 1'000'000);
  ASSERT_TRUE(reclaimed.ok() && reclaimed->has_value());

  // The original owner wakes up and tries to commit: rejected, exactly
  // the cross-process double-commit the lease protocol must prevent.
  Status late = (*q2)->Complete((*claimed)->id, "w2");
  EXPECT_FALSE(late.ok()) << "stale owner committed across instances";
  ASSERT_TRUE((*q1)->Complete((*reclaimed)->id, "w1").ok());
  EXPECT_EQ((*q1)->DoneCount(), 1);
}

TEST(SharedQueueTest, CheckpointEpochForcesSiblingFullReload) {
  std::string dir = FreshDir("shared_epoch");
  ManualClock clock(0);
  QueueOptions shared{.shared = true};
  auto q1 = PersistentQueue::Open(dir, &clock, {}, shared);
  auto q2 = PersistentQueue::Open(dir, &clock, {}, shared);
  ASSERT_TRUE(q1.ok() && q2.ok());

  ASSERT_TRUE((*q1)->Enqueue("alpha", "t1").ok());
  ASSERT_TRUE((*q1)->Enqueue("beta", "t2").ok());
  ASSERT_TRUE((*q2)->Refresh().ok());
  EXPECT_EQ((*q2)->PendingCount(), 2);

  // q1 checkpoints: the journal q2 has been tailing is truncated and
  // the epoch bumps. q2's next sync must detect that and reload from
  // the checkpoint instead of tail-replaying a rewritten file.
  ASSERT_TRUE((*q1)->Checkpoint().ok());
  ASSERT_TRUE((*q2)->Enqueue("gamma", "t3").ok());
  EXPECT_EQ((*q2)->PendingCount(), 3);

  ASSERT_TRUE((*q1)->Refresh().ok());
  EXPECT_EQ((*q1)->PendingCount(), 3);
  auto task = (*q1)->Get(3);
  ASSERT_TRUE(task.ok());
  EXPECT_EQ(task->session, "gamma");
}

TEST(SharedQueueTest, SharedOpenDoesNotRePendLiveClaims) {
  std::string dir = FreshDir("shared_no_repend");
  ManualClock clock(0);
  QueueOptions shared{.shared = true};
  auto q1 = PersistentQueue::Open(dir, &clock, {}, shared);
  ASSERT_TRUE(q1.ok());
  ASSERT_TRUE((*q1)->Enqueue("alpha", "t").ok());
  auto claimed = (*q1)->Claim("w1", 60'000'000);
  ASSERT_TRUE(claimed.ok() && claimed->has_value());

  // A new worker joining the pool must not steal w1's live claim the
  // way an exclusive reopen re-pends orphans.
  auto q2 = PersistentQueue::Open(dir, &clock, {}, shared);
  ASSERT_TRUE(q2.ok());
  EXPECT_EQ((*q2)->ClaimedCount(), 1);
  EXPECT_EQ((*q2)->recovered(), 0);
  auto stolen = (*q2)->Claim("w2", 1'000'000);
  ASSERT_TRUE(stolen.ok());
  EXPECT_FALSE(stolen->has_value());
}

// ---------------------------------------------------------------------------
// Daemon session LRU (10k-session scale lever)

TEST(DaemonLruTest, EvictsLeastRecentlyUsedBeyondCap) {
  DaemonOptions options;
  options.root = FreshDir("daemon_lru");
  options.max_open_sessions = 2;
  auto daemon = PapyrusDaemon::Start(options);
  ASSERT_TRUE(daemon.ok()) << daemon.status().message();

  auto checkin = [&](const std::string& session) {
    std::string response = (*daemon)->HandleLine(
        "checkin ~session=" + session +
        " ~path=/proj/x ~type=text ~text=hello");
    EXPECT_EQ(response.rfind("ok", 0), 0u) << response;
  };
  checkin("s1");
  checkin("s2");
  EXPECT_EQ((*daemon)->open_sessions(), 2);
  checkin("s3");  // evicts s1, the least recently used
  EXPECT_EQ((*daemon)->open_sessions(), 2);

  // The evicted session's state was durable: reopening restores it.
  auto reopened = (*daemon)->OpenSession("s1");
  ASSERT_TRUE(reopened.ok()) << reopened.status().message();
  EXPECT_EQ((*daemon)->open_sessions(), 2);
  ASSERT_TRUE((*daemon)->Shutdown().ok());
}

// ---------------------------------------------------------------------------
// Worker vs. live front-end: cede hosted sessions instead of hanging

TEST(SharedQueueTest, WorkerCedesSessionsHostedByLiveSibling) {
  std::string root = FreshDir("worker_cede");

  // The "front-end": hosts session v (holding its flock) with one
  // pending task it has not been asked to execute yet.
  DaemonOptions front_options;
  front_options.root = root;
  front_options.shared_queue = true;
  auto front = PapyrusDaemon::Start(front_options);
  ASSERT_TRUE(front.ok()) << front.status().message();
  EXPECT_EQ((*front)
                ->HandleLine("checkin ~session=v ~path=/p/cell "
                             "~type=layout ~cells=4 ~area=100 ~seed=1")
                .rfind("ok", 0),
            0u);
  EXPECT_EQ((*front)
                ->HandleLine("submit ~session=v ~thread=t ~template=Padp "
                             "~in=/p/cell ~out=c.padded ~seed=2")
                .rfind("ok", 0),
            0u);

  // A worker on the same root can never claim v while the front-end
  // lives; WorkerDrain must cede and return instead of spinning.
  DaemonOptions worker_options;
  worker_options.root = root;
  worker_options.shared_queue = true;
  auto worker = PapyrusDaemon::Start(worker_options);
  ASSERT_TRUE(worker.ok()) << worker.status().message();
  ASSERT_TRUE((*worker)->WorkerDrain().ok());
  ASSERT_TRUE((*worker)->Shutdown().ok());

  // The task was neither run nor lost: its host still drains it.
  EXPECT_NE((*front)->HandleLine("stat").find("~pending=1"),
            std::string::npos);
  EXPECT_NE((*front)->HandleLine("drain").find("~done=1 ~failed=0"),
            std::string::npos);
  ASSERT_TRUE((*front)->Shutdown().ok());
}

// ---------------------------------------------------------------------------
// Payload seed restore: overflow is a load error, never a silent zero

TEST(SeedRestoreTest, OverflowingSeedIsALoadErrorNotZero) {
  // 2^64 + 1: strtoull saturates with ERANGE. Before the fix this
  // decoded as seed 0, silently diverging every artifact derived from
  // the restored design.
  auto overflowed =
      oct::DecodePayloadText("behavioral 8 8 12 18446744073709551617");
  EXPECT_FALSE(overflowed.ok());
  EXPECT_TRUE(overflowed.status().IsInvalidArgument())
      << overflowed.status().ToString();

  auto garbage = oct::DecodePayloadText("logic 8 8 40 90 5 0 12x");
  EXPECT_FALSE(garbage.ok());

  auto negative = oct::DecodePayloadText("behavioral 8 8 12 -3");
  EXPECT_FALSE(negative.ok());

  // Full-range values up to UINT64_MAX still round-trip: tool-derived
  // hash seeds routinely exceed INT64_MAX.
  auto max = oct::DecodePayloadText("behavioral 8 8 12 18446744073709551615");
  ASSERT_TRUE(max.ok()) << max.status().ToString();
  const auto* spec = std::get_if<oct::BehavioralSpec>(&*max);
  ASSERT_NE(spec, nullptr);
  EXPECT_EQ(spec->seed, 18446744073709551615ull);
}

// ---------------------------------------------------------------------------
// Socket transport end-to-end: a real daemon behind a real AF_UNIX
// socket, driven by blocking WireClients from the test thread while the
// transport loop runs in its own (engine) thread.

struct SocketHarness {
  explicit SocketHarness(const std::string& name)
      : root(FreshDir(name)), socket_path(SocketPath(name)) {}

  void Start(DaemonOptions extra = {}) {
    DaemonOptions options = extra;
    options.root = root;
    auto started = PapyrusDaemon::Start(options);
    ASSERT_TRUE(started.ok()) << started.status().message();
    daemon = std::move(*started);

    TransportOptions transport_options;
    transport_options.socket_path = socket_path;
    transport_options.serve_stdin = false;  // gtest owns stdin
    transport_options.metrics = daemon->metrics_registry();
    auto listening = SocketTransport::Listen(transport_options);
    ASSERT_TRUE(listening.ok()) << listening.status().message();
    transport = std::move(*listening);

    loop = std::thread([this] {
      Status st = transport->Run(
          [this](const std::string& line, ClientContext* ctx) {
            return daemon->HandleLine(line, ctx);
          },
          [this] {
            return stop.load() || daemon->shut_down() ||
                   daemon->crashed();
          });
      loop_status = st;
    });
  }

  void Join() {
    stop.store(true);
    if (loop.joinable()) loop.join();
    EXPECT_TRUE(loop_status.ok()) << loop_status.ToString();
  }

  ~SocketHarness() {
    stop.store(true);
    if (loop.joinable()) loop.join();
  }

  std::string root;
  std::string socket_path;
  std::unique_ptr<PapyrusDaemon> daemon;
  std::unique_ptr<SocketTransport> transport;
  std::thread loop;
  std::atomic<bool> stop{false};
  Status loop_status;
};

Result<std::string> Call(WireClient& client, const std::string& line) {
  return client.Call(line);
}

TEST(SocketTransportTest, ServesConcurrentClientsWithPerClientContext) {
  SocketHarness h("concurrent_clients");
  h.Start();

  auto c1 = WireClient::Connect(h.socket_path);
  auto c2 = WireClient::Connect(h.socket_path);
  ASSERT_TRUE(c1.ok()) << c1.status().message();
  ASSERT_TRUE(c2.ok()) << c2.status().message();

  // Both clients identify themselves; each connection keeps its own
  // identity and attached session.
  auto r1 = Call(**c1, "connect ~client=alice");
  auto r2 = Call(**c2, "connect ~client=bob");
  ASSERT_TRUE(r1.ok() && r2.ok());
  EXPECT_NE(r1->find("~client=alice"), std::string::npos) << *r1;
  EXPECT_NE(r2->find("~client=bob"), std::string::npos) << *r2;

  ASSERT_TRUE(
      Call(**c1, "checkin ~session=alpha ~path=/a ~type=text ~text=x")
          .ok());
  auto attach1 = Call(**c1, "attach ~session=alpha");
  ASSERT_TRUE(attach1.ok());
  EXPECT_EQ(attach1->rfind("ok", 0), 0u) << *attach1;

  ASSERT_TRUE(
      Call(**c2, "checkin ~session=beta ~path=/b ~type=text ~text=y")
          .ok());
  auto attach2 = Call(**c2, "attach ~session=beta");
  ASSERT_TRUE(attach2.ok());
  EXPECT_EQ(attach2->rfind("ok", 0), 0u) << *attach2;

  // Unqualified checkins route to each client's own attached session.
  auto k1 = Call(**c1, "checkin ~path=/a2 ~type=text ~text=x2");
  auto k2 = Call(**c2, "checkin ~path=/b2 ~type=text ~text=y2");
  ASSERT_TRUE(k1.ok() && k2.ok());
  EXPECT_EQ(k1->rfind("ok", 0), 0u) << *k1;
  EXPECT_EQ(k2->rfind("ok", 0), 0u) << *k2;

  auto sessions = Call(**c1, "sessions");
  ASSERT_TRUE(sessions.ok());
  EXPECT_NE(sessions->find("alpha"), std::string::npos);
  EXPECT_NE(sessions->find("beta"), std::string::npos);

  auto bye = Call(**c1, "shutdown");
  ASSERT_TRUE(bye.ok());
  h.Join();
}

TEST(SocketTransportTest, CoalescedRequestsEachGetOneResponse) {
  SocketHarness h("coalesced");
  h.Start();
  auto client = WireClient::Connect(h.socket_path);
  ASSERT_TRUE(client.ok());

  // Three requests in one segment: the daemon must answer three lines,
  // in order.
  ASSERT_TRUE((*client)->SendRaw("ping\nstat\nping\n").ok());
  auto a = (*client)->ReadLine();
  auto b = (*client)->ReadLine();
  auto c = (*client)->ReadLine();
  ASSERT_TRUE(a.ok() && b.ok() && c.ok());
  EXPECT_EQ(a->rfind("ok", 0), 0u) << *a;
  EXPECT_NE(b->find("~pending="), std::string::npos) << *b;
  EXPECT_EQ(c->rfind("ok", 0), 0u) << *c;
  h.Join();
}

TEST(SocketTransportTest, RequestSplitMidEscapeStillParses) {
  SocketHarness h("mid_escape");
  h.Start();
  auto client = WireClient::Connect(h.socket_path);
  ASSERT_TRUE(client.ok());

  // The %20 escape is cut between the '2' and the '0'; the daemon's
  // framer must buffer, not dispatch a half request.
  ASSERT_TRUE((*client)
                  ->SendRaw("checkin ~session=alpha ~path=/proj/sim.cmd"
                            " ~type=text ~text=run%2")
                  .ok());
  // Give the daemon's poll loop a chance to read the partial fragment
  // before the rest arrives, so the split truly lands mid-escape.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  ASSERT_TRUE((*client)->SendRaw("0100\n").ok());
  auto response = (*client)->ReadLine();
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->rfind("ok", 0), 0u) << *response;

  // The stored text decoded to "run 100" (escape intact end-to-end).
  auto shown = Call(**client, "ping");
  ASSERT_TRUE(shown.ok());
  h.Join();
}

TEST(SocketTransportTest, OversizedRequestRejectedConnectionSurvives) {
  SocketHarness h("oversized");
  h.Start();
  auto client = WireClient::Connect(h.socket_path);
  ASSERT_TRUE(client.ok());

  // ~2 MiB without a newline: over the 1 MiB default frame budget.
  std::string big = "submit ~session=alpha ~junk=";
  big.append(2 * 1024 * 1024, 'x');
  big += "\n";
  ASSERT_TRUE((*client)->SendRaw(big).ok());
  auto rejected = (*client)->ReadLine();
  ASSERT_TRUE(rejected.ok()) << rejected.status().message();
  EXPECT_EQ(rejected->rfind("err", 0), 0u) << *rejected;

  // The same connection keeps working afterwards.
  auto next = Call(**client, "ping");
  ASSERT_TRUE(next.ok());
  EXPECT_EQ(next->rfind("ok", 0), 0u) << *next;
  h.Join();

  auto* rejected_lines = h.daemon->metrics_registry()->FindOrCreateCounter(
      obs::kServerClientsRejectedLines);
  EXPECT_GE(rejected_lines->value(), 1);
}

TEST(SocketTransportTest, AbruptDisconnectMidRunCommitsExactlyOnce) {
  SocketHarness h("abrupt_run");
  h.Start();

  {
    auto doomed = WireClient::Connect(h.socket_path);
    ASSERT_TRUE(doomed.ok());
    ASSERT_TRUE(Call(**doomed,
                     "checkin ~session=alpha ~path=/proj/shifter"
                     " ~type=behav ~inputs=8 ~outputs=8 ~complexity=12"
                     " ~seed=77")
                    .ok());
    ASSERT_TRUE(Call(**doomed,
                     "checkin ~session=alpha ~path=/proj/sim.cmd"
                     " ~type=text ~text=run%20100")
                    .ok());
    auto submitted = Call(**doomed,
                          "submit ~session=alpha ~thread=synth"
                          " ~template=Structure_Synthesis"
                          " ~in=/proj/shifter ~in=/proj/sim.cmd"
                          " ~out=s.layout ~out=s.stats ~seed=42");
    ASSERT_TRUE(submitted.ok());
    EXPECT_EQ(submitted->rfind("ok", 0), 0u) << *submitted;

    // Fire the run and vanish without reading the response: the framed
    // request must still execute, its response going nowhere.
    ASSERT_TRUE((*doomed)->SendRaw("run\n").ok());
    (*doomed)->CloseAbruptly();
  }

  // A second client watches the queue settle.
  auto watcher = WireClient::Connect(h.socket_path);
  ASSERT_TRUE(watcher.ok());
  std::string stat;
  for (int tries = 0; tries < 200; ++tries) {
    auto response = Call(**watcher, "stat");
    ASSERT_TRUE(response.ok()) << response.status().message();
    stat = *response;
    if (stat.find("~done=1") != std::string::npos) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_NE(stat.find("~done=1"), std::string::npos) << stat;
  EXPECT_NE(stat.find("~failed=0"), std::string::npos) << stat;
  EXPECT_NE(stat.find("~pending=0"), std::string::npos) << stat;

  // Asking again re-runs nothing: the task committed exactly once.
  auto rerun = Call(**watcher, "run");
  ASSERT_TRUE(rerun.ok());
  EXPECT_NE(rerun->find("~ran=0"), std::string::npos) << *rerun;

  ASSERT_TRUE(Call(**watcher, "shutdown").ok());
  h.Join();
  EXPECT_EQ(h.daemon->queue().DoneCount(), 1);
}

TEST(SocketTransportTest, DisconnectWithBufferedPartialCountsRejected) {
  SocketHarness h("partial_disconnect");
  h.Start();
  {
    auto client = WireClient::Connect(h.socket_path);
    ASSERT_TRUE(client.ok());
    ASSERT_TRUE(Call(**client, "ping").ok());  // ensure it was read once
    // Half a request, never terminated, then gone.
    ASSERT_TRUE((*client)->SendRaw("submit ~session=al").ok());
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    (*client)->CloseAbruptly();
  }
  // The daemon notices the disconnect on its next poll rounds.
  for (int tries = 0; tries < 200; ++tries) {
    auto* rejected = h.daemon->metrics_registry()->FindOrCreateCounter(
        obs::kServerClientsRejectedLines);
    if (rejected->value() >= 1) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  h.Join();
  auto* rejected = h.daemon->metrics_registry()->FindOrCreateCounter(
      obs::kServerClientsRejectedLines);
  EXPECT_GE(rejected->value(), 1)
      << "partial line at disconnect not surfaced";
  auto* disconnected = h.daemon->metrics_registry()->FindOrCreateCounter(
      obs::kServerClientsDisconnected);
  EXPECT_GE(disconnected->value(), 1);
}

}  // namespace
}  // namespace papyrus::server
