#include <gtest/gtest.h>

#include <fstream>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "base/clock.h"
#include "sprite/network.h"

namespace papyrus::sprite {
namespace {

class NetworkTest : public ::testing::Test {
 protected:
  NetworkTest() : clock_(0), net_(&clock_, 4) {}
  ManualClock clock_;
  Network net_;
};

TEST_F(NetworkTest, StartsIdleWithHomeHostZero) {
  EXPECT_EQ(net_.num_hosts(), 4);
  EXPECT_EQ(net_.home_host(), 0);
  for (HostId h = 0; h < 4; ++h) {
    EXPECT_TRUE(net_.IsIdle(h));
    EXPECT_EQ(net_.LoadOf(h), 0);
  }
}

TEST_F(NetworkTest, SingleProcessCompletesAfterItsWork) {
  std::vector<ProcessInfo> completed;
  net_.SetCompletionHandler(
      [&](const ProcessInfo& p) { completed.push_back(p); });
  auto pid = net_.Spawn(kNoProcess, "espresso", 1000, 0, true);
  ASSERT_TRUE(pid.ok());
  net_.RunUntilQuiescent();
  ASSERT_EQ(completed.size(), 1u);
  EXPECT_EQ(completed[0].pid, *pid);
  EXPECT_EQ(completed[0].finish_micros, 1000);
  EXPECT_EQ(clock_.NowMicros(), 1000);
  EXPECT_EQ(completed[0].state, ProcessState::kCompleted);
}

TEST_F(NetworkTest, TimeSlicingSlowsCoLocatedProcesses) {
  ASSERT_TRUE(net_.Spawn(kNoProcess, "a", 1000, 1, true).ok());
  ASSERT_TRUE(net_.Spawn(kNoProcess, "b", 1000, 1, true).ok());
  net_.RunUntilQuiescent();
  // Two equal processes sharing one host: both finish at ~2x.
  EXPECT_GE(clock_.NowMicros(), 1999);
}

TEST_F(NetworkTest, ParallelHostsOverlap) {
  ASSERT_TRUE(net_.Spawn(kNoProcess, "a", 1000, 1, true).ok());
  ASSERT_TRUE(net_.Spawn(kNoProcess, "b", 1000, 2, true).ok());
  net_.RunUntilQuiescent();
  EXPECT_EQ(clock_.NowMicros(), 1000);
}

TEST_F(NetworkTest, HostSpeedScalesProgress) {
  ASSERT_TRUE(net_.SetHostSpeed(2, 2.0).ok());
  ASSERT_TRUE(net_.Spawn(kNoProcess, "fast", 1000, 2, true).ok());
  net_.RunUntilQuiescent();
  EXPECT_EQ(clock_.NowMicros(), 500);
  EXPECT_FALSE(net_.SetHostSpeed(2, 0.0).ok());
  EXPECT_FALSE(net_.SetHostSpeed(99, 1.0).ok());
}

TEST_F(NetworkTest, FindIdleHostPrefersLeastLoaded) {
  ASSERT_TRUE(net_.Spawn(kNoProcess, "a", 5000, 1, true).ok());
  auto h = net_.FindIdleHost(/*exclude_home=*/true);
  ASSERT_TRUE(h.ok());
  EXPECT_NE(*h, 1);  // 2 or 3 are empty
}

TEST_F(NetworkTest, FindIdleHostSkipsOwnerActiveHosts) {
  for (HostId h = 1; h < 4; ++h) {
    ASSERT_TRUE(net_.SetOwnerActive(h, true).ok());
  }
  auto h = net_.FindIdleHost(/*exclude_home=*/true);
  EXPECT_TRUE(h.status().IsFailedPrecondition());
  // Home is still idle.
  auto home = net_.FindIdleHost(/*exclude_home=*/false);
  ASSERT_TRUE(home.ok());
  EXPECT_EQ(*home, 0);
}

TEST_F(NetworkTest, MigrationMovesWork) {
  auto pid = net_.Spawn(kNoProcess, "a", 1000, 0, true);
  ASSERT_TRUE(pid.ok());
  // Another local process would slow it to 2000us; migrating away keeps
  // both at full speed.
  auto pid2 = net_.Spawn(kNoProcess, "b", 1000, 0, true);
  ASSERT_TRUE(pid2.ok());
  ASSERT_TRUE(net_.Migrate(*pid2, 3).ok());
  net_.RunUntilQuiescent();
  EXPECT_EQ(clock_.NowMicros(), 1000);
  EXPECT_EQ(net_.total_migrations(), 1);
}

TEST_F(NetworkTest, NonMigratableProcessRefusesToMove) {
  auto pid = net_.Spawn(kNoProcess, "interactive_editor", 1000, 0, false);
  ASSERT_TRUE(pid.ok());
  EXPECT_TRUE(net_.Migrate(*pid, 1).IsPermissionDenied());
}

TEST_F(NetworkTest, MigrateErrors) {
  EXPECT_TRUE(net_.Migrate(99, 1).IsNotFound());
  auto pid = net_.Spawn(kNoProcess, "a", 100, 0, true);
  ASSERT_TRUE(pid.ok());
  EXPECT_FALSE(net_.Migrate(*pid, 99).ok());
  EXPECT_TRUE(net_.Migrate(*pid, 0).ok());  // same host: no-op
  EXPECT_EQ(net_.total_migrations(), 0);
}

TEST_F(NetworkTest, OwnerReturnEvictsForeignProcesses) {
  std::vector<ProcessId> evicted;
  net_.SetEvictionHandler(
      [&](const ProcessInfo& p) { evicted.push_back(p.pid); });
  auto pid = net_.Spawn(kNoProcess, "remote", 10000, 2, true);
  ASSERT_TRUE(pid.ok());
  ASSERT_TRUE(net_.SetOwnerActive(2, true).ok());
  ASSERT_EQ(evicted.size(), 1u);
  auto info = net_.GetProcess(*pid);
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->current_host, net_.home_host());
  EXPECT_EQ(net_.total_evictions(), 1);
  EXPECT_EQ(info->migration_count, 1);
}

TEST_F(NetworkTest, NativeProcessesSurviveOwnerReturn) {
  auto pid = net_.Spawn(kNoProcess, "local", 10000, 0, true);
  ASSERT_TRUE(pid.ok());
  ASSERT_TRUE(net_.SetOwnerActive(0, true).ok());
  auto info = net_.GetProcess(*pid);
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->current_host, 0);
  EXPECT_EQ(net_.total_evictions(), 0);
}

TEST_F(NetworkTest, ScheduledOwnerEventsFireInOrder) {
  ASSERT_TRUE(net_.ScheduleOwnerEvent(1, 500, true).ok());
  ASSERT_TRUE(net_.ScheduleOwnerEvent(1, 1500, false).ok());
  auto pid = net_.Spawn(kNoProcess, "victim", 2000, 1, true);
  ASSERT_TRUE(pid.ok());
  net_.RunUntilQuiescent();
  auto info = net_.GetProcess(*pid);
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->state, ProcessState::kCompleted);
  // Evicted to home at t=500 after 500us of work; finishes remaining
  // 1500us on home host.
  EXPECT_EQ(info->current_host, 0);
  EXPECT_EQ(info->finish_micros, 2000);
  EXPECT_EQ(net_.total_evictions(), 1);
  EXPECT_FALSE(net_.ScheduleOwnerEvent(1, 0, true).ok());  // in the past
}

TEST_F(NetworkTest, KillRemovesProcessWithoutSignal) {
  int completions = 0;
  net_.SetCompletionHandler([&](const ProcessInfo&) { ++completions; });
  auto pid = net_.Spawn(kNoProcess, "doomed", 1000, 0, true);
  ASSERT_TRUE(pid.ok());
  ASSERT_TRUE(net_.Kill(*pid).ok());
  net_.RunUntilQuiescent();
  EXPECT_EQ(completions, 0);
  auto info = net_.GetProcess(*pid);
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->state, ProcessState::kKilled);
  EXPECT_TRUE(net_.Kill(*pid).IsFailedPrecondition());
  EXPECT_TRUE(net_.Kill(12345).IsNotFound());
}

TEST_F(NetworkTest, GetPcbInfoFiltersByParent) {
  ASSERT_TRUE(net_.Spawn(7, "child_a", 100, 0, true).ok());
  ASSERT_TRUE(net_.Spawn(7, "child_b", 100, 1, true).ok());
  ASSERT_TRUE(net_.Spawn(9, "other", 100, 2, true).ok());
  EXPECT_EQ(net_.GetPcbInfo(7).size(), 2u);
  EXPECT_EQ(net_.GetPcbInfo(9).size(), 1u);
  EXPECT_EQ(net_.GetPcbInfo().size(), 3u);
  EXPECT_EQ(net_.GetPcbInfo(42).size(), 0u);
}

TEST_F(NetworkTest, CompletionHandlerMaySpawnMoreWork) {
  int chain = 0;
  net_.SetCompletionHandler([&](const ProcessInfo&) {
    if (++chain < 3) {
      ASSERT_TRUE(net_.Spawn(kNoProcess, "next", 100, 0, true).ok());
    }
  });
  ASSERT_TRUE(net_.Spawn(kNoProcess, "first", 100, 0, true).ok());
  net_.RunUntilQuiescent();
  EXPECT_EQ(chain, 3);
  EXPECT_EQ(clock_.NowMicros(), 300);
  EXPECT_EQ(net_.total_spawns(), 3);
}

TEST_F(NetworkTest, ZeroWorkProcessCompletesImmediately) {
  auto pid = net_.Spawn(kNoProcess, "noop", 0, 0, true);
  ASSERT_TRUE(pid.ok());
  clock_.AdvanceMicros(50);
  net_.RunUntilQuiescent();
  auto info = net_.GetProcess(*pid);
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->state, ProcessState::kCompleted);
}

TEST_F(NetworkTest, SpawnValidation) {
  EXPECT_FALSE(net_.Spawn(kNoProcess, "x", 100, 99, true).ok());
  EXPECT_FALSE(net_.Spawn(kNoProcess, "x", -1, 0, true).ok());
}

TEST_F(NetworkTest, CrashKillsEveryProcessOnTheHost) {
  std::vector<ProcessId> lost;
  int completions = 0;
  net_.SetFailureHandler(
      [&](const ProcessInfo& p) { lost.push_back(p.pid); });
  net_.SetCompletionHandler([&](const ProcessInfo&) { ++completions; });
  // One native and one foreign (spawned elsewhere, migrated in) process.
  auto native = net_.Spawn(kNoProcess, "native", 10000, 2, true);
  auto foreign = net_.Spawn(kNoProcess, "foreign", 10000, 0, true);
  ASSERT_TRUE(native.ok() && foreign.ok());
  ASSERT_TRUE(net_.Migrate(*foreign, 2).ok());
  ASSERT_TRUE(net_.CrashHost(2).ok());
  EXPECT_EQ(lost.size(), 2u);
  EXPECT_EQ(completions, 0);
  EXPECT_FALSE(net_.IsUp(2));
  EXPECT_FALSE(net_.IsIdle(2));
  EXPECT_EQ(net_.total_crashes(), 1);
  EXPECT_EQ(net_.total_lost(), 2);
  for (ProcessId pid : {*native, *foreign}) {
    auto info = net_.GetProcess(pid);
    ASSERT_TRUE(info.ok());
    EXPECT_EQ(info->state, ProcessState::kLost);
  }
  // A down host accepts neither spawns nor migrations.
  EXPECT_TRUE(net_.Spawn(kNoProcess, "x", 100, 2, true)
                  .status().IsUnavailable());
  auto other = net_.Spawn(kNoProcess, "y", 100, 0, true);
  ASSERT_TRUE(other.ok());
  EXPECT_TRUE(net_.Migrate(*other, 2).IsUnavailable());
  // Crashing a down host is an error; crashing a bogus host too.
  EXPECT_TRUE(net_.CrashHost(2).IsFailedPrecondition());
  EXPECT_FALSE(net_.CrashHost(99).ok());
}

TEST_F(NetworkTest, ScheduledCrashAndRebootFireInVirtualTime) {
  std::vector<ProcessId> lost;
  net_.SetFailureHandler(
      [&](const ProcessInfo& p) { lost.push_back(p.pid); });
  auto pid = net_.Spawn(kNoProcess, "victim", 5000, 1, true);
  ASSERT_TRUE(pid.ok());
  ASSERT_TRUE(net_.ScheduleCrash(1, 2000).ok());
  ASSERT_TRUE(net_.RebootHost(1, 3000).ok());
  net_.RunUntilQuiescent();
  EXPECT_EQ(lost.size(), 1u);
  auto info = net_.GetProcess(*pid);
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->state, ProcessState::kLost);
  EXPECT_EQ(info->finish_micros, 2000);
  // After the reboot the host is usable again.
  EXPECT_TRUE(net_.IsUp(1));
  EXPECT_TRUE(net_.IsIdle(1));
  auto pid2 = net_.Spawn(kNoProcess, "fresh", 100, 1, true);
  EXPECT_TRUE(pid2.ok());
  // Scheduling into the past is rejected.
  EXPECT_FALSE(net_.ScheduleCrash(1, 0).ok());
  EXPECT_FALSE(net_.RebootHost(1, 0).ok());
}

TEST_F(NetworkTest, FindIdleHostSkipsDownHosts) {
  for (HostId h = 1; h < 4; ++h) {
    ASSERT_TRUE(net_.CrashHost(h).ok());
  }
  auto h = net_.FindIdleHost(/*exclude_home=*/true);
  EXPECT_FALSE(h.ok());
  auto home = net_.FindIdleHost(/*exclude_home=*/false);
  ASSERT_TRUE(home.ok());
  EXPECT_EQ(*home, 0);
}

TEST_F(NetworkTest, FlakyMigrationFailsSomeCallsDeterministically) {
  ASSERT_TRUE(net_.SetMigrationFlakiness(0.5, 7).ok());
  int failures = 0;
  auto pid = net_.Spawn(kNoProcess, "wanderer", 1000000, 0, true);
  ASSERT_TRUE(pid.ok());
  for (int i = 0; i < 40; ++i) {
    HostId target = 1 + (i % 3);
    Status st = net_.Migrate(*pid, target);
    if (st.IsUnavailable()) {
      ++failures;
      // Failed migration leaves the process where it was.
      auto info = net_.GetProcess(*pid);
      ASSERT_TRUE(info.ok());
      EXPECT_EQ(info->state, ProcessState::kRunning);
    } else {
      ASSERT_TRUE(st.ok());
    }
  }
  // With p=0.5 over 40 draws, both outcomes occur (overwhelmingly).
  EXPECT_GT(failures, 0);
  EXPECT_LT(failures, 40);
  EXPECT_EQ(net_.total_migration_failures(), failures);

  // Same seed => same failure pattern.
  ManualClock c2(0);
  Network net2(&c2, 4);
  ASSERT_TRUE(net2.SetMigrationFlakiness(0.5, 7).ok());
  auto pid2 = net2.Spawn(kNoProcess, "wanderer", 1000000, 0, true);
  ASSERT_TRUE(pid2.ok());
  int failures2 = 0;
  for (int i = 0; i < 40; ++i) {
    if (net2.Migrate(*pid2, 1 + (i % 3)).IsUnavailable()) ++failures2;
  }
  EXPECT_EQ(failures2, failures);
  // Probability outside [0, 1) is rejected; 0 disables.
  EXPECT_FALSE(net_.SetMigrationFlakiness(1.5, 1).ok());
  ASSERT_TRUE(net_.SetMigrationFlakiness(0.0, 1).ok());
  EXPECT_TRUE(net_.Migrate(*pid, 1).ok());
}

TEST_F(NetworkTest, OwnerReturnDuringMigrationBouncesProcessHome) {
  // The §4.3.3 race: the owner of the target host returns while the
  // migration is in flight. The process lands, is immediately evicted,
  // and ends up back home — with both counters accounting the round trip.
  auto pid = net_.Spawn(kNoProcess, "racer", 10000, 0, true);
  ASSERT_TRUE(pid.ok());
  ASSERT_TRUE(net_.SetOwnerActive(3, true).ok());
  int64_t evictions_before = net_.total_evictions();
  ASSERT_TRUE(net_.Migrate(*pid, 3).ok());
  auto info = net_.GetProcess(*pid);
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->current_host, net_.home_host());
  EXPECT_EQ(info->state, ProcessState::kRunning);
  EXPECT_EQ(info->migration_count, 2);  // out and back
  EXPECT_EQ(net_.total_evictions(), evictions_before + 1);
  // The process still completes its full work afterwards.
  net_.RunUntilQuiescent();
  auto done = net_.GetProcess(*pid);
  ASSERT_TRUE(done.ok());
  EXPECT_EQ(done->state, ProcessState::kCompleted);
}

TEST_F(NetworkTest, EvictionToACrashedHomeLosesTheProcess) {
  std::vector<ProcessId> lost;
  net_.SetFailureHandler(
      [&](const ProcessInfo& p) { lost.push_back(p.pid); });
  auto pid = net_.Spawn(kNoProcess, "orphan", 10000, 0, true);
  ASSERT_TRUE(pid.ok());
  ASSERT_TRUE(net_.Migrate(*pid, 2).ok());
  ASSERT_TRUE(net_.CrashHost(0).ok());
  // Owner returns on host 2: the eviction has nowhere to go.
  ASSERT_TRUE(net_.SetOwnerActive(2, true).ok());
  EXPECT_EQ(lost.size(), 1u);
  auto info = net_.GetProcess(*pid);
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->state, ProcessState::kLost);
}

// Host events scheduled for one instant take effect in the order they
// were scheduled, however many are pending: an unstable sort scrambles
// them once more than 16 are queued.
TEST(NetworkEventOrderTest, SimultaneousHostEventsFireInScheduleOrder) {
  constexpr int kHosts = 24;
  constexpr int64_t kAt = 1000;
  ManualClock clock(0);
  Network net(&clock, kHosts + 1);
  std::vector<HostId> crashed;
  net.SetFailureHandler(
      [&](const ProcessInfo& p) { crashed.push_back(p.current_host); });
  for (HostId h = 1; h <= kHosts; ++h) {
    ASSERT_TRUE(net.Spawn(kNoProcess, "victim", 1'000'000, h, true).ok());
  }
  // A crash and then a reboot of each host, hosts in a shuffled order:
  // 48 events at one instant.
  std::vector<HostId> order;
  for (int i = 0; i < kHosts; ++i) order.push_back(1 + (7 * i) % kHosts);
  for (HostId h : order) {
    ASSERT_TRUE(net.ScheduleCrash(h, kAt).ok());
    ASSERT_TRUE(net.RebootHost(h, kAt).ok());
  }
  net.RunUntilQuiescent();
  EXPECT_EQ(crashed, order);
  // Each reboot came after its host's crash, so every host is back up.
  for (HostId h = 1; h <= kHosts; ++h) EXPECT_TRUE(net.IsUp(h)) << h;
}

const char* StateName(ProcessState state) {
  switch (state) {
    case ProcessState::kRunning:
      return "running";
    case ProcessState::kCompleted:
      return "completed";
    case ProcessState::kKilled:
      return "killed";
    case ProcessState::kLost:
      return "lost";
  }
  return "?";
}

/// A seeded run over hosts of different speeds with owner events,
/// migrations (some of them flaky), a crash and a reboot, and many
/// processes whose completion times tie. Returns one line per
/// completion, loss and eviction: kind, pid, virtual time, host, state.
/// Host events sit at distinct instants.
std::string RunSeededScenario() {
  ManualClock clock(0);
  Network net(&clock, 6);
  const double speeds[] = {1.0, 2.0, 0.5, 1.0, 1.5, 1.0};
  for (HostId h = 0; h < 6; ++h) {
    EXPECT_TRUE(net.SetHostSpeed(h, speeds[h]).ok());
  }
  net.set_migration_cost_micros(250);
  EXPECT_TRUE(net.SetMigrationFlakiness(0.3, 11).ok());
  // A modulo of the raw draw, not a std:: distribution, so every
  // standard library replays the same scenario.
  std::mt19937_64 rng(2024);
  auto below = [&](uint64_t n) { return rng() % n; };
  std::ostringstream log;
  auto record = [&](const char* kind, const ProcessInfo& p) {
    log << kind << " pid=" << p.pid << " t=" << clock.NowMicros()
        << " host=" << p.current_host << " state=" << StateName(p.state)
        << '\n';
  };
  // Work in multiples of 500 us: many ETAs tie.
  auto spawn = [&](HostId host) {
    int64_t work = static_cast<int64_t>(500 * (1 + below(6)));
    if (!net.IsUp(host)) host = net.home_host();
    (void)net.Spawn(kNoProcess, "job", work, host, below(4) != 0);
  };
  int follow_ups = 0;
  bool releasing = true;
  net.SetCompletionHandler([&](const ProcessInfo& p) {
    record("done", p);
    // Like the task manager: a finished step releases the next one.
    if (releasing && follow_ups < 120) {
      ++follow_ups;
      auto idle = net.FindIdleHost();
      spawn(idle.ok() ? *idle : net.home_host());
    }
  });
  net.SetFailureHandler([&](const ProcessInfo& p) { record("lost", p); });
  net.SetEvictionHandler([&](const ProcessInfo& p) { record("evict", p); });

  // Equal work spawned on higher hosts first, so lower pids sit on
  // higher-numbered hosts and ties cross hosts.
  for (int round = 0; round < 3; ++round) {
    for (HostId h = 5; h >= 0; --h) {
      if (h == 1 || h == 4) continue;  // speeds 2.0 / 1.5 tie less
      EXPECT_TRUE(net.Spawn(kNoProcess, "tie", 3000, h, true).ok());
    }
  }
  for (int i = 0; i < 12; ++i) spawn(static_cast<HostId>(below(6)));

  EXPECT_TRUE(net.ScheduleOwnerEvent(3, 1700, true).ok());
  EXPECT_TRUE(net.ScheduleOwnerEvent(3, 4100, false).ok());
  EXPECT_TRUE(net.ScheduleOwnerEvent(4, 2300, true).ok());
  EXPECT_TRUE(net.ScheduleOwnerEvent(4, 5900, false).ok());
  EXPECT_TRUE(net.ScheduleCrash(2, 3100).ok());
  EXPECT_TRUE(net.RebootHost(2, 6700).ok());

  int steps = 0;
  while (net.Step()) {
    // Every few events, move a running process somewhere else (flaky
    // moves may fail and leave it in place) or start a new one.
    if (++steps % 3 != 0) continue;
    std::vector<ProcessId> running;
    for (const ProcessInfo& p : net.GetPcbInfo()) {
      if (p.state == ProcessState::kRunning) running.push_back(p.pid);
    }
    if (!running.empty() && below(2) == 0) {
      ProcessId pid = running[below(running.size())];
      (void)net.Migrate(pid, static_cast<HostId>(below(6)));
    } else if (steps < 200) {
      spawn(static_cast<HostId>(below(6)));
    }
  }
  // Then equal work on every host, as many processes as make each one
  // progress at half speed: all finish at one instant, and the lowest
  // pids run on the highest-numbered hosts.
  releasing = false;
  const int per_host[] = {2, 4, 1, 2, 3, 2};
  for (HostId h = 5; h >= 0; --h) {
    for (int i = 0; i < per_host[h]; ++i) {
      EXPECT_TRUE(net.Spawn(kNoProcess, "tie", 1000, h, true).ok());
    }
  }
  net.RunUntilQuiescent();
  log << "end t=" << clock.NowMicros() << " spawns=" << net.total_spawns()
      << " migrations=" << net.total_migrations()
      << " migration_failures=" << net.total_migration_failures()
      << " evictions=" << net.total_evictions()
      << " lost=" << net.total_lost()
      << " busy=" << net.total_busy_micros() << '\n';
  return log.str();
}

// Pins completion order and every virtual timestamp of the scenario to a
// checked-in log: a change to how the simulator accrues progress or picks
// the next completion must reproduce it byte for byte.
TEST(NetworkScenarioTest, SeededScenarioMatchesGoldenLog) {
  const std::string actual = RunSeededScenario();
  EXPECT_EQ(actual, RunSeededScenario()) << "scenario is not deterministic";
  std::ifstream in(std::string(PAPYRUS_SOURCE_DIR) +
                   "/tests/data/sprite_scenario.golden");
  std::stringstream golden;
  golden << in.rdbuf();
  if (actual != golden.str()) {
    const std::string out = ::testing::TempDir() + "sprite_scenario.actual";
    std::ofstream(out) << actual;
    FAIL() << "the scenario log differs from tests/data/"
              "sprite_scenario.golden; this run's log is in "
           << out;
  }
  // The scenario exercises what it claims to.
  for (const char* kind : {"done", "lost", "evict"}) {
    EXPECT_NE(actual.find(std::string(kind) + " "), std::string::npos)
        << kind;
  }
  EXPECT_EQ(actual.find("migration_failures=0"), std::string::npos);
}

TEST_F(NetworkTest, SpeedupScalesWithHosts) {
  // 8 independent unit jobs on 1 host vs 4 hosts.
  ManualClock c1(0);
  Network serial(&c1, 1);
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(serial.Spawn(kNoProcess, "job", 1000, 0, true).ok());
  }
  serial.RunUntilQuiescent();

  ManualClock c4(0);
  Network parallel(&c4, 4);
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(
        parallel.Spawn(kNoProcess, "job", 1000, i % 4, true).ok());
  }
  parallel.RunUntilQuiescent();

  EXPECT_NEAR(static_cast<double>(c1.NowMicros()) / c4.NowMicros(), 4.0,
              0.2);
}

}  // namespace
}  // namespace papyrus::sprite
