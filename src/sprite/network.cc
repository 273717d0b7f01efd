#include "sprite/network.h"
#include "base/thread_annotations.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace papyrus::sprite {

namespace {
constexpr int64_t kNever = std::numeric_limits<int64_t>::max();

/// splitmix64 — the deterministic generator behind flaky-migration draws.
uint64_t SplitMix64(uint64_t* state) {
  uint64_t z = (*state += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}
}  // namespace

Network::Network(ManualClock* clock, int num_hosts) : clock_(clock) {
  hosts_.resize(std::max(num_hosts, 1));
  last_accrual_micros_ = clock_->NowMicros();
}

void Network::set_observability(const obs::Observability& sinks) {
  base::AssertEngineThread("Network::set_observability");
  obs_ = sinks;
  if (obs_.metrics != nullptr) {
    auto bind = [this](obs::Counter* current, const char* name,
                       int64_t accumulated) {
      obs::Counter* c = obs_.metrics->FindOrCreateCounter(name);
      // Registry counters are shared (a daemon's spans every session):
      // a newly bound registry gets what already happened added to it.
      if (c != current) c->Increment(accumulated);
      return c;
    };
    c_spawns_ = bind(c_spawns_, obs::kSpriteSpawns, total_spawns_);
    c_migrations_ =
        bind(c_migrations_, obs::kSpriteMigrations, total_migrations_);
    c_migration_failures_ =
        bind(c_migration_failures_, obs::kSpriteMigrationFailures,
             total_migration_failures_);
    c_evictions_ = bind(c_evictions_, obs::kSpriteEvictions, total_evictions_);
    c_crashes_ = bind(c_crashes_, obs::kSpriteCrashes, total_crashes_);
    c_reboots_ = bind(c_reboots_, obs::kSpriteReboots, 0);
    c_lost_ = bind(c_lost_, obs::kSpriteLostProcesses, total_lost_);
  } else {
    c_spawns_ = c_migrations_ = c_migration_failures_ = c_evictions_ =
        c_crashes_ = c_reboots_ = c_lost_ = nullptr;
  }
  if (obs_.trace != nullptr) {
    obs_.trace->SetProcessName(obs::kHostTrackPid, "sprite network");
    for (HostId h = 0; h < num_hosts(); ++h) {
      obs_.trace->SetThreadName(
          obs::kHostTrackPid, h,
          "host " + std::to_string(h) + (h == home_host() ? " (home)" : ""));
    }
  }
}

obs::TraceRecorder* Network::tracing() const {
  return obs_.trace != nullptr && obs_.trace->enabled() ? obs_.trace : nullptr;
}

void Network::TraceHostEvent(HostId host, const std::string& name,
                             std::vector<obs::TraceArg> args) {
  if (obs::TraceRecorder* tr = tracing()) {
    tr->Instant(obs::kHostTrackPid, host, name, "sprite", std::move(args));
  }
}

void Network::TraceLoad(HostId host) {
  base::AssertEngineThread("Network::TraceLoad");
  if (obs::TraceRecorder* tr = tracing()) {
    tr->CounterValue(obs::kHostTrackPid, host,
                     "load host " + std::to_string(host), LoadOf(host));
  }
}

Status Network::SetHostSpeed(HostId host, double speed) {
  if (host < 0 || host >= num_hosts()) {
    return Status::InvalidArgument("no such host");
  }
  if (speed <= 0.0) return Status::InvalidArgument("speed must be > 0");
  AccrueProgress(clock_->NowMicros());
  hosts_[host].speed = speed;
  return Status::OK();
}

Status Network::SetOwnerActive(HostId host, bool active) {
  if (host < 0 || host >= num_hosts()) {
    return Status::InvalidArgument("no such host");
  }
  AccrueProgress(clock_->NowMicros());
  bool was_active = hosts_[host].owner_active;
  hosts_[host].owner_active = active;
  if (active && !was_active) EvictForeigners(host);
  return Status::OK();
}

void Network::PushHostEvent(HostEvent ev) {
  // After every pending event at the same instant: simultaneous events
  // fire in the order they were scheduled.
  auto at = std::upper_bound(
      host_events_.begin(), host_events_.end(), ev.micros,
      [](int64_t micros, const HostEvent& e) { return micros < e.micros; });
  host_events_.insert(at, ev);
}

Status Network::ScheduleOwnerEvent(HostId host, int64_t micros,
                                   bool active) {
  if (host < 0 || host >= num_hosts()) {
    return Status::InvalidArgument("no such host");
  }
  if (micros < clock_->NowMicros()) {
    return Status::InvalidArgument("owner event scheduled in the past");
  }
  PushHostEvent(
      HostEvent{micros, host, HostEvent::Kind::kOwner, active});
  return Status::OK();
}

Status Network::CrashHost(HostId host) {
  if (host < 0 || host >= num_hosts()) {
    return Status::InvalidArgument("no such host");
  }
  if (!hosts_[host].up) {
    return Status::FailedPrecondition("host is already down");
  }
  int64_t now = clock_->NowMicros();
  AccrueProgress(now);
  hosts_[host].up = false;
  ++total_crashes_;
  if (c_crashes_ != nullptr) c_crashes_->Increment();
  TraceHostEvent(host, "host_crash",
                 {obs::TraceArg::Int("load", LoadOf(host))});
  // Copy: losing a process mutates the host's running list, and the
  // failure handler may call back into the network.
  std::vector<ProcessId> pids = hosts_[host].running;
  for (ProcessId pid : pids) {
    if (Pcb(pid).state != ProcessState::kRunning) continue;
    LoseProcess(pid, now);
  }
  return Status::OK();
}

Status Network::ScheduleCrash(HostId host, int64_t micros) {
  if (host < 0 || host >= num_hosts()) {
    return Status::InvalidArgument("no such host");
  }
  if (micros < clock_->NowMicros()) {
    return Status::InvalidArgument("crash scheduled in the past");
  }
  PushHostEvent(HostEvent{micros, host, HostEvent::Kind::kCrash, false});
  return Status::OK();
}

Status Network::RebootHost(HostId host, int64_t micros) {
  if (host < 0 || host >= num_hosts()) {
    return Status::InvalidArgument("no such host");
  }
  if (micros < clock_->NowMicros()) {
    return Status::InvalidArgument("reboot scheduled in the past");
  }
  PushHostEvent(HostEvent{micros, host, HostEvent::Kind::kReboot, false});
  return Status::OK();
}

Status Network::SetMigrationFlakiness(double probability, uint64_t seed) {
  if (probability < 0.0 || probability >= 1.0) {
    return Status::InvalidArgument("flakiness must be in [0, 1)");
  }
  migration_flakiness_ = probability;
  flaky_state_ = seed ^ 0x6d69677261746533ull;
  return Status::OK();
}

double Network::NextFlakyDraw() {
  return static_cast<double>(SplitMix64(&flaky_state_) >> 11) /
         static_cast<double>(1ull << 53);
}

void Network::LoseProcess(ProcessId pid, int64_t now) {
  ProcessInfo& p = Pcb(pid);
  HostId host = p.current_host;
  DetachFromHost(pid);
  p.state = ProcessState::kLost;
  p.finish_micros = now;
  ++total_lost_;
  if (c_lost_ != nullptr) c_lost_->Increment();
  TraceHostEvent(host, "process_lost",
                 {obs::TraceArg::Int("pid", pid),
                  obs::TraceArg::Str("command", p.command)});
  TraceLoad(host);
  if (failure_handler_) failure_handler_(p);
}

bool Network::IsOwnerActive(HostId host) const {
  return host >= 0 && host < num_hosts() && hosts_[host].owner_active;
}

bool Network::IsIdle(HostId host) const {
  return host >= 0 && host < num_hosts() && hosts_[host].up &&
         !hosts_[host].owner_active;
}

bool Network::IsUp(HostId host) const {
  return host >= 0 && host < num_hosts() && hosts_[host].up;
}

int Network::LoadOf(HostId host) const {
  if (host < 0 || host >= num_hosts()) return 0;
  return static_cast<int>(hosts_[host].running.size());
}

Result<HostId> Network::FindIdleHost(bool exclude_home) const {
  HostId best = kNoHost;
  double best_score = std::numeric_limits<double>::max();
  for (HostId h = exclude_home ? 1 : 0; h < num_hosts(); ++h) {
    if (!hosts_[h].up || hosts_[h].owner_active) continue;
    // Prefer lightly loaded, fast hosts.
    double score = (LoadOf(h) + 1) / hosts_[h].speed;
    if (score < best_score) {
      best_score = score;
      best = h;
    }
  }
  if (best == kNoHost) {
    return Status::FailedPrecondition("no idle workstation available");
  }
  return best;
}

Result<ProcessId> Network::Spawn(ProcessId parent,
                                 const std::string& command,
                                 int64_t work_micros, HostId host,
                                 bool migratable) {
  if (host < 0 || host >= num_hosts()) {
    return Status::InvalidArgument("no such host");
  }
  if (work_micros < 0) {
    return Status::InvalidArgument("negative work");
  }
  if (!hosts_[host].up) {
    return Status::Unavailable("host " + std::to_string(host) +
                               " is down");
  }
  AccrueProgress(clock_->NowMicros());
  const ProcessId pid = next_pid_++;
  ProcessInfo& p = processes_.emplace_back();
  p.pid = pid;
  p.parent_pid = parent;
  p.home_host = home_host();
  p.current_host = host;
  p.migratable = migratable;
  p.command = command;
  p.work_micros = work_micros;
  p.spawn_micros = clock_->NowMicros();
  hosts_[host].running.push_back(pid);
  ++total_spawns_;
  if (c_spawns_ != nullptr) c_spawns_->Increment();
  if (tracing() != nullptr) {
    TraceHostEvent(host, "spawn",
                   {obs::TraceArg::Int("pid", pid),
                    obs::TraceArg::Str("command", command),
                    obs::TraceArg::Bool("migratable", migratable)});
  }
  TraceLoad(host);
  // Zero-work processes complete on the next Step().
  return pid;
}

Status Network::Migrate(ProcessId pid, HostId to) {
  if (FindProcess(pid) == nullptr) return Status::NotFound("no such process");
  ProcessInfo& p = Pcb(pid);
  if (p.state != ProcessState::kRunning) {
    return Status::FailedPrecondition("process not running");
  }
  if (!p.migratable) {
    return Status::PermissionDenied("process is not migratable");
  }
  if (to < 0 || to >= num_hosts()) {
    return Status::InvalidArgument("no such host");
  }
  if (!hosts_[to].up) {
    return Status::Unavailable("host " + std::to_string(to) + " is down");
  }
  if (to == p.current_host) return Status::OK();
  if (migration_flakiness_ > 0.0 &&
      NextFlakyDraw() < migration_flakiness_) {
    ++total_migration_failures_;
    if (c_migration_failures_ != nullptr) {
      c_migration_failures_->Increment();
    }
    TraceHostEvent(p.current_host, "migrate_failed",
                   {obs::TraceArg::Int("pid", pid),
                    obs::TraceArg::Int("to", to)});
    return Status::Unavailable("migration failed (injected flakiness); "
                               "process stays on host " +
                               std::to_string(p.current_host));
  }
  AccrueProgress(clock_->NowMicros());
  HostId from = p.current_host;
  DetachFromHost(pid);
  p.current_host = to;
  hosts_[to].running.push_back(pid);
  p.work_micros += migration_cost_micros_;
  ++p.migration_count;
  ++total_migrations_;
  if (c_migrations_ != nullptr) c_migrations_->Increment();
  TraceHostEvent(to, "migrate",
                 {obs::TraceArg::Int("pid", pid),
                  obs::TraceArg::Int("from", from),
                  obs::TraceArg::Str("command", p.command)});
  TraceLoad(from);
  TraceLoad(to);
  // §4.3.3 race: the owner came back while the transfer was in flight.
  // The process lands and is immediately evicted back home.
  if (hosts_[to].owner_active && p.home_host != to) {
    EvictForeigners(to);
  }
  return Status::OK();
}

Status Network::Kill(ProcessId pid) {
  if (FindProcess(pid) == nullptr) return Status::NotFound("no such process");
  ProcessInfo& p = Pcb(pid);
  if (p.state != ProcessState::kRunning) {
    return Status::FailedPrecondition("process not running");
  }
  AccrueProgress(clock_->NowMicros());
  HostId host = p.current_host;
  DetachFromHost(pid);
  p.state = ProcessState::kKilled;
  p.finish_micros = clock_->NowMicros();
  TraceLoad(host);
  return Status::OK();
}

Result<ProcessInfo> Network::GetProcess(ProcessId pid) const {
  const ProcessInfo* p = FindProcess(pid);
  if (p == nullptr) return Status::NotFound("no such process");
  return *p;
}

const ProcessInfo* Network::FindProcess(ProcessId pid) const {
  if (pid < 1 || pid > static_cast<ProcessId>(processes_.size())) {
    return nullptr;
  }
  return &processes_[pid - 1];
}

std::vector<ProcessInfo> Network::GetPcbInfo(ProcessId parent) const {
  std::vector<ProcessInfo> out;
  for (const ProcessInfo& p : processes_) {
    if (parent == kNoProcess || p.parent_pid == parent) out.push_back(p);
  }
  return out;
}

void Network::AccrueProgress(int64_t now) {
  int64_t dt = now - last_accrual_micros_;
  if (dt <= 0) {
    last_accrual_micros_ = now;
    return;
  }
  for (const Host& h : hosts_) {
    double rate = h.rate();
    int64_t gained = static_cast<int64_t>(std::llround(dt * rate));
    for (ProcessId pid : h.running) {
      ProcessInfo& p = Pcb(pid);
      p.done_micros = std::min(p.work_micros, p.done_micros + gained);
      total_busy_micros_ += std::min<int64_t>(gained, dt);
    }
  }
  last_accrual_micros_ = now;
}

int64_t Network::NextCompletionTime(ProcessId* which) const {
  int64_t best = kNever;
  *which = kNoProcess;
  for (const Host& h : hosts_) {
    double rate = h.rate();
    for (ProcessId pid : h.running) {
      const ProcessInfo& p = processes_[pid - 1];
      int64_t remaining = p.work_micros - p.done_micros;
      int64_t eta;
      if (remaining <= 0) {
        eta = last_accrual_micros_;
      } else {
        eta = last_accrual_micros_ +
              static_cast<int64_t>(std::ceil(remaining / rate));
      }
      // Equal ETAs go to the lowest pid, whatever host it runs on.
      if (eta < best || (eta == best && pid < *which)) {
        best = eta;
        *which = pid;
      }
    }
  }
  return best;
}

void Network::Complete(ProcessId pid, int64_t now) {
  ProcessInfo& p = Pcb(pid);
  HostId host = p.current_host;
  DetachFromHost(pid);
  p.state = ProcessState::kCompleted;
  p.done_micros = p.work_micros;
  p.finish_micros = now;
  TraceLoad(host);
  if (completion_handler_) completion_handler_(p);
}

void Network::EvictForeigners(HostId host) {
  // Copy: eviction mutates the host's running list.
  std::vector<ProcessId> pids = hosts_[host].running;
  for (ProcessId pid : pids) {
    ProcessInfo& p = Pcb(pid);
    if (p.current_host != host) continue;
    if (p.home_host == host) continue;  // native process, not evicted
    if (!hosts_[p.home_host].up) {
      // Nowhere to evict to: the home node is down, so the address space
      // cannot be transferred and the process is lost.
      LoseProcess(pid, clock_->NowMicros());
      continue;
    }
    DetachFromHost(pid);
    p.current_host = p.home_host;
    hosts_[p.home_host].running.push_back(pid);
    p.work_micros += migration_cost_micros_;
    ++p.migration_count;
    ++total_evictions_;
    if (c_evictions_ != nullptr) c_evictions_->Increment();
    TraceHostEvent(host, "evict",
                   {obs::TraceArg::Int("pid", pid),
                    obs::TraceArg::Int("home", p.home_host)});
    TraceLoad(host);
    TraceLoad(p.home_host);
    if (eviction_handler_) eviction_handler_(p);
  }
}

void Network::DetachFromHost(ProcessId pid) {
  ProcessInfo& p = Pcb(pid);
  auto& running = hosts_[p.current_host].running;
  running.erase(std::remove(running.begin(), running.end(), pid),
                running.end());
}

bool Network::Step() {
  ProcessId next_pid = kNoProcess;
  int64_t completion_at = NextCompletionTime(&next_pid);
  int64_t event_at = host_events_.empty() ? kNever
                                          : host_events_.front().micros;
  if (completion_at == kNever && event_at == kNever) return false;

  if (event_at <= completion_at) {
    HostEvent ev = host_events_.front();
    host_events_.erase(host_events_.begin());
    AccrueProgress(ev.micros);
    if (ev.micros > clock_->NowMicros()) clock_->SetMicros(ev.micros);
    switch (ev.kind) {
      case HostEvent::Kind::kOwner:
        (void)SetOwnerActive(ev.host, ev.active);
        break;
      case HostEvent::Kind::kCrash:
        (void)CrashHost(ev.host);  // no-op if already down
        break;
      case HostEvent::Kind::kReboot:
        if (!hosts_[ev.host].up) {
          hosts_[ev.host].up = true;
          if (c_reboots_ != nullptr) c_reboots_->Increment();
          TraceHostEvent(ev.host, "host_reboot", {});
        }
        break;
    }
    return true;
  }
  AccrueProgress(completion_at);
  if (completion_at > clock_->NowMicros()) clock_->SetMicros(completion_at);
  Complete(next_pid, completion_at);
  return true;
}

void Network::RunUntilQuiescent() {
  while (Step()) {
  }
}

}  // namespace papyrus::sprite
