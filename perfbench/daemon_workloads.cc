// daemon_churn and daemon_hot: closed-loop socket clients driving the
// shipped papyrusd binary, then a SIGKILL, a timed reopen, and the
// correctness gate. With --trace the same traffic is replayed against a
// daemon hosted in this process, whose `drain` is served by calling the
// public steps of PapyrusDaemon::RunOne one by one under spans.
#include <algorithm>
#include <atomic>
#include <filesystem>
#include <functional>
#include <memory>
#include <thread>

#include "base/macros.h"
#include "base/strings.h"
#include "common.h"
#include "fingerprint.h"
#include "generators.h"
#include "lint/linter.h"
#include "tdl/template.h"
#include "obs/metrics.h"
#include "server/daemon.h"
#include "server/transport.h"
#include "server/wire.h"
#include "spans.h"
#include "workloads.h"

namespace perfbench {

namespace {

namespace fs = std::filesystem;
using papyrus::Status;
using papyrus::server::ClientContext;
using papyrus::server::DaemonOptions;
using papyrus::server::ManagedSession;
using papyrus::server::PapyrusDaemon;
using papyrus::server::WireClient;
using papyrus::server::WireMessage;

constexpr int kMaxOpenSessions = 64;
constexpr int kSnapshotInterval = 8;  // SessionConfig's default
constexpr int kMinSetups = 5;
constexpr int kMaxSetups = 25;
constexpr double kSetupBudgetS = 1.0;
constexpr int kRecoveries = 3;
constexpr double kRecoveryBudgetS = 4.0;
constexpr TailSpec kTail = {99.0, 1000};

/// Sessions fingerprinted against the serial reference.
int SampleSize(const std::string& workload) {
  return workload == "daemon_churn" ? 8 : 4;
}

/// Options of every in-process daemon: the ones papyrusd gets on its
/// command line, plus the defaults it has no flag for, spelled out.
DaemonOptions MakeOptions(const std::string& root,
                          papyrus::obs::MetricsRegistry* metrics) {
  DaemonOptions options;
  options.root = root;
  options.session.worker_threads = 1;
  options.session.num_workstations = 4;
  options.session.cache_interval = 8;
  options.session.snapshot_interval = kSnapshotInterval;
  options.fair_dispatch = true;
  options.max_open_sessions = kMaxOpenSessions;
  options.metrics = metrics;
  return options;
}

// --- wire clients -----------------------------------------------------------

struct ClientLog {
  std::vector<int64_t> ids;  // acknowledged queue ids, -1 for refusals
  std::vector<double> latency_ms;
  std::vector<int64_t> rtt_ns;  // every measured request, in order
  int64_t attempted = 0;
  int64_t errors = 0;
  std::string first_error;
  double finished = 0.0;
};

struct Conn {
  std::unique_ptr<WireClient> client;
  ClientLog log;
};

/// Sends one line; false (and the error recorded) on `err` or I/O failure.
bool Request(Conn* conn, const std::string& line, WireMessage* reply) {
  auto raw = conn->client->Call(line);
  std::string failure;
  if (!raw.ok()) {
    failure = raw.status().ToString();
  } else {
    auto parsed = WireMessage::Parse(*raw);
    if (!parsed.ok()) {
      failure = "unparsable reply: " + *raw;
    } else {
      *reply = *parsed;
      if (reply->verb == "ok") return true;
      failure = *raw;
    }
  }
  ++conn->log.errors;
  if (conn->log.first_error.empty()) conn->log.first_error = line + " -> " + failure;
  return false;
}

int64_t Field(const WireMessage& msg, const std::string& key) {
  const std::string* v = msg.Find(key);
  int64_t out = -1;
  if (v != nullptr) papyrus::ParseInt64(*v, &out);
  return out;
}

Status ConnectAll(const std::string& socket, int n, std::vector<Conn>* conns) {
  conns->clear();
  conns->resize(n);
  double deadline = NowSeconds() + 30.0;
  for (int c = 0; c < n; ++c) {
    while (true) {
      auto client = WireClient::Connect(socket);
      if (client.ok()) {
        (*conns)[c].client = std::move(*client);
        break;
      }
      if (NowSeconds() > deadline) return client.status();
      // A short poll: the wait for papyrusd to listen is part of setup_s.
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    WireMessage reply;
    std::string name = c + 1 == n ? "ctl" : "c" + std::to_string(c);
    if (!Request(&(*conns)[c], "connect ~client=" + name, &reply)) {
      return Status::Internal("connect refused: " + (*conns)[c].log.first_error);
    }
  }
  return Status::OK();
}

/// Check-ins of every session (each connection its own), then the
/// library's publishing tasks on connection 0. Returns the library's ids.
std::vector<int64_t> SetUp(const DaemonTraffic& traffic, std::vector<Conn>* conns,
                           Report* report) {
  std::vector<std::thread> threads;
  for (int c = 0; c < traffic.connections(); ++c) {
    threads.emplace_back([&, c] {
      WireMessage reply;
      for (const std::string& session : traffic.owned(c)) {
        for (const std::string& line : traffic.checkins(session)) {
          Request(&(*conns)[c], line, &reply);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  std::vector<int64_t> library_ids;
  if (!traffic.library().empty()) {
    Conn* conn = &(*conns)[0];
    WireMessage reply;
    for (const std::string& line : traffic.checkins(traffic.library())) {
      Request(conn, line, &reply);
    }
    for (const std::string& line : traffic.library_tasks()) {
      library_ids.push_back(Request(conn, line, &reply) ? Field(reply, "id") : -1);
    }
    Request(conn, "drain", &reply);
  }
  for (Conn& conn : *conns) {
    report->Check(conn.log.errors == 0, "set-up refused: " + conn.log.first_error);
    conn.log = ClientLog();
  }
  return library_ids;
}

/// The closed loop: each connection submits its next task and drains,
/// until `deadline` (and at least `min_tasks` in total) — or, with
/// `counts`, exactly counts[c] tasks on connection c.
void RunClients(const DaemonTraffic& traffic, std::vector<Conn>* conns,
                double deadline, int64_t min_tasks,
                const std::vector<int64_t>* counts) {
  std::atomic<int64_t> total{0};
  double hard_stop = deadline + 3.0 * (deadline - NowSeconds());
  std::vector<std::thread> threads;
  for (int c = 0; c < traffic.connections(); ++c) {
    threads.emplace_back([&, c] {
      Conn* conn = &(*conns)[c];
      ClientLog& log = conn->log;
      for (int64_t k = 0;; ++k) {
        if (counts != nullptr) {
          if (k >= (*counts)[c]) break;
        } else {
          double now = NowSeconds();
          if (now >= hard_stop || (now >= deadline && total.load() >= min_tasks)) {
            break;
          }
        }
        ++log.attempted;
        WireMessage reply;
        const std::string& refresh = traffic.Refresh(c, k);
        if (!refresh.empty()) {
          int64_t r0 = NowNanos();
          if (!Request(conn, refresh, &reply)) {
            log.ids.push_back(-1);
            continue;
          }
          log.rtt_ns.push_back(NowNanos() - r0);
        }
        int64_t t0 = NowNanos();
        bool ok = Request(conn, traffic.Task(c, k), &reply);
        int64_t t1 = NowNanos();
        log.ids.push_back(ok ? Field(reply, "id") : -1);
        if (!ok) continue;
        Request(conn, "drain", &reply);
        int64_t t2 = NowNanos();
        log.rtt_ns.push_back(t1 - t0);
        log.rtt_ns.push_back(t2 - t1);
        log.latency_ms.push_back(static_cast<double>(t2 - t0) / 1e6);
        ++total;
      }
      log.finished = NowSeconds();
    });
  }
  for (std::thread& t : threads) t.join();
}

pid_t SpawnDaemon(const Args& args, const std::string& root,
                  const std::string& socket, const std::string& log) {
  return Spawn({args.papyrusd, "--root", root, "--socket", socket, "--jobs",
                "1", "--max-open-sessions", std::to_string(kMaxOpenSessions)},
               log);
}

// --- the decomposed drain ---------------------------------------------------

int64_t Count(papyrus::obs::MetricsRegistry& registry, const char* name) {
  return registry.FindOrCreateCounter(name)->value();
}

/// Storage-engine counters of one session. They live in the session's
/// own registry (not the daemon's), which an eviction discards, so the
/// traced run reads them around each call that saves.
struct StoreCounts {
  int64_t syncs = 0, bytes = 0, sections = 0;

  static StoreCounts Read(ManagedSession* session) {
    namespace obs = papyrus::obs;
    papyrus::obs::MetricsRegistry& reg = session->session().metrics();
    return {Count(reg, obs::kWalSyncs), Count(reg, obs::kWalBytesWritten),
            Count(reg, obs::kSnapshotSectionsWritten)};
  }
};

struct LayerTally {
  int64_t tasks = 0;
  int64_t cold_opens = 0;
  int64_t wal_syncs = 0;
  int64_t wal_bytes = 0;
  int64_t sections = 0;
  int64_t replayed = 0;
  // Read from the session's own objects: the daemon-wide counters of
  // these are reset to one session's totals whenever a session opens.
  int64_t versions = 0;
  int64_t cache_hits = 0;
  int64_t cache_misses = 0;
  std::vector<double> open_cold_us;
  std::vector<double> save_wal_us;
  std::vector<double> save_compact_us;

  void AddStore(const StoreCounts& before, const StoreCounts& after) {
    wal_syncs += after.syncs - before.syncs;
    wal_bytes += after.bytes - before.bytes;
    sections += after.sections - before.sections;
  }
};

constexpr char kSeenMarker[] = "perfbench.seen";

/// Marks a hosted session as seen, returning whether it was unseen: a
/// session object created since the last look is a cold open.
bool MarkSeen(ManagedSession* session) {
  auto* seen = session->session().metrics().FindOrCreateCounter(kSeenMarker);
  bool fresh = seen->value() == 0;
  seen->Increment();
  return fresh;
}

/// Serves `drain` the way PapyrusDaemon::Drain does, one public step at a
/// time: ExpireLeases, Claim (fair policy), OpenSession, HasApplied,
/// Execute, the daemon clock advance, Save, Complete. `exec_id` maps a
/// queue id to the id Execute records in the session's applied ledger.
/// `tally` (nullable) accumulates the storage counters.
std::string DecomposedDrain(PapyrusDaemon* daemon,
                            const std::function<int64_t(int64_t)>& exec_id,
                            SpanRecorder* spans, LayerTally* tally,
                            int64_t* failures) {
  papyrus::server::PersistentQueue& queue = daemon->queue();
  papyrus::server::ClaimPolicy policy;
  policy.fair = true;
  const DaemonOptions defaults;
  ScopedSpan drain(spans, "drain");
  auto fail = [&](int64_t id, const std::string& why) {
    ++*failures;
    (void)queue.Fail(id, daemon->owner(), why);
  };
  while (true) {
    { ScopedSpan s(spans, "queue.expire"); queue.ExpireLeases(); }
    int claim = spans->Begin("queue.claim");
    auto claimed = queue.Claim(daemon->owner(), defaults.lease_micros, policy);
    spans->End(claim);
    if (!claimed.ok()) {
      ++*failures;
      break;
    }
    if (!claimed->has_value()) break;
    const papyrus::server::QueueTask task = **claimed;
    spans->SetCorr(claim, task.id);
    auto desc = papyrus::server::TaskDescription::Decode(task.description);
    if (!desc.ok()) {
      fail(task.id, desc.status().message());
      continue;
    }
    int64_t ledger_id = exec_id(task.id);
    int open = spans->Begin("session.open", task.id);
    auto opened = daemon->OpenSession(desc->session);
    spans->End(open);
    if (!opened.ok()) {
      fail(task.id, opened.status().message());
      continue;
    }
    ManagedSession* session = *opened;
    if (MarkSeen(session) && tally != nullptr) {
      ++tally->cold_opens;
      const Span& span = spans->spans()[open];
      tally->open_cold_us.push_back(static_cast<double>(span.end_ns - span.start_ns) / 1e3);
      tally->replayed += Count(session->session().metrics(),
                               papyrus::obs::kWalReplayedRecords);
    }
    bool applied;
    { ScopedSpan s(spans, "session.has_applied", task.id);
      applied = session->HasApplied(ledger_id); }
    if (!applied) {
      papyrus::Papyrus& engine = session->session();
      const int64_t before = engine.clock().NowMicros();
      const int64_t versions = engine.database().TotalVersionCount();
      const papyrus::cache::CacheStats cache = engine.step_cache().stats();
      int exec = spans->Begin("session.execute", task.id);
      auto node = session->Execute(ledger_id, *desc);
      spans->End(exec);
      if (tally != nullptr) {
        tally->versions += engine.database().TotalVersionCount() - versions;
        tally->cache_hits += engine.step_cache().stats().hits - cache.hits;
        tally->cache_misses += engine.step_cache().stats().misses - cache.misses;
      }
      int64_t delta = engine.clock().NowMicros() - before;
      if (delta > 0) daemon->clock().AdvanceMicros(delta);
      if (!node.ok()) {
        fail(task.id, node.status().message());
        continue;
      }
      papyrus::obs::MetricsRegistry& reg = engine.metrics();
      const StoreCounts stored = StoreCounts::Read(session);
      int64_t gens = Count(reg, papyrus::obs::kSnapshotGenerations);
      int64_t t0 = NowNanos();
      Status saved = session->Save();
      int64_t t1 = NowNanos();
      int64_t new_gens = Count(reg, papyrus::obs::kSnapshotGenerations) - gens;
      spans->Add(new_gens > 0 ? "session.save_compact" : "session.save_wal", t0, t1,
                 task.id);
      if (!saved.ok()) {
        fail(task.id, saved.message());
        continue;
      }
      if (tally != nullptr) {
        tally->AddStore(stored, StoreCounts::Read(session));
        (new_gens > 0 ? tally->save_compact_us : tally->save_wal_us)
            .push_back(static_cast<double>(t1 - t0) / 1e3);
      }
    }
    Status done;
    { ScopedSpan s(spans, "queue.complete", task.id);
      done = queue.Complete(task.id, daemon->owner()); }
    if (!done.ok()) {
      ++*failures;
      continue;
    }
    if (tally != nullptr) ++tally->tasks;
  }
  WireMessage response;
  response.verb = "ok";
  response.Add("done", std::to_string(queue.DoneCount()));
  response.Add("failed", std::to_string(queue.FailedCount()));
  return response.Format();
}

// --- the correctness gate ---------------------------------------------------

std::vector<std::string> SampleSessions(const DaemonTraffic& traffic, uint64_t seed,
                                        int n) {
  std::vector<std::string> all = traffic.sessions();
  Rng rng(MixSeed(seed, 0x5a3));
  for (size_t i = all.size(); i > 1; --i) std::swap(all[i - 1], all[rng.Next() % i]);
  all.resize(std::min<size_t>(all.size(), n));
  std::sort(all.begin(), all.end());
  return all;
}

int OwnerOf(const DaemonTraffic& traffic, const std::string& session) {
  for (int c = 0; c < traffic.connections(); ++c) {
    const auto& mine = traffic.owned(c);
    if (std::find(mine.begin(), mine.end(), session) != mine.end()) return c;
  }
  return -1;
}

/// Replays only the sampled sessions' lines (after the library set-up)
/// through a fresh in-process daemon, serially, with each task recorded
/// under the queue id it had in the measured run, and fingerprints them.
Status SerialReference(const DaemonTraffic& traffic, const std::string& root,
                       const std::vector<int64_t>& library_ids,
                       const std::vector<Conn>& conns,
                       const std::vector<std::string>& sample, Fingerprint* out) {
  RemoveTree(root);
  PAPYRUS_ASSIGN_OR_RETURN(auto daemon, PapyrusDaemon::Start(MakeOptions(root, nullptr)));
  std::map<int64_t, int64_t> ids;
  auto submit = [&](const std::string& line, int64_t real_id) -> Status {
    auto reply = WireMessage::Parse(daemon->HandleLine(line));
    if (!reply.ok() || reply->verb != "ok") {
      return Status::Internal("reference refused " + line);
    }
    ids[Field(*reply, "id")] = real_id;
    return Status::OK();
  };
  auto line = [&](const std::string& text) -> Status {
    auto reply = WireMessage::Parse(daemon->HandleLine(text));
    if (!reply.ok() || reply->verb != "ok") {
      return Status::Internal("reference refused " + text);
    }
    return Status::OK();
  };
  auto checkin = [&](const std::string& session) -> Status {
    for (const std::string& text : traffic.checkins(session)) {
      PAPYRUS_RETURN_IF_ERROR(line(text));
    }
    return Status::OK();
  };
  auto drain = [&]() -> Status {
    SpanRecorder unused;
    int64_t failures = 0;
    DecomposedDrain(daemon.get(), [&](int64_t id) { return ids.at(id); }, &unused,
                    nullptr, &failures);
    return failures == 0 ? Status::OK() : Status::Internal("reference task failed");
  };
  if (!traffic.library().empty()) {
    PAPYRUS_RETURN_IF_ERROR(checkin(traffic.library()));
    for (size_t j = 0; j < traffic.library_tasks().size(); ++j) {
      PAPYRUS_RETURN_IF_ERROR(submit(traffic.library_tasks()[j], library_ids[j]));
    }
    PAPYRUS_RETURN_IF_ERROR(drain());
  }
  // Each task runs before the session's next line, as in the measured
  // run, where a connection sends its next line only after its drain:
  // a task sees the spec version its own refresh checked in.
  for (const std::string& session : sample) {
    PAPYRUS_RETURN_IF_ERROR(checkin(session));
    int c = OwnerOf(traffic, session);
    const ClientLog& log = conns[c].log;
    for (int64_t k = 0; k < static_cast<int64_t>(log.ids.size()); ++k) {
      if (traffic.SessionOf(c, k) != session) continue;
      const std::string& refresh = traffic.Refresh(c, k);
      if (!refresh.empty()) PAPYRUS_RETURN_IF_ERROR(line(refresh));
      PAPYRUS_RETURN_IF_ERROR(submit(traffic.Task(c, k), log.ids[k]));
      PAPYRUS_RETURN_IF_ERROR(drain());
    }
  }
  return FingerprintSessions(daemon.get(), sample, out);
}

/// Sums over the measured sessions' committed task records.
struct HistoryTotals {
  int64_t records = 0;
  int64_t steps = 0;
  double virtual_s = 0.0;
};

Status Histories(PapyrusDaemon* daemon, const std::vector<std::string>& sessions,
                 HistoryTotals* out) {
  for (const std::string& name : sessions) {
    PAPYRUS_ASSIGN_OR_RETURN(ManagedSession * session, daemon->OpenSession(name));
    papyrus::Papyrus& p = session->session();
    for (int id : p.activity().ThreadIds()) {
      PAPYRUS_ASSIGN_OR_RETURN(auto* thread, p.activity().GetThread(id));
      for (const auto& [node_id, node] : thread->nodes()) {
        if (node.is_junction || node.record.task_name.empty()) continue;
        ++out->records;
        out->steps += static_cast<int64_t>(node.record.steps.size());
        out->virtual_s +=
            static_cast<double>(node.record.commit_micros - node.record.invoke_micros) /
            1e6;
      }
    }
  }
  return Status::OK();
}

// --- the traced run ---------------------------------------------------------

struct TracedResult {
  std::map<std::string, double> layers;
  int64_t tasks = 0;  // completed by the decomposed drain in the phase
  int64_t failures = 0;
  Fingerprint fingerprint;
};

struct RegistryTotals {
  int64_t cas_hits = 0, cas_misses = 0, cas_bytes = 0;
  int64_t steps = 0;
  int64_t payload_us = 0, payloads = 0;
};

RegistryTotals ReadRegistry(papyrus::obs::MetricsRegistry& registry) {
  namespace obs = papyrus::obs;
  auto* payload = registry.FindOrCreateHistogram(obs::kExecWallLatency,
                                                 obs::WallLatencyBucketBounds());
  return {Count(registry, obs::kCasHits),
          Count(registry, obs::kCasMisses),
          Count(registry, obs::kCasBytesWritten),
          Count(registry, obs::kStepsCompleted) + Count(registry, obs::kStepsElided),
          payload->sum(),
          payload->count()};
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// Sum over the sessions under `root` of the generation CURRENT names
/// ("manifest.<gen>"). Counts every generation written, including the
/// parting checkpoints of evicted sessions, whose registries are gone.
int64_t DurableGenerations(const std::string& root) {
  int64_t total = 0;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(root + "/sessions", ec)) {
    std::string current = ReadFile((entry.path() / "CURRENT").string());
    size_t dot = current.find('.');
    int64_t gen = 0;
    if (dot != std::string::npos &&
        papyrus::ParseInt64(std::string(papyrus::Trim(current.substr(dot + 1))), &gen)) {
      total += gen;
    }
  }
  return total;
}

/// Replays exactly the untraced run's per-connection task counts against
/// a daemon hosted in this process, and measures each layer.
void RunTraced(const DaemonTraffic& traffic, const std::string& dir,
               const std::string& spans_path,
               const std::vector<Conn>& untraced, double untraced_tps,
               const std::vector<std::string>& sample, TracedResult* result,
               Report* report) {
  std::string root = dir + "/traced";
  std::string socket = dir + "/traced.sock";
  RemoveTree(root);
  fs::remove(socket);
  papyrus::obs::MetricsRegistry registry;
  SpanRecorder spans;
  LayerTally tally;
  std::atomic<bool> ready{false}, stop{false};
  std::atomic<int64_t> phase_start{INT64_MAX};
  std::map<std::string, std::vector<int64_t>> handler_ns;
  std::map<std::string, int64_t> submits_seen;
  std::map<int64_t, int64_t> ledger_ids;
  Status engine_status;

  // The engine thread owns the daemon, the transport and every span.
  std::thread engine([&] {
    auto daemon = PapyrusDaemon::Start(MakeOptions(root, &registry));
    if (!daemon.ok()) {
      engine_status = daemon.status();
      ready = true;
      return;
    }
    papyrus::server::TransportOptions transport_options;
    transport_options.socket_path = socket;
    transport_options.serve_stdin = false;
    transport_options.metrics = &registry;
    auto transport = papyrus::server::SocketTransport::Listen(transport_options);
    if (!transport.ok()) {
      engine_status = transport.status();
      ready = true;
      return;
    }
    PapyrusDaemon* d = daemon->get();
    auto ledger_id = [&](int64_t id) {
      auto it = ledger_ids.find(id);
      return it == ledger_ids.end() ? id : it->second;
    };
    auto handler = [&](const std::string& raw, ClientContext* ctx) {
      std::string line(papyrus::Trim(raw));
      int64_t t0 = NowNanos();
      bool in_phase = t0 >= phase_start.load();
      std::string response;
      if (line == "drain") {
        response = DecomposedDrain(d, ledger_id, &spans, in_phase ? &tally : nullptr,
                                   &result->failures);
      } else if (line.rfind("submit ", 0) == 0) {
        int span = spans.Begin("wire.submit");
        response = d->HandleLine(line, ctx);
        spans.End(span);
        auto reply = WireMessage::Parse(response);
        int64_t id = reply.ok() ? Field(*reply, "id") : -1;
        spans.SetCorr(span, id);
        // Execute records the id this task had in the untraced run, so
        // the two runs' sessions compare byte for byte.
        const std::string& client = ctx->client_name;
        if (in_phase && client.size() > 1 && client[0] == 'c') {
          const ClientLog& log = untraced[std::stoi(client.substr(1))].log;
          int64_t seq = submits_seen[client]++;
          if (seq < static_cast<int64_t>(log.ids.size())) ledger_ids[id] = log.ids[seq];
        }
      } else if (line.rfind("checkin ", 0) == 0) {
        // A check-in saves its session before it is acknowledged. The
        // session is opened first, as the check-in would open it, so that
        // the storage counters can be read around that save.
        auto request = WireMessage::Parse(line);
        const std::string* name = request.ok() ? request->Find("session") : nullptr;
        int span = spans.Begin("wire.checkin");
        auto session = name != nullptr
                           ? d->OpenSession(*name)
                           : papyrus::Result<ManagedSession*>(Status::InvalidArgument(line));
        const StoreCounts before =
            session.ok() ? StoreCounts::Read(*session) : StoreCounts();
        response = d->HandleLine(line, ctx);
        spans.End(span);
        if (session.ok()) {
          if (in_phase) tally.AddStore(before, StoreCounts::Read(*session));
          // A session opened by a check-in is warm, not cold, when a
          // drain first reaches it.
          MarkSeen(*session);
        }
      } else {
        response = d->HandleLine(line, ctx);
      }
      handler_ns[ctx->client_name].push_back(NowNanos() - t0);
      return response;
    };
    ready = true;
    while (!stop.load()) {
      Status st = (*transport)->PollOnce(handler, 20);
      if (!st.ok()) {
        engine_status = st;
        break;
      }
    }
    Status fp = FingerprintSessions(d, sample, &result->fingerprint);
    if (!fp.ok() && engine_status.ok()) engine_status = fp;
  });
  while (!ready.load()) std::this_thread::sleep_for(std::chrono::milliseconds(1));

  std::vector<int64_t> counts;
  for (int c = 0; c < traffic.connections(); ++c) {
    counts.push_back(static_cast<int64_t>(untraced[c].log.ids.size()));
  }
  std::vector<Conn> conns;
  Status connected = engine_status.ok()
                         ? ConnectAll(socket, traffic.connections() + 1, &conns)
                         : engine_status;
  std::string journal = root + "/queue/queue.pjq";
  RegistryTotals before, after;
  int64_t journal_bytes = 0;
  int64_t generations = 0;
  double phase_wall = 0.0;
  if (connected.ok()) {
    SetUp(traffic, &conns, report);
    before = ReadRegistry(registry);
    journal_bytes = -TreeBytes(journal);
    generations = -DurableGenerations(root);
    double start = NowSeconds();
    phase_start = NowNanos();
    RunClients(traffic, &conns, 0.0, 0, &counts);
    for (int c = 0; c < traffic.connections(); ++c) {
      phase_wall = std::max(phase_wall, conns[c].log.finished - start);
    }
    after = ReadRegistry(registry);
    journal_bytes += TreeBytes(journal);
    generations += DurableGenerations(root);
  } else {
    report->Fail("traced daemon: " + connected.ToString());
  }
  stop = true;
  engine.join();
  report->Check(engine_status.ok(), "traced daemon: " + engine_status.ToString());
  report->Check(result->failures == 0, "traced drain failed tasks");
  if (!connected.ok()) return;

  SpanRecorder phase = spans.Since(phase_start.load());
  phase.WriteJsonLines(spans_path);

  // Transport: a client's round trip minus the handler's time for the
  // same request — the last rtt_ns.size() handler entries of that client.
  std::vector<double> overhead_us;
  double e2e_ns = 0.0, layer_ns = 0.0;
  for (int c = 0; c < traffic.connections(); ++c) {
    const std::vector<int64_t>& rtts = conns[c].log.rtt_ns;
    const std::vector<int64_t>& handled = handler_ns["c" + std::to_string(c)];
    if (handled.size() < rtts.size()) {
      report->Fail("traced handler log shorter than the client's");
      return;
    }
    size_t offset = handled.size() - rtts.size();
    for (size_t i = 0; i < rtts.size(); ++i) {
      double transport = static_cast<double>(rtts[i] - handled[offset + i]);
      overhead_us.push_back(transport / 1e3);
      e2e_ns += static_cast<double>(rtts[i]);
      layer_ns += transport;
    }
  }
  // The drain root's own time (decoding, the clock advance) is the only
  // part no layer claims.
  for (const auto& [name, self] : phase.SelfTotals()) {
    if (name != "drain") layer_ns += static_cast<double>(self);
  }

  result->tasks = tally.tasks;
  double tasks = static_cast<double>(tally.tasks);
  std::map<std::string, double>& L = result->layers;
  L["transport.overhead_us"] = Median(overhead_us);
  L["wire.submit_us"] = Median(phase.Durations("wire.submit"));
  L["wire.checkin_us"] = Median(phase.Durations("wire.checkin"));
  L["queue.expire_us"] = Median(phase.Durations("queue.expire"));
  L["queue.claim_us"] = Median(phase.Durations("queue.claim"));
  L["queue.complete_us"] = Median(phase.Durations("queue.complete"));
  L["queue.journal_bytes_per_task"] = Ratio(static_cast<double>(journal_bytes), tasks);
  L["session.open_us"] = Median(tally.open_cold_us);
  L["session.cold_open_ratio"] = Ratio(static_cast<double>(tally.cold_opens), tasks);
  L["session.execute_us"] = Median(phase.Durations("session.execute"));
  L["session.save_wal_us"] = Median(tally.save_wal_us);
  L["session.save_compact_us"] = Median(tally.save_compact_us);
  L["session.save_compact_max_us"] =
      tally.save_compact_us.empty()
          ? 0.0
          : *std::max_element(tally.save_compact_us.begin(), tally.save_compact_us.end());
  L["wal.syncs_per_task"] = Ratio(static_cast<double>(tally.wal_syncs), tasks);
  L["wal.bytes_per_task"] = Ratio(static_cast<double>(tally.wal_bytes), tasks);
  L["snapshot.generations_per_task"] = Ratio(static_cast<double>(generations), tasks);
  L["snapshot.sections_written_per_task"] = Ratio(static_cast<double>(tally.sections), tasks);
  L["wal.replayed_records_per_open"] =
      Ratio(static_cast<double>(tally.replayed), static_cast<double>(tally.cold_opens));
  double cas_hits = static_cast<double>(after.cas_hits - before.cas_hits);
  double cas_misses = static_cast<double>(after.cas_misses - before.cas_misses);
  L["cas.hit_ratio"] = Ratio(cas_hits, cas_hits + cas_misses);
  L["cas.bytes_written_per_task"] =
      Ratio(static_cast<double>(after.cas_bytes - before.cas_bytes), tasks);
  L["cache.hit_ratio"] = Ratio(static_cast<double>(tally.cache_hits),
                              static_cast<double>(tally.cache_hits + tally.cache_misses));
  papyrus::tdl::TemplateLibrary thesis;
  (void)papyrus::tdl::RegisterThesisTemplates(&thesis);
  auto tmpl = thesis.Find(traffic.template_name());
  papyrus::lint::LintResult lint;
  L["lint.template_ms"] = tmpl.ok() ? TimeLint(**tmpl, &lint) : 0.0;
  report->Check(tmpl.ok() && lint.ok(), traffic.template_name() + " does not lint clean");
  L["cadtools.payload_us_per_step"] =
      Ratio(static_cast<double>(after.payload_us - before.payload_us),
            static_cast<double>(after.payloads - before.payloads));
  L["oct.versions_per_step"] = Ratio(static_cast<double>(tally.versions),
                                     static_cast<double>(after.steps - before.steps));
  L["trace.coverage_frac"] = Ratio(layer_ns, e2e_ns);
  double traced_tps = Ratio(tasks, phase_wall);
  L["trace.overhead_frac"] = untraced_tps > 0 ? 1.0 - traced_tps / untraced_tps : 0.0;
  report->Check(L["trace.coverage_frac"] >= kCoverageMin &&
                    L["trace.coverage_frac"] <= 1.0 + 1e-9,
                "layer self times cover " + std::to_string(L["trace.coverage_frac"]) +
                    " of the traced end-to-end time");
  report->Note("traced: " + std::to_string(tally.tasks) + " tasks in " +
               std::to_string(phase_wall) + " s, " + std::to_string(phase.spans().size()) +
               " spans -> " + spans_path);
}

}  // namespace

void RunDaemonWorkload(const Args& args, Report* report) {
  const int connections = std::max(1, std::min(kMaxConnections, args.nproc - 1));
  DaemonTraffic traffic(args.workload, args.seed, connections);
  const std::string dir = std::string(kTmpfsDir) + "/" + args.workload;
  RemoveTree(dir);
  fs::create_directories(dir);
  const std::string root = dir + "/root";
  const std::string socket = dir + "/papyrusd.sock";
  report->Note("options: papyrusd --socket --jobs 1 --max-open-sessions " +
               std::to_string(kMaxOpenSessions) +
               " (fair dispatch, snapshot interval " + std::to_string(kSnapshotInterval) +
               "); connections " + std::to_string(connections) + "; sessions " +
               std::to_string(traffic.sessions().size()) + "; template " +
               traffic.template_name());
  report->Note(std::string("storage: ") + Medium(dir));

  // Set-up, timed: spawn, connect, every check-in and the library. Run
  // kMinSetups times, and more (up to kMaxSetups) while they take less
  // than kSetupBudgetS in all, so that a short set-up gets a steadier
  // median. The last one stays up for the measured phase.
  std::vector<double> setup_s;
  std::vector<Conn> conns;
  std::vector<int64_t> library_ids;
  pid_t pid = -1;
  auto more_setups = [&] {
    int n = static_cast<int>(setup_s.size());
    if (args.trace) return n < 1;
    return n < kMinSetups || (n < kMaxSetups && Sum(setup_s) < kSetupBudgetS);
  };
  while (more_setups()) {
    if (pid > 0) {
      conns.clear();
      KillAndReap(pid);
    }
    RemoveTree(root);
    fs::remove(socket);
    double t0 = NowSeconds();
    pid = SpawnDaemon(args, root, socket, args.workload + "-papyrusd.log");
    Status st = pid > 0 ? ConnectAll(socket, connections + 1, &conns)
                        : Status::Internal("cannot spawn " + args.papyrusd);
    if (!st.ok()) {
      report->Fail("papyrusd: " + st.ToString());
      KillAndReap(pid);
      return;
    }
    library_ids = SetUp(traffic, &conns, report);
    setup_s.push_back(NowSeconds() - t0);
  }
  if (!report->correct()) {
    KillAndReap(pid);
    return;
  }

  // The measured phase.
  Conn* ctl = &conns.back();
  WireMessage reply;
  int64_t done_before = Request(ctl, "stat", &reply) ? Field(reply, "done") : 0;
  double start = NowSeconds();
  RunClients(traffic, &conns, start + args.seconds, kTail.min_tasks, nullptr);
  double wall = 0.0;
  int64_t acked = 0, errors = 0;
  std::vector<double> latencies;
  for (int c = 0; c < connections; ++c) {
    const ClientLog& log = conns[c].log;
    wall = std::max(wall, log.finished - start);
    report->attempted += log.attempted;
    errors += log.errors;
    for (int64_t id : log.ids) acked += id >= 0 ? 1 : 0;
    latencies.insert(latencies.end(), log.latency_ms.begin(), log.latency_ms.end());
    report->Check(log.errors == 0, "client c" + std::to_string(c) + ": " + log.first_error);
  }

  // Every acknowledged submit is done, none failed, nothing left over.
  int64_t done = -1, failed_tasks = -1, left = -1;
  if (Request(ctl, "stat", &reply)) {
    done = Field(reply, "done") - done_before;
    failed_tasks = Field(reply, "failed");
    left = Field(reply, "pending") + Field(reply, "claimed");
  }
  int64_t not_done = 0;
  for (int c = 0; c < connections; ++c) {
    for (int64_t id : conns[c].log.ids) {
      if (id < 0) continue;
      if (!Request(ctl, "task ~id=" + std::to_string(id), &reply) ||
          reply.Find("state") == nullptr || *reply.Find("state") != "done") {
        ++not_done;
      }
    }
  }
  report->Check(done == acked, "queue done " + std::to_string(done) + " != acknowledged " +
                                   std::to_string(acked));
  report->Check(failed_tasks == 0, "failed tasks: " + std::to_string(failed_tasks));
  report->Check(left == 0, "tasks left pending or claimed: " + std::to_string(left));
  report->Check(not_done == 0, std::to_string(not_done) + " acknowledged tasks not done");
  report->failed = errors + std::max<int64_t>(failed_tasks, 0) + not_done;
  const double peak_rss_mb = PeakRssMiB(pid);
  const double store_mb = static_cast<double>(TreeBytes(root)) / (1024.0 * 1024.0);
  KillAndReap(pid);

  // Recovery after SIGKILL, timed on copies of the killed root: Start
  // plus OpenSession of every session used. Repeated (up to kRecoveries,
  // within kRecoveryBudgetS) for a median.
  std::vector<std::string> used = traffic.sessions();
  if (!traffic.library().empty()) used.push_back(traffic.library());
  std::vector<double> recover_s;
  std::unique_ptr<PapyrusDaemon> recovered;
  const std::string copy = dir + "/recovery";
  const int recoveries = args.trace ? 1 : kRecoveries;
  while (report->correct() && static_cast<int>(recover_s.size()) < recoveries &&
         (recover_s.empty() || Sum(recover_s) < kRecoveryBudgetS)) {
    recovered.reset();
    CopyTree(root, copy);
    double t0 = NowSeconds();
    auto daemon = PapyrusDaemon::Start(MakeOptions(copy, nullptr));
    Status st = daemon.status();
    for (size_t i = 0; st.ok() && i < used.size(); ++i) {
      st = (*daemon)->OpenSession(used[i]).status();
    }
    recover_s.push_back(NowSeconds() - t0);
    if (!st.ok()) {
      report->Fail("recovery: " + st.ToString());
      break;
    }
    recovered = std::move(*daemon);
  }
  HistoryTotals totals;
  Fingerprint recovered_fp;
  std::vector<std::string> sample =
      SampleSessions(traffic, args.seed, SampleSize(args.workload));
  if (recovered != nullptr) {
    Status st = Histories(recovered.get(), traffic.sessions(), &totals);
    if (st.ok()) st = FingerprintSessions(recovered.get(), sample, &recovered_fp);
    report->Check(st.ok(), "recovered sessions: " + st.ToString());
    report->Check(totals.records == acked,
                  "committed task records " + std::to_string(totals.records) +
                      " != acknowledged " + std::to_string(acked));
    recovered.reset();
  }
  RemoveTree(copy);

  // The sampled sessions against an in-process serial reference.
  Fingerprint reference;
  Status ref = SerialReference(traffic, dir + "/ref", library_ids, conns, sample, &reference);
  report->Check(ref.ok(), "serial reference: " + ref.ToString());
  if (ref.ok()) {
    std::string diff = Diff(reference, recovered_fp);
    report->Check(diff.empty(), "recovered vs serial reference: " + diff);
    report->Check(FlipIsDetected(reference, args.seed),
                  "self-test: a flipped section byte went unnoticed");
  }
  std::string names;
  for (const std::string& s : sample) names += " " + s;
  report->Note("gate: " + std::to_string(acked) + " acknowledged, " +
               std::to_string(totals.records) + " committed records; fingerprinted" +
               names + " (" + std::to_string(reference.sections.size()) + " sections)");
  report->Note("failed_frac: " + std::to_string(Ratio(static_cast<double>(report->failed),
                                                      static_cast<double>(report->attempted))));

  double tasks_per_s = Ratio(static_cast<double>(acked), wall);
  if (args.trace) {
    TracedResult traced;
    RunTraced(traffic, dir, args.workload + "-spans.jsonl", conns, tasks_per_s, sample,
              &traced, report);
    report->Check(traced.tasks == acked, "traced run completed " +
                                             std::to_string(traced.tasks) + " tasks, untraced " +
                                             std::to_string(acked));
    std::string diff = Diff(recovered_fp, traced.fingerprint);
    report->Check(diff.empty(), "traced vs untraced sessions: " + diff);
    AddMetrics(kPerLayer, traced.layers, report);
    return;
  }
  std::map<std::string, double> values;
  values["tasks_per_s"] = tasks_per_s;
  AddLatency(latencies, kTail, &values, report);
  values["steps_per_s"] = Ratio(static_cast<double>(totals.steps), wall);
  values["virtual_task_s"] = Ratio(totals.virtual_s, static_cast<double>(totals.records));
  values["setup_s"] = Median(setup_s);
  values["recover_s"] = Median(recover_s);
  values["peak_rss_mb"] = peak_rss_mb;
  values["store_mb"] = store_mb;
  AddMetrics(kEndToEnd, values, report);
}

}  // namespace perfbench
