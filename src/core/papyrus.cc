#include "core/papyrus.h"

#include <algorithm>
#include <filesystem>
#include <fstream>

#include "activity/persistence.h"
#include "base/macros.h"
#include "base/strings.h"
#include "base/thread_annotations.h"
#include "storage/atomic_file.h"

namespace papyrus {

namespace {

std::string DbSectionName(int shard) {
  return "db/" + std::to_string(shard);
}

std::string ThreadSectionName(int id) {
  return "thread/" + std::to_string(id);
}

constexpr char kCacheSection[] = "cache";
constexpr char kStateSection[] = "state";
constexpr char kStateHeader[] = "papyrus-session-state v1";
/// The state section's file in a pre-engine snap.<N> whole-file snapshot.
constexpr char kLegacyStateFile[] = "state.pss";
/// Closes every non-empty WAL batch (log version 3 on): replay applies
/// records only through the last one, so a torn batch is never half
/// applied.
constexpr char kCommitRecord[] = "commit";

/// The state line (section line and WAL record body) of one ledger entry.
std::string AppliedLine(int64_t request_id,
                        const Papyrus::AppliedRequest& where) {
  return "applied " + std::to_string(request_id) + " " +
         std::to_string(where.thread_id) + " " + std::to_string(where.node);
}

}  // namespace

Papyrus::Papyrus(const SessionOptions& options)
    : clock_(0), trace_(&clock_), options_(options) {
  base::AssertEngineThread("Papyrus::Papyrus");
  if (!options.trace_path.empty()) trace_.set_enabled(true);
  db_ = std::make_unique<oct::OctDatabase>(&clock_);
  tools_ = std::make_unique<cadtools::ToolRegistry>();
  network_ =
      std::make_unique<sprite::Network>(&clock_, options.num_workstations);
  if (options.standard_environment) {
    cadtools::RegisterStandardSuite(tools_.get());
    (void)tdl::RegisterThesisTemplates(&templates_);
    meta::RegisterStandardTsds(&tsds_);
  }
  task_manager_ = std::make_unique<task::TaskManager>(
      db_.get(), tools_.get(), network_.get(), &templates_);
  task_manager_->set_worker_threads(options.worker_threads);
  activity_ = std::make_unique<activity::ActivityManager>(
      db_.get(), task_manager_.get(), &clock_);
  sds_ = std::make_unique<sync::SdsManager>(db_.get());
  reclamation_ =
      std::make_unique<storage::ReclamationManager>(db_.get(), &clock_);
  step_cache_ = std::make_unique<cache::DerivationCache>(db_.get());
  step_cache_->set_enabled(options.step_cache);
  task_manager_->set_derivation_cache(step_cache_.get());
  activity_->set_derivation_cache(step_cache_.get());
  reclamation_->set_derivation_cache(step_cache_.get());
  metadata_ = std::make_unique<meta::MetadataEngine>(db_.get(),
                                                     &attributes_, &tsds_);
  if (options.standard_environment) {
    meta::RegisterStandardPropagationRules(metadata_.get());
  }
  // Filtering is delegated to the reclamation manager's task filter list.
  activity_->set_record_filter([this](const std::string& task_name) {
    return reclamation_->ShouldRecord(task_name);
  });
  // Wire every instrumented subsystem to the session's trace recorder and
  // metrics registry (the registry also absorbs counters the task manager
  // accumulated against its private fallback registry).
  const obs::Observability sinks = observability();
  trace_.SetThreadName(obs::kSessionPid, 0, "session");
  db_->set_observability(sinks);
  network_->set_observability(sinks);
  task_manager_->set_observability(sinks);
  step_cache_->set_observability(sinks);
  if (!options.shared_store_path.empty()) {
    storage::CasOptions cas_options;
    cas_options.size_budget_bytes = options.shared_store_budget_bytes;
    auto store =
        storage::ContentStore::Open(options.shared_store_path, cas_options);
    if (store.ok()) {
      // Standalone session: a task commit is this process's durability
      // point, so entries publish immediately.
      shared_store_ = std::move(*store);
      shared_store_->set_observability(sinks);
      step_cache_->AttachSharedStore(shared_store_.get(),
                                     /*auto_publish=*/true);
    }
    // An unopenable store degrades to a private session; nothing else
    // depends on it.
  }
}

Papyrus::~Papyrus() {
  base::AssertEngineThread("Papyrus::~Papyrus");
  // Seal the trace: the session-end marker is the last event, anything a
  // destructor might still record afterwards is dropped by design.
  trace_.Finish();
  if (!options_.trace_path.empty()) {
    (void)trace_.WriteJson(options_.trace_path);
  }
  if (!options_.metrics_path.empty()) {
    std::ofstream out(options_.metrics_path, std::ios::trunc);
    if (out) out << metrics_.ToJson();
  }
}

Status Papyrus::AddTemplate(const std::string& script) {
  return templates_.Add(script);
}

int Papyrus::CreateThread(const std::string& name) {
  int id = activity_->CreateThread(name);
  auto thread = activity_->GetThread(id);
  if (thread.ok()) {
    (*thread)->set_cache_interval(options_.cache_interval);
  }
  return id;
}

Result<activity::NodeId> Papyrus::Invoke(
    int thread_id, const std::string& template_name,
    const std::vector<std::string>& input_refs,
    const std::vector<std::string>& output_names,
    const std::map<std::string, std::string>& option_overrides,
    task::TaskObserver* observer) {
  activity::ActivityInvocation inv;
  inv.template_name = template_name;
  inv.input_refs = input_refs;
  inv.output_names = output_names;
  inv.option_overrides = option_overrides;
  inv.observer = observer;
  return activity_->InvokeTask(thread_id, inv);
}

Status Papyrus::MoveCursor(int thread_id, activity::NodeId point,
                           bool erase) {
  return activity_->MoveCursor(thread_id, point, erase);
}

meta::MetadataEngine& Papyrus::metadata() {
  if (options_.metadata_inference) DeriveMetadata();
  return *metadata_;
}

void Papyrus::DeriveMetadata() {
  base::AssertEngineThread("Papyrus::DeriveMetadata");
  struct Entry {
    ObservationKey key;
    const task::TaskHistoryRecord* record;
  };
  std::vector<std::pair<int, activity::DesignThread*>> threads;
  for (int id : activity_->ThreadIds()) {
    threads.emplace_back(id, *activity_->GetThread(id));
  }
  // Start over when a record already observed is gone or rewritten: a
  // thread changed its records, or vanished (ids are never reused).
  bool rederive = false;
  size_t kept = 0;
  for (const auto& [id, thread] : threads) {
    auto seen = observed_threads_.find(id);
    if (seen == observed_threads_.end()) continue;
    ++kept;
    rederive |= seen->second.revision != thread->record_revision();
  }
  rederive |= kept != observed_threads_.size();
  // The records to observe, in observation order: all of them, or those
  // appended since the last read (node ids only grow).
  auto collect = [&](bool all) {
    std::vector<Entry> entries;
    for (const auto& [id, thread] : threads) {
      activity::NodeId after = activity::kInitialPoint;
      auto seen = observed_threads_.find(id);
      if (!all && seen != observed_threads_.end()) {
        after = seen->second.last_node;
      }
      const auto& nodes = thread->nodes();
      for (auto it = nodes.upper_bound(after); it != nodes.end(); ++it) {
        const activity::HistoryNode& node = it->second;
        if (node.is_junction || node.record.task_name.empty()) continue;
        entries.push_back({{node.appended_micros, id, it->first},
                           &node.record});
      }
    }
    std::sort(entries.begin(), entries.end(),
              [](const Entry& a, const Entry& b) { return a.key < b.key; });
    return entries;
  };
  std::vector<Entry> entries = collect(rederive);
  if (!rederive && !entries.empty() && entries.front().key < last_observed_) {
    // A new record sorts before one already observed: appending it would
    // observe out of order.
    rederive = true;
    entries = collect(true);
  }
  if (rederive) {
    metadata_->Reset();
    last_observed_ = kNothingObserved;
  }
  for (const Entry& e : entries) (void)metadata_->Observe(*e.record);
  if (!entries.empty()) last_observed_ = entries.back().key;
  observed_threads_.clear();
  for (const auto& [id, thread] : threads) {
    const auto& nodes = thread->nodes();
    observed_threads_[id] = {
        thread->record_revision(),
        nodes.empty() ? activity::kInitialPoint : nodes.rbegin()->first};
  }
}

void Papyrus::RecordApplied(int64_t request_id, int thread_id,
                            activity::NodeId node) {
  applied_[request_id] = {thread_id, node};
  unjournaled_applied_.push_back(request_id);
}

const Papyrus::AppliedRequest* Papyrus::FindApplied(
    int64_t request_id) const {
  auto it = applied_.find(request_id);
  return it == applied_.end() ? nullptr : &it->second;
}

Status Papyrus::LoadLegacySnapshot(const std::string& directory) {
  // The whole-file formats are the section formats, so the files map
  // straight onto sections: the database is one big "db" section.
  const std::filesystem::path dir(directory);
  std::map<std::string, std::string> sections;
  PAPYRUS_ASSIGN_OR_RETURN(sections["db/all"],
                           storage::ReadFile(dir / "database.pdb"));
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    if (entry.path().extension() != ".pth") continue;
    PAPYRUS_ASSIGN_OR_RETURN(
        sections["thread/" + entry.path().filename().string()],
        storage::ReadFile(entry.path()));
  }
  // Optional: pre-cache snapshots and non-daemon sessions lack these.
  auto cache = storage::ReadFile(dir / "cache.pdc");
  if (cache.ok()) sections[kCacheSection] = std::move(*cache);
  auto state = storage::ReadFile(dir / kLegacyStateFile);
  if (state.ok()) sections[kStateSection] = std::move(*state);
  return RestoreEngineSections(sections);
}

Status Papyrus::OpenStorage(const std::string& directory) {
  base::AssertEngineThread("Papyrus::OpenStorage");
  trace_.Begin(obs::kSessionPid, 0, "storage_open", "snapshot",
               {obs::TraceArg::Str("directory", directory)});
  Status st = OpenStorageImpl(directory);
  trace_.End(obs::kSessionPid, 0, {obs::TraceArg::Bool("ok", st.ok())});
  return st;
}

Status Papyrus::OpenStorageImpl(const std::string& directory) {
  if (store_) {
    return Status::FailedPrecondition("storage engine already open");
  }
  if (db_->TotalVersionCount() != 0 || !activity_->ThreadIds().empty()) {
    return Status::FailedPrecondition(
        "OpenStorage requires a fresh session");
  }
  auto store = std::make_unique<storage::SessionStore>();
  PAPYRUS_ASSIGN_OR_RETURN(storage::SessionStore::OpenResult opened,
                           store->Open(directory));
  store_ = std::move(store);
  last_restore_stats_ = activity::RestoreStats();
  using Layout = storage::SessionStore::Layout;
  switch (opened.layout) {
    case Layout::kEmpty:
      break;
    case Layout::kEngine:
      PAPYRUS_RETURN_IF_ERROR(RestoreEngineSections(opened.sections));
      break;
    case Layout::kLegacySnapDir:
    case Layout::kLegacyFlat:
      // One-time migration: the whole-file snapshot loads through the
      // legacy reader; the next SaveGeneration writes every section (none
      // are in the — empty — engine manifest) and the directory is native
      // from then on.
      PAPYRUS_RETURN_IF_ERROR(LoadLegacySnapshot(opened.legacy_dir));
      break;
  }
  // The restored sections are what the manifest carries; the records the
  // WAL tail replays note their sections (ApplyWalRecord), which the next
  // generation rewrites, so a stale section file is never carried past a
  // WAL base that covers replayed records. A version-3 log applies only
  // whole batches: records after its last commit record are a torn batch.
  size_t whole = opened.wal.size();
  if (opened.wal_version >= 3) {
    whole = 0;
    for (size_t i = 0; i < opened.wal.size(); ++i) {
      if (opened.wal[i].body == kCommitRecord) whole = i + 1;
    }
  }
  for (size_t i = 0; i < whole; ++i) {
    const storage::WalRecord& rec = opened.wal[i];
    Status applied = ApplyWalRecord(rec.body, opened.wal_version);
    if (!applied.ok()) {
      return Status(applied.code(), "WAL record " + std::to_string(rec.seq) +
                                        ": " + applied.message());
    }
  }
  const int64_t torn = static_cast<int64_t>(opened.wal.size() - whole);
  // Restore and replay applied already-durable state: nothing here needs
  // re-journaling.
  DiscardAllWalDirt();
  known_threads_.clear();
  for (int id : activity_->ThreadIds()) known_threads_.insert(id);
  last_restore_stats_.records_restored += static_cast<int64_t>(whole);
  last_restore_stats_.records_dropped += torn;
  last_restore_stats_.truncated |= opened.wal_truncated || torn > 0;
  if (whole > 0) {
    metrics_.FindOrCreateCounter(obs::kWalReplayedRecords)
        ->Increment(static_cast<int64_t>(whole));
  }
  if (opened.wal_dropped_bytes > 0) {
    metrics_.FindOrCreateCounter(obs::kWalTruncatedBytes)
        ->Increment(opened.wal_dropped_bytes);
  }
  if (opened.layout != Layout::kEmpty) {
    metrics_.FindOrCreateCounter(obs::kSnapshotLoads)->Increment();
  }
  if (opened.wal_version < storage::kWalVersion || torn > 0) {
    // An older log never receives records of the current format (its
    // reader would drop the child links they imply), and a new batch
    // appended behind a torn one would replay with it: fold the log into
    // a generation, whose WAL reset starts a fresh current-format log.
    PAPYRUS_RETURN_IF_ERROR(WriteGeneration());
  }
  // The restored derivations are durable by definition. Publish the ones
  // the shared store lacks: those a crash kept from their post-save
  // flush, or every one when the store was wiped.
  step_cache_->FlushSharedPublications();
  SyncStorageMetrics();
  return Status::OK();
}

Status Papyrus::RestoreEngineSections(
    const std::map<std::string, std::string>& sections) {
  // Database shards first; threads and the cache reference its versions.
  // Every restore adds its report to last_restore_stats_.
  for (const auto& [name, text] : sections) {
    if (!StartsWith(name, "db/")) continue;
    PAPYRUS_RETURN_IF_ERROR(activity::RestoreDatabaseInto(
        text, db_.get(), &last_restore_stats_));
  }
  for (const auto& [name, text] : sections) {
    if (!StartsWith(name, "thread/")) continue;
    PAPYRUS_ASSIGN_OR_RETURN(
        auto thread,
        activity::RestoreThread(text, &clock_, &last_restore_stats_));
    PAPYRUS_RETURN_IF_ERROR(activity_->AdoptThread(std::move(thread)));
  }
  auto cache_it = sections.find(kCacheSection);
  if (cache_it != sections.end()) {
    PAPYRUS_RETURN_IF_ERROR(activity::RestoreDerivationCache(
        cache_it->second, step_cache_.get(), &last_restore_stats_));
  }
  auto state_it = sections.find(kStateSection);
  if (state_it != sections.end()) {
    std::string_view text = state_it->second;
    size_t nl = text.find('\n');
    if (text.substr(0, nl) != kStateHeader) {
      return Status::Internal("bad session state header");
    }
    while (nl != std::string_view::npos) {
      text.remove_prefix(nl + 1);
      nl = text.find('\n');
      FieldCursor line(text.substr(0, nl));
      PAPYRUS_RETURN_IF_ERROR(ApplyStateFields(line));
    }
  }
  return Status::OK();
}

std::string Papyrus::StateSectionText() const {
  std::string out = std::string(kStateHeader) + "\nclock " +
                    std::to_string(clock_.NowMicros()) + "\nnextexec " +
                    std::to_string(task_manager_->next_execution_id()) +
                    "\n";
  for (const auto& [request_id, where] : applied_) {
    out += AppliedLine(request_id, where) + "\n";
  }
  return out;
}

Status Papyrus::ApplyStateFields(FieldCursor& f) {
  const std::string_view keyword = f.Next();
  const size_t arity = keyword == "clock" || keyword == "nextexec" ? 1
                       : keyword == "applied"                      ? 3
                                                                   : 0;
  int64_t v[3] = {0, 0, 0};
  size_t n = 0;
  bool parsed = true;
  for (std::string_view arg = f.Next(); !arg.empty(); arg = f.Next(), ++n) {
    if (n < arity) parsed &= ParseInt64(arg, &v[n]);
  }
  // Unknown lines are skipped for forward compatibility.
  if (arity == 0 || n != arity) return Status::OK();
  if (!parsed) {
    return Status::Internal("bad " + std::string(keyword) +
                            " line in session state");
  }
  if (keyword == "clock") {
    // The restored history's timestamps end here; new work must
    // continue from the same virtual instant for byte-identity.
    clock_.SetMicros(v[0]);
  } else if (keyword == "nextexec") {
    task_manager_->set_next_execution_id(static_cast<int>(v[0]));
  } else {
    applied_[v[0]] = {static_cast<int>(v[1]),
                      static_cast<activity::NodeId>(v[2])};
  }
  return Status::OK();
}

Status Papyrus::ApplyWalRecord(std::string_view body, int wal_version) {
  FieldCursor f(body);
  const std::string_view tag = f.Next();
  auto bad = [&] {
    return Status::InvalidArgument("bad WAL record: " + std::string(body));
  };
  if (tag.empty()) {
    return Status::InvalidArgument("empty WAL record");
  }
  if (tag == kCommitRecord) return Status::OK();
  if (tag == "object") {
    FieldCursor line(body);
    PAPYRUS_ASSIGN_OR_RETURN(oct::ObjectRecord rec,
                             activity::ParseObjectRecord(line));
    journaled_.NoteObject(rec.id.name);
    return db_->UpsertRecord(std::move(rec));
  }
  if (tag == "state") {
    journaled_.state = true;
    return ApplyStateFields(f);
  }
  if (tag == "cput") {
    PAPYRUS_ASSIGN_OR_RETURN(
        cache::CacheEntry entry,
        activity::ParseCacheEntryRecord(f.rest(), wal_version));
    journaled_.cache = true;
    // Like snapshot restore, entries whose output versions did not
    // survive are skipped — they could only have missed.
    (void)step_cache_->Restore(std::move(entry));
    return Status::OK();
  }
  if (tag == "cdel") {
    std::string key;
    if (!f.Field(&key)) return bad();
    journaled_.cache = true;
    step_cache_->ForgetEntry(key);
    return Status::OK();
  }
  int id = 0;
  if (!StartsWith(tag, "thr") || !f.Int(&id)) {
    return Status::InvalidArgument("unrecognized WAL record: " +
                                   std::string(tag));
  }
  if (tag == "thrnew") {
    std::string name;
    int interval = 0;
    if (!f.Field(&name) || !f.Int(&interval)) return bad();
    journaled_.threads.insert(id);
    auto thread =
        std::make_unique<activity::DesignThread>(id, std::move(name), &clock_);
    thread->set_cache_interval(interval);
    return activity_->AdoptThread(std::move(thread));
  }
  if (tag == "thrrm") return activity_->RemoveThread(id);
  if (tag != "thr" && tag != "thrdel" && tag != "thrchk" &&
      tag != "thrmeta") {
    return Status::InvalidArgument("unrecognized WAL record: " +
                                   std::string(tag));
  }
  journaled_.threads.insert(id);
  PAPYRUS_ASSIGN_OR_RETURN(activity::DesignThread * thread,
                           activity_->GetThread(id));
  if (tag == "thr") {
    PAPYRUS_ASSIGN_OR_RETURN(
        activity::HistoryNode node,
        activity::ParseNodeRecord(f.rest(), wal_version));
    return thread->UpsertNode(std::move(node));
  }
  if (tag == "thrdel") {
    activity::NodeId node = 0;
    if (!f.Int(&node)) return bad();
    return thread->ForgetNode(node);
  }
  if (tag == "thrchk") {
    oct::ObjectId obj;
    if (!f.Field(&obj.name) || !f.Int(&obj.version)) return bad();
    thread->CheckIn(obj);
    return Status::OK();
  }
  activity::NodeId cursor = 0, next_node_id = 0;
  int interval = 0;
  if (!f.Int(&cursor) || !f.Int(&interval) || !f.Int(&next_node_id)) {
    return bad();
  }
  thread->set_cache_interval(interval);
  return thread->ReplayMeta(cursor, next_node_id);
}

Status Papyrus::CommitWal() {
  base::AssertEngineThread("Papyrus::CommitWal");
  if (!store_) {
    return Status::FailedPrecondition("storage engine not open");
  }
  // Drain order is fixed — database records, thread deltas, cache
  // entries, session state — so replay sees objects before the history
  // and cache records that reference them, and an applied-ledger entry
  // only with its history node. Each record notes its section for the
  // next generation, as replay does (ApplyWalRecord).
  size_t batch = 0;
  auto journal = [&](const std::string& body) {
    store_->AppendWal(body);
    ++batch;
  };
  db_->DrainWalDirt([&](const oct::ObjectRecord& rec) {
    journal(activity::EncodeObjectRecord(rec));
    journaled_.NoteObject(rec.id.name);
  });
  const std::vector<int> live = activity_->ThreadIds();
  const std::set<int> live_set(live.begin(), live.end());
  for (auto it = known_threads_.begin(); it != known_threads_.end();) {
    if (live_set.count(*it) != 0) {
      ++it;
      continue;
    }
    journal("thrrm " + std::to_string(*it));
    it = known_threads_.erase(it);
  }
  for (int id : live) {
    auto thread_or = activity_->GetThread(id);
    if (!thread_or.ok()) continue;
    activity::DesignThread* t = *thread_or;
    const std::string tid = std::to_string(id);
    auto journal_node = [&](const activity::HistoryNode& node) {
      journal(activity::NodeRecord("thr " + tid, node));
    };
    auto journal_checkin = [&](const oct::ObjectId& obj) {
      journal("thrchk " + tid + " " + EncodeField(obj.name) + " " +
              std::to_string(obj.version));
    };
    // Last in a thread's batch so the cursor's node exists when it replays.
    auto journal_meta = [&] {
      journal("thrmeta " + tid + " " + std::to_string(t->current_cursor()) +
              " " + std::to_string(t->cache_interval()) + " " +
              std::to_string(t->next_node_id()));
    };
    if (known_threads_.count(id) == 0) {
      // First commit of a new thread: journal it whole.
      journaled_.threads.insert(id);
      journal("thrnew " + tid + " " + EncodeField(t->name()) + " " +
              std::to_string(t->cache_interval()));
      for (const auto& [node_id, node] : t->nodes()) journal_node(node);
      for (const oct::ObjectId& obj : t->checkins()) journal_checkin(obj);
      journal_meta();
      t->DiscardWalDirt();
      known_threads_.insert(id);
      continue;
    }
    if (!t->HasWalDirt()) continue;
    journaled_.threads.insert(id);
    activity::DesignThread::WalDirt dirt = t->DrainWalDirt();
    for (activity::NodeId node_id : dirt.deleted) {
      journal("thrdel " + tid + " " + std::to_string(node_id));
    }
    for (activity::NodeId node_id : dirt.upserts) {
      auto node = t->GetNode(node_id);
      if (node.ok()) journal_node(**node);
    }
    for (const oct::ObjectId& obj : dirt.checkins) journal_checkin(obj);
    if (dirt.meta) journal_meta();
  }
  step_cache_->DrainWalDirt(
      [&](const std::string& key) {
        journal("cdel " + EncodeField(key));
        journaled_.cache = true;
      },
      [&](const std::string& key, const cache::CacheEntry& entry) {
        (void)key;  // replay recomputes it from the entry's components
        journal(activity::CacheEntryRecord("cput", entry));
        journaled_.cache = true;
      });
  // State records carry only what moved since the last commit.
  auto journal_state = [&](const std::string& line) {
    journal("state " + line);
    journaled_.state = true;
  };
  if (clock_.NowMicros() != wal_clock_) {
    wal_clock_ = clock_.NowMicros();
    journal_state("clock " + std::to_string(wal_clock_));
  }
  if (task_manager_->next_execution_id() != wal_next_execution_id_) {
    wal_next_execution_id_ = task_manager_->next_execution_id();
    journal_state("nextexec " + std::to_string(wal_next_execution_id_));
  }
  for (int64_t request_id : unjournaled_applied_) {
    journal_state(AppliedLine(request_id, applied_.at(request_id)));
  }
  unjournaled_applied_.clear();
  if (batch > 0) store_->AppendWal(kCommitRecord);
  PAPYRUS_ASSIGN_OR_RETURN(int64_t bytes, store_->CommitWal());
  (void)bytes;
  SyncStorageMetrics();
  return Status::OK();
}

Status Papyrus::SaveGeneration() {
  base::AssertEngineThread("Papyrus::SaveGeneration");
  if (!store_) {
    return Status::FailedPrecondition("storage engine not open");
  }
  trace_.Begin(obs::kSessionPid, 0, "snapshot_generation", "snapshot",
               {obs::TraceArg::Str("directory", store_->dir())});
  Status st = SaveGenerationImpl();
  trace_.End(obs::kSessionPid, 0, {obs::TraceArg::Bool("ok", st.ok())});
  return st;
}

Status Papyrus::SaveGenerationImpl() {
  // The WAL commit is the durability point: sections never contain state
  // the journal does not cover, so a crash between any two steps of the
  // generation write recovers byte-identically under either manifest.
  PAPYRUS_RETURN_IF_ERROR(CommitWal());
  return WriteGeneration();
}

Status Papyrus::WriteGeneration() {
  const std::map<std::string, std::string> current =
      store_->CurrentSectionFiles();
  std::map<std::string, std::string> dirty;
  std::vector<std::string> live;
  // A live section is rewritten when a WAL record journaled or replayed
  // since the last generation touched it, or when the current manifest
  // does not carry it at all (first generation, legacy migration).
  auto rewrite = [&](const std::string& name, bool journaled) {
    live.push_back(name);
    return journaled || current.count(name) == 0;
  };
  for (int i = 0; i < oct::OctDatabase::kShardCount; ++i) {
    const std::string name = DbSectionName(i);
    if (rewrite(name, (journaled_.db_shards >> i) & 1u)) {
      dirty[name] = activity::SerializeDatabaseShard(*db_, i);
    }
  }
  for (int id : activity_->ThreadIds()) {
    auto thread_or = activity_->GetThread(id);
    if (!thread_or.ok()) continue;
    const std::string name = ThreadSectionName(id);
    if (rewrite(name, journaled_.threads.count(id) != 0)) {
      dirty[name] = activity::SerializeThread(**thread_or);
    }
  }
  if (rewrite(kCacheSection, journaled_.cache)) {
    dirty[kCacheSection] = activity::SerializeDerivationCache(*step_cache_);
  }
  if (rewrite(kStateSection, journaled_.state)) {
    dirty[kStateSection] = StateSectionText();
  }
  PAPYRUS_RETURN_IF_ERROR(store_->SaveGeneration(dirty, live));
  journaled_ = JournaledSections();
  SyncStorageMetrics();
  return Status::OK();
}

void Papyrus::DiscardAllWalDirt() {
  db_->DiscardWalDirt();
  for (int id : activity_->ThreadIds()) {
    auto thread_or = activity_->GetThread(id);
    if (thread_or.ok()) (*thread_or)->DiscardWalDirt();
  }
  step_cache_->DiscardWalDirt();
  wal_clock_ = clock_.NowMicros();
  wal_next_execution_id_ = task_manager_->next_execution_id();
  unjournaled_applied_.clear();
}

void Papyrus::SyncStorageMetrics() {
  if (!store_) return;
  auto sync = [&](const char* name, int64_t stat) {
    obs::Counter* c = metrics_.FindOrCreateCounter(name);
    c->Increment(stat - c->value());
  };
  const storage::WriteAheadLog::Stats& w = store_->wal_stats();
  sync(obs::kWalRecords, w.records_appended);
  sync(obs::kWalCommits, w.commits);
  sync(obs::kWalSyncs, w.syncs);
  sync(obs::kWalBytesWritten, w.bytes_written);
  sync(obs::kWalResets, w.resets);
  const storage::SessionStore::SaveStats& s = store_->save_stats();
  sync(obs::kSnapshotGenerations, s.generations);
  sync(obs::kSnapshotSectionsWritten, s.sections_written);
  sync(obs::kSnapshotSectionsReused, s.sections_reused);
  sync(obs::kSnapshotFilesPruned, s.files_pruned);
}

Result<oct::ObjectId> Papyrus::CheckInObject(const std::string& path,
                                             oct::DesignPayload payload) {
  base::AssertEngineThread("Papyrus::CheckInObject");
  if (path.empty() || path[0] != '/') {
    return Status::InvalidArgument(
        "check-in names must be absolute paths (got \"" + path + "\")");
  }
  return db_->CreateVersion(path, std::move(payload));
}

}  // namespace papyrus
