#include "core/papyrus.h"

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

int ParseIntField(const std::string& s) {
  return static_cast<int>(ParseI64(s));
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
  if (options.metadata_inference) {
    activity_->set_record_sink([this](const task::TaskHistoryRecord& rec) {
      (void)metadata_->Observe(rec);
    });
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
  if (!state_hooks_.legacy_file.empty()) {
    auto state = storage::ReadFile(dir / state_hooks_.legacy_file);
    if (state.ok()) sections[kStateSection] = std::move(*state);
  }
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
  // Baselines are captured *before* the WAL tail replays so the sections
  // it touches register as dirty and compact into the next generation —
  // a stale section file is never carried past a WAL base that covers
  // replayed records.
  CaptureGenerationBaselines();
  for (const storage::WalRecord& rec : opened.wal) {
    PAPYRUS_RETURN_IF_ERROR(ApplyWalRecord(rec.body));
  }
  // Restore and replay applied already-durable state: nothing here needs
  // re-journaling.
  DiscardAllWalDirt();
  known_threads_.clear();
  for (int id : activity_->ThreadIds()) known_threads_.insert(id);
  last_restore_stats_.records_restored +=
      static_cast<int64_t>(opened.wal.size());
  last_restore_stats_.truncated |= opened.wal_truncated;
  if (!opened.wal.empty()) {
    metrics_.FindOrCreateCounter(obs::kWalReplayedRecords)
        ->Increment(static_cast<int64_t>(opened.wal.size()));
  }
  if (opened.wal_dropped_bytes > 0) {
    metrics_.FindOrCreateCounter(obs::kWalTruncatedBytes)
        ->Increment(opened.wal_dropped_bytes);
  }
  if (opened.layout != Layout::kEmpty) {
    metrics_.FindOrCreateCounter(obs::kSnapshotLoads)->Increment();
  }
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
    if (state_hooks_.restore) {
      PAPYRUS_RETURN_IF_ERROR(state_hooks_.restore(state_it->second));
    }
    // Kept even without a restore hook so the section carries over to
    // the next generation instead of silently vanishing.
    last_state_text_ = state_it->second;
  }
  return Status::OK();
}

Status Papyrus::ApplyWalRecord(const std::string& body) {
  std::vector<std::string> f = SplitWhitespace(body);
  if (f.empty()) {
    return Status::InvalidArgument("empty WAL record");
  }
  const std::string& tag = f[0];
  if (tag == "object") {
    PAPYRUS_ASSIGN_OR_RETURN(oct::ObjectRecord rec,
                             activity::ParseObjectRecord(f));
    return db_->UpsertRecord(std::move(rec));
  }
  if (tag == "state") {
    if (!state_hooks_.replay) return Status::OK();
    return state_hooks_.replay(body.size() > 6 ? body.substr(6) : "");
  }
  if (tag == "cput" && f.size() >= 2) {
    PAPYRUS_ASSIGN_OR_RETURN(cache::CacheEntry entry,
                             activity::DecodeCacheEntry(DecodeField(f[1])));
    // Like snapshot restore, entries whose output versions did not
    // survive are skipped — they could only have missed.
    (void)step_cache_->Restore(std::move(entry));
    return Status::OK();
  }
  if (tag == "cdel" && f.size() >= 2) {
    step_cache_->ForgetEntry(DecodeField(f[1]));
    return Status::OK();
  }
  if (tag == "thrnew" && f.size() >= 4) {
    auto thread = std::make_unique<activity::DesignThread>(
        ParseIntField(f[1]), DecodeField(f[2]), &clock_);
    thread->set_cache_interval(ParseIntField(f[3]));
    return activity_->AdoptThread(std::move(thread));
  }
  if (tag == "thrrm" && f.size() >= 2) {
    return activity_->RemoveThread(ParseIntField(f[1]));
  }
  if ((tag == "thr" || tag == "thrdel" || tag == "thrchk" ||
       tag == "thrmeta") &&
      f.size() >= 3) {
    PAPYRUS_ASSIGN_OR_RETURN(activity::DesignThread * thread,
                             activity_->GetThread(ParseIntField(f[1])));
    if (tag == "thr") {
      return activity::ApplyNodeBlock(DecodeField(f[2]), thread);
    }
    if (tag == "thrdel") {
      return thread->ForgetNode(ParseIntField(f[2]));
    }
    if (tag == "thrchk" && f.size() >= 4) {
      thread->CheckIn(
          oct::ObjectId{DecodeField(f[2]), ParseIntField(f[3])});
      return Status::OK();
    }
    if (tag == "thrmeta" && f.size() >= 5) {
      thread->set_cache_interval(ParseIntField(f[3]));
      return thread->ReplayMeta(ParseIntField(f[2]), ParseIntField(f[4]));
    }
  }
  return Status::InvalidArgument("unrecognized WAL record: " + tag);
}

Status Papyrus::CommitWal() {
  base::AssertEngineThread("Papyrus::CommitWal");
  if (!store_) {
    return Status::FailedPrecondition("storage engine not open");
  }
  // Drain order is fixed — database records, thread deltas, cache
  // entries, embedder state — so replay sees objects before the history
  // and cache records that reference them.
  db_->DrainWalDirt([&](const oct::ObjectRecord& rec) {
    store_->AppendWal(activity::EncodeObjectRecord(rec));
  });
  const std::vector<int> live = activity_->ThreadIds();
  const std::set<int> live_set(live.begin(), live.end());
  for (auto it = known_threads_.begin(); it != known_threads_.end();) {
    if (live_set.count(*it) != 0) {
      ++it;
      continue;
    }
    store_->AppendWal("thrrm " + std::to_string(*it));
    it = known_threads_.erase(it);
  }
  for (int id : live) {
    auto thread_or = activity_->GetThread(id);
    if (!thread_or.ok()) continue;
    activity::DesignThread* t = *thread_or;
    const std::string tid = std::to_string(id);
    auto journal_node = [&](const activity::HistoryNode& node) {
      store_->AppendWal("thr " + tid + " " +
                        EncodeField(activity::EncodeNodeBlock(node)));
    };
    auto journal_checkin = [&](const oct::ObjectId& obj) {
      store_->AppendWal("thrchk " + tid + " " + EncodeField(obj.name) + " " +
                        std::to_string(obj.version));
    };
    // Last in a thread's batch so the cursor's node exists when it replays.
    auto journal_meta = [&] {
      store_->AppendWal("thrmeta " + tid + " " +
                        std::to_string(t->current_cursor()) + " " +
                        std::to_string(t->cache_interval()) + " " +
                        std::to_string(t->next_node_id()));
    };
    if (known_threads_.count(id) == 0) {
      // First commit of a new thread: journal it whole.
      store_->AppendWal("thrnew " + tid + " " + EncodeField(t->name()) + " " +
                        std::to_string(t->cache_interval()));
      for (const auto& [node_id, node] : t->nodes()) journal_node(node);
      for (const oct::ObjectId& obj : t->checkins()) journal_checkin(obj);
      journal_meta();
      t->DiscardWalDirt();
      known_threads_.insert(id);
      continue;
    }
    if (!t->HasWalDirt()) continue;
    activity::DesignThread::WalDirt dirt = t->DrainWalDirt();
    for (activity::NodeId node_id : dirt.deleted) {
      store_->AppendWal("thrdel " + tid + " " + std::to_string(node_id));
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
        store_->AppendWal("cdel " + EncodeField(key));
      },
      [&](const std::string& key, const cache::CacheEntry& entry) {
        (void)key;  // replay recomputes it from the entry's components
        store_->AppendWal("cput " +
                          EncodeField(activity::EncodeCacheEntry(entry)));
      });
  if (state_hooks_.drain) {
    for (const std::string& state_body : state_hooks_.drain()) {
      store_->AppendWal("state " + state_body);
    }
  }
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
  // the journal does not cover, so a crash between any two steps below
  // recovers byte-identically under either manifest.
  PAPYRUS_RETURN_IF_ERROR(CommitWal());
  const std::map<std::string, std::string> current =
      store_->CurrentSectionFiles();
  std::map<std::string, std::string> dirty;
  std::vector<std::string> live;
  // A section is dirty when its mutation sequence moved since the last
  // generation, or when the current manifest does not carry it at all
  // (first generation, legacy migration, WAL-replayed sections).
  for (int i = 0; i < oct::OctDatabase::kShardCount; ++i) {
    const std::string name = DbSectionName(i);
    live.push_back(name);
    if (db_->ShardSeq(i) != db_shard_base_[i] || current.count(name) == 0) {
      dirty[name] = activity::SerializeDatabaseShard(*db_, i);
    }
  }
  for (int id : activity_->ThreadIds()) {
    auto thread_or = activity_->GetThread(id);
    if (!thread_or.ok()) continue;
    const std::string name = ThreadSectionName(id);
    live.push_back(name);
    auto base = thread_seq_base_.find(id);
    if (base == thread_seq_base_.end() ||
        base->second != (*thread_or)->mutation_seq() ||
        current.count(name) == 0) {
      dirty[name] = activity::SerializeThread(**thread_or);
    }
  }
  live.push_back(kCacheSection);
  if (step_cache_->mutation_seq() != cache_seq_base_ ||
      current.count(kCacheSection) == 0) {
    dirty[kCacheSection] = activity::SerializeDerivationCache(*step_cache_);
  }
  std::string state_text =
      state_hooks_.section ? state_hooks_.section() : last_state_text_;
  if (state_hooks_.section || !last_state_text_.empty()) {
    live.push_back(kStateSection);
    if (state_text != last_state_text_ ||
        current.count(kStateSection) == 0) {
      dirty[kStateSection] = state_text;
    }
  }
  PAPYRUS_RETURN_IF_ERROR(store_->SaveGeneration(dirty, live));
  CaptureGenerationBaselines();
  last_state_text_ = std::move(state_text);
  SyncStorageMetrics();
  return Status::OK();
}

void Papyrus::CaptureGenerationBaselines() {
  for (int i = 0; i < oct::OctDatabase::kShardCount; ++i) {
    db_shard_base_[i] = db_->ShardSeq(i);
  }
  thread_seq_base_.clear();
  for (int id : activity_->ThreadIds()) {
    auto thread_or = activity_->GetThread(id);
    if (thread_or.ok()) {
      thread_seq_base_[id] = (*thread_or)->mutation_seq();
    }
  }
  cache_seq_base_ = step_cache_->mutation_seq();
}

void Papyrus::DiscardAllWalDirt() {
  db_->DiscardWalDirt();
  for (int id : activity_->ThreadIds()) {
    auto thread_or = activity_->GetThread(id);
    if (thread_or.ok()) (*thread_or)->DiscardWalDirt();
  }
  step_cache_->DiscardWalDirt();
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
