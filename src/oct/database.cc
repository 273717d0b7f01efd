#include "oct/database.h"

#include "base/strings.h"
#include "base/thread_annotations.h"

namespace papyrus::oct {

namespace {

uint64_t DirtyKey(base::Symbol sym, int version) {
  return (static_cast<uint64_t>(sym) << 32) |
         static_cast<uint32_t>(version);
}

}  // namespace

int OctDatabase::ShardOf(std::string_view name) {
  size_t cell_end = name.find_first_of(":.");
  std::string_view cell =
      cell_end == std::string_view::npos ? name : name.substr(0, cell_end);
  return static_cast<int>(Fnv1a(cell) &
                          static_cast<uint64_t>(kShardCount - 1));
}

OctDatabase::OctDatabase(Clock* clock) : clock_(clock) {}

void OctDatabase::set_observability(const obs::Observability& sinks) {
  obs_ = sinks;
  if (obs_.metrics != nullptr) {
    // Registry counters are shared (a daemon's spans every session), so
    // a newly bound registry gets this database's total added to it.
    obs::Counter* created =
        obs_.metrics->FindOrCreateCounter(obs::kOctVersionsCreated);
    if (created != c_versions_created_) created->Increment(total_versions_);
    c_versions_created_ = created;
    c_reclaimed_ = obs_.metrics->FindOrCreateCounter(obs::kOctReclaimed);
    g_live_bytes_ = obs_.metrics->FindOrCreateGauge(obs::kOctLiveBytes);
    g_live_bytes_->Set(TotalLiveBytes());
  } else {
    c_versions_created_ = c_reclaimed_ = nullptr;
    g_live_bytes_ = nullptr;
  }
  if (obs_.trace != nullptr) {
    obs_.trace->SetProcessName(obs::kSessionPid, "papyrus session");
    obs_.trace->SetThreadName(obs::kSessionPid, kOctTrackTid,
                              "oct database");
  }
}

void OctDatabase::MarkDirty(int shard, base::Symbol sym, int version) {
  ++shards_[shard].seq;
  uint64_t key = DirtyKey(sym, version);
  if (wal_dirty_keys_.insert(key).second) {
    wal_dirty_.emplace_back(sym, version);
  }
}

Result<ObjectId> OctDatabase::CreateVersion(const std::string& name,
                                            DesignPayload payload,
                                            const std::string& creator_tool) {
  base::AssertEngineThread("OctDatabase::CreateVersion");
  if (name.empty()) {
    return Status::InvalidArgument("object name must not be empty");
  }
  base::Symbol sym = names_.Intern(name);
  int shard = ShardOf(name);
  std::vector<ObjectRecord>& versions = shards_[shard].objects[sym];
  ObjectRecord rec;
  rec.id = ObjectId{name, static_cast<int>(versions.size()) + 1};
  rec.size_bytes = PayloadSizeBytes(payload);
  rec.payload = std::move(payload);
  rec.creator_tool = creator_tool;
  rec.created_micros = clock_->NowMicros();
  rec.last_access_micros = rec.created_micros;
  versions.push_back(std::move(rec));
  ++total_versions_;
  MarkDirty(shard, sym, versions.back().id.version);
  if (c_versions_created_ != nullptr) c_versions_created_->Increment();
  if (g_live_bytes_ != nullptr) {
    g_live_bytes_->Add(versions.back().size_bytes);
  }
  if (obs_.trace != nullptr) {
    obs_.trace->Instant(
        obs::kSessionPid, kOctTrackTid, "version_created", "oct",
        {obs::TraceArg::Str("object", versions.back().id.ToString()),
         obs::TraceArg::Str("tool", creator_tool),
         obs::TraceArg::Int("bytes", versions.back().size_bytes)});
  }
  return versions.back().id;
}

ObjectRecord* OctDatabase::Find(const ObjectId& id) {
  base::Symbol sym = names_.Find(id.name);
  if (sym == base::kNoSymbol) return nullptr;
  Shard& shard = shards_[ShardOf(id.name)];
  auto it = shard.objects.find(sym);
  if (it == shard.objects.end()) return nullptr;
  if (id.version < 1 ||
      id.version > static_cast<int>(it->second.size())) {
    return nullptr;
  }
  return &it->second[id.version - 1];
}

const ObjectRecord* OctDatabase::Find(const ObjectId& id) const {
  return const_cast<OctDatabase*>(this)->Find(id);
}

Result<const ObjectRecord*> OctDatabase::Get(const ObjectId& id) {
  ObjectRecord* rec = Find(id);
  if (rec == nullptr) {
    return Status::NotFound("no such object: " + id.ToString());
  }
  if (!rec->visible) {
    return Status::NotFound("object is not visible: " + id.ToString());
  }
  if (rec->reclaimed) {
    return Status::NotFound("object was reclaimed: " + id.ToString());
  }
  // The access-time bump is persisted state (it drives §5.4 aging), so a
  // read dirties the record for the journal.
  rec->last_access_micros = clock_->NowMicros();
  MarkDirty(ShardOf(id.name), names_.Find(id.name), id.version);
  return static_cast<const ObjectRecord*>(rec);
}

Result<const ObjectRecord*> OctDatabase::Peek(const ObjectId& id) const {
  const ObjectRecord* rec = Find(id);
  if (rec == nullptr) {
    return Status::NotFound("no such object: " + id.ToString());
  }
  return rec;
}

int64_t OctDatabase::PayloadBytes(const ObjectId& id) const {
  const ObjectRecord* rec = Find(id);
  return rec == nullptr ? 0 : rec->size_bytes;
}

Result<std::string> OctDatabase::ContentHash(const ObjectId& id) {
  base::AssertEngineThread("OctDatabase::ContentHash");
  ObjectRecord* rec = Find(id);
  if (rec == nullptr) {
    return Status::NotFound("no such object: " + id.ToString());
  }
  if (rec->reclaimed) {
    return Status::FailedPrecondition("object was reclaimed: " +
                                      id.ToString());
  }
  if (rec->content_hash.empty()) {
    // Memoized runtime state: no dirty mark, the hash is derivable.
    rec->content_hash = PayloadContentHash(rec->payload);
  }
  return rec->content_hash;
}

Result<ObjectId> OctDatabase::LatestVisible(const std::string& name) const {
  base::Symbol sym = names_.Find(name);
  const Shard& shard = shards_[ShardOf(name)];
  auto it = sym == base::kNoSymbol ? shard.objects.end()
                                   : shard.objects.find(sym);
  if (it == shard.objects.end()) {
    return Status::NotFound("no such object: " + name);
  }
  for (auto rit = it->second.rbegin(); rit != it->second.rend(); ++rit) {
    if (rit->visible && !rit->reclaimed) return rit->id;
  }
  return Status::NotFound("no visible version of: " + name);
}

int OctDatabase::VersionCount(const std::string& name) const {
  base::Symbol sym = names_.Find(name);
  if (sym == base::kNoSymbol) return 0;
  const Shard& shard = shards_[ShardOf(name)];
  auto it = shard.objects.find(sym);
  return it == shard.objects.end() ? 0
                                   : static_cast<int>(it->second.size());
}

Status OctDatabase::MarkInvisible(const ObjectId& id) {
  base::AssertEngineThread("OctDatabase::MarkInvisible");
  ObjectRecord* rec = Find(id);
  if (rec == nullptr) {
    return Status::NotFound("no such object: " + id.ToString());
  }
  rec->visible = false;
  MarkDirty(ShardOf(id.name), names_.Find(id.name), id.version);
  return Status::OK();
}

Status OctDatabase::MarkVisible(const ObjectId& id) {
  base::AssertEngineThread("OctDatabase::MarkVisible");
  ObjectRecord* rec = Find(id);
  if (rec == nullptr) {
    return Status::NotFound("no such object: " + id.ToString());
  }
  if (rec->reclaimed) {
    return Status::FailedPrecondition("cannot undelete reclaimed object: " +
                                      id.ToString());
  }
  rec->visible = true;
  MarkDirty(ShardOf(id.name), names_.Find(id.name), id.version);
  return Status::OK();
}

Status OctDatabase::Reclaim(const ObjectId& id) {
  base::AssertEngineThread("OctDatabase::Reclaim");
  ObjectRecord* rec = Find(id);
  if (rec == nullptr) {
    return Status::NotFound("no such object: " + id.ToString());
  }
  if (rec->reclaimed) return Status::OK();
  if (rec->pin_count > 0 && pinned_reclaim_handler_) {
    // Give the pin holder a chance to drop dependent state (cache entries)
    // and release its claim; the handler may invalidate many pins at once.
    pinned_reclaim_handler_(id);
    rec = Find(id);
  }
  if (rec->pin_count > 0) {
    return Status::FailedPrecondition("object is pinned: " + id.ToString());
  }
  if (c_reclaimed_ != nullptr) c_reclaimed_->Increment();
  if (g_live_bytes_ != nullptr) g_live_bytes_->Add(-rec->size_bytes);
  if (obs_.trace != nullptr) {
    obs_.trace->Instant(obs::kSessionPid, kOctTrackTid,
                        "version_reclaimed", "oct",
                        {obs::TraceArg::Str("object", id.ToString()),
                         obs::TraceArg::Int("bytes", rec->size_bytes)});
  }
  rec->payload = std::monostate{};
  rec->reclaimed = true;
  rec->visible = false;
  MarkDirty(ShardOf(id.name), names_.Find(id.name), id.version);
  return Status::OK();
}

Status OctDatabase::Pin(const ObjectId& id) {
  base::AssertEngineThread("OctDatabase::Pin");
  ObjectRecord* rec = Find(id);
  if (rec == nullptr) {
    return Status::NotFound("no such object: " + id.ToString());
  }
  if (rec->reclaimed) {
    return Status::FailedPrecondition("cannot pin reclaimed object: " +
                                      id.ToString());
  }
  ++rec->pin_count;
  return Status::OK();
}

void OctDatabase::Unpin(const ObjectId& id) {
  base::AssertEngineThread("OctDatabase::Unpin");
  ObjectRecord* rec = Find(id);
  if (rec != nullptr && rec->pin_count > 0) --rec->pin_count;
}

bool OctDatabase::IsPinned(const ObjectId& id) const {
  const ObjectRecord* rec = Find(id);
  return rec != nullptr && rec->pin_count > 0;
}

bool OctDatabase::Exists(const ObjectId& id) const {
  return Find(id) != nullptr;
}

int64_t OctDatabase::TotalLiveBytes() const {
  int64_t sum = 0;
  ForEach([&](const ObjectRecord& rec) {
    if (!rec.reclaimed) sum += rec.size_bytes;
  });
  return sum;
}

int64_t OctDatabase::LiveVersionCount() const {
  int64_t n = 0;
  ForEach([&](const ObjectRecord& rec) {
    if (!rec.reclaimed) ++n;
  });
  return n;
}

void OctDatabase::ForEach(
    const std::function<void(const ObjectRecord&)>& fn) const {
  for (int shard = 0; shard < kShardCount; ++shard) {
    ForEachShard(shard, fn);
  }
}

void OctDatabase::ForEachShard(
    int shard, const std::function<void(const ObjectRecord&)>& fn) const {
  for (const auto& [sym, versions] : shards_[shard].objects) {
    for (const ObjectRecord& rec : versions) fn(rec);
  }
}

Status OctDatabase::InsertRecord(ObjectRecord record, bool mark_wal_dirty) {
  if (record.id.name.empty() || record.id.version < 1) {
    return Status::InvalidArgument("restored record has an invalid id");
  }
  base::Symbol sym = names_.Intern(record.id.name);
  int shard = ShardOf(record.id.name);
  std::vector<ObjectRecord>& versions = shards_[shard].objects[sym];
  if (record.id.version <= static_cast<int>(versions.size())) {
    // Upsert of an existing slot: exact journaled state wins, runtime-only
    // bookkeeping (pins, content-hash memo) survives.
    ObjectRecord& slot = versions[record.id.version - 1];
    record.pin_count = slot.pin_count;
    if (record.content_hash.empty()) {
      record.content_hash = std::move(slot.content_hash);
    }
    if (g_live_bytes_ != nullptr) {
      int64_t before = slot.reclaimed ? 0 : slot.size_bytes;
      int64_t after = record.reclaimed ? 0 : record.size_bytes;
      g_live_bytes_->Add(after - before);
    }
    if (c_reclaimed_ != nullptr && record.reclaimed && !slot.reclaimed) {
      c_reclaimed_->Increment();
    }
    slot = std::move(record);
    ++shards_[shard].seq;
    if (mark_wal_dirty) MarkDirty(shard, sym, slot.id.version);
    return Status::OK();
  }
  if (record.id.version != static_cast<int>(versions.size()) + 1) {
    return Status::FailedPrecondition(
        "records of " + record.id.name +
        " must be restored in version order (got version " +
        std::to_string(record.id.version) + ", expected " +
        std::to_string(versions.size() + 1) + ")");
  }
  const ObjectRecord& restored = versions.emplace_back(std::move(record));
  ++total_versions_;
  ++shards_[shard].seq;
  if (mark_wal_dirty) MarkDirty(shard, sym, restored.id.version);
  if (c_versions_created_ != nullptr) c_versions_created_->Increment();
  if (g_live_bytes_ != nullptr && !restored.reclaimed) {
    g_live_bytes_->Add(restored.size_bytes);
  }
  return Status::OK();
}

Status OctDatabase::RestoreRecord(ObjectRecord record) {
  base::AssertEngineThread("OctDatabase::RestoreRecord");
  // Strict version order, exactly as the whole-file restore always
  // demanded: an existing slot is a format error here.
  base::Symbol sym = names_.Find(record.id.name);
  if (sym != base::kNoSymbol) {
    const Shard& shard = shards_[ShardOf(record.id.name)];
    auto it = shard.objects.find(sym);
    if (it != shard.objects.end() &&
        record.id.version <= static_cast<int>(it->second.size())) {
      return Status::FailedPrecondition(
          "records of " + record.id.name +
          " must be restored in version order (got version " +
          std::to_string(record.id.version) + ", expected " +
          std::to_string(it->second.size() + 1) + ")");
    }
  }
  return InsertRecord(std::move(record), /*mark_wal_dirty=*/false);
}

Status OctDatabase::UpsertRecord(ObjectRecord record) {
  base::AssertEngineThread("OctDatabase::UpsertRecord");
  return InsertRecord(std::move(record), /*mark_wal_dirty=*/false);
}

bool OctDatabase::HasWalDirt() const { return !wal_dirty_.empty(); }

void OctDatabase::DrainWalDirt(
    const std::function<void(const ObjectRecord&)>& fn) {
  base::AssertEngineThread("OctDatabase::DrainWalDirt");
  for (const auto& [sym, version] : wal_dirty_) {
    const Shard& shard =
        shards_[ShardOf(names_.StringOf(sym))];
    auto it = shard.objects.find(sym);
    if (it == shard.objects.end() ||
        version > static_cast<int>(it->second.size())) {
      continue;  // unreachable today: versions are never deleted
    }
    fn(it->second[version - 1]);
  }
  wal_dirty_.clear();
  wal_dirty_keys_.clear();
}

void OctDatabase::DiscardWalDirt() {
  base::AssertEngineThread("OctDatabase::DiscardWalDirt");
  wal_dirty_.clear();
  wal_dirty_keys_.clear();
}

void Transaction::StageCreate(const std::string& name, DesignPayload payload,
                              const std::string& creator_tool) {
  staged_.push_back(Staged{name, std::move(payload), creator_tool});
}

Result<std::vector<ObjectId>> Transaction::Commit() {
  std::vector<ObjectId> created;
  created.reserve(staged_.size());
  for (Staged& s : staged_) {
    auto id = db_->CreateVersion(s.name, std::move(s.payload),
                                 s.creator_tool);
    if (!id.ok()) {
      // Roll back already-applied creations by reclaiming them: versions
      // are never reused, so tombstones keep numbering consistent.
      for (const ObjectId& done : created) {
        (void)db_->Reclaim(done);
      }
      staged_.clear();
      return id.status();
    }
    created.push_back(*id);
  }
  staged_.clear();
  return created;
}

}  // namespace papyrus::oct
