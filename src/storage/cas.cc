#include "storage/cas.h"

#include <filesystem>
#include <sstream>

#include "base/hash.h"
#include "base/macros.h"
#include "base/strings.h"
#include "storage/atomic_file.h"

namespace papyrus::storage {

namespace {

constexpr char kStateFile[] = "cas.state";
constexpr char kJournalFile[] = "cas.journal";
constexpr char kLockFile[] = "cas.lock";
constexpr char kStateHeader[] = "papyrus-cas v1";
/// Trace track under the session process group (0 = session, 1 = oct
/// database, 2 = fault injector).
constexpr int64_t kCasTrackTid = 3;

/// A well-formed blob hash as produced by Sha256Hex.
bool LooksLikeHash(const std::string& s) {
  if (s.size() != 2 * Sha256::kDigestBytes) return false;
  for (char c : s) {
    if (!(('0' <= c && c <= '9') || ('a' <= c && c <= 'f'))) return false;
  }
  return true;
}

}  // namespace

ContentStore::ContentStore(std::string root, const CasOptions& options)
    : root_(std::move(root)), options_(options) {}

ContentStore::~ContentStore() = default;

Result<std::unique_ptr<ContentStore>> ContentStore::Open(
    const std::string& root, const CasOptions& options) {
  std::error_code ec;
  std::filesystem::create_directories(
      std::filesystem::path(root) / "blobs", ec);
  if (ec) {
    return Status::Internal("cannot create CAS directory " + root + ": " +
                            ec.message());
  }
  std::unique_ptr<ContentStore> store(new ContentStore(root, options));
  base::MutexLock lock(store->mu_);
  std::filesystem::path dir(root);
  Journal::Options journal;
  journal.path = (dir / kJournalFile).string();
  journal.checkpoint_path = (dir / kStateFile).string();
  journal.checkpoint_header = kStateHeader;
  // Always shared: every papyrusd worker on a root opens the same store.
  journal.lock_path = (dir / kLockFile).string();
  ContentStore* raw = store.get();
  auto apply = [raw](std::string_view body) {
    raw->ReplayLine(body);
    return true;
  };
  auto reload = [raw] { raw->ClearIndex(); };
  PAPYRUS_ASSIGN_OR_RETURN(
      std::unique_ptr<FileLock> flock,
      store->journal_.Open(std::move(journal), apply, reload));

  // An entry whose blob file vanished (partial crash, manual damage) can
  // never be fetched; drop it now so the index matches the disk.
  std::vector<std::string> broken;
  for (const auto& [key, entry] : store->entries_) {
    for (const CasOutput& out : entry.outputs) {
      if (!std::filesystem::exists(store->BlobPath(out.blob_hash), ec)) {
        broken.push_back(key);
        break;
      }
    }
  }
  for (const std::string& key : broken) {
    (void)store->DropEntry(key, /*journal=*/false);
  }

  PAPYRUS_RETURN_IF_ERROR(store->CollectOrphans());

  // Checkpoint the recovered state: the journal restarts empty and the
  // orphan collection above becomes durable.
  PAPYRUS_RETURN_IF_ERROR(store->Compact());
  return store;
}

std::string ContentStore::BlobPath(const std::string& hash) const {
  return (std::filesystem::path(root_) / "blobs" / hash.substr(0, 2) / hash)
      .string();
}

std::string ContentStore::PutRecord(const std::string& key,
                                    const Entry& entry) {
  std::ostringstream body;
  body << "put " << EncodeField(key) << ' ' << EncodeField(entry.meta.tool)
       << ' ' << EncodeField(entry.meta.tool_version) << ' '
       << EncodeField(entry.meta.canonical_options) << ' '
       << HexU64(entry.meta.seed_salt) << ' ' << entry.meta.cost_micros
       << ' ' << entry.lru_seq << ' ' << entry.outputs.size();
  for (const CasOutput& out : entry.outputs) {
    body << ' ' << EncodeField(out.name_hint) << ' ' << (out.visible ? 1 : 0)
         << ' ' << out.blob_hash << ' ' << out.size_bytes;
  }
  return body.str();
}

void ContentStore::ReplayLine(std::string_view line) {
  std::vector<std::string> f = SplitWhitespace(line);
  if (f.empty()) return;
  if (f[0] == "seq" && f.size() == 2) {
    int64_t seq = 0;
    if (ParseInt64(f[1], &seq)) next_lru_seq_ = std::max(next_lru_seq_, seq);
  } else if (f[0] == "put" && f.size() >= 9) {
    Entry entry;
    std::string key = DecodeField(f[1]);
    entry.meta.tool = DecodeField(f[2]);
    entry.meta.tool_version = DecodeField(f[3]);
    entry.meta.canonical_options = DecodeField(f[4]);
    int64_t nout = 0;
    if (!ParseHexU64(f[5], &entry.meta.seed_salt) ||
        !ParseInt64(f[6], &entry.meta.cost_micros) ||
        !ParseInt64(f[7], &entry.lru_seq) || !ParseInt64(f[8], &nout) ||
        nout < 0 || f.size() < 9 + 4 * static_cast<size_t>(nout)) {
      return;
    }
    for (int64_t i = 0; i < nout; ++i) {
      size_t at = 9 + 4 * static_cast<size_t>(i);
      CasOutput out;
      out.name_hint = DecodeField(f[at]);
      out.visible = f[at + 1] == "1";
      out.blob_hash = f[at + 2];
      if (!LooksLikeHash(out.blob_hash) ||
          !ParseInt64(f[at + 3], &out.size_bytes)) {
        return;
      }
      entry.outputs.push_back(std::move(out));
    }
    next_lru_seq_ = std::max(next_lru_seq_, entry.lru_seq + 1);
    // A sibling's publication must not hide behind a negative entry.
    negative_.erase(key);
    (void)DropEntry(key, /*journal=*/false);
    IndexEntry(key, std::move(entry));
  } else if (f[0] == "del" && f.size() == 2) {
    (void)DropEntry(DecodeField(f[1]), /*journal=*/false);
  } else if (f[0] == "touch" && f.size() == 3) {
    int64_t seq = 0;
    auto it = entries_.find(DecodeField(f[1]));
    if (it != entries_.end() && ParseInt64(f[2], &seq)) {
      it->second.lru_seq = seq;
      next_lru_seq_ = std::max(next_lru_seq_, seq + 1);
    }
  }
  // Unknown records are skipped, not fatal.
}

void ContentStore::ClearIndex() {
  entries_.clear();
  blobs_.clear();
  total_bytes_ = 0;
}

Status ContentStore::CollectOrphans() {
  std::error_code ec;
  std::filesystem::path blobs_dir = std::filesystem::path(root_) / "blobs";
  std::vector<std::filesystem::path> orphans;
  for (const auto& shard :
       std::filesystem::directory_iterator(blobs_dir, ec)) {
    if (!shard.is_directory()) continue;
    for (const auto& file :
         std::filesystem::directory_iterator(shard.path(), ec)) {
      std::string hash = file.path().filename().string();
      if (blobs_.count(hash) == 0) orphans.push_back(file.path());
    }
  }
  for (const std::filesystem::path& path : orphans) {
    std::filesystem::remove(path, ec);
    ++stats_.orphans_collected;
  }
  return Status::OK();
}

Status ContentStore::Compact() {
  std::vector<std::string> lines = {"seq " + std::to_string(next_lru_seq_)};
  for (const auto& [key, entry] : entries_) {
    lines.push_back(PutRecord(key, entry));
  }
  return journal_.Checkpoint(lines);
}

Status ContentStore::MaybeCheckpoint() {
  if (options_.checkpoint_interval <= 0 ||
      journal_.lines() < options_.checkpoint_interval) {
    return Status::OK();
  }
  return Compact();
}

void ContentStore::IndexEntry(const std::string& key, Entry entry) {
  for (const CasOutput& out : entry.outputs) {
    Blob& blob = blobs_[out.blob_hash];
    if (blob.refs == 0) {
      blob.size_bytes = out.size_bytes;
      total_bytes_ += out.size_bytes;
    }
    ++blob.refs;
  }
  entries_[key] = std::move(entry);
}

int64_t ContentStore::DropEntry(const std::string& key, bool journal) {
  auto it = entries_.find(key);
  if (it == entries_.end()) return 0;
  // Journal before effect: the drop is durable before any file goes.
  if (journal) (void)journal_.CommitLine("del " + EncodeField(key));
  int64_t freed = 0;
  std::error_code ec;
  for (const CasOutput& out : it->second.outputs) {
    auto bit = blobs_.find(out.blob_hash);
    if (bit == blobs_.end()) continue;
    if (--bit->second.refs == 0) {
      // Last reference: only now may the blob file go. A blob still
      // ref'd by any other entry is never reclaimed.
      freed += bit->second.size_bytes;
      total_bytes_ -= bit->second.size_bytes;
      if (journal) std::filesystem::remove(BlobPath(out.blob_hash), ec);
      blobs_.erase(bit);
    }
  }
  entries_.erase(it);
  return freed;
}

void ContentStore::EnforceBudget(const std::string& keep) {
  if (options_.size_budget_bytes <= 0) return;
  while (total_bytes_ > options_.size_budget_bytes) {
    const std::string* victim = nullptr;
    int64_t oldest = 0;
    for (const auto& [key, entry] : entries_) {
      if (key == keep) continue;
      if (victim == nullptr || entry.lru_seq < oldest) {
        victim = &key;
        oldest = entry.lru_seq;
      }
    }
    if (victim == nullptr) return;  // nothing left but the protected entry
    std::string victim_key = *victim;
    int64_t freed = DropEntry(victim_key, /*journal=*/true);
    ++stats_.evicted_entries;
    stats_.evicted_bytes += freed;
    if (c_evicted_entries_ != nullptr) c_evicted_entries_->Increment();
    if (c_evicted_bytes_ != nullptr) c_evicted_bytes_->Increment(freed);
    if (obs_.trace != nullptr) {
      obs_.trace->Instant(obs::kSessionPid, kCasTrackTid, "cas_evict",
                          "cas",
                          {obs::TraceArg::Int("freed_bytes", freed)});
    }
  }
}

bool ContentStore::NegativeHit(const std::string& key) {
  if (negative_.count(key) == 0) return false;
  ++stats_.neg_hits;
  if (c_neg_hits_ != nullptr) c_neg_hits_->Increment();
  return true;
}

void ContentStore::RememberAbsent(const std::string& key) {
  constexpr size_t kNegativeCap = 4096;
  if (!negative_.insert(key).second) return;
  negative_fifo_.push_back(key);
  while (negative_.size() > kNegativeCap && !negative_fifo_.empty()) {
    // Deque entries Publish already invalidated are strays; skip them.
    negative_.erase(negative_fifo_.front());
    negative_fifo_.pop_front();
  }
}

Status ContentStore::Publish(const std::string& key,
                             const CasEntryMeta& meta,
                             const std::vector<CasPublishOutput>& outputs) {
  base::MutexLock lock(mu_);
  PAPYRUS_ASSIGN_OR_RETURN(std::unique_ptr<FileLock> flock, journal_.Sync());
  // The key is about to exist: a stale negative entry must never mask it.
  negative_.erase(key);
  Entry entry;
  entry.meta = meta;
  entry.lru_seq = next_lru_seq_++;
  int64_t entry_bytes = 0;
  for (const CasPublishOutput& out : outputs) {
    CasOutput stored;
    stored.name_hint = out.name_hint;
    stored.visible = out.visible;
    stored.blob_hash = Sha256Hex(out.bytes);
    stored.size_bytes = static_cast<int64_t>(out.bytes.size());
    entry_bytes += stored.size_bytes;
    entry.outputs.push_back(std::move(stored));
  }

  auto existing = entries_.find(key);
  if (existing != entries_.end()) {
    bool same = existing->second.outputs.size() == entry.outputs.size();
    for (size_t i = 0; same && i < entry.outputs.size(); ++i) {
      same = existing->second.outputs[i].blob_hash ==
             entry.outputs[i].blob_hash;
    }
    if (same) {
      // Re-derivation of known content (another session ran the same
      // step): nothing to store, the whole entry deduplicates.
      stats_.dedup_bytes += entry_bytes;
      if (c_dedup_bytes_ != nullptr) c_dedup_bytes_->Increment(entry_bytes);
      existing->second.lru_seq = entry.lru_seq;
      PAPYRUS_RETURN_IF_ERROR(journal_.CommitLine(
          "touch " + EncodeField(key) + ' ' + std::to_string(entry.lru_seq)));
      RefreshGauges();
      return MaybeCheckpoint();
    }
    // Same key, different bytes: the prior entry is stale (or was
    // produced by a nondeterministic tool) — replace it.
    (void)DropEntry(key, /*journal=*/true);
  }

  // Blob files land before the journal record that makes the entry
  // exist; a crash in between leaves orphans for Open() to collect.
  std::error_code ec;
  for (size_t i = 0; i < entry.outputs.size(); ++i) {
    const CasOutput& stored = entry.outputs[i];
    if (blobs_.count(stored.blob_hash) != 0) {
      stats_.dedup_bytes += stored.size_bytes;
      if (c_dedup_bytes_ != nullptr) {
        c_dedup_bytes_->Increment(stored.size_bytes);
      }
      continue;
    }
    std::string path = BlobPath(stored.blob_hash);
    if (std::filesystem::exists(path, ec)) continue;  // crash leftover
    std::filesystem::create_directories(
        std::filesystem::path(path).parent_path(), ec);
    PAPYRUS_RETURN_IF_ERROR(AtomicWriteFile(path, outputs[i].bytes));
    stats_.bytes_written += stored.size_bytes;
    if (c_bytes_written_ != nullptr) {
      c_bytes_written_->Increment(stored.size_bytes);
    }
  }
  PAPYRUS_RETURN_IF_ERROR(journal_.CommitLine(PutRecord(key, entry)));
  IndexEntry(key, std::move(entry));
  ++stats_.published;
  if (c_published_ != nullptr) c_published_->Increment();
  EnforceBudget(key);
  RefreshGauges();
  return MaybeCheckpoint();
}

Result<CasFetchResult> ContentStore::Fetch(const std::string& key) {
  base::MutexLock lock(mu_);
  PAPYRUS_ASSIGN_OR_RETURN(std::unique_ptr<FileLock> flock, journal_.Sync());
  if (NegativeHit(key)) {
    ++stats_.misses;
    if (c_misses_ != nullptr) c_misses_->Increment();
    return Status::NotFound("no CAS entry for key (negative-cached)");
  }
  auto it = entries_.find(key);
  if (it == entries_.end()) {
    ++stats_.misses;
    if (c_misses_ != nullptr) c_misses_->Increment();
    RememberAbsent(key);
    return Status::NotFound("no CAS entry for key");
  }
  CasFetchResult result;
  result.meta = it->second.meta;
  for (const CasOutput& out : it->second.outputs) {
    auto bytes = ReadFile(BlobPath(out.blob_hash));
    if (!bytes.ok() || Sha256Hex(*bytes) != out.blob_hash) {
      // Bit rot (or a missing file): never hand out unverified bytes.
      // Dropping the entry makes the caller re-run the tool and
      // republish clean content.
      ++stats_.verify_failures;
      if (c_verify_failures_ != nullptr) c_verify_failures_->Increment();
      if (obs_.trace != nullptr) {
        obs_.trace->Instant(
            obs::kSessionPid, kCasTrackTid, "cas_verify_failure", "cas",
            {obs::TraceArg::Str("blob", out.blob_hash)});
      }
      (void)DropEntry(key, /*journal=*/true);
      RefreshGauges();
      return Status::Aborted("CAS blob failed hash verification");
    }
    CasFetchedOutput fetched;
    fetched.name_hint = out.name_hint;
    fetched.visible = out.visible;
    fetched.blob_hash = out.blob_hash;
    fetched.bytes = std::move(*bytes);
    result.outputs.push_back(std::move(fetched));
  }
  it->second.lru_seq = next_lru_seq_++;
  (void)journal_.CommitLine("touch " + EncodeField(key) + ' ' +
                            std::to_string(it->second.lru_seq));
  ++stats_.hits;
  if (c_hits_ != nullptr) c_hits_->Increment();
  (void)MaybeCheckpoint();
  return result;
}

bool ContentStore::Contains(const std::string& key) {
  base::MutexLock lock(mu_);
  if (!journal_.Sync().ok() || NegativeHit(key)) return false;
  if (entries_.count(key) != 0) return true;
  RememberAbsent(key);
  return false;
}

Status ContentStore::Checkpoint() {
  base::MutexLock lock(mu_);
  PAPYRUS_ASSIGN_OR_RETURN(std::unique_ptr<FileLock> flock, journal_.Sync());
  return Compact();
}

CasStats ContentStore::stats() {
  base::MutexLock lock(mu_);
  CasStats snapshot = stats_;
  snapshot.entries = static_cast<int64_t>(entries_.size());
  snapshot.blobs = static_cast<int64_t>(blobs_.size());
  snapshot.live_blobs = 0;
  snapshot.evictable_blobs = 0;
  for (const auto& [hash, blob] : blobs_) {
    if (blob.refs >= 2) {
      ++snapshot.live_blobs;
    } else {
      ++snapshot.evictable_blobs;
    }
  }
  snapshot.total_bytes = total_bytes_;
  snapshot.neg_entries = static_cast<int64_t>(negative_.size());
  snapshot.journal_syncs = journal_.stats().syncs;
  return snapshot;
}

void ContentStore::RefreshGauges() {
  if (g_entries_ != nullptr) {
    g_entries_->Set(static_cast<int64_t>(entries_.size()));
  }
  if (g_blobs_ != nullptr) {
    g_blobs_->Set(static_cast<int64_t>(blobs_.size()));
  }
  if (g_bytes_ != nullptr) g_bytes_->Set(total_bytes_);
}

void ContentStore::set_observability(const obs::Observability& sinks) {
  base::MutexLock lock(mu_);
  obs_ = sinks;
  if (obs_.metrics != nullptr) {
    c_hits_ = obs_.metrics->FindOrCreateCounter(obs::kCasHits);
    c_misses_ = obs_.metrics->FindOrCreateCounter(obs::kCasMisses);
    c_published_ = obs_.metrics->FindOrCreateCounter(obs::kCasPublished);
    c_dedup_bytes_ =
        obs_.metrics->FindOrCreateCounter(obs::kCasDedupBytes);
    c_bytes_written_ =
        obs_.metrics->FindOrCreateCounter(obs::kCasBytesWritten);
    c_evicted_entries_ =
        obs_.metrics->FindOrCreateCounter(obs::kCasEvictedEntries);
    c_evicted_bytes_ =
        obs_.metrics->FindOrCreateCounter(obs::kCasEvictedBytes);
    c_verify_failures_ =
        obs_.metrics->FindOrCreateCounter(obs::kCasVerifyFailures);
    c_orphans_ =
        obs_.metrics->FindOrCreateCounter(obs::kCasOrphansCollected);
    c_neg_hits_ = obs_.metrics->FindOrCreateCounter(obs::kCasNegHits);
    g_entries_ = obs_.metrics->FindOrCreateGauge(obs::kCasEntries);
    g_blobs_ = obs_.metrics->FindOrCreateGauge(obs::kCasBlobs);
    g_bytes_ = obs_.metrics->FindOrCreateGauge(obs::kCasStoreBytes);
    // Surface state accumulated before the sinks were attached (orphan
    // GC at Open, the recovered index shape).
    c_orphans_->Increment(stats_.orphans_collected - c_orphans_->value());
    RefreshGauges();
  } else {
    c_hits_ = c_misses_ = c_published_ = c_dedup_bytes_ = nullptr;
    c_bytes_written_ = c_evicted_entries_ = c_evicted_bytes_ = nullptr;
    c_verify_failures_ = c_orphans_ = c_neg_hits_ = nullptr;
    g_entries_ = g_blobs_ = nullptr;
    g_bytes_ = nullptr;
  }
  if (obs_.trace != nullptr) {
    obs_.trace->SetThreadName(obs::kSessionPid, kCasTrackTid,
                              "cas store");
  }
}

}  // namespace papyrus::storage
