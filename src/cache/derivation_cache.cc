#include "cache/derivation_cache.h"

#include <sstream>

#include "base/hash.h"
#include "base/strings.h"

namespace papyrus::cache {
namespace {

// Field separator for the key string. Object names are user/tool derived
// and never contain control characters, so \x1f cannot collide.
constexpr char kSep = '\x1f';

}  // namespace

std::string DerivationCache::CanonicalizeOptions(
    const std::string& options,
    const std::vector<std::string>& input_names,
    const std::vector<std::string>& output_names) {
  std::vector<std::string> words = SplitWhitespace(options);
  for (std::string& word : words) {
    bool replaced = false;
    for (size_t i = 0; i < input_names.size() && !replaced; ++i) {
      if (word == input_names[i]) {
        word = "$i" + std::to_string(i);
        replaced = true;
      }
    }
    for (size_t i = 0; i < output_names.size() && !replaced; ++i) {
      if (word == output_names[i]) {
        word = "$o" + std::to_string(i);
        replaced = true;
      }
    }
  }
  return Join(words, " ");
}

std::string DerivationCache::MakeKey(
    const std::string& tool, const std::string& tool_version,
    const std::string& canonical_options, uint64_t seed_salt,
    const std::vector<oct::ObjectId>& inputs) {
  std::ostringstream os;
  os << tool << kSep << tool_version << kSep << canonical_options << kSep
     << std::hex << seed_salt;
  for (const oct::ObjectId& id : inputs) {
    os << kSep << id.name << '@' << std::dec << id.version;
  }
  return os.str();
}

std::string DerivationCache::MakeContentKey(
    const std::string& tool, const std::string& tool_version,
    const std::string& canonical_options, uint64_t seed_salt,
    const std::vector<std::string>& input_content_hashes) {
  Sha256 hasher;
  // A format tag versions the key derivation itself: changing how keys
  // are built must never alias entries published by older builds.
  hasher.Update("papyrus-content-key-v1");
  std::ostringstream head;
  head << kSep << tool << kSep << tool_version << kSep << canonical_options
       << kSep << std::hex << seed_salt;
  hasher.Update(head.str());
  for (const std::string& hash : input_content_hashes) {
    hasher.Update(std::string(1, kSep));
    hasher.Update(hash);
  }
  return hasher.FinishHex();
}

void DerivationCache::AttachSharedStore(storage::ContentStore* store,
                                        bool auto_publish, bool probe) {
  base::MutexLock lock(mu_);
  store_ = store;
  auto_publish_ = auto_publish;
  probe_shared_ = probe;
  unpublished_.clear();
}

std::optional<SharedFetch> DerivationCache::ProbeShared(
    const std::string& content_key) {
  storage::ContentStore* store;
  {
    base::MutexLock lock(mu_);
    if (store_ == nullptr || !probe_shared_ || !enabled_ ||
        content_key.empty()) {
      return std::nullopt;
    }
    store = store_;
  }
  // The store locks itself; fetching outside mu_ keeps the cache free for
  // concurrent session threads during blob reads.
  auto fetched = store->Fetch(content_key);
  SharedFetch result;
  bool usable = fetched.ok();
  if (usable) {
    result.cost_micros = fetched->meta.cost_micros;
    for (const storage::CasFetchedOutput& out : fetched->outputs) {
      auto payload = oct::DecodePayloadText(out.bytes);
      if (!payload.ok()) {
        // Verified bytes that no longer decode mean a format skew, not
        // damage; treat as a miss and let the tool re-run.
        usable = false;
        break;
      }
      result.outputs.push_back(
          SharedFetchedOutput{out.name_hint, out.visible,
                              std::move(*payload)});
    }
  }
  base::MutexLock lock(mu_);
  if (!usable) {
    ++stats_.shared_misses;
    return std::nullopt;
  }
  ++stats_.shared_hits;
  stats_.micros_saved += result.cost_micros;
  if (c_micros_saved_ != nullptr) {
    c_micros_saved_->Increment(result.cost_micros);
  }
  return result;
}

void DerivationCache::PublishSharedLocked(const CacheEntry& entry) {
  if (store_ == nullptr || entry.content_key.empty()) return;
  storage::CasEntryMeta meta;
  meta.tool = entry.tool;
  meta.tool_version = entry.tool_version;
  meta.canonical_options = entry.canonical_options;
  meta.seed_salt = entry.seed_salt;
  meta.cost_micros = entry.cost_micros;
  std::vector<storage::CasPublishOutput> outputs;
  outputs.reserve(entry.outputs.size());
  for (const CachedOutput& out : entry.outputs) {
    auto rec = db_->Peek(out.id);
    if (!rec.ok() || (*rec)->reclaimed) return;  // no longer publishable
    storage::CasPublishOutput pub;
    pub.name_hint = out.id.name;
    pub.visible = out.visible;
    pub.bytes = oct::EncodePayloadText((*rec)->payload);
    outputs.push_back(std::move(pub));
  }
  (void)store_->Publish(entry.content_key, meta, outputs);
}

void DerivationCache::FlushSharedPublications() {
  base::MutexLock lock(mu_);
  if (store_ == nullptr) {
    unpublished_.clear();
    return;
  }
  for (const std::string& key : unpublished_) {
    auto it = entries_.find(key);
    if (it != entries_.end()) PublishSharedLocked(it->second);
  }
  unpublished_.clear();
}

void DerivationCache::set_observability(const obs::Observability& sinks) {
  // Lock-discipline fix: this used to read `stats_` and write the counter
  // mirror pointers without `mu_`, racing with pool-era callers of
  // Probe/Record on another session thread.
  base::MutexLock lock(mu_);
  if (sinks.metrics == nullptr) {
    c_hits_ = c_misses_ = c_recorded_ = c_invalidated_ = c_micros_saved_ =
        nullptr;
    return;
  }
  // Registry counters are shared (a daemon's spans every session): a
  // newly bound registry gets this cache's totals added to it.
  auto bind = [&sinks](obs::Counter* current, const char* name,
                       int64_t accumulated) {
    obs::Counter* c = sinks.metrics->FindOrCreateCounter(name);
    if (c != current) c->Increment(accumulated);
    return c;
  };
  c_hits_ = bind(c_hits_, obs::kCacheHits, stats_.hits);
  c_misses_ = bind(c_misses_, obs::kCacheMisses, stats_.misses);
  c_recorded_ = bind(c_recorded_, obs::kCacheRecorded, stats_.recorded);
  c_invalidated_ =
      bind(c_invalidated_, obs::kCacheInvalidated, stats_.invalidated);
  c_micros_saved_ =
      bind(c_micros_saved_, obs::kCacheMicrosSaved, stats_.micros_saved);
}

const CacheEntry* DerivationCache::Probe(const std::string& key) {
  base::MutexLock lock(mu_);
  if (!enabled_) return nullptr;
  auto it = entries_.find(key);
  if (it == entries_.end()) {
    ++stats_.misses;
    if (c_misses_ != nullptr) c_misses_->Increment();
    return nullptr;
  }
  for (const CachedOutput& out : it->second.outputs) {
    auto rec = db_->Peek(out.id);
    bool servable = rec.ok() && !(*rec)->reclaimed &&
                    (!out.visible || (*rec)->visible);
    if (!servable) {
      // A stale entry: something slipped past the invalidation hooks
      // (e.g. a task-level output was later deleted). Treat the probe as
      // the invalidation point.
      DropEntry(key);
      ++stats_.invalidated;
      ++stats_.misses;
      if (c_invalidated_ != nullptr) c_invalidated_->Increment();
      if (c_misses_ != nullptr) c_misses_->Increment();
      return nullptr;
    }
  }
  ++stats_.hits;
  stats_.micros_saved += it->second.cost_micros;
  if (c_hits_ != nullptr) c_hits_->Increment();
  if (c_micros_saved_ != nullptr) {
    c_micros_saved_->Increment(it->second.cost_micros);
  }
  return &it->second;
}

bool DerivationCache::Record(const std::string& key, CacheEntry entry) {
  base::MutexLock lock(mu_);
  return RecordLocked(key, std::move(entry));
}

bool DerivationCache::RecordLocked(const std::string& key,
                                   CacheEntry entry) {
  for (CachedOutput& out : entry.outputs) {
    auto rec = db_->Peek(out.id);
    if (!rec.ok() || (*rec)->reclaimed) return false;
    out.visible = (*rec)->visible;
  }
  auto it = entries_.find(key);
  if (it != entries_.end()) DropEntry(key);
  for (const CachedOutput& out : entry.outputs) {
    db_->Pin(out.id);
    by_version_[out.id].insert(key);
  }
  for (const oct::ObjectId& in : entry.inputs) {
    by_version_[in].insert(key);
  }
  auto [inserted, ok] = entries_.emplace(key, std::move(entry));
  TouchPut(key);
  ++stats_.recorded;
  if (c_recorded_ != nullptr) c_recorded_->Increment();
  if (store_ != nullptr && !inserted->second.content_key.empty()) {
    if (auto_publish_) {
      // Standalone session: commit is this process's durability point, so
      // the derivation becomes shareable immediately.
      PublishSharedLocked(inserted->second);
    } else {
      // Daemon session: hold publication until the snapshot carrying this
      // entry durably lands (FlushSharedPublications), so a crash cannot
      // leak outputs of a commit that never survived.
      unpublished_.insert(key);
    }
  }
  return true;
}

bool DerivationCache::Restore(CacheEntry entry) {
  // Sequence the key computation before the move: function arguments are
  // indeterminately ordered, so passing MakeKey(entry...) alongside
  // std::move(entry) could read a moved-from entry.
  std::string key = MakeKey(entry.tool, entry.tool_version,
                            entry.canonical_options, entry.seed_salt,
                            entry.inputs);
  base::MutexLock lock(mu_);
  return RecordLocked(key, std::move(entry));
}

void DerivationCache::OnVersionReclaimed(const oct::ObjectId& id) {
  base::MutexLock lock(mu_);
  InvalidateVersionLocked(id);
}

void DerivationCache::InvalidateVersionLocked(const oct::ObjectId& id) {
  auto it = by_version_.find(id);
  if (it == by_version_.end()) return;
  // DropEntry mutates by_version_; detach the key set first.
  std::set<std::string> keys = std::move(it->second);
  by_version_.erase(it);
  for (const std::string& key : keys) {
    DropEntry(key);
    ++stats_.invalidated;
    if (c_invalidated_ != nullptr) c_invalidated_->Increment();
  }
}

void DerivationCache::OnRework(const oct::ObjectId& id) {
  base::MutexLock lock(mu_);
  InvalidateVersionLocked(id);
}

void DerivationCache::Clear() {
  base::MutexLock lock(mu_);
  while (!entries_.empty()) {
    DropEntry(entries_.begin()->first);
    ++stats_.invalidated;
    if (c_invalidated_ != nullptr) c_invalidated_->Increment();
  }
  by_version_.clear();
}

void DerivationCache::ForEach(
    const std::function<void(const std::string&, const CacheEntry&)>& fn)
    const {
  base::MutexLock lock(mu_);
  for (const auto& [key, entry] : entries_) fn(key, entry);
}

void DerivationCache::TouchPut(const std::string& key) {
  if (wal_put_set_.insert(key).second) wal_put_keys_.push_back(key);
}

void DerivationCache::TouchRemoved(const std::string& key) {
  if (wal_removed_set_.insert(key).second) wal_removed_keys_.push_back(key);
}

void DerivationCache::DrainWalDirt(
    const std::function<void(const std::string&)>& removed_fn,
    const std::function<void(const std::string&, const CacheEntry&)>&
        upsert_fn) {
  base::MutexLock lock(mu_);
  for (const std::string& key : wal_removed_keys_) removed_fn(key);
  for (const std::string& key : wal_put_keys_) {
    auto it = entries_.find(key);
    // Put-then-dropped keys are covered by their removal record alone.
    if (it != entries_.end()) upsert_fn(key, it->second);
  }
  wal_put_keys_.clear();
  wal_put_set_.clear();
  wal_removed_keys_.clear();
  wal_removed_set_.clear();
}

void DerivationCache::DiscardWalDirt() {
  base::MutexLock lock(mu_);
  wal_put_keys_.clear();
  wal_put_set_.clear();
  wal_removed_keys_.clear();
  wal_removed_set_.clear();
}

void DerivationCache::ForgetEntry(const std::string& key) {
  base::MutexLock lock(mu_);
  DropEntry(key);
}

void DerivationCache::DropEntry(const std::string& key) {
  auto it = entries_.find(key);
  if (it == entries_.end()) return;
  TouchRemoved(key);
  for (const CachedOutput& out : it->second.outputs) {
    db_->Unpin(out.id);
    auto vit = by_version_.find(out.id);
    if (vit != by_version_.end()) {
      vit->second.erase(key);
      if (vit->second.empty()) by_version_.erase(vit);
    }
  }
  for (const oct::ObjectId& in : it->second.inputs) {
    auto vit = by_version_.find(in);
    if (vit != by_version_.end()) {
      vit->second.erase(key);
      if (vit->second.empty()) by_version_.erase(vit);
    }
  }
  unpublished_.erase(key);
  entries_.erase(it);
}

}  // namespace papyrus::cache
