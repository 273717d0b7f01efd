#include "cache/derivation_cache.h"

#include <algorithm>
#include <charconv>
#include <unordered_set>

#include "base/hash.h"
#include "base/strings.h"

namespace papyrus::cache {
namespace {

// Field separator for the key string. Object names are user/tool derived
// and never contain control characters, so \x1f cannot collide.
constexpr char kSep = '\x1f';

/// Appends `value` in `base`, as `std::ostream` prints it under
/// std::hex/std::dec: lowercase digits, no padding, a sign when negative.
template <typename T>
void AppendNumber(std::string* out, T value, int base) {
  char buf[24];
  out->append(buf, std::to_chars(buf, buf + sizeof(buf), value, base).ptr);
}

/// `tool kSep tool_version kSep canonical_options kSep hex(seed_salt)`:
/// the head both keys share.
void AppendKeyHead(std::string* out, const std::string& tool,
                   const std::string& tool_version,
                   const std::string& canonical_options, uint64_t seed_salt) {
  *out += tool;
  *out += kSep;
  *out += tool_version;
  *out += kSep;
  *out += canonical_options;
  *out += kSep;
  AppendNumber(out, seed_salt, 16);
}

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
  std::string key;
  key.reserve(tool.size() + canonical_options.size() + 32 * inputs.size() + 32);
  AppendKeyHead(&key, tool, tool_version, canonical_options, seed_salt);
  for (const oct::ObjectId& id : inputs) {
    key += kSep;
    key += id.name;
    key += '@';
    AppendNumber(&key, id.version, 10);
  }
  return key;
}

std::string DerivationCache::MakeContentKey(
    const std::string& tool, const std::string& tool_version,
    const std::string& canonical_options, uint64_t seed_salt,
    const std::vector<std::string>& input_content_hashes) {
  Sha256 hasher;
  // A format tag versions the key derivation itself: changing how keys
  // are built must never alias entries published by older builds.
  hasher.Update("papyrus-content-key-v1");
  std::string head(1, kSep);
  AppendKeyHead(&head, tool, tool_version, canonical_options, seed_salt);
  hasher.Update(head);
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

bool DerivationCache::PublishSharedLocked(const CacheEntry& entry) {
  if (store_ == nullptr || entry.content_key.empty()) return false;
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
    if (!rec.ok() || (*rec)->reclaimed) return false;  // not publishable
    storage::CasPublishOutput pub;
    pub.name_hint = out.id.name;
    pub.visible = out.visible;
    pub.bytes = oct::EncodePayloadText((*rec)->payload);
    outputs.push_back(std::move(pub));
  }
  return store_->Publish(entry.content_key, meta, outputs).ok();
}

void DerivationCache::FlushSharedPublications() {
  base::MutexLock lock(mu_);
  if (unpublished_.empty()) return;
  if (store_ != nullptr) {
    // One batched question instead of a publication per entry: a key the
    // store already holds is left as it is (no `touch`, no replacement).
    std::vector<std::string> keys;
    keys.reserve(unpublished_.size());
    for (EntryRef ref : unpublished_) {
      keys.push_back(ref->second.entry.content_key);
    }
    std::unordered_set<std::string> missing = store_->Missing(keys);
    for (EntryRef ref : unpublished_) {
      // Entries sharing a content key publish it once; a later one gets
      // its turn when an earlier one's outputs were no longer readable.
      const CacheEntry& entry = ref->second.entry;
      if (missing.count(entry.content_key) != 0 &&
          PublishSharedLocked(entry)) {
        missing.erase(entry.content_key);
      }
    }
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

const CacheEntry* DerivationCache::Probe(
    const std::string& key, const std::vector<std::string>& output_names) {
  base::MutexLock lock(mu_);
  if (!enabled_) return nullptr;
  auto it = entries_.find(key);
  auto serves = [&](const CacheEntry& entry) {
    if (entry.outputs.size() != output_names.size()) return false;
    for (size_t i = 0; i < output_names.size(); ++i) {
      const CachedOutput& out = entry.outputs[i];
      if (out.visible && out.id.name != output_names[i]) return false;
    }
    return true;
  };
  if (it == entries_.end() || !serves(it->second.entry)) {
    ++stats_.misses;
    if (c_misses_ != nullptr) c_misses_->Increment();
    return nullptr;
  }
  const CacheEntry& entry = it->second.entry;
  for (const CachedOutput& out : entry.outputs) {
    auto rec = db_->Peek(out.id);
    bool servable = rec.ok() && !(*rec)->reclaimed &&
                    (!out.visible || (*rec)->visible);
    if (!servable) {
      // A stale entry: something slipped past the invalidation hooks
      // (e.g. a task-level output was later deleted). Treat the probe as
      // the invalidation point.
      DropEntry(it);
      ++stats_.invalidated;
      ++stats_.misses;
      if (c_invalidated_ != nullptr) c_invalidated_->Increment();
      if (c_misses_ != nullptr) c_misses_->Increment();
      return nullptr;
    }
  }
  ++stats_.hits;
  stats_.micros_saved += entry.cost_micros;
  if (c_hits_ != nullptr) c_hits_->Increment();
  if (c_micros_saved_ != nullptr) c_micros_saved_->Increment(entry.cost_micros);
  return &entry;
}

bool DerivationCache::Record(std::string key, CacheEntry entry) {
  base::MutexLock lock(mu_);
  if (!RecordLocked(std::move(key), std::move(entry), auto_publish_)) {
    return false;
  }
  ++stats_.recorded;
  if (c_recorded_ != nullptr) c_recorded_->Increment();
  return true;
}

bool DerivationCache::RecordLocked(std::string key, CacheEntry entry,
                                   bool publish_now) {
  for (CachedOutput& out : entry.outputs) {
    auto rec = db_->Peek(out.id);
    if (!rec.ok() || (*rec)->reclaimed) return false;
    out.visible = (*rec)->visible;
  }
  auto it = entries_.lower_bound(key);
  if (it != entries_.end() && it->first == key) {
    EntryRef replaced = it++;
    DropEntry(replaced);
  }
  EntryRef ref =
      entries_.emplace_hint(it, std::move(key), Slot{std::move(entry)});
  const CacheEntry& stored = ref->second.entry;
  for (const CachedOutput& out : stored.outputs) {
    db_->Pin(out.id);
    IndexVersion(out.id, ref);
  }
  for (const oct::ObjectId& in : stored.inputs) IndexVersion(in, ref);
  TouchPut(ref);
  if (store_ != nullptr && !stored.content_key.empty()) {
    if (publish_now) {
      // Standalone session: commit is this process's durability point, so
      // the derivation becomes shareable immediately.
      PublishSharedLocked(stored);
    } else {
      // Held for FlushSharedPublications. A daemon session flushes after
      // the save carrying the entry durably landed, so a crash cannot leak
      // outputs of a commit that never survived; a restored entry waits
      // for the flush that ends the reopen.
      unpublished_.insert(ref);
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
  return RecordLocked(std::move(key), std::move(entry), /*publish_now=*/false);
}

void DerivationCache::OnVersionReclaimed(const oct::ObjectId& id) {
  base::MutexLock lock(mu_);
  InvalidateVersionLocked(id);
}

void DerivationCache::InvalidateVersionLocked(const oct::ObjectId& id) {
  auto it = by_version_.find(id);
  if (it == by_version_.end()) return;
  // DropEntry mutates by_version_; detach the entries first. The index is
  // hashed, so sort them: their `cdel` records go out in key order.
  std::vector<EntryRef> refs = std::move(it->second);
  by_version_.erase(it);
  std::sort(refs.begin(), refs.end(), KeyLess());
  for (EntryRef ref : refs) {
    DropEntry(ref);
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
  // Every entry goes: drop the index whole instead of entry by entry.
  by_version_.clear();
  while (!entries_.empty()) {
    DropEntry(entries_.begin());
    ++stats_.invalidated;
    if (c_invalidated_ != nullptr) c_invalidated_->Increment();
  }
}

void DerivationCache::ForEach(
    const std::function<void(const std::string&, const CacheEntry&)>& fn)
    const {
  base::MutexLock lock(mu_);
  for (const auto& [key, slot] : entries_) fn(key, slot.entry);
}

void DerivationCache::TouchPut(EntryRef ref) {
  size_t& position = ref->second.wal_put;
  if (!wal_dropped_puts_.empty()) {
    auto dropped = wal_dropped_puts_.find(ref->first);
    if (dropped != wal_dropped_puts_.end()) {
      position = dropped->second;
      wal_puts_[position] = ref;
      wal_dropped_puts_.erase(dropped);
      return;
    }
  }
  position = wal_puts_.size();
  wal_puts_.push_back(ref);
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
  for (EntryRef ref : wal_puts_) {
    // Put-then-dropped keys are covered by their removal record alone.
    if (ref != entries_.end()) upsert_fn(ref->first, ref->second.entry);
  }
  ClearWalDirt();
}

void DerivationCache::DiscardWalDirt() {
  base::MutexLock lock(mu_);
  ClearWalDirt();
}

void DerivationCache::ClearWalDirt() {
  for (EntryRef ref : wal_puts_) {
    if (ref != entries_.end()) ref->second.wal_put = kNotDirty;
  }
  wal_puts_.clear();
  wal_dropped_puts_.clear();
  wal_removed_keys_.clear();
  wal_removed_set_.clear();
}

void DerivationCache::ForgetEntry(const std::string& key) {
  base::MutexLock lock(mu_);
  auto it = entries_.find(key);
  if (it != entries_.end()) DropEntry(it);
}

void DerivationCache::IndexVersion(const oct::ObjectId& id, EntryRef ref) {
  std::vector<EntryRef>& refs = by_version_[id];
  // A version listed twice (one input fed to two formals) is indexed
  // once: an entry's versions are indexed back to back, so a repeat is
  // the last element.
  if (refs.empty() || refs.back() != ref) refs.push_back(ref);
}

void DerivationCache::UnindexVersion(const oct::ObjectId& id, EntryRef ref) {
  auto it = by_version_.find(id);
  if (it == by_version_.end()) return;
  std::vector<EntryRef>& refs = it->second;
  auto at = std::find(refs.begin(), refs.end(), ref);
  if (at == refs.end()) return;
  *at = refs.back();
  refs.pop_back();
  if (refs.empty()) by_version_.erase(it);
}

void DerivationCache::DropEntry(EntryRef ref) {
  const std::string& key = ref->first;
  const CacheEntry& entry = ref->second.entry;
  TouchRemoved(key);
  for (const CachedOutput& out : entry.outputs) {
    db_->Unpin(out.id);
    UnindexVersion(out.id, ref);
  }
  for (const oct::ObjectId& in : entry.inputs) UnindexVersion(in, ref);
  if (ref->second.wal_put != kNotDirty) {
    wal_puts_[ref->second.wal_put] = entries_.end();
    wal_dropped_puts_.emplace(key, ref->second.wal_put);
  }
  unpublished_.erase(ref);
  entries_.erase(ref);
}

}  // namespace papyrus::cache
