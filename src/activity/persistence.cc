#include "activity/persistence.h"

#include <algorithm>
#include <map>
#include <optional>
#include <sstream>
#include <vector>

#include "base/macros.h"
#include "base/thread_annotations.h"
#include "base/strings.h"
#include "storage/journal.h"

namespace papyrus::activity {

namespace {

// The payload codec itself lives in oct/design_data (EncodePayloadText /
// ParsePayloadFields) so the content-addressed store and the snapshot
// format share one byte-exact encoding.
void AppendPayload(const oct::DesignPayload& p, std::ostringstream* out) {
  *out << oct::EncodePayloadText(p);
}

Result<oct::DesignPayload> ParsePayload(
    const std::vector<std::string>& f, size_t at) {
  return oct::ParsePayloadFields(f, at);
}

std::vector<std::string> SplitLines(const std::string& text) {
  return Split(text, '\n');
}

void AppendObjectList(const char* tag, int owner,
                      const std::vector<oct::ObjectId>& ids,
                      std::ostringstream* out) {
  for (const oct::ObjectId& id : ids) {
    *out << tag << ' ' << owner << ' ' << EncodeField(id.name) << ' '
         << id.version << '\n';
  }
}

// --- format version 2: per-line checksums + stream trailer ---------------

/// Wraps a stream of body lines into a v2 snapshot: `header`, then each
/// body line with its ` !<hex>` FNV-1a checksum, then the
/// `end <count> <hex>` trailer covering the concatenated bodies.
std::string AssembleV2(const std::string& header,
                       const std::string& body_text) {
  std::ostringstream out;
  out << header << '\n';
  std::string stream_text;
  int64_t count = 0;
  for (const std::string& body : SplitLines(body_text)) {
    if (body.empty()) continue;
    out << FrameLine(body) << '\n';
    stream_text += body;
    stream_text += '\n';
    ++count;
  }
  out << "end " << count << ' ' << HexU64(Fnv1a(stream_text)) << '\n';
  return out.str();
}

/// Every '~'-prefixed (percent-encoded) field must decode strictly; a
/// malformed escape in a line that passed its checksum is still damage.
bool StrictFieldsOk(const std::vector<std::string>& f) {
  for (const std::string& field : f) {
    if (!field.empty() && field[0] == '~' && !DecodeFieldStrict(field).ok()) {
      return false;
    }
  }
  return true;
}

/// A snapshot's records after the version check. Version 2 and later
/// keep the longest valid prefix through the shared journal scan (strict
/// field decoding is one more check a line must pass), then expect the
/// unframed `end <count> <hex>` trailer; every other non-empty line left
/// over counts as dropped. Version 1 (no checksums) has no recovery:
/// every line but the trailer is a record.
struct SnapshotScan {
  int64_t version = 0;
  /// Verified record bodies, already field-split.
  std::vector<std::vector<std::string>> records;
  bool clean = true;    // trailer present and it verified
  int64_t dropped = 0;  // record lines lost to damage

  void Report(RestoreStats* stats) const {
    if (stats == nullptr) return;
    stats->records_restored += static_cast<int64_t>(records.size());
    stats->records_dropped += dropped;
    stats->truncated |= !clean;
  }
};

Result<SnapshotScan> ScanSnapshot(std::string_view text,
                                  const std::string& kind,
                                  int64_t max_version = 2) {
  size_t header_end = std::min(text.find('\n'), text.size());
  std::vector<std::string> head = SplitWhitespace(text.substr(0, header_end));
  if (head.size() != 2 || head[0] != kind) {
    return Status::InvalidArgument("not a " + kind + " snapshot");
  }
  SnapshotScan scan;
  scan.version = ParseI64(head[1]);
  if (scan.version < 1 || scan.version > max_version) {
    return Status::InvalidArgument("unsupported " + kind + " version " +
                                   head[1]);
  }
  std::string_view rest = text.substr(std::min(header_end + 1, text.size()));
  if (scan.version == 1) {
    for (const std::string& line : Split(rest, '\n')) {
      std::vector<std::string> f = SplitWhitespace(line);
      if (!f.empty() && f[0] != "end") scan.records.push_back(std::move(f));
    }
    return scan;
  }
  std::string stream_text;
  storage::JournalScan prefix =
      storage::ScanJournal(rest, 0, [&](std::string_view body) {
        std::vector<std::string> f = SplitWhitespace(body);
        if (f.empty() || !StrictFieldsOk(f)) return false;
        stream_text.append(body);
        stream_text += '\n';
        scan.records.push_back(std::move(f));
        return true;
      });
  rest.remove_prefix(prefix.valid_end);
  scan.clean = false;
  if (StartsWith(rest, "end ")) {
    size_t nl = rest.find('\n');
    std::vector<std::string> f = SplitWhitespace(rest.substr(0, nl));
    uint64_t want = 0;
    scan.clean = f.size() == 3 && ParseHexU64(f[2], &want) &&
                 ParseI64(f[1]) ==
                     static_cast<int64_t>(scan.records.size()) &&
                 want == Fnv1a(stream_text);
    rest = nl == std::string_view::npos ? "" : rest.substr(nl + 1);
  }
  for (const std::string& line : Split(rest, '\n')) {
    if (!line.empty() && !StartsWith(line, "end ")) ++scan.dropped;
  }
  return scan;
}

Status ApplyDatabaseRecord(const std::vector<std::string>& f,
                           oct::OctDatabase* db) {
  base::AssertEngineThread("activity::ApplyDatabaseRecord");
  PAPYRUS_ASSIGN_OR_RETURN(oct::ObjectRecord rec, ParseObjectRecord(f));
  return db->RestoreRecord(std::move(rec));
}

void AppendObjectLine(const oct::ObjectRecord& rec,
                      std::ostringstream* out) {
  *out << "object " << EncodeField(rec.id.name) << ' ' << rec.id.version
       << ' ' << EncodeField(rec.creator_tool) << ' ' << rec.created_micros
       << ' ' << rec.last_access_micros << ' ' << rec.size_bytes << ' '
       << rec.visible << ' ' << rec.reclaimed << ' ';
  AppendPayload(rec.payload, out);
}

/// Applies one node-scoped thread-snapshot line (tags `node`, `parents`,
/// `children`, `record`, `rin`, `rout`, `step`, `sin`, `sout`) into an
/// accumulating node map; `*cur` tracks the node the last `node` line
/// opened. Shared by the thread reader and the WAL node-block codec.
Status ApplyNodeTag(const std::vector<std::string>& f,
                    std::map<NodeId, HistoryNode>* nodes,
                    HistoryNode** cur_slot) {
  auto object_of = [](const std::vector<std::string>& g) {
    return oct::ObjectId{DecodeField(g[2]),
                         static_cast<int>(ParseI64(g[3]))};
  };
  const std::string& tag = f[0];
  if (tag == "node") {
    if (f.size() < 6) return Status::InvalidArgument("bad node line");
    HistoryNode node;
    node.id = static_cast<NodeId>(ParseI64(f[1]));
    node.is_junction = f[2] == "1";
    node.appended_micros = ParseI64(f[3]);
    node.last_access_micros = ParseI64(f[4]);
    node.annotation = DecodeField(f[5]);
    NodeId id = node.id;
    (*nodes)[id] = std::move(node);
    *cur_slot = &(*nodes)[id];
    return Status::OK();
  }
  HistoryNode* cur = *cur_slot;
  if (cur == nullptr) {
    return Status::InvalidArgument("field before any node: " +
                                   Join(f, " "));
  }
  if (tag == "parents") {
    for (size_t k = 2; k < f.size(); ++k) {
      cur->parents.push_back(static_cast<NodeId>(ParseI64(f[k])));
    }
  } else if (tag == "children") {
    for (size_t k = 2; k < f.size(); ++k) {
      cur->children.push_back(static_cast<NodeId>(ParseI64(f[k])));
    }
  } else if (tag == "record" && f.size() >= 5) {
    cur->record.task_name = DecodeField(f[2]);
    cur->record.invoke_micros = ParseI64(f[3]);
    cur->record.commit_micros = ParseI64(f[4]);
    if (f.size() >= 6) {
      cur->record.restarts = static_cast<int>(ParseI64(f[5]));
    }
    if (f.size() >= 9) {
      cur->record.steps_lost = ParseI64(f[6]);
      cur->record.steps_retried = ParseI64(f[7]);
      cur->record.backoff_micros_total = ParseI64(f[8]);
    }
    if (f.size() >= 10) {
      cur->record.steps_elided = ParseI64(f[9]);
    }
  } else if (tag == "rin" && f.size() >= 4) {
    cur->record.inputs.push_back(object_of(f));
  } else if (tag == "rout" && f.size() >= 4) {
    cur->record.outputs.push_back(object_of(f));
  } else if (tag == "step" && f.size() >= 10) {
    task::StepRecord step;
    step.step_name = DecodeField(f[2]);
    step.tool = DecodeField(f[3]);
    step.invocation = DecodeField(f[4]);
    step.dispatch_micros = ParseI64(f[5]);
    step.completion_micros = ParseI64(f[6]);
    step.host = static_cast<int>(ParseI64(f[7]));
    step.exit_status = static_cast<int>(ParseI64(f[8]));
    step.message = DecodeField(f[9]);
    if (f.size() >= 11) {
      step.internal_id = static_cast<int>(ParseI64(f[10]));
    }
    if (f.size() >= 12) {
      step.cache_hit = f[11] == "1";
    }
    cur->record.steps.push_back(std::move(step));
  } else if (tag == "sin" && f.size() >= 4) {
    if (cur->record.steps.empty()) {
      return Status::InvalidArgument("sin before step");
    }
    cur->record.steps.back().inputs.push_back(object_of(f));
  } else if (tag == "sout" && f.size() >= 4) {
    if (cur->record.steps.empty()) {
      return Status::InvalidArgument("sout before step");
    }
    cur->record.steps.back().outputs.push_back(object_of(f));
  } else {
    return Status::InvalidArgument("bad thread line: " + Join(f, " "));
  }
  return Status::OK();
}

/// Emits one node's snapshot line block (shared by the full thread
/// serializer and the WAL node-block codec, so both stay byte-identical).
void AppendNodeLines(const HistoryNode& node, std::ostringstream* outp) {
  std::ostringstream& out = *outp;
  NodeId id = node.id;
  out << "node " << id << ' ' << node.is_junction << ' '
      << node.appended_micros << ' ' << node.last_access_micros << ' '
      << EncodeField(node.annotation) << '\n';
  if (!node.parents.empty()) {
    out << "parents " << id;
    for (NodeId p : node.parents) out << ' ' << p;
    out << '\n';
  }
  if (!node.children.empty()) {
    out << "children " << id;
    for (NodeId c : node.children) out << ' ' << c;
    out << '\n';
  }
  const task::TaskHistoryRecord& rec = node.record;
  out << "record " << id << ' ' << EncodeField(rec.task_name) << ' '
      << rec.invoke_micros << ' ' << rec.commit_micros << ' '
      << rec.restarts << ' ' << rec.steps_lost << ' '
      << rec.steps_retried << ' ' << rec.backoff_micros_total << ' '
      << rec.steps_elided << '\n';
  AppendObjectList("rin", id, rec.inputs, &out);
  AppendObjectList("rout", id, rec.outputs, &out);
  for (const task::StepRecord& step : rec.steps) {
    out << "step " << id << ' ' << EncodeField(step.step_name) << ' '
        << EncodeField(step.tool) << ' ' << EncodeField(step.invocation) << ' '
        << step.dispatch_micros << ' ' << step.completion_micros << ' '
        << step.host << ' ' << step.exit_status << ' '
        << EncodeField(step.message) << ' ' << step.internal_id << ' '
        << step.cache_hit << '\n';
    AppendObjectList("sin", id, step.inputs, &out);
    AppendObjectList("sout", id, step.outputs, &out);
  }
}

/// Emits one cache entry's snapshot line block under `index` (shared by
/// the full cache serializer and the WAL entry codec).
void AppendCacheEntryLines(int64_t index, const cache::CacheEntry& entry,
                           std::ostringstream* outp) {
  std::ostringstream& out = *outp;
  out << "entry " << index << ' ' << EncodeField(entry.tool) << ' '
      << EncodeField(entry.tool_version) << ' '
      << EncodeField(entry.canonical_options) << ' '
      << HexU64(entry.seed_salt) << ' ' << entry.cost_micros << ' '
      << entry.recorded_micros << '\n';
  AppendObjectList("ein", static_cast<int>(index), entry.inputs, &out);
  for (const cache::CachedOutput& o : entry.outputs) {
    out << "eout " << index << ' ' << EncodeField(o.id.name) << ' '
        << o.id.version << '\n';
  }
  // v3: the shared-store content key rides along so a restored daemon
  // session can republish its entries (shared hits restore with no
  // key and are never republished).
  if (!entry.content_key.empty()) {
    out << "ckey " << index << ' ' << EncodeField(entry.content_key) << '\n';
  }
}

/// Parses one cache-snapshot line into `*entry`: an `entry` line starts a
/// new entry (the caller has taken the previous one), `ein`/`eout`/`ckey`
/// lines add to it. Shared by the cache section and WAL entry readers.
Status ApplyCacheLine(const std::vector<std::string>& f,
                      std::optional<cache::CacheEntry>* entry) {
  const std::string& tag = f[0];
  if (tag == "entry" && f.size() >= 8) {
    cache::CacheEntry e;
    e.tool = DecodeField(f[2]);
    e.tool_version = DecodeField(f[3]);
    e.canonical_options = DecodeField(f[4]);
    if (!ParseHexU64(f[5], &e.seed_salt)) {
      return Status::InvalidArgument("bad cache salt: " + f[5]);
    }
    e.cost_micros = ParseI64(f[6]);
    e.recorded_micros = ParseI64(f[7]);
    *entry = std::move(e);
  } else if (entry->has_value() && (tag == "ein" || tag == "eout") &&
             f.size() >= 4) {
    oct::ObjectId id{DecodeField(f[2]), static_cast<int>(ParseI64(f[3]))};
    if (tag == "ein") {
      (*entry)->inputs.push_back(std::move(id));
    } else {
      (*entry)->outputs.push_back(cache::CachedOutput{std::move(id), true});
    }
  } else if (entry->has_value() && tag == "ckey" && f.size() >= 3) {
    (*entry)->content_key = DecodeField(f[2]);
  } else {
    return Status::InvalidArgument("bad cache line: " + Join(f, " "));
  }
  return Status::OK();
}

/// Accumulates thread-snapshot record lines into a thread.
struct ThreadBuilder {
  std::unique_ptr<DesignThread> thread;
  NodeId cursor = kInitialPoint;
  NodeId next_node_id = 0;  // 0: the section leaves it at max id + 1
  // Nodes are assembled fully before restoration so links and records are
  // complete at insert time.
  std::map<NodeId, HistoryNode> nodes;
  HistoryNode* cur = nullptr;

  Status Apply(const std::vector<std::string>& f, Clock* clock) {
    const std::string& tag = f[0];
    if (tag == "meta") {
      if (f.size() < 5) return Status::InvalidArgument("bad meta line");
      thread = std::make_unique<DesignThread>(
          static_cast<int>(ParseI64(f[1])), DecodeField(f[2]), clock);
      cursor = static_cast<NodeId>(ParseI64(f[3]));
      thread->set_cache_interval(static_cast<int>(ParseI64(f[4])));
      if (f.size() >= 6) next_node_id = static_cast<NodeId>(ParseI64(f[5]));
      return Status::OK();
    }
    if (thread == nullptr) {
      return Status::InvalidArgument("thread snapshot missing meta line");
    }
    if (tag == "checkin" && f.size() >= 3) {
      thread->CheckIn(oct::ObjectId{DecodeField(f[1]),
                                    static_cast<int>(ParseI64(f[2]))});
      return Status::OK();
    }
    return ApplyNodeTag(f, &nodes, &cur);
  }

  /// Drops graph links to nodes that did not survive recovery and falls
  /// the cursor back to the initial point when its node is gone.
  void PruneDanglingLinks() {
    auto missing = [this](NodeId id) { return nodes.count(id) == 0; };
    for (auto& [id, node] : nodes) {
      node.parents.erase(std::remove_if(node.parents.begin(),
                                        node.parents.end(), missing),
                         node.parents.end());
      node.children.erase(std::remove_if(node.children.begin(),
                                         node.children.end(), missing),
                          node.children.end());
    }
    if (cursor != kInitialPoint && missing(cursor)) {
      cursor = kInitialPoint;
    }
  }

  Result<std::unique_ptr<DesignThread>> Finish() {
    if (thread == nullptr) {
      return Status::InvalidArgument("thread snapshot missing meta line");
    }
    for (auto& [id, node] : nodes) {
      PAPYRUS_RETURN_IF_ERROR(thread->UpsertNode(std::move(node)));
    }
    PAPYRUS_RETURN_IF_ERROR(thread->ReplayMeta(cursor, next_node_id));
    return std::move(thread);
  }
};

/// The `papyrus-db 2` text of the records `for_each` yields, emitted in
/// (name, version) order: restore sees each name's versions sequentially,
/// and the bytes are independent of hash-map iteration order.
template <typename ForEach>
std::string SerializeRecords(ForEach for_each) {
  std::map<oct::ObjectId, const oct::ObjectRecord*> ordered;
  for_each([&](const oct::ObjectRecord& rec) { ordered[rec.id] = &rec; });
  std::ostringstream out;
  for (const auto& [id, rec] : ordered) {
    AppendObjectLine(*rec, &out);
    out << '\n';
  }
  return AssembleV2("papyrus-db 2", out.str());
}

}  // namespace

std::string SerializeDatabase(const oct::OctDatabase& db) {
  return SerializeRecords([&](const auto& visit) { db.ForEach(visit); });
}

Status RestoreDatabaseInto(const std::string& text, oct::OctDatabase* db,
                           RestoreStats* stats) {
  PAPYRUS_ASSIGN_OR_RETURN(SnapshotScan scan,
                           ScanSnapshot(text, "papyrus-db"));
  for (const std::vector<std::string>& f : scan.records) {
    // The line passed its checksum, so a parse failure here is a format
    // error in intact data — fail loudly rather than "recover".
    PAPYRUS_RETURN_IF_ERROR(ApplyDatabaseRecord(f, db));
  }
  scan.Report(stats);
  return Status::OK();
}

Result<std::unique_ptr<oct::OctDatabase>> RestoreDatabase(
    const std::string& text, Clock* clock, RestoreStats* stats) {
  auto db = std::make_unique<oct::OctDatabase>(clock);
  PAPYRUS_RETURN_IF_ERROR(RestoreDatabaseInto(text, db.get(), stats));
  return db;
}

std::string SerializeThread(const DesignThread& thread) {
  std::ostringstream out;
  out << "meta " << thread.id() << ' ' << EncodeField(thread.name())
      << ' ' << thread.current_cursor() << ' ' << thread.cache_interval();
  // The allocator rides along only when erasing the newest records left
  // it ahead of what restore derives, so every other section keeps its
  // bytes (older readers ignore the extra field).
  const NodeId derived =
      thread.nodes().empty() ? 1 : thread.nodes().rbegin()->first + 1;
  if (thread.next_node_id() != derived) out << ' ' << thread.next_node_id();
  out << '\n';
  for (const oct::ObjectId& id : thread.checkins()) {
    out << "checkin " << EncodeField(id.name) << ' ' << id.version
        << '\n';
  }
  for (const auto& [id, node] : thread.nodes()) {
    AppendNodeLines(node, &out);
  }
  return AssembleV2("papyrus-thread 2", out.str());
}

Result<std::unique_ptr<DesignThread>> RestoreThread(
    const std::string& text, Clock* clock, RestoreStats* stats) {
  PAPYRUS_ASSIGN_OR_RETURN(SnapshotScan scan,
                           ScanSnapshot(text, "papyrus-thread"));
  ThreadBuilder builder;
  for (const std::vector<std::string>& f : scan.records) {
    PAPYRUS_RETURN_IF_ERROR(builder.Apply(f, clock));
  }
  if (!scan.clean) {
    // A dropped suffix may be referenced by surviving nodes: prune those
    // links so the recovered stream is self-consistent.
    builder.PruneDanglingLinks();
  }
  scan.Report(stats);
  return builder.Finish();
}

std::string SerializeDerivationCache(const cache::DerivationCache& cache) {
  std::ostringstream out;
  int64_t i = 0;
  cache.ForEach([&](const std::string& key,
                    const cache::CacheEntry& entry) {
    (void)key;  // recomputed from the entry's components on restore
    AppendCacheEntryLines(i, entry, &out);
    ++i;
  });
  return AssembleV2("papyrus-cache 3", out.str());
}

Status RestoreDerivationCache(const std::string& text,
                              cache::DerivationCache* cache,
                              RestoreStats* stats) {
  PAPYRUS_ASSIGN_OR_RETURN(
      SnapshotScan scan,
      ScanSnapshot(text, "papyrus-cache", /*max_version=*/3));
  // v2 entries simply lack `ckey` lines: they restore with an empty
  // content key (usable locally, never republished to a shared store).
  std::optional<cache::CacheEntry> pending;
  for (const std::vector<std::string>& f : scan.records) {
    if (f[0] == "ckey" && scan.version < 3) {
      return Status::InvalidArgument("bad cache line: " + Join(f, " "));
    }
    if (f[0] == "entry" && pending.has_value()) {
      (void)cache->Restore(std::move(*pending));
    }
    PAPYRUS_RETURN_IF_ERROR(ApplyCacheLine(f, &pending));
  }
  if (pending.has_value()) (void)cache->Restore(std::move(*pending));
  scan.Report(stats);
  return Status::OK();
}

// --- storage-engine record codecs ----------------------------------------

std::string EncodeObjectRecord(const oct::ObjectRecord& rec) {
  std::ostringstream out;
  AppendObjectLine(rec, &out);
  return out.str();
}

Result<oct::ObjectRecord> ParseObjectRecord(
    const std::vector<std::string>& f) {
  if (f.empty() || f[0] != "object" || f.size() < 9) {
    return Status::InvalidArgument("bad database line: " + Join(f, " "));
  }
  oct::ObjectRecord rec;
  rec.id.name = DecodeField(f[1]);
  rec.id.version = static_cast<int>(ParseI64(f[2]));
  rec.creator_tool = DecodeField(f[3]);
  rec.created_micros = ParseI64(f[4]);
  rec.last_access_micros = ParseI64(f[5]);
  rec.size_bytes = ParseI64(f[6]);
  rec.visible = f[7] == "1";
  rec.reclaimed = f[8] == "1";
  PAPYRUS_ASSIGN_OR_RETURN(rec.payload, ParsePayload(f, 9));
  return rec;
}

std::string SerializeDatabaseShard(const oct::OctDatabase& db, int shard) {
  return SerializeRecords(
      [&](const auto& visit) { db.ForEachShard(shard, visit); });
}

std::string EncodeNodeBlock(const HistoryNode& node) {
  std::ostringstream out;
  AppendNodeLines(node, &out);
  return out.str();
}

Status ApplyNodeBlock(const std::string& block, DesignThread* thread) {
  std::map<NodeId, HistoryNode> nodes;
  HistoryNode* cur = nullptr;
  for (const std::string& line : SplitLines(block)) {
    std::vector<std::string> f = SplitWhitespace(line);
    if (f.empty()) continue;
    PAPYRUS_RETURN_IF_ERROR(ApplyNodeTag(f, &nodes, &cur));
  }
  if (nodes.size() != 1) {
    return Status::InvalidArgument("node block must carry exactly one node");
  }
  return thread->UpsertNode(std::move(nodes.begin()->second));
}

std::string EncodeCacheEntry(const cache::CacheEntry& entry) {
  std::ostringstream out;
  AppendCacheEntryLines(0, entry, &out);
  return out.str();
}

Result<cache::CacheEntry> DecodeCacheEntry(const std::string& block) {
  const Status one_entry = Status::InvalidArgument(
      "cache-entry block must carry exactly one entry");
  std::optional<cache::CacheEntry> entry;
  for (const std::string& line : SplitLines(block)) {
    std::vector<std::string> f = SplitWhitespace(line);
    if (f.empty()) continue;
    if (f[0] == "entry" && entry.has_value()) return one_entry;
    PAPYRUS_RETURN_IF_ERROR(ApplyCacheLine(f, &entry));
  }
  if (!entry.has_value()) return one_entry;
  return std::move(*entry);
}

}  // namespace papyrus::activity
