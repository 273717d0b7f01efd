#include "activity/persistence.h"

#include <algorithm>
#include <functional>
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

/// Calls `visit` with each line of `text` (views, no copies); a last
/// line without its newline counts too.
template <typename Visit>
void ForEachLine(std::string_view text, Visit visit) {
  while (!text.empty()) {
    const size_t nl = text.find('\n');
    visit(text.substr(0, nl));
    text.remove_prefix(nl == std::string_view::npos ? text.size() : nl + 1);
  }
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
  ForEachLine(body_text, [&](std::string_view body) {
    if (body.empty()) return;
    out << FrameLine(body) << '\n';
    stream_text += body;
    stream_text += '\n';
    ++count;
  });
  out << "end " << count << ' ' << HexU64(Fnv1a(stream_text)) << '\n';
  return out.str();
}

/// What a snapshot scan applied and dropped.
struct SnapshotScan {
  int64_t version = 0;
  int64_t records = 0;  // record lines applied
  bool clean = true;    // trailer present and it verified
  int64_t dropped = 0;  // record lines lost to damage

  void Report(RestoreStats* stats) const {
    if (stats == nullptr) return;
    stats->records_restored += records;
    stats->records_dropped += dropped;
    stats->truncated |= !clean;
  }
};

/// Receives one record line of a snapshot of `version`, as it is read.
using LineParser = std::function<Status(int64_t version, FieldCursor& line)>;

/// Checks a snapshot's `<kind> <version>` header, then hands each record
/// line to `apply` as it reads it. Version 2 and later keep the longest
/// valid prefix through the shared journal scan: a line that fails its
/// checksum ends it, and so does one with a field that fails its strict
/// decode (FieldCursor::damaged). Then the unframed `end <count> <hex>`
/// trailer is expected; every other non-empty line left over counts as
/// dropped. An intact line that does not parse is a format error, and
/// fails the restore rather than "recover". Version 1 (no checksums) has
/// no recovery: every line but the trailer is a record.
Result<SnapshotScan> ScanSnapshot(std::string_view text,
                                  std::string_view kind,
                                  int64_t max_version,
                                  const LineParser& apply) {
  size_t header_end = std::min(text.find('\n'), text.size());
  FieldCursor head(text.substr(0, header_end));
  const std::string_view tag = head.Next();
  const std::string_view version = head.Next();
  if (tag != kind || version.empty() || !head.AtEnd()) {
    return Status::InvalidArgument("not a " + std::string(kind) +
                                   " snapshot");
  }
  SnapshotScan scan;
  scan.version = ParseI64(version);
  if (scan.version < 1 || scan.version > max_version) {
    return Status::InvalidArgument("unsupported " + std::string(kind) +
                                   " version " + std::string(version));
  }
  std::string_view rest = text.substr(std::min(header_end + 1, text.size()));
  Status error;
  if (scan.version == 1) {
    ForEachLine(rest, [&](std::string_view line) {
      FieldCursor f(line);
      const std::string_view first = FieldCursor(line).Next();
      if (!error.ok() || first.empty() || first == "end") return;
      error = apply(scan.version, f);
      ++scan.records;
    });
    PAPYRUS_RETURN_IF_ERROR(error);
    return scan;
  }
  uint64_t stream_hash = Fnv1a("");  // over every applied body + '\n'
  storage::JournalScan prefix =
      storage::ScanJournal(rest, 0, [&](std::string_view body) {
        FieldCursor f(body);
        if (FieldCursor(body).AtEnd()) return false;
        Status st = apply(scan.version, f);
        if (!st.ok()) {
          if (!f.damaged()) error = std::move(st);
          return false;
        }
        stream_hash = Fnv1aAppend(Fnv1aAppend(stream_hash, body), "\n");
        ++scan.records;
        return true;
      });
  PAPYRUS_RETURN_IF_ERROR(error);
  rest.remove_prefix(prefix.valid_end);
  scan.clean = false;
  if (StartsWith(rest, "end ")) {
    const size_t nl = rest.find('\n');
    FieldCursor f(rest.substr(0, nl));
    f.Next();
    const std::string_view count = f.Next();
    uint64_t want = 0;
    scan.clean = f.Hex(&want) && f.AtEnd() &&
                 ParseI64(count) == scan.records && want == stream_hash;
    rest = nl == std::string_view::npos ? "" : rest.substr(nl + 1);
  }
  ForEachLine(rest, [&](std::string_view line) {
    if (!line.empty() && !StartsWith(line, "end ")) ++scan.dropped;
  });
  return scan;
}

Status ApplyDatabaseRecord(FieldCursor& f, oct::OctDatabase* db) {
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

Status BadLine(std::string_view what, const FieldCursor& f) {
  return Status::InvalidArgument("bad " + std::string(what) +
                                 " line: " + std::string(f.line()));
}

/// Reads a `<owner> ~name version` object reference (rin/rout/sin/sout/
/// ein/eout lines; the owner field is the node or entry the line is
/// under, and is not read back).
bool ParseObjectRef(FieldCursor& f, oct::ObjectId* id) {
  f.Next();
  return f.Field(&id->name) && f.Int(&id->version);
}

/// Parses the fields of a `node` line (its tag read): the line that opens
/// a node in a thread section and in a `thr` WAL record.
Result<HistoryNode> ParseNodeLine(FieldCursor& f) {
  HistoryNode node;
  if (!f.Int(&node.id)) return BadLine("node", f);
  node.is_junction = f.Flag();
  if (!f.Int64(&node.appended_micros) ||
      !f.Int64(&node.last_access_micros) || !f.Field(&node.annotation)) {
    return BadLine("node", f);
  }
  return node;
}

/// Applies one of the lines that follow a node's `node` line (`parents`,
/// `children`, `record`, `rin`, `rout`, `step`, `sin`, `sout`; `tag`
/// already read) to `node`. A line that fails changes nothing. Shared by
/// the thread section reader and the `thr` WAL record parser.
Status ApplyNodeLine(std::string_view tag, FieldCursor& f,
                     HistoryNode* node) {
  task::TaskHistoryRecord& rec = node->record;
  if (tag == "parents" || tag == "children") {
    std::vector<NodeId> links;
    f.Next();  // the node's own id
    while (!f.AtEnd()) {
      if (!f.Int(&links.emplace_back())) return BadLine(tag, f);
    }
    std::vector<NodeId>& list =
        tag == "parents" ? node->parents : node->children;
    list.insert(list.end(), links.begin(), links.end());
  } else if (tag == "record") {
    // Parsed into a copy (its lists are still empty) so that a line that
    // fails changes nothing. Older writers stopped after the commit time,
    // the restarts, or the retry counts.
    task::TaskHistoryRecord parsed = rec;
    f.Next();
    bool ok = f.Field(&parsed.task_name) && f.Int64(&parsed.invoke_micros) &&
              f.Int64(&parsed.commit_micros);
    if (ok && !f.AtEnd()) ok = f.Int(&parsed.restarts);
    if (ok && !f.AtEnd()) {
      ok = f.Int64(&parsed.steps_lost) && f.Int64(&parsed.steps_retried) &&
           f.Int64(&parsed.backoff_micros_total);
    }
    if (ok && !f.AtEnd()) ok = f.Int64(&parsed.steps_elided);
    if (!ok) return BadLine(tag, f);
    rec = std::move(parsed);
  } else if (tag == "rin" || tag == "rout") {
    oct::ObjectId id;
    if (!ParseObjectRef(f, &id)) return BadLine(tag, f);
    (tag == "rin" ? rec.inputs : rec.outputs).push_back(std::move(id));
  } else if (tag == "step") {
    task::StepRecord step;
    f.Next();
    if (!f.Field(&step.step_name) || !f.Field(&step.tool) ||
        !f.Field(&step.invocation) || !f.Int64(&step.dispatch_micros) ||
        !f.Int64(&step.completion_micros) || !f.Int(&step.host) ||
        !f.Int(&step.exit_status) || !f.Field(&step.message) ||
        (!f.AtEnd() && !f.Int(&step.internal_id))) {
      return BadLine(tag, f);
    }
    step.cache_hit = f.Flag();
    rec.steps.push_back(std::move(step));
  } else if (tag == "sin" || tag == "sout") {
    if (rec.steps.empty()) {
      return Status::InvalidArgument(std::string(tag) + " before step");
    }
    oct::ObjectId id;
    if (!ParseObjectRef(f, &id)) return BadLine(tag, f);
    task::StepRecord& step = rec.steps.back();
    (tag == "sin" ? step.inputs : step.outputs).push_back(std::move(id));
  } else {
    return BadLine("thread", f);
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

/// Parses the fields of an `entry` line (its tag read): the line that
/// opens an entry in the cache section and in a `cput` WAL record.
Result<cache::CacheEntry> ParseEntryLine(FieldCursor& f) {
  cache::CacheEntry e;
  f.Next();  // the entry's index
  if (!f.Field(&e.tool) || !f.Field(&e.tool_version) ||
      !f.Field(&e.canonical_options) || !f.Hex(&e.seed_salt) ||
      !f.Int64(&e.cost_micros) || !f.Int64(&e.recorded_micros)) {
    return BadLine("cache entry", f);
  }
  return e;
}

/// Applies an `ein`, `eout` or `ckey` line (`tag` already read) to the
/// entry the last `entry` line opened. Shared by the cache section reader
/// and the `cput` WAL record parser.
Status ApplyEntryLine(std::string_view tag, FieldCursor& f,
                      cache::CacheEntry* entry) {
  if (tag == "ein" || tag == "eout") {
    oct::ObjectId id;
    if (!ParseObjectRef(f, &id)) return BadLine("cache", f);
    if (tag == "ein") {
      entry->inputs.push_back(std::move(id));
    } else {
      entry->outputs.push_back(cache::CachedOutput{std::move(id), true});
    }
    return Status::OK();
  }
  f.Next();
  if (tag != "ckey" || !f.Field(&entry->content_key)) {
    return BadLine("cache", f);
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

  Status Apply(FieldCursor& f, Clock* clock) {
    const std::string_view tag = f.Next();
    if (tag == "meta") {
      int id = 0, interval = 0;
      std::string name;
      NodeId at = kInitialPoint;
      if (!f.Int(&id) || !f.Field(&name) || !f.Int(&at) ||
          !f.Int(&interval) || (!f.AtEnd() && !f.Int(&next_node_id))) {
        return BadLine("meta", f);
      }
      thread = std::make_unique<DesignThread>(id, std::move(name), clock);
      cursor = at;
      thread->set_cache_interval(interval);
      return Status::OK();
    }
    if (thread == nullptr) {
      return Status::InvalidArgument("thread snapshot missing meta line");
    }
    if (tag == "checkin") {
      oct::ObjectId id;
      if (!f.Field(&id.name) || !f.Int(&id.version)) {
        return BadLine(tag, f);
      }
      thread->CheckIn(id);
      return Status::OK();
    }
    if (tag == "node") {
      PAPYRUS_ASSIGN_OR_RETURN(HistoryNode node, ParseNodeLine(f));
      const NodeId id = node.id;
      cur = &(nodes[id] = std::move(node));
      return Status::OK();
    }
    if (cur == nullptr) {
      return Status::InvalidArgument("field before any node: " +
                                     std::string(f.line()));
    }
    return ApplyNodeLine(tag, f, cur);
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
  PAPYRUS_ASSIGN_OR_RETURN(
      SnapshotScan scan,
      ScanSnapshot(text, "papyrus-db", 2, [&](int64_t, FieldCursor& f) {
        return ApplyDatabaseRecord(f, db);
      }));
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
  ThreadBuilder builder;
  PAPYRUS_ASSIGN_OR_RETURN(
      SnapshotScan scan,
      ScanSnapshot(text, "papyrus-thread", 2, [&](int64_t, FieldCursor& f) {
        return builder.Apply(f, clock);
      }));
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
  // v2 entries simply lack `ckey` lines: they restore with an empty
  // content key (usable locally, never republished to a shared store).
  std::optional<cache::CacheEntry> pending;
  auto apply = [&](int64_t version, FieldCursor& f) -> Status {
    const std::string_view tag = f.Next();
    if (tag == "entry") {
      PAPYRUS_ASSIGN_OR_RETURN(cache::CacheEntry entry, ParseEntryLine(f));
      if (pending.has_value()) (void)cache->Restore(std::move(*pending));
      pending = std::move(entry);
      return Status::OK();
    }
    if (!pending.has_value() || (tag == "ckey" && version < 3)) {
      return BadLine("cache", f);
    }
    return ApplyEntryLine(tag, f, &*pending);
  };
  PAPYRUS_ASSIGN_OR_RETURN(
      SnapshotScan scan,
      ScanSnapshot(text, "papyrus-cache", /*max_version=*/3, apply));
  if (pending.has_value()) (void)cache->Restore(std::move(*pending));
  scan.Report(stats);
  return Status::OK();
}

// --- storage-engine record codecs ----------------------------------------

namespace {

/// `head` followed by the '\n'-ended `lines`, each behind
/// kRecordLineSeparator: one line holding a whole record.
std::string JoinRecordLines(std::string_view head, std::string_view lines) {
  std::string body(head);
  body.reserve(head.size() + lines.size() * 2);
  ForEachLine(lines, [&](std::string_view line) {
    body += kRecordLineSeparator;
    body += line;
  });
  return body;
}

/// Hands each section line a `thr` or `cput` WAL record carries after its
/// head fields (`lines`) to `apply`. Versions 1-3 carried the
/// newline-ended line block as one `~` field: it is decoded strictly and
/// split on newlines in front of the same line parser.
template <typename Apply>
Status ForEachRecordLine(std::string_view lines, int wal_version,
                         Apply apply) {
  Status st;
  if (wal_version < 4) {
    FieldCursor f(lines);
    std::string block;
    if (!f.Field(&block)) {
      return Status::InvalidArgument("bad line block: " + std::string(lines));
    }
    ForEachLine(block, [&](std::string_view line) {
      FieldCursor c(line);
      if (st.ok() && !FieldCursor(line).AtEnd()) st = apply(c);
    });
    return st;
  }
  while (st.ok() && !lines.empty()) {
    if (!StartsWith(lines, kRecordLineSeparator)) {
      return Status::InvalidArgument("bad record line separator: " +
                                     std::string(lines));
    }
    lines.remove_prefix(kRecordLineSeparator.size());
    const size_t end = std::min(lines.find(kRecordLineSeparator),
                                lines.size());
    FieldCursor c(lines.substr(0, end));
    lines.remove_prefix(end);
    st = apply(c);
  }
  return st;
}

}  // namespace

std::string EncodeObjectRecord(const oct::ObjectRecord& rec) {
  std::ostringstream out;
  AppendObjectLine(rec, &out);
  return out.str();
}

Result<oct::ObjectRecord> ParseObjectRecord(FieldCursor& f) {
  oct::ObjectRecord rec;
  if (f.Next() != "object" || !f.Field(&rec.id.name) ||
      !f.Int(&rec.id.version) || !f.Field(&rec.creator_tool) ||
      !f.Int64(&rec.created_micros) || !f.Int64(&rec.last_access_micros) ||
      !f.Int64(&rec.size_bytes)) {
    return BadLine("database", f);
  }
  rec.visible = f.Flag();
  rec.reclaimed = f.Flag();
  PAPYRUS_ASSIGN_OR_RETURN(rec.payload, oct::ParsePayloadFields(f));
  return rec;
}

std::string SerializeDatabaseShard(const oct::OctDatabase& db, int shard) {
  return SerializeRecords(
      [&](const auto& visit) { db.ForEachShard(shard, visit); });
}

std::string NodeRecord(std::string_view head, const HistoryNode& node) {
  std::ostringstream lines;
  AppendNodeLines(node, &lines);
  return JoinRecordLines(head, lines.str());
}

Result<HistoryNode> ParseNodeRecord(std::string_view lines,
                                    int wal_version) {
  std::optional<HistoryNode> node;
  PAPYRUS_RETURN_IF_ERROR(
      ForEachRecordLine(lines, wal_version, [&](FieldCursor& f) -> Status {
        const std::string_view tag = f.Next();
        if (tag == "node" && !node.has_value()) {
          PAPYRUS_ASSIGN_OR_RETURN(node, ParseNodeLine(f));
          return Status::OK();
        }
        if (!node.has_value()) {
          return Status::InvalidArgument("field before any node: " +
                                         std::string(f.line()));
        }
        if (tag == "node") {
          return Status::InvalidArgument(
              "node record must carry exactly one node");
        }
        return ApplyNodeLine(tag, f, &*node);
      }));
  if (!node.has_value()) {
    return Status::InvalidArgument("node record must carry exactly one node");
  }
  return std::move(*node);
}

std::string CacheEntryRecord(std::string_view head,
                             const cache::CacheEntry& entry) {
  std::ostringstream lines;
  AppendCacheEntryLines(0, entry, &lines);
  return JoinRecordLines(head, lines.str());
}

Result<cache::CacheEntry> ParseCacheEntryRecord(std::string_view lines,
                                                int wal_version) {
  const Status one_entry = Status::InvalidArgument(
      "cache-entry record must carry exactly one entry");
  std::optional<cache::CacheEntry> entry;
  PAPYRUS_RETURN_IF_ERROR(
      ForEachRecordLine(lines, wal_version, [&](FieldCursor& f) -> Status {
        const std::string_view tag = f.Next();
        if (tag == "entry") {
          if (entry.has_value()) return one_entry;
          PAPYRUS_ASSIGN_OR_RETURN(entry, ParseEntryLine(f));
          return Status::OK();
        }
        if (!entry.has_value()) return BadLine("cache", f);
        return ApplyEntryLine(tag, f, &*entry);
      }));
  if (!entry.has_value()) return one_entry;
  return std::move(*entry);
}

}  // namespace papyrus::activity
