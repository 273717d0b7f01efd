#include "storage/engine.h"

#include <filesystem>
#include <set>
#include <sstream>

#include "base/macros.h"
#include "base/strings.h"
#include "storage/atomic_file.h"

namespace papyrus::storage {

namespace fs = std::filesystem;

namespace {

/// Section names may contain '/'; their files flatten it to '_' and tag
/// the generation that wrote them.
std::string SectionFileName(const std::string& section, uint64_t gen) {
  std::string flat = section;
  for (char& c : flat) {
    if (c == '/') c = '_';
  }
  return flat + ".g" + std::to_string(gen);
}

}  // namespace

Status SessionStore::Crash(CrashPoint point) {
  if (crash_hook_ && !crash_hook_(point)) {
    return Status::Aborted("simulated crash");
  }
  return Status::OK();
}

Status SessionStore::LoadManifest(const std::string& manifest_file,
                                  OpenResult* out) {
  PAPYRUS_ASSIGN_OR_RETURN(std::string text,
                           ReadFile(fs::path(dir_) / manifest_file));
  // Manifests are written atomically and referenced only after an fsync,
  // so unlike the WAL they are parsed strictly: any damage is fatal.
  std::vector<std::string> lines = Split(text, '\n');
  size_t section_lines = 0;
  bool saw_header = false;
  bool saw_end = false;
  for (const std::string& line : lines) {
    if (line.empty()) continue;
    std::string_view framed;
    if (!UnframeLine(line, &framed)) {
      return Status::InvalidArgument("manifest line fails its checksum");
    }
    std::string body(framed);
    std::vector<std::string> f = SplitWhitespace(body);
    if (f.empty()) continue;
    if (!saw_header) {
      if (f.size() != 2 || f[0] != "papyrus-manifest" || f[1] != "1") {
        return Status::InvalidArgument("bad manifest header: " + body);
      }
      saw_header = true;
      continue;
    }
    if (f[0] == "gen" && f.size() == 2) {
      if (!ParseU64(f[1], &generation_)) {
        return Status::InvalidArgument("bad manifest gen: " + body);
      }
    } else if (f[0] == "walbase" && f.size() == 2) {
      if (!ParseU64(f[1], &wal_base_)) {
        return Status::InvalidArgument("bad manifest walbase: " + body);
      }
    } else if (f[0] == "section" && f.size() == 4) {
      SectionFile sf;
      sf.file = DecodeField(f[2]);
      if (!ParseHexU64(f[3], &sf.checksum)) {
        return Status::InvalidArgument("bad section checksum: " + body);
      }
      current_[DecodeField(f[1])] = sf;
      ++section_lines;
    } else if (f[0] == "end" && f.size() == 2) {
      uint64_t count = 0;
      if (!ParseU64(f[1], &count) || count != section_lines) {
        return Status::InvalidArgument("manifest section count mismatch");
      }
      saw_end = true;
    } else {
      return Status::InvalidArgument("bad manifest line: " + body);
    }
  }
  if (!saw_header || !saw_end) {
    return Status::InvalidArgument("incomplete manifest " + manifest_file);
  }
  for (const auto& [name, sf] : current_) {
    PAPYRUS_ASSIGN_OR_RETURN(out->sections[name], ReadSection(name));
  }
  out->generation = generation_;
  return Status::OK();
}

Result<SessionStore::OpenResult> SessionStore::Open(
    const std::string& dir) {
  dir_ = dir;
  std::error_code ec;
  fs::create_directories(dir_, ec);
  OpenResult out;

  std::string current;
  if (auto text = ReadFile(fs::path(dir_) / "CURRENT"); text.ok()) {
    current = std::string(Trim(*text));
  }
  if (StartsWith(current, "manifest.")) {
    out.layout = Layout::kEngine;
    PAPYRUS_RETURN_IF_ERROR(LoadManifest(current, &out));
  } else if (StartsWith(current, "snap.")) {
    out.layout = Layout::kLegacySnapDir;
    out.legacy_dir = (fs::path(dir_) / current).string();
    // Engine numbering continues after the legacy snap.<N>, so pruning
    // and fingerprints stay monotonic.
    (void)ParseU64(current.substr(5), &generation_);
  } else if (fs::exists(fs::path(dir_) / "database.pdb")) {
    out.layout = Layout::kLegacyFlat;
    out.legacy_dir = dir_;
  } else {
    out.layout = Layout::kEmpty;
  }

  PAPYRUS_ASSIGN_OR_RETURN(WalReplay replay,
                           wal_.Open((fs::path(dir_) / "wal.log").string()));
  out.wal_version = replay.version;
  out.wal_truncated = replay.truncated;
  out.wal_dropped_bytes = replay.dropped_bytes;
  out.wal_text = std::move(replay.text);
  for (const WalRecord& rec : replay.records) {
    // Records at or below the manifest's base were compacted into the
    // current generation before the crash that left them behind.
    if (rec.seq > wal_base_) out.wal.push_back(rec);
  }
  return out;
}

Result<int64_t> SessionStore::CommitWal() {
  if (!wal_.is_open()) {
    return Status::FailedPrecondition("session store not open");
  }
  PAPYRUS_ASSIGN_OR_RETURN(int64_t bytes, wal_.Commit());
  PAPYRUS_RETURN_IF_ERROR(Crash(CrashPoint::kAfterWalCommit));
  return bytes;
}

Status SessionStore::SaveGeneration(
    const std::map<std::string, std::string>& dirty,
    const std::vector<std::string>& live) {
  if (!wal_.is_open()) {
    return Status::FailedPrecondition("session store not open");
  }
  uint64_t gen = generation_ + 1;

  // 1. Write the dirtied section files (batched fsync, one dirsync).
  std::map<std::string, SectionFile> next;
  std::vector<PendingWrite> writes;
  int64_t written = 0, reused = 0;
  for (const std::string& name : live) {
    auto d = dirty.find(name);
    if (d != dirty.end()) {
      SectionFile sf;
      sf.file = SectionFileName(name, gen);
      sf.checksum = Fnv1a(d->second);
      writes.push_back({(fs::path(dir_) / sf.file).string(), d->second});
      save_stats_.bytes_written += static_cast<int64_t>(d->second.size());
      next[name] = std::move(sf);
      ++written;
      continue;
    }
    auto cur = current_.find(name);
    if (cur == current_.end()) {
      return Status::FailedPrecondition(
          "section " + name + " is live but neither dirty nor current");
    }
    next[name] = cur->second;  // carried over, file untouched
    ++reused;
  }
  PAPYRUS_RETURN_IF_ERROR(AtomicWriteFiles(writes));
  PAPYRUS_RETURN_IF_ERROR(Crash(CrashPoint::kAfterShardWrite));

  // 2. Write and swap the manifest. Everything journaled so far is
  // reflected in the section texts, so the new WAL base is the last
  // allocated sequence number.
  uint64_t base = wal_.next_seq() - 1;
  std::ostringstream m;
  m << FrameLine("papyrus-manifest 1") << '\n';
  m << FrameLine("gen " + std::to_string(gen)) << '\n';
  m << FrameLine("walbase " + std::to_string(base)) << '\n';
  for (const auto& [name, sf] : next) {
    m << FrameLine("section " + EncodeField(name) + ' ' +
                   EncodeField(sf.file) + ' ' + HexU64(sf.checksum))
      << '\n';
  }
  m << FrameLine("end " + std::to_string(next.size())) << '\n';
  std::string manifest_file = "manifest." + std::to_string(gen);
  PAPYRUS_RETURN_IF_ERROR(AtomicWriteFile(
      (fs::path(dir_) / manifest_file).string(), m.str()));
  PAPYRUS_RETURN_IF_ERROR(Crash(CrashPoint::kBeforeManifestSwap));
  PAPYRUS_RETURN_IF_ERROR(AtomicWriteFile(
      (fs::path(dir_) / "CURRENT").string(), manifest_file + "\n"));
  PAPYRUS_RETURN_IF_ERROR(Crash(CrashPoint::kAfterManifestSwap));

  // 3. The generation owns its records now; shrink the log.
  PAPYRUS_RETURN_IF_ERROR(wal_.Reset(base));
  PAPYRUS_RETURN_IF_ERROR(Crash(CrashPoint::kAfterWalReset));

  generation_ = gen;
  wal_base_ = base;
  current_ = std::move(next);
  ++save_stats_.generations;
  save_stats_.sections_written += written;
  save_stats_.sections_reused += reused;
  PruneUnreferenced();
  return Status::OK();
}

void SessionStore::PruneUnreferenced() {
  std::set<std::string> keep = {"CURRENT", "wal.log",
                                "manifest." + std::to_string(generation_)};
  for (const auto& [name, sf] : current_) keep.insert(sf.file);
  std::error_code ec;
  for (const fs::directory_entry& entry :
       fs::directory_iterator(dir_, ec)) {
    std::string base = entry.path().filename().string();
    if (keep.count(base) != 0) continue;
    bool is_generation_file =
        base.rfind(".g") != std::string::npos ||
        StartsWith(base, "manifest.");
    // Migrated legacy snapshot dirs and orphaned temp files are garbage
    // once a manifest exists.
    bool is_legacy_snap = StartsWith(base, "snap.") ||
                          base.find(".tmp.") != std::string::npos;
    if (!is_generation_file && !is_legacy_snap) continue;
    std::error_code rm_ec;
    uintmax_t removed = fs::remove_all(entry.path(), rm_ec);
    if (!rm_ec) save_stats_.files_pruned += static_cast<int64_t>(removed);
  }
}

std::map<std::string, std::string> SessionStore::CurrentSectionFiles()
    const {
  std::map<std::string, std::string> out;
  for (const auto& [name, sf] : current_) out[name] = sf.file;
  return out;
}

Result<std::string> SessionStore::ReadSection(
    const std::string& name) const {
  auto it = current_.find(name);
  if (it == current_.end()) {
    return Status::NotFound("no section " + name);
  }
  PAPYRUS_ASSIGN_OR_RETURN(std::string text,
                           ReadFile(fs::path(dir_) / it->second.file));
  if (Fnv1a(text) != it->second.checksum) {
    return Status::InvalidArgument("section " + name +
                                   " fails its manifest checksum");
  }
  return text;
}

}  // namespace papyrus::storage
