#ifndef PAPYRUS_STORAGE_JOURNAL_H_
#define PAPYRUS_STORAGE_JOURNAL_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "base/result.h"
#include "base/status.h"
#include "storage/file_lock.h"

namespace papyrus::storage {

/// Receives one checksum-verified line body; returning false ends the
/// valid prefix at that line.
using JournalVisitor = std::function<bool(std::string_view body)>;

/// Where the longest valid prefix of a scanned text ends.
struct JournalScan {
  size_t valid_end = 0;  // offset just past the last accepted line
  int64_t lines = 0;     // lines accepted
  bool torn = false;     // bytes after valid_end were rejected
};

/// The longest-valid-prefix scan every journal reader shares: walks
/// `text` from `offset` and hands each complete line whose FrameLine
/// checksum verifies to `visit`, stopping at the first line that was cut
/// mid-write, fails its checksum, or is refused.
JournalScan ScanJournal(std::string_view text, size_t offset,
                        const JournalVisitor& visit);

/// A checksummed append-only line journal, optionally over a single-file
/// checkpoint — the one durability primitive under the write-ahead log,
/// the daemon's task queue and the shared artifact store.
///
///   * Lines are FrameLine-framed. Recovery keeps the longest valid
///     prefix and truncates the torn tail, so new appends extend a valid
///     log instead of hiding behind garbage.
///   * Append only buffers; Commit writes the batch with one write and
///     one fsync (group commit). Nothing is acknowledged before that.
///   * Checkpoint writes the full state to the checkpoint file (an
///     unframed header line, then framed lines) by write-rename-fsync,
///     then atomically resets the log. A crash in between replays the
///     old log over the new checkpoint, so replay must be idempotent.
///   * With Options::lock_path set, several processes share the journal:
///     Sync() takes the flock, notices a sibling's checkpoint (the log
///     file was replaced: its inode changed — the checkpoint epoch) and
///     then rebuilds from the checkpoint, and otherwise folds in the
///     lines siblings appended since the last look. Callers hold the
///     returned lock across their own appends and Commit.
///
/// Thread contract: no internal locking; owners serialize calls.
class Journal {
 public:
  struct Options {
    std::string path;               // the log
    std::string checkpoint_path;    // "" = no checkpoint file
    std::string checkpoint_header;  // its unframed first line
    /// Non-empty: the journal is shared by several processes.
    std::string lock_path;
  };

  struct Stats {
    int64_t records_appended = 0;
    int64_t commits = 0;
    int64_t syncs = 0;
    int64_t bytes_written = 0;
    int64_t resets = 0;
  };

  Journal() = default;
  ~Journal();
  Journal(const Journal&) = delete;
  Journal& operator=(const Journal&) = delete;

  /// Loads the checkpoint, then the log's longest valid prefix, through
  /// `visit`, and opens the log for appending. Shared journals keep both
  /// callbacks for Sync() — `reload` runs before the state is rebuilt
  /// after a sibling's checkpoint — and return the lock, held so the
  /// caller can finish its recovery before a sibling looks.
  Result<std::unique_ptr<FileLock>> Open(
      Options options, JournalVisitor visit,
      std::function<void()> reload = nullptr);

  /// Opens `path` for appending at its end without reading it (the WAL
  /// scans on its own), creating it with `initial` when missing or empty.
  Status OpenLog(const std::string& path, std::string_view initial);

  /// Cuts the log back to `size` bytes (a torn tail) durably.
  Status Truncate(uint64_t size);

  /// Shared journals: takes the lock and catches up with siblings. The
  /// lock is held until the returned guard dies. Exclusive: null guard.
  Result<std::unique_ptr<FileLock>> Sync();

  /// Buffers one framed line. Bodies must be single-line.
  void Append(std::string_view body);

  /// Writes everything buffered with one write and one fsync. No-op when
  /// nothing is buffered. Returns the bytes made durable.
  Result<int64_t> Commit();

  /// Append(body), then Commit(): one record made durable.
  Status CommitLine(std::string_view body);

  /// Writes `bodies` as the checkpoint, then resets the log to empty.
  Status Checkpoint(const std::vector<std::string>& bodies);

  /// Atomically replaces the log with `initial`; drops buffered lines.
  Status Reset(std::string_view initial);

  void Close();

  bool is_open() const { return fd_ >= 0; }
  size_t buffered() const { return buffered_; }
  /// Valid lines in the current log (siblings' included once synced).
  int64_t lines() const { return lines_; }
  const Stats& stats() const { return stats_; }

 private:
  /// Rebuilds the owner's state: checkpoint, then the whole log.
  Status Reload();
  Status LoadCheckpoint();
  /// (Re)opens the fd on `options_.path`, whose first `size` bytes are
  /// accounted for.
  Status Reopen(uint64_t size);
  /// Folds in the log from `offset_` to EOF, truncating a torn tail.
  Status CatchUp();

  Options options_;
  JournalVisitor visit_;
  std::function<void()> reload_;
  int fd_ = -1;
  uint64_t offset_ = 0;  // valid log bytes folded in or written
  int64_t lines_ = 0;
  std::string buffer_;
  size_t buffered_ = 0;
  Stats stats_;
};

}  // namespace papyrus::storage

#endif  // PAPYRUS_STORAGE_JOURNAL_H_
