#ifndef PAPYRUS_STORAGE_WAL_H_
#define PAPYRUS_STORAGE_WAL_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "base/result.h"
#include "base/status.h"
#include "storage/journal.h"

namespace papyrus::storage {

/// One journaled mutation: an opaque single-line body under a
/// monotonically increasing sequence number. Bodies are written by the
/// session glue (src/core) and carry their own scope tag ("object ...",
/// "thr ...", "cput ...", "state ..."). A scanned record's body views the
/// log text its WalReplay holds.
struct WalRecord {
  uint64_t seq = 0;
  std::string_view body;
};

/// The header version new logs are written with. Version 4 journals a
/// history node (`thr`) or a cache entry (`cput`) as the very lines its
/// section holds, joined on one line by a ` | ` separator, where
/// versions 1-3 percent-encoded the whole line block into one field.
/// Version 3 ends every group commit with a `commit` record, and replay
/// applies records only through the last one, so a torn batch is dropped
/// whole. Version 2 journals a new history node without re-journaling its
/// parent: the node's record carries the edge, and replay re-links the
/// parent. Logs of versions 1-3 still replay, as they always did, and
/// the session folds them into a generation at open; an older reader
/// refuses a newer log instead of misreading it.
inline constexpr int kWalVersion = 4;

/// What scanning a (possibly damaged) log recovered.
struct WalReplay {
  int version = kWalVersion;  // header version; a missing log is new
  /// The log's bytes, which the records' bodies view.
  std::shared_ptr<const std::string> text;
  std::vector<WalRecord> records;  // longest valid prefix, seq ascending
  uint64_t base_seq = 0;           // header base: seqs <= base are gone
  uint64_t next_seq = 1;           // 1 + last valid seq
  uint64_t valid_bytes = 0;        // prefix length that survived
  int64_t dropped_bytes = 0;       // torn/corrupt tail bytes discarded
  bool truncated = false;          // tail damage was detected
};

/// The checksummed append-only write-ahead log, on a storage::Journal.
///
/// Layout: one `papyrus-wal <version> <base_seq>` header line, then one
/// `w <seq> <body>` line per record, every line FrameLine-framed. Recovery
/// keeps the longest valid prefix: the first line whose checksum fails,
/// whose sequence regresses, or that is cut mid-line ends the replay, and
/// Open truncates the torn tail so new appends extend a valid log.
///
/// Journal-before-effect: callers append the records of a task's
/// mutations and Commit() before acknowledging the task anywhere outside
/// the session (queue completion, shared-store publication). Appends only
/// buffer; Commit writes the whole batch with a single fsync — the group
/// commit that replaces one whole-snapshot rewrite per task.
///
/// Thread contract: owned and driven by the session's engine thread; no
/// internal locking.
class WriteAheadLog {
 public:
  /// Scans `path` without opening it for writing. A missing file is an
  /// empty replay. Never modifies the file. The log is read once, into
  /// WalReplay::text, and the records view their bodies there.
  static Result<WalReplay> Scan(const std::string& path);

  /// Opens `path` for appending: scans it, truncates any torn tail, and
  /// positions at the end. Creates the file (base 0) when missing.
  Result<WalReplay> Open(const std::string& path);

  bool is_open() const { return log_.is_open(); }

  /// Buffers one record; returns its sequence number. Bodies must be
  /// single-line: a record of several section lines joins them (see
  /// activity::kRecordLineSeparator).
  uint64_t Append(std::string_view body);

  /// Writes everything buffered since the last Commit and fsyncs once.
  /// No-op (no write, no sync) when nothing is buffered. Returns the
  /// number of bytes made durable.
  Result<int64_t> Commit() { return log_.Commit(); }

  /// Atomically replaces the log with a fresh header carrying
  /// `base_seq`: records with seq <= base_seq now live in a snapshot
  /// generation. Discards anything buffered. The log stays open.
  Status Reset(uint64_t base_seq);

  void Close() { log_.Close(); }

  uint64_t next_seq() const { return next_seq_; }
  size_t buffered_records() const { return log_.buffered(); }

  /// Lifetime totals (the glue layer mirrors them into papyrus.wal.*).
  using Stats = Journal::Stats;
  const Stats& stats() const { return log_.stats(); }

 private:
  Journal log_;
  uint64_t next_seq_ = 1;
};

}  // namespace papyrus::storage

#endif  // PAPYRUS_STORAGE_WAL_H_
