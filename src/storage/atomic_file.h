#ifndef PAPYRUS_STORAGE_ATOMIC_FILE_H_
#define PAPYRUS_STORAGE_ATOMIC_FILE_H_

#include <filesystem>
#include <string>
#include <vector>

#include "base/result.h"
#include "base/status.h"

namespace papyrus::storage {

/// Durably replaces the file at `path` with `content`:
///
///   1. writes `content` to `<path>.tmp` and flushes it,
///   2. fsyncs the temp file so the bytes (not just the metadata) are on
///      stable storage before the swap,
///   3. atomically renames the temp file over `path`,
///   4. fsyncs the containing directory so the rename itself survives a
///      host crash.
///
/// A crash at any point leaves either the previous file or the complete
/// new one — never a torn or half-written snapshot. Every durable save
/// path in the tree (session snapshots, `cache.pdc`, the daemon's queue
/// checkpoints and `CURRENT` pointers) funnels through this helper so the
/// temp-file dance is written exactly once.
///
/// On failure the temp file is removed (best effort) and the previous
/// `path` contents are untouched.
Status AtomicWriteFile(const std::string& path, const std::string& content);

/// One file of a batched atomic write.
struct PendingWrite {
  std::string path;
  std::string content;
};

/// Batched variant for writers that produce many files in one durable
/// step (the delta-snapshot shard writer): every file gets the same
/// temp-write + fsync + rename dance as AtomicWriteFile, but the
/// containing-directory fsync happens once per distinct parent directory
/// after all renames instead of once per file. For a generation of N
/// shards in one directory that is N+1 fsyncs instead of 2N.
///
/// Not transactional across files: a crash mid-batch can leave some
/// targets replaced and others not. Callers sequence a manifest swap
/// after the batch so partially written generations are never referenced.
Status AtomicWriteFiles(const std::vector<PendingWrite>& files);

/// The whole content of `path`; NotFound when it cannot be opened.
Result<std::string> ReadFile(const std::filesystem::path& path);

}  // namespace papyrus::storage

#endif  // PAPYRUS_STORAGE_ATOMIC_FILE_H_
