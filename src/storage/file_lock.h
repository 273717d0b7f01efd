#ifndef PAPYRUS_STORAGE_FILE_LOCK_H_
#define PAPYRUS_STORAGE_FILE_LOCK_H_

#include <memory>
#include <string>

#include "base/result.h"
#include "base/status.h"

namespace papyrus::storage {

/// An advisory whole-file lock (flock) used to coordinate independent
/// papyrusd processes sharing one daemon root:
///
///   * a shared storage::Journal (the persistent queue, the artifact
///     store) takes the lock around every operation so concurrent
///     workers serialize their appends and checkpoints, and
///   * each worker holds a session's lock for as long as it hosts the
///     session, so exactly one process ever writes its snapshots.
///
/// Locks are per open-file-description: two FileLock instances on the
/// same path conflict even inside one process, which lets the tests
/// exercise the multi-worker protocol without spawning processes. The
/// kernel drops the lock automatically when the holder dies, so a
/// crashed worker never wedges the queue — the survivors just acquire
/// it on their next operation.
class FileLock {
 public:
  /// Blocks until the lock on `path` (created if missing) is held.
  static Result<std::unique_ptr<FileLock>> Acquire(const std::string& path);

  /// Non-blocking acquire. Returns Unavailable when another holder
  /// (process or open description) has the lock right now.
  static Result<std::unique_ptr<FileLock>> TryAcquire(
      const std::string& path);

  FileLock(const FileLock&) = delete;
  FileLock& operator=(const FileLock&) = delete;
  ~FileLock();

  const std::string& path() const { return path_; }

 private:
  FileLock(std::string path, int fd) : path_(std::move(path)), fd_(fd) {}

  static Result<std::unique_ptr<FileLock>> AcquireImpl(
      const std::string& path, bool blocking);

  std::string path_;
  int fd_ = -1;
};

}  // namespace papyrus::storage

#endif  // PAPYRUS_STORAGE_FILE_LOCK_H_
