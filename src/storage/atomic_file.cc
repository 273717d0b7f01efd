#include "storage/atomic_file.h"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <system_error>

#ifndef _WIN32
#include <fcntl.h>
#include <unistd.h>
#endif

namespace papyrus::storage {

namespace {

/// Fsyncs `path` (a file or a directory). Returns false on failure; the
/// caller decides whether that is fatal. On platforms without the POSIX
/// calls this is a no-op success.
bool FsyncPath(const std::filesystem::path& path, bool directory) {
#ifndef _WIN32
  int flags = O_RDONLY;
#ifdef O_DIRECTORY
  if (directory) flags |= O_DIRECTORY;
#else
  (void)directory;
#endif
  int fd = ::open(path.c_str(), flags);
  if (fd < 0) return false;
  bool ok = ::fsync(fd) == 0;
  ::close(fd);
  return ok;
#else
  (void)path;
  (void)directory;
  return true;
#endif
}

}  // namespace

namespace {

/// The temp-write + fsync + rename dance without the parent-directory
/// fsync, so single-file and batched writers share one implementation.
Status ReplaceFileDurably(const std::string& path,
                          const std::string& content) {
  std::filesystem::path final_path(path);
  std::filesystem::path tmp_path = final_path;
  // Process-unique temp name: concurrent writers of the same target
  // (daemon workers sharing a root) each rename their own temp file —
  // last rename wins — instead of one stealing the other's temp.
#ifndef _WIN32
  tmp_path += ".tmp." + std::to_string(::getpid());
#else
  tmp_path += ".tmp";
#endif
  {
    std::ofstream out(tmp_path, std::ios::trunc | std::ios::binary);
    if (!out) {
      return Status::Internal("cannot write " + tmp_path.string());
    }
    out << content;
    out.flush();
    if (!out) {
      std::error_code cleanup_ec;
      std::filesystem::remove(tmp_path, cleanup_ec);
      return Status::Internal("short write to " + tmp_path.string());
    }
  }
  // The stream is closed; push the bytes to stable storage before the
  // rename makes them the authoritative copy.
  if (!FsyncPath(tmp_path, /*directory=*/false)) {
    std::error_code cleanup_ec;
    std::filesystem::remove(tmp_path, cleanup_ec);
    return Status::Internal("cannot fsync " + tmp_path.string());
  }
  std::error_code rename_ec;
  std::filesystem::rename(tmp_path, final_path, rename_ec);
  if (rename_ec) {
    std::error_code cleanup_ec;
    std::filesystem::remove(tmp_path, cleanup_ec);
    return Status::Internal("cannot replace " + path + ": " +
                            rename_ec.message());
  }
  return Status::OK();
}

}  // namespace

Status AtomicWriteFile(const std::string& path,
                       const std::string& content) {
  Status st = ReplaceFileDurably(path, content);
  if (!st.ok()) return st;
  // Make the rename durable. A missing parent fsync is not fatal for the
  // simulated workloads but is attempted for real-filesystem hygiene.
  std::filesystem::path parent =
      std::filesystem::path(path).parent_path();
  if (!parent.empty()) (void)FsyncPath(parent, /*directory=*/true);
  return Status::OK();
}

Status AtomicWriteFiles(const std::vector<PendingWrite>& files) {
  std::vector<std::filesystem::path> parents;
  for (const PendingWrite& file : files) {
    Status st = ReplaceFileDurably(file.path, file.content);
    if (!st.ok()) return st;
    std::filesystem::path parent =
        std::filesystem::path(file.path).parent_path();
    if (parent.empty()) continue;
    bool seen = false;
    for (const std::filesystem::path& p : parents) {
      if (p == parent) {
        seen = true;
        break;
      }
    }
    if (!seen) parents.push_back(std::move(parent));
  }
  // One directory sync per distinct parent, after every rename landed.
  for (const std::filesystem::path& parent : parents) {
    (void)FsyncPath(parent, /*directory=*/true);
  }
  return Status::OK();
}

Result<std::string> ReadFile(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::NotFound("cannot read " + path.string());
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

}  // namespace papyrus::storage
