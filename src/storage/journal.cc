#include "storage/journal.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include "base/macros.h"
#include "base/strings.h"
#include "storage/atomic_file.h"

namespace papyrus::storage {

JournalScan ScanJournal(std::string_view text, size_t offset,
                        const JournalVisitor& visit) {
  JournalScan scan;
  scan.valid_end = offset;
  while (scan.valid_end < text.size()) {
    size_t nl = text.find('\n', scan.valid_end);
    std::string_view body;
    if (nl == std::string_view::npos ||
        !UnframeLine(text.substr(scan.valid_end, nl - scan.valid_end),
                     &body) ||
        !visit(body)) {
      scan.torn = true;
      break;
    }
    scan.valid_end = nl + 1;
    ++scan.lines;
  }
  return scan;
}

Journal::~Journal() { Close(); }

Result<std::unique_ptr<FileLock>> Journal::Open(
    Options options, JournalVisitor visit, std::function<void()> reload) {
  options_ = std::move(options);
  visit_ = std::move(visit);
  reload_ = std::move(reload);
  std::unique_ptr<FileLock> lock;
  if (!options_.lock_path.empty()) {
    PAPYRUS_ASSIGN_OR_RETURN(lock, FileLock::Acquire(options_.lock_path));
  }
  PAPYRUS_RETURN_IF_ERROR(Reload());
  return lock;
}

Status Journal::Reload() {
  if (reload_) reload_();
  PAPYRUS_RETURN_IF_ERROR(LoadCheckpoint());
  PAPYRUS_RETURN_IF_ERROR(OpenLog(options_.path, ""));
  offset_ = 0;  // fold in the whole log
  return CatchUp();
}

Status Journal::LoadCheckpoint() {
  if (options_.checkpoint_path.empty()) return Status::OK();
  Result<std::string> read = ReadFile(options_.checkpoint_path);
  if (!read.ok()) return Status::OK();  // never checkpointed
  const std::string& text = *read;
  size_t nl = text.find('\n');
  if (nl == std::string::npos ||
      text.compare(0, nl, options_.checkpoint_header) != 0) {
    return Status::Internal("bad checkpoint header in " +
                            options_.checkpoint_path);
  }
  // Checkpoints land whole by rename; a damaged line still only ends the
  // prefix, as in the log.
  (void)ScanJournal(text, nl + 1, visit_);
  return Status::OK();
}

Status Journal::OpenLog(const std::string& path, std::string_view initial) {
  options_.path = path;
  struct stat st;
  if (::stat(path.c_str(), &st) != 0 || st.st_size == 0) {
    PAPYRUS_RETURN_IF_ERROR(AtomicWriteFile(path, std::string(initial)));
    st.st_size = static_cast<off_t>(initial.size());
  }
  return Reopen(static_cast<uint64_t>(st.st_size));
}

Status Journal::Reopen(uint64_t size) {
  Close();
  fd_ = ::open(options_.path.c_str(), O_RDWR | O_APPEND | O_CLOEXEC);
  if (fd_ < 0) return Status::Internal("cannot open journal " + options_.path);
  offset_ = size;
  lines_ = 0;
  buffer_.clear();
  buffered_ = 0;
  return Status::OK();
}

Status Journal::Truncate(uint64_t size) {
  if (::ftruncate(fd_, static_cast<off_t>(size)) != 0 ||
      ::fsync(fd_) != 0) {
    return Status::Internal("cannot truncate torn tail of " +
                            options_.path);
  }
  offset_ = size;
  return Status::OK();
}

Status Journal::CatchUp() {
  std::string tail;
  char chunk[1 << 16];
  for (;;) {
    ssize_t n = ::pread(fd_, chunk, sizeof(chunk),
                        static_cast<off_t>(offset_ + tail.size()));
    if (n < 0) return Status::Internal("cannot read " + options_.path);
    if (n == 0) break;
    tail.append(chunk, static_cast<size_t>(n));
  }
  JournalScan scan = ScanJournal(tail, 0, visit_);
  lines_ += scan.lines;
  offset_ += scan.valid_end;
  // Everything past the valid prefix never durably happened. Appends
  // must not land behind it, where no replay would ever reach them.
  return scan.torn ? Truncate(offset_) : Status::OK();
}

Result<std::unique_ptr<FileLock>> Journal::Sync() {
  if (options_.lock_path.empty()) return std::unique_ptr<FileLock>();
  PAPYRUS_ASSIGN_OR_RETURN(std::unique_ptr<FileLock> lock,
                           FileLock::Acquire(options_.lock_path));
  struct stat disk, mine;
  if (::stat(options_.path.c_str(), &disk) != 0 ||
      ::fstat(fd_, &mine) != 0 || disk.st_ino != mine.st_ino ||
      disk.st_dev != mine.st_dev) {
    // A sibling checkpointed: our offset points into a log that is gone.
    PAPYRUS_RETURN_IF_ERROR(Reload());
  } else {
    PAPYRUS_RETURN_IF_ERROR(CatchUp());
  }
  return lock;
}

void Journal::Append(std::string_view body) {
  buffer_ += FrameLine(body);
  buffer_ += '\n';
  ++buffered_;
  ++stats_.records_appended;
}

Result<int64_t> Journal::Commit() {
  if (buffered_ == 0) return static_cast<int64_t>(0);
  if (fd_ < 0) return Status::FailedPrecondition("journal not open");
  size_t off = 0;
  while (off < buffer_.size()) {
    ssize_t n = ::write(fd_, buffer_.data() + off, buffer_.size() - off);
    if (n < 0) break;
    off += static_cast<size_t>(n);
  }
  if (off < buffer_.size() || ::fsync(fd_) != 0) {
    // The batch failed as a whole: cut any partial write back off so a
    // later commit does not land behind it.
    (void)::ftruncate(fd_, static_cast<off_t>(offset_));
    buffer_.clear();
    buffered_ = 0;
    return Status::Internal("journal commit failed: " + options_.path);
  }
  int64_t bytes = static_cast<int64_t>(buffer_.size());
  offset_ += static_cast<uint64_t>(bytes);
  lines_ += static_cast<int64_t>(buffered_);
  stats_.bytes_written += bytes;
  ++stats_.commits;
  ++stats_.syncs;
  buffer_.clear();
  buffered_ = 0;
  return bytes;
}

Status Journal::CommitLine(std::string_view body) {
  Append(body);
  return Commit().status();
}

Status Journal::Checkpoint(const std::vector<std::string>& bodies) {
  std::string text = options_.checkpoint_header + "\n";
  for (const std::string& body : bodies) {
    text += FrameLine(body);
    text += '\n';
  }
  PAPYRUS_RETURN_IF_ERROR(AtomicWriteFile(options_.checkpoint_path, text));
  return Reset("");
}

Status Journal::Reset(std::string_view initial) {
  if (fd_ < 0) return Status::FailedPrecondition("journal not open");
  PAPYRUS_RETURN_IF_ERROR(
      AtomicWriteFile(options_.path, std::string(initial)));
  PAPYRUS_RETURN_IF_ERROR(Reopen(initial.size()));
  ++stats_.resets;
  return Status::OK();
}

void Journal::Close() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
}

}  // namespace papyrus::storage
