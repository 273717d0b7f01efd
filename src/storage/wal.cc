#include "storage/wal.h"

#include "base/macros.h"
#include "base/strings.h"
#include "storage/atomic_file.h"

namespace papyrus::storage {

namespace {

std::string HeaderLine(uint64_t base_seq) {
  return FrameLine("papyrus-wal 1 " + std::to_string(base_seq)) + "\n";
}

}  // namespace

Result<WalReplay> WriteAheadLog::Scan(const std::string& path) {
  WalReplay replay;
  Result<std::string> read = ReadFile(path);
  if (!read.ok()) return replay;  // missing log = empty log
  const std::string& text = *read;
  bool saw_header = false;
  uint64_t last_seq = 0;
  JournalScan scan = ScanJournal(text, 0, [&](std::string_view body) {
    if (!saw_header) {
      std::vector<std::string> f = SplitWhitespace(body);
      saw_header = f.size() == 3 && f[0] == "papyrus-wal" && f[1] == "1" &&
                   ParseU64(f[2], &replay.base_seq);
      last_seq = replay.base_seq;
      return saw_header;
    }
    // "w <seq> <body>"; a regressing sequence ends the valid prefix.
    size_t sp = body.find(' ', 2);
    uint64_t seq = 0;
    if (body.substr(0, 2) != "w " ||
        !ParseU64(body.substr(2, sp == std::string_view::npos ? sp : sp - 2),
                  &seq) ||
        seq <= last_seq) {
      return false;
    }
    replay.records.push_back(
        {seq, std::string(sp == std::string_view::npos ? ""
                                                       : body.substr(sp + 1))});
    last_seq = seq;
    return true;
  });
  if (!saw_header && !text.empty()) {
    return Status::InvalidArgument("not a papyrus-wal file: " + path);
  }
  replay.valid_bytes = scan.valid_end;
  replay.truncated = scan.torn;
  replay.dropped_bytes = static_cast<int64_t>(text.size() - scan.valid_end);
  replay.next_seq = last_seq + 1;
  return replay;
}

Result<WalReplay> WriteAheadLog::Open(const std::string& path) {
  PAPYRUS_ASSIGN_OR_RETURN(WalReplay replay, Scan(path));
  PAPYRUS_RETURN_IF_ERROR(log_.OpenLog(path, HeaderLine(0)));
  if (replay.truncated) {
    PAPYRUS_RETURN_IF_ERROR(log_.Truncate(replay.valid_bytes));
  }
  next_seq_ = replay.next_seq;
  return replay;
}

uint64_t WriteAheadLog::Append(std::string_view body) {
  uint64_t seq = next_seq_++;
  std::string line = "w " + std::to_string(seq) + " ";
  line.append(body.data(), body.size());
  log_.Append(line);
  return seq;
}

Status WriteAheadLog::Reset(uint64_t base_seq) {
  PAPYRUS_RETURN_IF_ERROR(log_.Reset(HeaderLine(base_seq)));
  next_seq_ = base_seq + 1;
  return Status::OK();
}

}  // namespace papyrus::storage
