#include "common.h"

#include <fcntl.h>
#include <signal.h>
#include <sched.h>
#include <sys/mount.h>
#include <sys/statfs.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>

extern char** environ;

namespace perfbench {

namespace fs = std::filesystem;

uint64_t Rng::Next() {
  uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

int64_t Rng::Range(int64_t lo, int64_t hi) {
  uint64_t span = static_cast<uint64_t>(hi - lo) + 1;
  return lo + static_cast<int64_t>(Next() % span);
}

double Rng::Unit() {
  return static_cast<double>(Next() >> 11) * (1.0 / 9007199254740992.0);
}

uint64_t MixSeed(uint64_t seed, uint64_t salt) {
  Rng rng(seed ^ (salt * 0xd1342543de82ef95ULL));
  return rng.Next();
}

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int64_t NowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

namespace {

size_t NearestRank(size_t n, double p) {
  double rank = std::ceil(p / 100.0 * static_cast<double>(n));
  size_t r = rank < 1.0 ? 1 : static_cast<size_t>(rank);
  return std::min(r, n);
}

}  // namespace

double Percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  size_t k = NearestRank(samples.size(), p) - 1;
  std::nth_element(samples.begin(), samples.begin() + k, samples.end());
  return samples[k];
}

double Median(std::vector<double> samples) {
  return Percentile(std::move(samples), 50.0);
}

double Sum(const std::vector<double>& samples) {
  double sum = 0.0;
  for (double s : samples) sum += s;
  return sum;
}

double Mean(const std::vector<double>& samples) {
  if (samples.empty()) return 0.0;
  return Sum(samples) / static_cast<double>(samples.size());
}

int64_t SamplesBeyond(size_t n, double p) {
  if (n == 0) return 0;
  return static_cast<int64_t>(n - NearestRank(n, p));
}

void Report::Add(const std::string& name, double value,
                 const std::string& unit) {
  if (!std::isfinite(value)) {
    Fail("metric " + name + " is not a finite number");
    value = 0.0;
  }
  metrics_.push_back({name, value, unit});
}

void Report::Note(const std::string& text) { notes_.push_back(text); }

void Report::Fail(const std::string& why) { problems_.push_back(why); }

namespace {

std::string JsonNumber(double v) {
  char buf[64];
  auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  if (ec != std::errc()) return "0";
  return std::string(buf, end);
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char esc[8];
      std::snprintf(esc, sizeof(esc), "\\u%04x", c);
      out += esc;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

}  // namespace

std::string Report::ToJson() const {
  std::ostringstream out;
  out << "{\"correct\": " << (correct() ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"metrics\": {";
  for (size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& m = metrics_[i];
    out << (i == 0 ? "" : ", ") << JsonString(m.name)
        << ": {\"value\": " << JsonNumber(m.value)
        << ", \"unit\": " << JsonString(m.unit) << "}";
  }
  out << "}}";
  return out.str();
}

int64_t TreeBytes(const std::string& dir) {
  std::error_code ec;
  if (!fs::exists(dir, ec)) return 0;
  if (fs::is_regular_file(dir, ec)) {
    auto size = fs::file_size(dir, ec);
    return ec ? 0 : static_cast<int64_t>(size);
  }
  int64_t total = 0;
  for (auto it = fs::recursive_directory_iterator(dir, ec);
       !ec && it != fs::recursive_directory_iterator(); it.increment(ec)) {
    std::error_code size_ec;
    if (it->is_regular_file(size_ec)) {
      auto size = it->file_size(size_ec);
      if (!size_ec) total += static_cast<int64_t>(size);
    }
  }
  return total;
}

void RemoveTree(const std::string& dir) {
  std::error_code ec;
  fs::remove_all(dir, ec);
}

void CopyTree(const std::string& from, const std::string& to) {
  RemoveTree(to);
  std::error_code ec;
  fs::copy(from, to, fs::copy_options::recursive, ec);
}

std::string Medium(const std::string& path) {
  struct statfs info;
  if (::statfs(path.c_str(), &info) != 0) return "unknown";
  constexpr long kTmpfsMagic = 0x01021994;
  return info.f_type == kTmpfsMagic ? "tmpfs" : "disk";
}

bool MountPrivateTmpfs(const std::string& dir) {
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec || ::unshare(CLONE_NEWNS) != 0) return false;
  // Keep the mount from propagating back to the parent namespace.
  if (::mount(nullptr, "/", nullptr, MS_REC | MS_PRIVATE, nullptr) != 0) return false;
  return ::mount("tmpfs", dir.c_str(), "tmpfs", MS_NOSUID | MS_NODEV,
                 "size=2g,mode=0755") == 0;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

bool WriteFile(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << text;
  return static_cast<bool>(out);
}

double PeakRssMiB(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

pid_t Spawn(const std::vector<std::string>& argv, const std::string& log_path) {
  std::vector<std::string> env;
  for (char** e = environ; *e != nullptr; ++e) {
    std::string entry(*e);
    if (entry.substr(0, entry.find('=')) == "PAPYRUS_TEST_WORKERS") continue;
    env.push_back(entry);
  }
  std::vector<char*> argv_c;
  for (const std::string& a : argv) argv_c.push_back(const_cast<char*>(a.c_str()));
  argv_c.push_back(nullptr);
  std::vector<char*> env_c;
  for (const std::string& e : env) env_c.push_back(const_cast<char*>(e.c_str()));
  env_c.push_back(nullptr);

  pid_t pid = ::fork();
  if (pid == 0) {
    int null_in = ::open("/dev/null", O_RDONLY);
    int log = ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
    if (null_in >= 0) ::dup2(null_in, 0);
    if (log >= 0) {
      ::dup2(log, 1);
      ::dup2(log, 2);
    }
    ::execve(argv_c[0], argv_c.data(), env_c.data());
    ::_exit(127);
  }
  return pid;
}

void KillAndReap(pid_t pid) {
  if (pid <= 0) return;
  ::kill(pid, SIGKILL);
  int status = 0;
  while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
}

}  // namespace perfbench
