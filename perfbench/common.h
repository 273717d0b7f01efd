// Shared plumbing of the benchmark: arguments, seeded randomness, wall
// clocks, sample statistics, the result report, file-tree helpers and
// child-process control.
#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <sys/types.h>

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  /// Absolute paths; the process runs with `work_dir` as its cwd.
  std::string work_dir;
  std::string papyrusd;
  int nproc = 1;
};

/// Where the workloads keep their data, relative to `Args::work_dir`.
inline constexpr char kTmpfsDir[] = "tmpfs";

/// splitmix64: the seeded stream behind every generated input.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next();
  /// Uniform in [lo, hi].
  int64_t Range(int64_t lo, int64_t hi);
  double Unit();  // [0, 1)

 private:
  uint64_t state_;
};

/// Mixes a seed with a salt into an independent stream's seed.
uint64_t MixSeed(uint64_t seed, uint64_t salt);

/// Monotonic wall clock.
double NowSeconds();
int64_t NowNanos();

/// Nearest-rank percentile (p in [0, 100]) of unsorted samples.
double Percentile(std::vector<double> samples, double p);
double Median(std::vector<double> samples);
double Mean(const std::vector<double>& samples);
double Sum(const std::vector<double>& samples);
/// Samples strictly after the nearest-rank position of `p`.
int64_t SamplesBeyond(size_t n, double p);

/// One printed metric.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one run reports: metrics, the correctness verdict, request
/// accounting, and human-readable notes printed before the JSON line.
class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit);
  void Note(const std::string& text);
  /// Records a failed correctness check; the run reports correct=false.
  void Fail(const std::string& why);
  /// Folds a nested check's verdict in.
  void Check(bool ok, const std::string& why) {
    if (!ok) Fail(why);
  }

  bool correct() const { return problems_.empty(); }
  const std::vector<Metric>& metrics() const { return metrics_; }
  const std::vector<std::string>& notes() const { return notes_; }
  const std::vector<std::string>& problems() const { return problems_; }

  int64_t attempted = 0;
  int64_t failed = 0;

  /// The result object: {"correct", "attempted", "failed", "metrics"}.
  std::string ToJson() const;

 private:
  std::vector<Metric> metrics_;
  std::vector<std::string> notes_;
  std::vector<std::string> problems_;
};

// --- files ---------------------------------------------------------------

/// Total bytes of regular files under `dir`, or of `dir` itself when it
/// is a file (0 when absent).
int64_t TreeBytes(const std::string& dir);
void RemoveTree(const std::string& dir);
void CopyTree(const std::string& from, const std::string& to);
/// "tmpfs" or "disk", from statfs on `path`.
std::string Medium(const std::string& path);
/// Moves this process into a private mount namespace and mounts a tmpfs
/// on `dir` (created if needed), visible only to this process and its
/// children and gone when they exit. False when not permitted.
bool MountPrivateTmpfs(const std::string& dir);
std::string ReadFile(const std::string& path);
bool WriteFile(const std::string& path, const std::string& text);

/// VmHWM of a live process, in MiB (0 when unreadable).
double PeakRssMiB(pid_t pid);

// --- child processes --------------------------------------------------------

/// Starts `argv` with PAPYRUS_TEST_WORKERS removed from the environment.
/// Returns the pid, or -1.
pid_t Spawn(const std::vector<std::string>& argv, const std::string& log_path);
/// SIGKILLs `pid` and waits for it to end.
void KillAndReap(pid_t pid);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
