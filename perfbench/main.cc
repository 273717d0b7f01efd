// papyrus_bench: runs one benchmark workload and prints its metrics.
//
//   papyrus_bench --workload NAME --seed N --seconds S --trace 0|1
//                 --work-dir DIR --papyrusd PATH
//
// Workloads: daemon_churn, daemon_hot, flow_deep. Human-readable notes go
// first; the last line of standard output is the JSON result. Usually
// started through perfbench/run.py, which builds this binary first.
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "common.h"
#include "workloads.h"

namespace perfbench {

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: papyrus_bench --workload daemon_churn|daemon_hot|flow_deep"
               " --seed N --seconds S --trace 0|1 --work-dir DIR"
               " --papyrusd PATH\n");
  return 2;
}

}  // namespace

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string key = argv[i], value = argv[i + 1];
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args.seconds = std::atoi(value.c_str());
    } else if (key == "--trace") {
      args.trace = value == "1";
    } else if (key == "--work-dir") {
      args.work_dir = std::filesystem::absolute(value).string();
    } else if (key == "--papyrusd") {
      args.papyrusd = std::filesystem::absolute(value).string();
    } else {
      return Usage();
    }
  }
  bool daemon = args.workload == "daemon_churn" || args.workload == "daemon_hot";
  if ((!daemon && args.workload != "flow_deep") || args.seconds < 1 ||
      args.work_dir.empty() || args.papyrusd.empty()) {
    return Usage();
  }
  std::error_code ec;
  std::filesystem::create_directories(args.work_dir, ec);
  // Relative paths from here on keep socket paths short.
  if (::chdir(args.work_dir.c_str()) != 0) {
    std::perror("chdir");
    return 1;
  }
  // Before any thread starts: unshare moves only the calling thread into
  // the new mount namespace.
  const bool tmpfs = MountPrivateTmpfs(kTmpfsDir);
  long nproc = ::sysconf(_SC_NPROCESSORS_ONLN);
  args.nproc = nproc > 0 ? static_cast<int>(nproc) : 1;

  Report report;
  std::printf("workload %s  seed %llu  seconds %d  trace %d  nproc %d\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace ? 1 : 0, args.nproc);
  std::fflush(stdout);
  if (!tmpfs) {
    // Every workload keeps its data on a tmpfs; on a disk its figures
    // spread far beyond the bounds (README.md, "Storage medium").
    report.Fail("cannot mount a private tmpfs on " + args.work_dir + "/" + kTmpfsDir +
                " (creating a mount namespace or mounting is not permitted)");
  } else if (daemon) {
    RunDaemonWorkload(args, &report);
  } else {
    RunFlowWorkload(args, &report);
  }
  for (const std::string& note : report.notes()) std::printf("  %s\n", note.c_str());
  for (const Metric& m : report.metrics()) {
    std::printf("  %-36s %14.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  for (const std::string& p : report.problems()) {
    std::printf("  CHECK FAILED: %s\n", p.c_str());
  }
  std::printf("%s\n", report.ToJson().c_str());
  return 0;
}
