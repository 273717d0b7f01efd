// Seeded input generators. The program under test receives only what
// these produce: wire-protocol lines for the daemon workloads and TDL
// template text for the flow workload. The same seed gives the same
// inputs.
#ifndef PERFBENCH_GENERATORS_H_
#define PERFBENCH_GENERATORS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Traffic of one daemon workload. Sessions are partitioned among the
/// connections (connection c owns every session whose index is c modulo
/// the connection count) and each connection rotates through its own
/// sessions, so a session's task sequence — and therefore its durable
/// state — does not depend on how the connections interleave.
class DaemonTraffic {
 public:
  DaemonTraffic(const std::string& workload, uint64_t seed, int connections);

  const std::string& workload() const { return workload_; }
  const std::string& template_name() const { return template_name_; }
  int connections() const { return connections_; }
  /// Sessions that receive measured tasks.
  const std::vector<std::string>& sessions() const { return sessions_; }
  /// Sessions connection `c` checks in during set-up, in order.
  const std::vector<std::string>& owned(int c) const { return owned_[c]; }
  /// Check-in lines of one session (measured or library).
  const std::vector<std::string>& checkins(const std::string& session) const {
    return checkins_.at(session);
  }
  /// The set-up-only library session ("" when the workload has none) and
  /// the submit lines that publish its derivations to the shared store.
  const std::string& library() const { return library_; }
  const std::vector<std::string>& library_tasks() const { return library_tasks_; }

  /// Target session and submit line of connection `c`'s `k`-th task.
  const std::string& SessionOf(int c, int64_t k) const;
  std::string Task(int c, int64_t k) const;
  /// The check-in sent just before that task ("" when the workload sends
  /// none): on daemon_hot, the session's spec again, byte for byte.
  const std::string& Refresh(int c, int64_t k) const;

 private:
  std::string workload_;
  uint64_t seed_;
  int connections_;
  std::string template_name_;
  std::vector<std::string> sessions_;
  std::vector<std::vector<std::string>> owned_;
  std::map<std::string, std::vector<std::string>> checkins_;
  std::map<std::string, std::string> refresh_;
  std::string library_;
  std::vector<std::string> library_tasks_;
  std::vector<uint64_t> library_seeds_;
};

/// One generated TDL flow plus the shape of the layouts it is run on.
struct FlowSpec {
  std::string name;    // template name
  std::string script;  // TDL text
  int steps = 0;
  int input_cells = 0;
  int input_area = 0;
};

/// About 1,000 steps of diamond fan-outs, deep chains and wide fan-outs
/// over the layout tools. Layout growth is bounded: the main chain only
/// passes through one-input tools, and the one two-input join
/// (octflatten) feeds a routing check, never a later join, so no layout
/// grows past twice the input's cell count.
FlowSpec MakeFlow(uint64_t seed);

}  // namespace perfbench

#endif  // PERFBENCH_GENERATORS_H_
