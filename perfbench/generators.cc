#include "generators.h"

#include <algorithm>
#include <cstdio>
#include <sstream>

#include "common.h"
#include "server/wire.h"

namespace perfbench {

namespace {

using papyrus::server::WireMessage;

constexpr int kChurnSessions = 512;
constexpr int kHotSessions = 32;
constexpr int kLibraryDerivations = 8;

std::string SessionName(const char* prefix, int index) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%s%03d", prefix, index);
  return buf;
}

std::string Line(const std::string& verb,
                 const std::vector<std::pair<std::string, std::string>>& fields) {
  WireMessage msg;
  msg.verb = verb;
  for (const auto& [key, value] : fields) msg.Add(key, value);
  return msg.Format();
}

}  // namespace

DaemonTraffic::DaemonTraffic(const std::string& workload, uint64_t seed,
                             int connections)
    : workload_(workload), seed_(seed), connections_(connections) {
  owned_.resize(connections);
  Rng rng(MixSeed(seed, 1));
  if (workload == "daemon_churn") {
    template_name_ = "Padp";
    for (int i = 0; i < kChurnSessions; ++i) {
      std::string name = SessionName("s", i);
      sessions_.push_back(name);
      // Every session checks in its own cell layout.
      checkins_[name] = {Line(
          "checkin", {{"session", name},
                      {"path", "/proj/cell"},
                      {"type", "layout"},
                      {"cells", std::to_string(rng.Range(16, 64))},
                      {"area", std::to_string(rng.Range(20000, 60000))},
                      {"seed", std::to_string(rng.Range(1, 1LL << 40))}})};
    }
  } else {
    template_name_ = "Structure_Synthesis";
    // One specification shared by every session and the library, so a
    // task that repeats a library seed is a derivation the shared store
    // already holds. Its size is fixed: it sets the work per task, which
    // should not vary with the seed.
    const std::string inputs = "8", outputs = "8", complexity = "12";
    std::string spec_seed = std::to_string(rng.Range(1, 1LL << 40));
    auto spec_lines = [&](const std::string& name) {
      return std::vector<std::string>{
          Line("checkin", {{"session", name},
                           {"path", "/proj/spec"},
                           {"type", "behav"},
                           {"inputs", inputs},
                           {"outputs", outputs},
                           {"complexity", complexity},
                           {"seed", spec_seed}}),
          Line("checkin", {{"session", name},
                           {"path", "/proj/sim.cmd"},
                           {"type", "text"},
                           {"text", "run 100"}})};
    };
    for (int i = 0; i < kHotSessions; ++i) {
      std::string name = SessionName("h", i);
      sessions_.push_back(name);
      checkins_[name] = spec_lines(name);
      // Before each task the session checks its spec in again: a new
      // version id with the same bytes. The session cache, keyed by
      // version ids, then misses, while the shared store, keyed by
      // content, still holds every library derivation.
      refresh_[name] = checkins_[name][0];
    }
    library_ = "lib";
    checkins_[library_] = spec_lines(library_);
    for (int j = 0; j < kLibraryDerivations; ++j) {
      // Bit 61 keeps library seeds apart from the per-task unique seeds.
      uint64_t lib_seed = (1ULL << 61) | (MixSeed(seed, 100 + j) >> 8);
      library_seeds_.push_back(lib_seed);
      std::string k = std::to_string(j);
      library_tasks_.push_back(
          Line("submit", {{"session", library_},
                          {"thread", "synth"},
                          {"template", template_name_},
                          {"in", "/proj/spec"},
                          {"in", "/proj/sim.cmd"},
                          {"out", "lib" + k + ".layout"},
                          {"out", "lib" + k + ".stats"},
                          {"seed", std::to_string(lib_seed)}}));
    }
  }
  for (size_t i = 0; i < sessions_.size(); ++i) {
    owned_[i % connections].push_back(sessions_[i]);
  }
}

const std::string& DaemonTraffic::SessionOf(int c, int64_t k) const {
  const std::vector<std::string>& mine = owned_[c];
  return mine[static_cast<size_t>(k) % mine.size()];
}

const std::string& DaemonTraffic::Refresh(int c, int64_t k) const {
  static const std::string kNone;
  auto it = refresh_.find(SessionOf(c, k));
  return it == refresh_.end() ? kNone : it->second;
}

std::string DaemonTraffic::Task(int c, int64_t k) const {
  const std::string& session = SessionOf(c, k);
  // Unique per (connection, index) and below 2^58: never a library seed,
  // never another task's.
  uint64_t unique = ((MixSeed(seed_, 2) & 0xFFFFF) << 37) |
                    (static_cast<uint64_t>(c) << 32) |
                    static_cast<uint64_t>(k);
  std::string tag = std::to_string(c) + "_" + std::to_string(k);
  if (template_name_ == "Padp") {
    return Line("submit", {{"session", session},
                           {"thread", "t"},
                           {"template", template_name_},
                           {"in", "/proj/cell"},
                           {"out", "p" + tag + ".padded"},
                           {"seed", std::to_string(unique)}});
  }
  Rng rng(MixSeed(seed_, 0x10000 + (static_cast<uint64_t>(c) << 40) +
                             static_cast<uint64_t>(k)));
  uint64_t task_seed = unique;
  if (rng.Unit() < 0.5) {
    task_seed = library_seeds_[rng.Next() % library_seeds_.size()];
  }
  return Line("submit", {{"session", session},
                         {"thread", "synth"},
                         {"template", template_name_},
                         {"in", "/proj/spec"},
                         {"in", "/proj/sim.cmd"},
                         {"out", "s" + tag + ".layout"},
                         {"out", "s" + tag + ".stats"},
                         {"seed", std::to_string(task_seed)}});
}

namespace {

/// Accumulates `step` commands with fresh object names.
class FlowWriter {
 public:
  void Step(const std::string& kind, const std::vector<std::string>& inputs,
            const std::vector<std::string>& outputs, const std::string& command) {
    out_ << "step " << kind << '_' << ++steps_ << " {";
    for (size_t i = 0; i < inputs.size(); ++i) out_ << (i ? " " : "") << inputs[i];
    out_ << "} {";
    for (size_t i = 0; i < outputs.size(); ++i) out_ << (i ? " " : "") << outputs[i];
    out_ << "} {" << command << "}\n";
  }
  std::string Fresh() { return "n" + std::to_string(++objects_); }
  int steps() const { return steps_; }
  std::string text() const { return out_.str(); }

 private:
  std::ostringstream out_;
  int steps_ = 0;
  int objects_ = 0;
};

/// One step of a deep chain: a one-input layout tool that keeps the cell
/// count, so a chain of any length stays the input's size.
std::string ChainStep(FlowWriter* w, int tool, const std::string& in, Rng* rng) {
  std::string out = w->Fresh();
  switch (tool % 4) {
    case 0:
      w->Step("Global_Route", {in}, {out},
              "mosaicoGR " + in + " -r -e " + std::to_string(rng->Range(1, 5)) +
                  " -ov " + out);
      break;
    case 1:
      w->Step("Via_Min", {in}, {out}, "mizer -o " + out + " " + in);
      break;
    case 2:
      w->Step("Abstract", {in}, {out}, "vulcan " + in + " -o " + out);
      break;
    default:
      w->Step("Place", {in}, {out}, "puppy -o " + out + " " + in);
      break;
  }
  return out;
}

}  // namespace

FlowSpec MakeFlow(uint64_t seed) {
  constexpr int kTargetSteps = 1000;
  constexpr int kChains = 40, kChainLength = 10;
  constexpr int kDiamonds = 40;
  constexpr int kFanouts = 24, kFanoutWidth = 9;
  Rng rng(MixSeed(seed, 3));
  FlowSpec spec;
  spec.name = "Deep_Flow";
  // The input's size is fixed, like daemon_hot's spec: it sets the work
  // per invocation, which should not vary with the seed. The layouts
  // themselves (their seeds) still do.
  spec.input_cells = 30;
  spec.input_area = 40000;

  // A fixed multiset of stages in seeded order: the shape mix (and so the
  // critical path) is the same for every seed, the layout differs.
  std::vector<char> stages;
  stages.insert(stages.end(), kChains, 'c');
  stages.insert(stages.end(), kDiamonds, 'd');
  stages.insert(stages.end(), kFanouts, 'f');
  for (size_t i = stages.size(); i > 1; --i) {
    std::swap(stages[i - 1], stages[rng.Next() % i]);
  }

  FlowWriter w;
  // Detailed routing first: every later layout is routed, so the routing
  // checks at the leaves pass.
  std::string main = w.Fresh();
  w.Step("Route", {"Incell"}, {main}, "mosaicoDR -d -o " + main + " Incell");
  for (char stage : stages) {
    if (stage == 'c') {
      int first_tool = static_cast<int>(rng.Range(0, 3));
      for (int i = 0; i < kChainLength; ++i) {
        main = ChainStep(&w, first_tool + i, main, &rng);
      }
    } else if (stage == 'd') {
      // main -> {b, c} -> join(b, c) -> check; the chain continues from b.
      std::string b = w.Fresh(), c = w.Fresh(), join = w.Fresh();
      w.Step("Diamond_Left", {main}, {b}, "mizer -o " + b + " " + main);
      w.Step("Diamond_Right", {main}, {c}, "vulcan " + main + " -o " + c);
      w.Step("Diamond_Join", {b, c}, {join},
             "octflatten -r " + c + " -o " + join + " " + b);
      w.Step("Diamond_Check", {main, join}, {},
             "mosaicoRC -m " + std::to_string(rng.Range(10, 30)) + " -c " +
                 main + " " + join);
      main = b;
    } else {
      for (int i = 0; i < kFanoutWidth; ++i) {
        std::string leaf = w.Fresh();
        if (i % 2 == 0) {
          w.Step("Fan_Via", {main}, {leaf}, "mizer -o " + leaf + " " + main);
        } else {
          w.Step("Fan_Route", {main}, {leaf},
                 "mosaicoGR " + main + " -r -e " +
                     std::to_string(rng.Range(1, 5)) + " -ov " + leaf);
        }
        w.Step("Fan_Check", {leaf}, {},
               "mosaicoRC -m " + std::to_string(rng.Range(10, 30)) + " " + leaf);
      }
    }
  }
  int tool = static_cast<int>(rng.Range(0, 3));
  while (w.steps() < kTargetSteps - 2) main = ChainStep(&w, tool++, main, &rng);
  w.Step("Final_Abstract", {main}, {"Outcell"}, "vulcan " + main + " -o Outcell");
  w.Step("Statistics", {"Outcell"}, {"Report"}, "chipstats Outcell");

  spec.steps = w.steps();
  spec.script = "task " + spec.name + " {Incell} {Outcell Report}\n" + w.text();
  return spec;
}

}  // namespace perfbench
