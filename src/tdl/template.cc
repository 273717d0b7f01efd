#include "tdl/template.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "base/macros.h"
#include "tcl/parser.h"

namespace papyrus::tdl {

Result<TaskTemplate> ParseTemplateHeader(const std::string& script) {
  auto commands = tcl::ParseScript(script);
  if (!commands.ok()) return commands.status();
  if (commands->empty()) {
    return Status::InvalidArgument("empty task template");
  }
  const tcl::RawCommand& head = (*commands)[0];
  if (head.words.empty() || head.words[0].text != "task") {
    return Status::InvalidArgument(
        "task template must begin with a `task` command");
  }
  if (head.words.size() != 4) {
    return Status::InvalidArgument(
        "task command requires: task Name {Inputs} {Outputs}");
  }
  TaskTemplate tmpl;
  tmpl.name = head.words[1].text;
  if (tmpl.name.empty()) {
    return Status::InvalidArgument("task name must not be empty");
  }
  auto inputs = tcl::ParseList(head.words[2].text);
  if (!inputs.ok()) return inputs.status();
  auto outputs = tcl::ParseList(head.words[3].text);
  if (!outputs.ok()) return outputs.status();
  tmpl.formal_inputs = *inputs;
  tmpl.formal_outputs = *outputs;
  tmpl.script = script;
  return tmpl;
}

Status TemplateLibrary::Add(const std::string& script) {
  auto tmpl = ParseTemplateHeader(script);
  if (!tmpl.ok()) return tmpl.status();
  templates_[tmpl->name] = std::move(*tmpl);
  ++generation_;
  return Status::OK();
}

Status TemplateLibrary::AddFromFile(const std::string& path) {
  std::ifstream file(path);
  if (!file) {
    return Status::NotFound("cannot open task template file: " + path);
  }
  std::stringstream buffer;
  buffer << file.rdbuf();
  Status st = Add(buffer.str());
  if (!st.ok()) {
    return Status(st.code(), path + ": " + st.message());
  }
  return Status::OK();
}

Result<int> TemplateLibrary::LoadDirectory(const std::string& directory) {
  std::error_code ec;
  std::filesystem::directory_iterator it(directory, ec);
  if (ec) {
    return Status::NotFound("cannot read template directory " + directory +
                            ": " + ec.message());
  }
  int loaded = 0;
  std::vector<std::string> paths;
  for (const auto& entry : it) {
    if (entry.path().extension() == ".tdl") {
      paths.push_back(entry.path().string());
    }
  }
  std::sort(paths.begin(), paths.end());
  for (const std::string& path : paths) {
    PAPYRUS_RETURN_IF_ERROR(AddFromFile(path));
    ++loaded;
  }
  return loaded;
}

Result<const TaskTemplate*> TemplateLibrary::Find(
    const std::string& name) const {
  auto it = templates_.find(name);
  if (it == templates_.end()) {
    return Status::NotFound("no such task template: " + name);
  }
  return &it->second;
}

std::vector<std::string> TemplateLibrary::TemplateNames() const {
  std::vector<std::string> names;
  names.reserve(templates_.size());
  for (const auto& [name, tmpl] : templates_) names.push_back(name);
  return names;
}

bool ReadsStatus(const tcl::RawCommand& cmd) {
  for (const tcl::RawWord& w : cmd.words) {
    if (w.text.find("$status") != std::string::npos) return true;
  }
  return false;
}

bool NeedsSync(const tcl::RawCommand& cmd) {
  if (ReadsStatus(cmd)) return true;
  for (const tcl::RawWord& w : cmd.words) {
    if (w.text.find("attribute") != std::string::npos) return true;
  }
  return false;
}

std::string SubtaskScope(const std::string& parent_scope, size_t cmd_idx,
                         int depth) {
  return parent_scope + std::to_string(cmd_idx) + "." +
         std::to_string(depth) + "/";
}

Status RegisterThesisTemplates(TemplateLibrary* library) {
  // §4.2.3: the single-tool pad placement task.
  const char* kPadp = R"TDL(
task Padp {Incell} {Outcell}
step Pads_Placement {Incell} {Outcell} {padplace -c -o Outcell Incell}
)TDL";

  // Figure 4.2: generic synthesis from structure-level description to
  // padded physical layout, including a parallel simulation branch.
  const char* kStructureSynthesis = R"TDL(
task Structure_Synthesis {Incell Musa_Command} {Outcell Cell_Statistics}
# translate a high-level description to a multi-level logic network
step NetlistCompile {Incell} {cell.blif} {bdsyn -o cell.blif Incell}
# optimize a multi-level logic network
step Logic_Synthesis {cell.blif} {cell.logic} {misII -f script.msu -T oct -o cell.logic cell.blif}
# place pads
subtask Padp {cell.logic} {cell.padp}
# place and route to obtain a physical layout
step {1 Place_and_Route} {cell.padp} {Outcell} {wolfe -f -r 2 -o Outcell cell.padp}
# perform a multi-level simulation
step Simulate {cell.logic Musa_Command} {} {musa -i Musa_Command cell.logic} {ControlDependency 1}
# collect performance statistics
step Chip_Statistics_Collection {Outcell} {Cell_Statistics} {chipstats Outcell}
)TDL";

  // Figure 4.3: the Mosaico macro-cell place-and-route pipeline with the
  // $status-driven compaction fallback and a programmable abort.
  const char* kMosaico = R"TDL(
task Mosaico {Incell} {Outcell Cell_statistics}
# define the channel areas
step Channel_Definition {Incell} {cdOutput} {atlas -i -z -o cdOutput Incell}
# perform a global routing
step Global_Routing {cdOutput} {grOutput} {mosaicoGR cdOutput -r -ov grOutput}
# calculate the power and ground currents
step {1 Power_Ground_Current_Calculation} {grOutput} {pgOutput} {PGcurrent grOutput}
# perform a channel routing
step Channel_Routing {grOutput} {crOutput} {mosaicoDR -d -o crOutput -r YACR grOutput}
# format transformation
step Oct_Symbolic_Flattening_1 {crOutput grOutput} {flOutput1} {octflatten -r grOutput -o flOutput1 crOutput}
# minimizing the via areas
step Via_Minimization {flOutput1} {vmOutput} {mizer -o vmOutput flOutput1} {ControlDependency 1}
# another format transformation
step Oct_Symbolic_Flattening_2 {vmOutput Incell} {flOutput2} {octflatten -r Incell -o flOutput2 vmOutput}
# place pads
step Place_Pads {flOutput2} {ppOutput} {padplace -f -S -o ppOutput flOutput2}
# compact the layout starting with the horizontal direction
step Horizontal_Compaction {ppOutput} {Outcell1} {sparcs -t -w NWEL -w PWEL -w PLACE -o Outcell1 ppOutput}
# if not successful, compact the layout starting with the vertical direction
if {$status} {step Vertical_Compaction {ppOutput} {Outcell1} {sparcs -v -t -w NWEL -w PWEL -w PLACE -o Outcell1 ppOutput} {ResumedStep 1}}
# create a protection frame as a high-level abstraction
step Create_Abstraction_View {Outcell1} {Outcell} {vulcan Outcell1 -o Outcell}
# check for routing completeness
step Routing_Checks {Incell Outcell} {} {mosaicoRC -m 20 -c Incell Outcell}
# collect performance statistics
step Statistics_Calculation {Outcell1} {Cell_statistics} {chipstats Outcell1}
)TDL";

  // Figure 3.7 scenario tasks (Shifter-synthesis design thread).
  const char* kCreateLogicDescription = R"TDL(
task Create_Logic_Description {} {Outcell}
# interactive behavioral entry; must run on the designer's own machine
step Enter_Logic {} {cell.bds} {edit -inputs 8 -outputs 8 -complexity 12} {NonMigrate}
# format transformation
step Format_Transformation {cell.bds} {Outcell} {bdsyn -o Outcell cell.bds}
)TDL";

  const char* kLogicSimulation = R"TDL(
task Logic_Simulation {Incell} {}
step Simulate {Incell} {} {musa Incell}
)TDL";

  const char* kStandardCellPR = R"TDL(
task Standard_Cell_Place_and_Route {Incell} {Outcell}
step Place_and_Route {Incell} {Outcell} {wolfe -f -r 2 -o Outcell Incell}
)TDL";

  const char* kPlacePads = R"TDL(
task Place_Pads {Incell} {Outcell}
step Pads {Incell} {Outcell} {padplace -f -o Outcell Incell}
)TDL";

  const char* kPlaGeneration = R"TDL(
task PLA_Generation {Incell} {Outcell}
# two-level minimization
step {1 Two_Level_Minimization} {Incell} {cell.min} {espresso -o pleasure Incell}
# PLA folding
step Pla_Folding {cell.min} {cell.fold} {pleasure cell.min}
# array layout; on failure re-run folding (restart right after espresso)
step Array_Layout {cell.fold} {Outcell} {panda -o Outcell cell.fold} {ResumedStep 1}
)TDL";

  // Figure 3.4: the long-running macro place-and-route task whose
  // detailed-routing step resumes from the state after placement.
  const char* kMacroPR = R"TDL(
task Macro_Place_and_Route {Incell} {Outcell}
step Floor_Planning {Incell} {cell.fp} {atlas -i -o cell.fp Incell}
step {2 Placement} {cell.fp} {cell.place} {puppy -o cell.place cell.fp}
step Global_Routing {cell.place} {cell.gr} {mosaicoGR cell.place -ov cell.gr}
step Detailed_Routing {cell.gr} {Outcell} {mosaicoDR -d -o Outcell cell.gr} {ResumedStep 2}
)TDL";

  for (const char* script :
       {kPadp, kStructureSynthesis, kMosaico, kCreateLogicDescription,
        kLogicSimulation, kStandardCellPR, kPlacePads, kPlaGeneration,
        kMacroPR}) {
    PAPYRUS_RETURN_IF_ERROR(library->Add(script));
  }
  return Status::OK();
}

}  // namespace papyrus::tdl
