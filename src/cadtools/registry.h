#ifndef PAPYRUS_CADTOOLS_REGISTRY_H_
#define PAPYRUS_CADTOOLS_REGISTRY_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "base/result.h"
#include "cadtools/tool.h"

namespace papyrus::cadtools {

/// Maps tool names to implementations. The registry is the open end of
/// Papyrus' tool-encapsulation layer: adding or replacing a tool does not
/// affect task templates, which only mention tool names (§1.4).
class ToolRegistry {
 public:
  ToolRegistry() = default;
  ToolRegistry(const ToolRegistry&) = delete;
  ToolRegistry& operator=(const ToolRegistry&) = delete;

  /// Registers a tool, replacing any previous tool of the same name.
  void Register(std::unique_ptr<Tool> tool);

  Result<const Tool*> Find(const std::string& name) const;
  bool Has(const std::string& name) const { return tools_.count(name) > 0; }
  std::vector<std::string> ToolNames() const;
  size_t size() const { return tools_.size(); }

  /// Bumped by every Register: whatever was derived from the registry
  /// (a template's pre-flight lint) is stale once it moves.
  uint64_t generation() const { return generation_; }

 private:
  std::map<std::string, std::unique_ptr<Tool>> tools_;
  uint64_t generation_ = 0;
};

/// Registers the full mock OCT tool suite used by the thesis' example
/// templates (bdsyn, misII, espresso, pleasure, panda, wolfe, padplace,
/// musa, atlas, mosaicoGR, PGcurrent, mosaicoDR, octflatten, mizer,
/// sparcs, vulcan, mosaicoRC, chipstats, edit, crystal).
void RegisterStandardSuite(ToolRegistry* registry);

/// Convenience: a registry preloaded with the standard suite.
std::unique_ptr<ToolRegistry> CreateStandardRegistry();

}  // namespace papyrus::cadtools

#endif  // PAPYRUS_CADTOOLS_REGISTRY_H_
