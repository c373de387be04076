// The declarative scenario registry.
//
// A *scenario family* is one experiment kind (a bench table, a paper
// figure) described declaratively: a name, a one-line description, the
// default parameter grids, and a factory that turns one grid point into a
// `Scenario` instance. Families register themselves process-wide at
// static-initialization time (`ScenarioRegistration` in the family's
// translation unit), so every binary linking the scenario library — the
// `findep-bench` CLI, the benchmark driver, the tests — sees the same
// catalog.
//
// `run_families_main()` is findep-bench's driver main on top of it:
// select families (`--family`), override grid axes
// (`--set axis=v1,v2`), then run the sweep pipeline of runtime/task.h —
// in process, or one stage of it (`--emit-tasks`, `--worker`,
// `--merge`).
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "runtime/param.h"
#include "runtime/scenario.h"
#include "runtime/suite.h"

namespace findep::runtime {

struct ScenarioFamily {
  /// Unique registry key, [a-z0-9_]+ by convention.
  std::string name;
  /// One line, shown by `--list`.
  std::string description;
  /// Union of cartesian blocks: most families have one grid; families
  /// whose parameter space is not a single product (e.g. a size sweep
  /// plus fault mixes at one size) register several. Empty = one
  /// parameterless instance.
  std::vector<ParamGrid> grids;
  /// Builds the scenario for one grid point.
  std::function<std::unique_ptr<Scenario>(const ParamSet&)> factory;
  /// False for measured (wall-clock timing) families, which are exempt
  /// from the bit-identical determinism contract.
  bool deterministic = true;

  /// Total instances across all grids.
  [[nodiscard]] std::size_t instance_count() const noexcept;
};

class ScenarioRegistry {
 public:
  /// The process-wide registry every family registers into.
  [[nodiscard]] static ScenarioRegistry& global();

  /// Throws std::invalid_argument on a duplicate or unnamed family or a
  /// null factory.
  void register_family(ScenarioFamily family);

  [[nodiscard]] const ScenarioFamily* find(const std::string& name) const;
  /// All families, sorted by name.
  [[nodiscard]] std::vector<const ScenarioFamily*> families() const;
  [[nodiscard]] std::size_t size() const noexcept {
    return families_.size();
  }

 private:
  std::vector<ScenarioFamily> families_;
};

/// Registers a family with the global registry at static-init time:
///   const ScenarioRegistration kFamily{{.name = ..., .factory = ...}};
struct ScenarioRegistration {
  explicit ScenarioRegistration(ScenarioFamily family);
};

/// The selected families, each with its (possibly axis-overridden) grids,
/// in catalog order (sorted by family name).
using FamilySelection =
    std::vector<std::pair<const ScenarioFamily*, std::vector<ParamGrid>>>;

/// Resolves `options.families` against the global registry (empty = every
/// family) and applies `options.sets` in command-line order, so a later
/// `--set` of an axis replaces an earlier one. Throws
/// std::invalid_argument on an unknown family, a `--set` value that does
/// not parse as its axis type, or a `--set` axis no selected grid has.
[[nodiscard]] FamilySelection select_families(const SuiteOptions& options);

/// findep-bench's main: parses the uniform flags (runtime/suite.h) and
/// runs the selected mode. Returns a process exit code: 0 ok, 1 when any
/// run failed, 2 on a usage or I/O error.
int run_families_main(int argc, const char* const* argv);

}  // namespace findep::runtime
