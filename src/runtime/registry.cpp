#include "runtime/registry.h"

#include <algorithm>
#include <fstream>
#include <iostream>
#include <stdexcept>

#include "runtime/task.h"

namespace findep::runtime {

std::size_t ScenarioFamily::instance_count() const noexcept {
  if (grids.empty()) return 1;
  std::size_t total = 0;
  for (const ParamGrid& grid : grids) total += grid.size();
  return total;
}

ScenarioRegistry& ScenarioRegistry::global() {
  static ScenarioRegistry registry;
  return registry;
}

void ScenarioRegistry::register_family(ScenarioFamily family) {
  if (family.name.empty()) {
    throw std::invalid_argument("scenario family must have a name");
  }
  if (family.factory == nullptr) {
    throw std::invalid_argument("scenario family '" + family.name +
                                "' has no factory");
  }
  if (find(family.name) != nullptr) {
    throw std::invalid_argument("scenario family '" + family.name +
                                "' registered twice");
  }
  families_.push_back(std::move(family));
}

const ScenarioFamily* ScenarioRegistry::find(const std::string& name) const {
  for (const ScenarioFamily& family : families_) {
    if (family.name == name) return &family;
  }
  return nullptr;
}

std::vector<const ScenarioFamily*> ScenarioRegistry::families() const {
  std::vector<const ScenarioFamily*> out;
  out.reserve(families_.size());
  for (const ScenarioFamily& family : families_) out.push_back(&family);
  std::sort(out.begin(), out.end(),
            [](const ScenarioFamily* a, const ScenarioFamily* b) {
              return a->name < b->name;
            });
  return out;
}

ScenarioRegistration::ScenarioRegistration(ScenarioFamily family) {
  ScenarioRegistry::global().register_family(std::move(family));
}

namespace {

std::string grid_summary(const std::vector<ParamGrid>& grids) {
  std::string out;
  for (const ParamGrid& grid : grids) {
    if (!out.empty()) out += "; ";
    if (grid.axes().empty()) {
      out += "(fixed)";
      continue;
    }
    std::string axes;
    for (const ParamGrid::Axis& axis : grid.axes()) {
      if (!axes.empty()) axes += ' ';
      axes += axis.name + "=[";
      for (std::size_t i = 0; i < axis.values.size(); ++i) {
        if (i != 0) axes += ',';
        axes += axis.values[i].to_string();
      }
      axes += ']';
    }
    out += axes;
  }
  return out.empty() ? "(fixed)" : out;
}

void list_families(const FamilySelection& selection, std::ostream& out) {
  std::size_t width = 0;
  for (const auto& [family, grids] : selection) {
    width = std::max(width, family->name.size());
  }
  for (const auto& [family, grids] : selection) {
    out << family->name << std::string(width - family->name.size(), ' ')
        << "  " << family->instance_count() << " scenario(s)";
    if (!family->deterministic) out << "  [measured]";
    out << "  " << family->description << '\n'
        << std::string(width + 2, ' ') << grid_summary(family->grids)
        << '\n';
  }
}

int usage_error(const std::string& message) {
  std::cerr << "error: " << message << '\n';
  return 2;
}

}  // namespace

FamilySelection select_families(const SuiteOptions& options) {
  const ScenarioRegistry& registry = ScenarioRegistry::global();
  std::vector<const ScenarioFamily*> families;
  for (const std::string& name : options.families) {
    const ScenarioFamily* family = registry.find(name);
    if (family == nullptr) {
      std::string known;
      for (const ScenarioFamily* f : registry.families()) {
        if (!known.empty()) known += ", ";
        known += f->name;
      }
      throw std::invalid_argument("unknown family '" + name +
                                  "' (available: " + known + ")");
    }
    if (std::find(families.begin(), families.end(), family) ==
        families.end()) {
      families.push_back(family);
    }
  }
  if (families.empty()) families = registry.families();
  std::sort(families.begin(), families.end(),
            [](const ScenarioFamily* a, const ScenarioFamily* b) {
              return a->name < b->name;
            });

  FamilySelection selection;
  for (const ScenarioFamily* family : families) {
    selection.emplace_back(family, family->grids);
  }
  // Every override must hit at least one selected grid — a typoed axis
  // is a usage error.
  for (const AxisOverride& over : options.sets) {
    bool applied = false;
    for (auto& [family, grids] : selection) {
      for (ParamGrid& grid : grids) {
        try {
          applied = grid.override_axis(over.axis, over.values) || applied;
        } catch (const std::invalid_argument& e) {
          throw std::invalid_argument(std::string("--set ") + e.what());
        }
      }
    }
    if (!applied) {
      throw std::invalid_argument("--set " + over.axis +
                                  ": no selected family has that axis");
    }
  }
  return selection;
}

int run_families_main(int argc, const char* const* argv) {
  SuiteOptions options;
  if (!parse_suite_options(argc, argv, options, std::cerr)) return 2;
  const bool merge = !options.merge.empty();

  // A worker executes whatever tasks arrive and a merge only renders
  // results, so neither selects families. The other modes expand the
  // catalog before opening --out: a bad --set value or factory argument
  // must not leave a truncated output file behind.
  std::vector<BoundTask> tasks;
  if (!options.worker && !merge) {
    try {
      const FamilySelection selection = select_families(options);
      if (options.list) {
        list_families(selection, std::cout);
        return 0;
      }
      tasks = expand_catalog(selection, options.sweep, options.only,
                             options.exclude);
    } catch (const std::invalid_argument& e) {
      return usage_error(e.what());
    }
  }

  // --out FILE redirects the rendered output; opened before the work so
  // a bad path fails before the sweep, not after.
  std::ofstream file;
  std::ostream* dest = &std::cout;
  if (!options.out_file.empty()) {
    file.open(options.out_file);
    if (!file) {
      return usage_error("cannot open --out file '" + options.out_file +
                         "'");
    }
    dest = &file;
  }

  int code = 0;
  if (options.worker) {
    code = run_worker(std::cin, *dest, std::cerr, options.sweep.threads);
  } else if (merge) {
    code = merge_shards(options.merge, options.csv, options.json, *dest,
                        std::cerr);
  } else if (options.emit_tasks) {
    for (const BoundTask& task : tasks) *dest << to_json(task.spec) << '\n';
  } else {
    code = run_sweep(tasks, options, *dest, std::cerr);
  }

  if (dest == &file) {
    // A truncated results file must not exit 0.
    file.flush();
    if (!file) {
      return usage_error("failed writing --out file '" + options.out_file +
                         "'");
    }
    // The in-process sweep keeps a one-line confirmation on stdout, so
    // scripted sweeps can pipe freely.
    if (!options.worker && !merge && !options.emit_tasks) {
      std::cout << "wrote " << options.out_file << " ("
                << (options.json ? "json" : options.csv ? "csv" : "tables")
                << ")\n";
    }
  }
  return code;
}

}  // namespace findep::runtime
