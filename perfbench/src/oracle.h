// The correctness references a run checks its cells against at the
// default seed. Both files are only read.
//
//   - ci/golden_catalog.json.gz: every deterministic record of the
//     catalog without a protocol axis, two runs per scenario (base
//     seed 1), as `findep-bench --seeds 2 --exclude proto= --json`
//     renders them;
//   - ci/micro_baseline.csv: the exact `count` rows the perf gate pins,
//     one run at base seed 1, including every `proto=` cell.
#pragma once

#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "runtime/metrics.h"

namespace perfbench {

/// The suite's default base seed: the one both references were made at.
inline constexpr std::uint64_t kReferenceSeed = 1;

class References {
 public:
  /// Loads the references of the scenarios named in `names` from the
  /// repository rooted at `root`. Throws std::runtime_error when a file
  /// cannot be read.
  static References load(const std::string& root,
                         const std::set<std::string>& names);

  /// Compares `record`, the run with index `run_index` at the reference
  /// seed, against the scenario's reference. Returns an explanation of
  /// the first difference, or empty when it matches. Cells with a
  /// protocol axis are checked against the count rows (run 0 only);
  /// other cells against the golden catalog (runs 0 and 1).
  [[nodiscard]] std::string compare(
      const std::string& name, std::size_t run_index,
      const findep::runtime::MetricRecord& record) const;

  /// Reference runs available for `name` (0 when it has none).
  [[nodiscard]] std::size_t runs(const std::string& name) const;

 private:
  using Values = std::vector<std::pair<std::string, std::string>>;
  std::map<std::string, std::vector<Values>> golden_;
  std::map<std::string, Values> counts_;
};

}  // namespace perfbench
