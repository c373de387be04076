// findep-bench — the experiment CLI over the scenario registry.
//
// Every scenario family in the repository registers itself with the
// process-wide ScenarioRegistry; this binary can list, filter,
// re-parameterize and run any of them:
//
//   findep-bench --list                       # families, grids, sizes
//   findep-bench --family bft_scaling         # one family, default grid
//   findep-bench --family fig1_entropy --set x=1,10,100,1000
//   findep-bench --only "alpha=2" --seeds 16 --json
//   findep-bench --seeds 1                    # whole catalog, one seed
//
// The same catalog shards across processes (or machines) through the
// task wire format — coordinator, workers, merge:
//
//   findep-bench --emit-tasks | findep-bench --worker |
//     findep-bench --merge - --json        # ≡ findep-bench --json
//   findep-bench --emit-tasks > tasks.jsonl && split -n l/3 tasks.jsonl s.
//   findep-bench --worker < s.aa > r1.jsonl   # ... one per shard/host
//   findep-bench --merge r1.jsonl r2.jsonl r3.jsonl --csv --out sweep.csv
//
// Fault campaigns (the `campaign` family) add two flags, resolved here
// before the registry driver sees the command line (campaign/spec.h):
//
//   findep-bench --spec nightly.spec          # ≡ --family campaign --set ...
//   findep-bench --spec nightly.spec --emit-tasks > tasks.jsonl
//   findep-bench --report r1.jsonl r2.jsonl   # outcome rates per faulted
//                                             # component kind/target/fault
//
// All selected scenarios are swept through ONE global (scenario, seed)
// work queue, so even --seeds 1 fills every core; per-run results are
// bit-identical to --threads 1, and a merged distributed sweep is
// byte-identical to the in-process one (see DESIGN.md for the contract
// and the `micro` family's measured-timing exemption).
#include <exception>
#include <iostream>
#include <string>
#include <vector>

#include "campaign/report.h"
#include "campaign/spec.h"
#include "runtime/registry.h"

int main(int argc, char** argv) {
  findep::campaign::CampaignCommand command;
  try {
    command = findep::campaign::lower_campaign_flags({argv + 1, argv + argc});
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 2;
  }
  if (command.report.has_value()) {
    return findep::campaign::report_main(*command.report, std::cout,
                                         std::cerr);
  }
  std::vector<const char*> forwarded{argv[0]};
  for (const std::string& arg : command.args) forwarded.push_back(arg.c_str());
  return findep::runtime::run_families_main(
      static_cast<int>(forwarded.size()), forwarded.data());
}
