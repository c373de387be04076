// The uniform flags of the findep-bench driver (`run_families_main` in
// runtime/registry.h), parsed into SuiteOptions:
//
//   --seed S      master seed (default 1); every per-run seed derives
//                 from it, so one flag reproduces an entire sweep
//   --seeds K     seeds per scenario (default 3)
//   --threads T   worker threads (default: hardware concurrency)
//   --only SUB    run only scenarios whose name contains SUB
//   --exclude SUB skip scenarios whose name contains SUB (applied after
//                 --only; what CI uses to carve protocol-comparison
//                 cells out of byte-identity cmp's)
//   --family F    run only the named families (repeatable / comma list)
//   --set A=V,V   override grid axis A with the listed values
//   --list        print scenario families and exit
//   --csv / --json  machine-readable output instead of tables
//   --out FILE    write the rendered results to FILE instead of stdout
//                 (stdout keeps a one-line confirmation, so scripted
//                 sweeps can pipe freely)
//
// Distributed-sweep modes (mutually exclusive — see runtime/task.h for
// the wire protocol):
//   --emit-tasks  print the selected catalog as task JSONL and exit
//   --worker      execute task JSONL from stdin, stream result JSONL
//   --merge F...  gather result shards ("-" = stdin) into the standard
//                 table/CSV/JSON rendering
//
// findep-bench itself resolves two campaign flags before these are parsed
// (campaign/spec.h): `--spec FILE` lowers to `--family campaign --set ...`
// and `--report SHARD...` prints the campaign outcome report.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "runtime/sweep.h"

namespace findep::runtime {

/// One `--set axis=v1,v2` occurrence; values stay raw strings until they
/// are parsed against the typed axis they override.
struct AxisOverride {
  std::string axis;
  std::vector<std::string> values;
};

struct SuiteOptions {
  SweepOptions sweep{.base_seed = 1, .num_seeds = 3, .threads = 0};
  std::string only;                    // substring filter; empty = all
  std::string exclude;                 // drop names containing this
  std::vector<std::string> families;   // --family; empty = all
  std::vector<AxisOverride> sets;      // --set axis=v1,v2
  bool list = false;
  bool csv = false;
  bool json = false;
  std::string out_file;                // --out; empty = stdout
  bool emit_tasks = false;             // --emit-tasks
  bool worker = false;                 // --worker
  std::vector<std::string> merge;      // --merge shard paths ("-" = stdin)
};

/// Parses the uniform flags; returns false (after printing a specific
/// "error: ..." line plus usage to `err`) on a malformed command line —
/// including non-numeric, negative, or zero values where a positive
/// count is required.
[[nodiscard]] bool parse_suite_options(int argc, const char* const* argv,
                                       SuiteOptions& options,
                                       std::ostream& err);

}  // namespace findep::runtime
