// The sweep pipeline and its task wire format (JSONL).
//
// A sweep is one pipeline: expand the selected catalog into tasks,
// execute them on a worker pool, render the results. The in-process sweep
// runs it in memory; a distributed sweep cuts it at the task list: the
// coordinator prints the expanded tasks as `TaskSpec` lines
// (`--emit-tasks`), any number of workers execute them through the same
// source/collector pair (`--worker`: task JSONL on stdin, `TaskResult`
// JSONL on stdout), and a merge step renders the result shards through
// the same renderer (`--merge`). Because both sides derive the run seed
// as `derive_seed(base_seed, run_index)` and doubles travel as
// 17-significant-digit shortest-round-trip text, the merged
// table/CSV/JSON is byte-identical to sweeping the same catalog in one
// process — the repo's reproducibility contract survives sharding.
//
// Wire schema (one JSON object per line; doubles may be the bare tokens
// `inf`, `-inf`, `nan` — a deliberate JSONL extension, parsed by this
// module on both sides):
//
//   task:   {"family": "...", "params": [{"name": "...", "type":
//           "bool|int|double|string", "value": "..."}, ...],
//           "base_seed": N, "run_index": N, "sequence": N}
//   result: {"family": "...", "scenario": "...", "sequence": N,
//           "seed": N, "run_index": N, "metrics": {...}}   (ok)
//           {..., "error": "..."}                          (failed run)
//
// `sequence` is the scenario instance's position in the expanded catalog;
// the renderer orders scenarios by it (ties by first appearance), so the
// catalog order survives any sharding.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "runtime/metrics.h"
#include "runtime/param.h"
#include "runtime/registry.h"
#include "runtime/sweep.h"

namespace findep::runtime {

/// One executable unit of a sweep, self-contained on the wire: which
/// family, which grid point, and which run of the sweep (the worker
/// derives the actual seed as derive_seed(base_seed, run_index)).
struct TaskSpec {
  std::string family;
  ParamSet params;
  std::uint64_t base_seed = 1;
  std::size_t run_index = 0;
  /// Catalog position of the scenario instance (merge ordering key).
  std::size_t sequence = 0;
};

/// One executed task: the task's identity plus its RunRecord.
struct TaskResult {
  std::string family;
  std::string scenario;  // instance name, e.g. "bft_scaling/n=7"
  std::size_t sequence = 0;
  RunRecord record;
};

// --- JSON round-trips -------------------------------------------------------
// Values round-trip bit-faithfully: doubles are rendered shortest-exact
// (params) or with 17 significant digits (metrics), including inf/nan and
// denormals. The from_json parsers throw std::invalid_argument with a
// descriptive message on malformed or type-mismatched input.

[[nodiscard]] std::string to_json(const ParamValue& value);
[[nodiscard]] std::string to_json(const ParamSet& params);
[[nodiscard]] std::string to_json(const MetricRecord& metrics);
[[nodiscard]] std::string to_json(const RunRecord& record);
[[nodiscard]] std::string to_json(const TaskSpec& task);
[[nodiscard]] std::string to_json(const TaskResult& result);

[[nodiscard]] ParamValue param_value_from_json(const std::string& text);
[[nodiscard]] ParamSet param_set_from_json(const std::string& text);
[[nodiscard]] MetricRecord metric_record_from_json(const std::string& text);
[[nodiscard]] RunRecord run_record_from_json(const std::string& text);
[[nodiscard]] TaskSpec task_spec_from_json(const std::string& text);
[[nodiscard]] TaskResult task_result_from_json(const std::string& text);

// --- the sweep pipeline: expand → execute → render ------------------------
// The in-process sweep is this pipeline run in memory; `--emit-tasks`,
// `--worker` and `--merge` each run one stage of it across processes.

/// A TaskSpec bound to the scenario instance that executes it.
struct BoundTask {
  TaskSpec spec;
  std::shared_ptr<const Scenario> scenario;
};

/// Expand: the selected catalog as tasks, scenario-major (all run
/// indices of one instance consecutively), `sweep.num_seeds` tasks per
/// instance, `sequence` numbering instances in catalog order. Instances
/// whose name does not contain `only`, or does contain a non-empty
/// `exclude`, are skipped after numbering, so a filtered catalog keeps
/// its sequence numbers. Each factory runs once per instance, whose
/// tasks share the result, so parameter validation fails here rather
/// than on a worker. Throws std::invalid_argument naming the family when
/// a factory throws or returns null.
[[nodiscard]] std::vector<BoundTask> expand_catalog(
    const FamilySelection& selection, const SweepOptions& sweep,
    const std::string& only, const std::string& exclude);

/// Execute: drains `tasks` through run_task_pool on `threads` workers
/// (0 = hardware concurrency). Returns one result per task, in task order
/// whatever the completion order; a run that threw carries its message in
/// `record.error`. When `stream` is given, each result is also written to
/// it as a JSONL line in task order, as soon as every earlier task is
/// done.
std::vector<TaskResult> execute_tasks(const std::vector<BoundTask>& tasks,
                                      std::size_t threads,
                                      std::ostream* stream = nullptr);

/// The in-process sweep: executes `tasks` on `options.sweep.threads`
/// workers and renders them exactly as a merge of their worker shards:
/// `options.json` / `options.csv`, otherwise tables under a banner with
/// the process counters below. Failed runs are reported on `err`. Returns
/// 1 when any run failed, else 0.
int run_sweep(const std::vector<BoundTask>& tasks,
              const SuiteOptions& options, std::ostream& out,
              std::ostream& err);

/// Worker: reads task JSONL from `in` (blank lines ignored), binds every
/// task to its instance through the global registry, executes them on
/// `threads` workers and streams result JSONL to `out` in input order.
/// A malformed line or an unknown family is a protocol error: reported on
/// `err` with its line number, exit code 2, nothing executed. A task
/// whose factory rejects its parameters or whose run throws becomes an
/// error-carrying result instead. Returns 0 when every record is ok, 1
/// when any run failed.
int run_worker(std::istream& in, std::ostream& out, std::ostream& err,
               std::size_t threads);

/// Merge: reads result JSONL from `paths` (a path of "-" means stdin) and
/// renders it as the in-process sweep would: `csv`/`json` byte-identical,
/// otherwise tables under a shard-count banner. Duplicate (scenario,
/// seed, run_index) records — overlapping shards — and unreadable files
/// or lines are reported on `err` with exit code 2. Returns 1 when any
/// merged record carries an error, else 0.
int merge_shards(const std::vector<std::string>& paths, bool csv, bool json,
                 std::ostream& out, std::ostream& err);

}  // namespace findep::runtime
