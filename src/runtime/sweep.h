// The sweep's work-queue seam: a TaskSource hands out (scenario, seed)
// runs and a ResultCollector receives their records, drained on a worker
// pool by `run_task_pool`.
//
// Determinism contract: run i of a sweep with base seed S always executes
// with seed derive_seed(S, i); each run owns its whole simulation stack
// (Scenario::run is a pure function of the context), and the collector
// places every record by the task's slot regardless of which worker
// finishes first. Hence a sweep on any thread count — including 1 —
// produces bit-identical per-seed records.
//
// The queue is sweep-wide, not per-scenario: every (scenario, run_index)
// pair of a multi-scenario sweep is one task claimed off one atomic
// counter, so a sweep of S scenarios keeps all workers busy even at
// --seeds 1.
//
// The in-process sweep and the wire-format worker (`runtime/task.h`,
// tasks read as JSONL off stdin) drive the same source/collector pair
// through this seam, so distributing a sweep across processes cannot
// change per-run execution.
#pragma once

#include <cstdint>
#include <memory>

#include "runtime/metrics.h"
#include "runtime/scenario.h"

namespace findep::runtime {

/// One claimed unit of sweep work: a scenario instance to execute at an
/// already-derived seed. `slot` is an opaque position assigned by the
/// TaskSource (the task's ordinal in the sweep's task list) that the
/// ResultCollector uses to place the record independently of completion
/// order. The shared_ptr keeps the instance alive until its run
/// completes; all runs of one catalog instance share it.
struct SweepTask {
  std::shared_ptr<const Scenario> scenario;
  std::uint64_t seed = 0;
  std::size_t run_index = 0;
  std::size_t slot = 0;
};

/// Hands out tasks to the worker pool. `next` must be safe to call from
/// several workers concurrently.
class TaskSource {
 public:
  virtual ~TaskSource() = default;
  /// Claims the next task into `task`; returns false when drained.
  virtual bool next(SweepTask& task) = 0;
};

/// Receives one RunRecord per claimed task, in completion order (use
/// `task.slot` to restore a deterministic order). Must be thread-safe.
class ResultCollector {
 public:
  virtual ~ResultCollector() = default;
  virtual void collect(const SweepTask& task, RunRecord record) = 0;
};

/// Drains `source` into `collector` on `threads` workers (0 = hardware
/// concurrency; <=1 runs inline on the calling thread). Each task's
/// scenario runs with RunContext{task.seed, task.run_index}; a throwing
/// run yields a record carrying the message in `error`. The seed and
/// run_index of the task are copied into the record verbatim.
void run_task_pool(TaskSource& source, ResultCollector& collector,
                   std::size_t threads);

struct SweepOptions {
  /// Master seed of the sweep; per-run seeds derive from it.
  std::uint64_t base_seed = 1;
  /// Number of seeds (runs) per scenario.
  std::size_t num_seeds = 1;
  /// Worker threads; 0 = hardware concurrency. Runs never share state,
  /// so any value is safe.
  std::size_t threads = 0;
};

/// Per-run seed derivation: one splitmix64 round over the base seed at
/// gamma-stride `run_index` (the splitmix64 stream at position i).
[[nodiscard]] std::uint64_t derive_seed(std::uint64_t base_seed,
                                        std::size_t run_index) noexcept;

}  // namespace findep::runtime
