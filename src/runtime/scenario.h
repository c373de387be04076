// The Scenario interface: one experiment, parameterized, run per seed.
//
// A scenario is a *pure function of the run context*: `run()` builds its
// own Simulator, SimNetwork, Rng and protocol objects from `ctx.seed`,
// executes, and returns metrics. Nothing is shared between runs, which is
// what lets the sweep (runtime/task.h) execute seeds on a thread pool
// while keeping each run bit-identical to its serial execution (the
// seed-determinism contract, documented in DESIGN.md).
#pragma once

#include <cstdint>
#include <string>

#include "runtime/metrics.h"

namespace findep::runtime {

/// Everything a run may depend on.
struct RunContext {
  /// Per-run seed (already derived from the sweep's base seed).
  std::uint64_t seed = 1;
  /// Position of this run in its sweep, 0-based.
  std::size_t run_index = 0;
};

class Scenario {
 public:
  virtual ~Scenario() = default;

  /// Unique name; by convention "<family>/<params>" (e.g.
  /// "bft_scaling/n=7").
  [[nodiscard]] virtual std::string name() const = 0;

  /// Table-grouping key. Scenarios of one family must emit the same
  /// metric names. Defaults to the name() prefix before the first '/'.
  [[nodiscard]] virtual std::string family() const;

  /// Executes one seed. Must be thread-safe and deterministic: a pure
  /// function of `ctx`, owning all mutable state it touches.
  [[nodiscard]] virtual MetricRecord run(const RunContext& ctx) const = 0;
};

}  // namespace findep::runtime
