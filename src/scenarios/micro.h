// Microbenchmark family: wall-clock timings of the hot primitives
// (SHA-256, Merkle trees, entropy metrics, analyzer runs) through the
// standard scenario interface, so `findep-bench` can sweep them next to
// the experiments; the perf gate pins its rows (ci/micro_baseline.csv).
//
// NOTE: timings are *measured*, not derived from the seed — this family
// is registered with `deterministic = false` and is exempt from the
// bit-identical sweep contract. The `checksum` metric is deterministic
// and guards against the compiler optimizing the measured work away.
#pragma once

#include <string>

#include "runtime/scenario.h"

namespace findep::scenarios {

class MicroScenario : public runtime::Scenario {
 public:
  struct Params {
    /// One of: sha256_4k, merkle_build_1k, merkle_prove_1k, entropy_4k,
    /// config_digest, analyzer_n100, sim_schedule_pop, sim_timer_churn,
    /// sim_broadcast_100 (the sim_* rows are the event-engine hot path:
    /// schedule/pop, BFT-style timer churn, network broadcast fan-out),
    /// hash_work_pbft, hash_work_hotstuff (one fault-free cluster run
    /// each; they also emit the deterministic sha256_blocks_per_commit
    /// and hmac_verifies_per_commit).
    std::string op = "sha256_4k";
  };

  explicit MicroScenario(Params params);

  [[nodiscard]] std::string name() const override;
  [[nodiscard]] runtime::MetricRecord run(
      const runtime::RunContext& ctx) const override;

 private:
  Params params_;
};

}  // namespace findep::scenarios
