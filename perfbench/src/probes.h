// Unit-cost probes of the traced run. Costs the `micro` scenario family
// already measures (sha256_4k, sign, verify, sim_schedule_pop,
// sim_broadcast_100) are read from its registered ops; only the probes it
// lacks live here: a 64-byte SHA-256, Request/Batch digests, and a
// point-to-point send at the workload's node count.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "bft/messages.h"

namespace perfbench {

/// Nanoseconds per operation, keyed by per-layer metric name.
[[nodiscard]] std::map<std::string, double> run_probes(
    const std::vector<findep::bft::Request>& executed, std::size_t nodes,
    std::uint64_t seed);

}  // namespace perfbench
