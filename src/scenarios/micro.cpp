#include "scenarios/micro.h"

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <stdexcept>
#include <vector>

#include "bft/cluster.h"
#include "config/sampler.h"
#include "crypto/keys.h"
#include "crypto/merkle.h"
#include "crypto/sha256.h"
#include "diversity/analyzer.h"
#include "diversity/metrics.h"
#include "net/envelope.h"
#include "net/network.h"
#include "runtime/registry.h"
#include "sim/simulator.h"
#include "support/assert.h"
#include "support/rng.h"

namespace findep::scenarios {

namespace {

/// Keeps a value observable so the measured loop cannot be elided. The
/// sweep pool times ops on several threads at once, so the sink must be
/// atomic (relaxed is enough — the value is never read back, it only has
/// to count as an observable side effect).
std::atomic<std::uint64_t> g_micro_sink{0};

struct OpResult {
  std::size_t iterations = 0;
  double seconds = 0.0;
  std::uint64_t checksum = 0;
  /// Set by the hash_work_* ops only.
  std::optional<double> sha256_blocks_per_commit;
  std::optional<double> hmac_verifies_per_commit;
};

/// Hash *work* of the fault-free commit path: one n=4 cluster, batch 4,
/// 64 requests, crypto=free. SHA-256 blocks and signature-check MACs are
/// counted from the first submit to the last execution (key set-up
/// excluded) and divided by the committed requests. Both counts are
/// deterministic, so the perf gate pins them exactly: a handler that
/// starts re-hashing a payload, a message whose digest is recomputed per
/// recipient, or a shared body whose signature is re-checked per
/// recipient moves them.
OpResult hash_work(replication::Protocol protocol, std::uint64_t seed) {
  bft::ClusterOptions options;
  options.seed = seed;
  options.protocol = protocol;
  options.replica.batch_size = 4;
  bft::BftCluster cluster(4, options);
  constexpr std::size_t kRequests = 64;
  const auto start = std::chrono::steady_clock::now();
  const std::uint64_t blocks_before = crypto::sha256_blocks();
  const std::uint64_t verifies_before = crypto::hmac_verifies();
  for (std::size_t i = 0; i < kRequests; ++i) (void)cluster.submit();
  const bool done = cluster.run_until_executed(kRequests, 120.0);
  const std::uint64_t blocks = crypto::sha256_blocks() - blocks_before;
  const std::uint64_t verifies = crypto::hmac_verifies() - verifies_before;
  const auto stop = std::chrono::steady_clock::now();
  FINDEP_REQUIRE_MSG(done, "hash_work cluster did not commit its load");
  OpResult result;
  result.iterations = 1;
  result.seconds = std::chrono::duration<double>(stop - start).count();
  result.checksum = blocks;
  const auto commits = static_cast<double>(cluster.completed_requests());
  result.sha256_blocks_per_commit = static_cast<double>(blocks) / commits;
  result.hmac_verifies_per_commit = static_cast<double>(verifies) / commits;
  return result;
}

template <typename Body>
OpResult time_op(std::size_t iterations, Body&& body) {
  OpResult result;
  result.iterations = iterations;
  const auto start = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < iterations; ++i) {
    result.checksum ^= body(i);
  }
  const auto stop = std::chrono::steady_clock::now();
  g_micro_sink.store(result.checksum, std::memory_order_relaxed);
  result.seconds = std::chrono::duration<double>(stop - start).count();
  return result;
}

OpResult run_op(const std::string& op, std::uint64_t seed) {
  if (op == "hash_work_pbft") {
    return hash_work(replication::Protocol::kPbft, seed);
  }
  if (op == "hash_work_hotstuff") {
    return hash_work(replication::Protocol::kHotStuff, seed);
  }
  if (op == "sha256_4k") {
    const std::vector<std::uint8_t> data(4096, 0xab);
    return time_op(2048, [&](std::size_t) {
      return crypto::sha256(data).prefix64();
    });
  }
  if (op == "merkle_build_1k" || op == "merkle_prove_1k") {
    std::vector<crypto::Digest> leaves;
    leaves.reserve(1024);
    for (std::uint64_t i = 0; i < 1024; ++i) {
      leaves.push_back(crypto::Sha256{}.update_u64(i).finish());
    }
    if (op == "merkle_build_1k") {
      return time_op(64, [&](std::size_t) {
        return crypto::MerkleTree(leaves).root().prefix64();
      });
    }
    const crypto::MerkleTree tree(leaves);
    return time_op(4096, [&](std::size_t i) {
      const std::size_t index = i % leaves.size();
      const auto proof = tree.prove(index);
      return static_cast<std::uint64_t>(
          crypto::MerkleTree::verify(leaves[index], proof, tree.root()));
    });
  }
  if (op == "sign" || op == "verify" || op == "batch_verify_32") {
    // The signature primitives behind the crypto cost model
    // (crypto/cost.h): what one sign / verify / 32-proof quorum check
    // actually costs this build. The simulation charges *modeled*
    // nanoseconds for these, so the rows exist to keep the real
    // implementation honest-cheap (an accidental O(n) registry scan or
    // allocation storm shows up here long before it skews a sweep).
    const crypto::KeyPair keys = crypto::KeyPair::derive(seed);
    crypto::KeyRegistry registry;
    registry.enroll(keys);
    const crypto::Digest message =
        crypto::Sha256{}.update_u64(seed).finish();
    if (op == "sign") {
      return time_op(16384, [&](std::size_t i) {
        return keys.sign(crypto::Sha256{}.update_u64(i).finish())
            .tag.prefix64();
      });
    }
    if (op == "verify") {
      const crypto::Signature sig = keys.sign(message);
      return time_op(16384, [&](std::size_t) {
        return static_cast<std::uint64_t>(
            registry.verify(keys.public_key(), message, sig));
      });
    }
    // batch_verify_32: one 32-signature quorum proof, the shape a
    // NEW-VIEW or StateResponse batch-verifies per envelope.
    std::vector<crypto::Digest> messages;
    std::vector<crypto::Signature> sigs;
    for (std::uint64_t i = 0; i < 32; ++i) {
      messages.push_back(crypto::Sha256{}.update_u64(i).finish());
      sigs.push_back(keys.sign(messages.back()));
    }
    return time_op(1024, [&](std::size_t) {
      std::uint64_t ok = 0;
      for (std::size_t i = 0; i < sigs.size(); ++i) {
        ok += static_cast<std::uint64_t>(
            registry.verify(keys.public_key(), messages[i], sigs[i]));
      }
      return ok;
    });
  }
  if (op == "entropy_4k") {
    support::Rng rng(seed);
    std::vector<double> weights(4096);
    for (double& w : weights) w = rng.uniform(0.1, 10.0);
    return time_op(512, [&](std::size_t) {
      return static_cast<std::uint64_t>(
          diversity::shannon_entropy(weights) * 1e6);
    });
  }
  if (op == "config_digest") {
    const config::ComponentCatalog catalog = config::standard_catalog();
    config::ConfigurationSampler sampler(catalog,
                                         config::SamplerOptions{});
    support::Rng rng(seed);
    const auto cfg = sampler.sample(rng);
    return time_op(8192, [&](std::size_t) {
      return cfg.digest().prefix64();
    });
  }
  if (op == "sim_schedule_pop") {
    // Steady-state event-engine hot loop: one schedule + one pop/execute
    // per iteration against a queue pre-filled to 10k-node-sweep depth,
    // with pseudo-random inter-event gaps (the shape every protocol
    // substrate produces). ns_per_op is the cost of a schedule+pop pair.
    sim::Simulator sim;
    support::Rng rng(seed);
    std::uint64_t pops = 0;
    for (int i = 0; i < 16384; ++i) {
      sim.schedule_after(rng.uniform(0.0, 1.0), [&pops] { ++pops; });
    }
    // Delays are drawn outside the timed loop (the row measures the
    // engine, not the generator), from a cache-resident table so the
    // loop is not also streaming megabytes of pre-drawn doubles.
    std::vector<double> delays(8192);
    for (double& d : delays) d = rng.uniform(0.0, 1.0);
    const std::size_t dmask = delays.size() - 1;
    return time_op(262144, [&, dmask](std::size_t i) {
      sim.schedule_after(delays[i & dmask], [&pops] { ++pops; });
      sim.run(1);
      return pops;
    });
  }
  if (op == "sim_far_future_insert") {
    // Insert-while-draining with every arrival far beyond the calendar
    // window (the long-horizon timer pattern: mining schedules, epoch
    // rotations). The year-wrapped layout links these modulo the ring in
    // O(1); an engine that parks them in a side structure pays a
    // log-depth push here and a migration later. ns_per_op is one far
    // insert + one pop/execute.
    sim::Simulator sim;
    support::Rng rng(seed);
    std::uint64_t pops = 0;
    for (int i = 0; i < 16384; ++i) {
      sim.schedule_after(rng.uniform(0.0, 1.0), [&pops] { ++pops; });
    }
    std::vector<double> gaps(8192);
    for (double& d : gaps) d = rng.uniform(0.0, 1.0);
    const std::size_t gmask = gaps.size() - 1;
    return time_op(262144, [&, gmask](std::size_t i) {
      // 1e6 s ahead of a sub-second-width calendar: always many laps out.
      sim.schedule_after(1.0e6 + gaps[i & gmask], [&pops] { ++pops; });
      sim.run(1);
      return pops;
    });
  }
  if (op == "sim_timer_churn") {
    // The BFT request/batch-timer pattern: a live timer is cancelled and
    // re-armed on every executed request, and its captured state (here a
    // shared_ptr, standing in for the replica closure) must die with the
    // cancellation, not with the eventual pop.
    // 512 concurrent timers ≈ a 128-replica cluster's worth of request/
    // batch/view-change/fetch timers, the cancel-heaviest real workload.
    // The iteration count is deliberately long: an engine that tombstones
    // cancels instead of reclaiming them pays per-op costs that *grow*
    // with churn volume (its queue never shrinks), and a short row hides
    // that slope.
    sim::Simulator sim;
    support::Rng rng(seed);
    const auto state = std::make_shared<std::uint64_t>(0);
    std::vector<sim::EventId> timers(512);
    for (std::size_t i = 0; i < timers.size(); ++i) {
      timers[i] = sim.schedule_after(1.0 + rng.uniform(0.0, 0.1),
                                     [state] { ++*state; });
    }
    std::vector<double> delays(8192);
    for (double& d : delays) d = 1.0 + rng.uniform(0.0, 0.1);
    const std::size_t tmask = timers.size() - 1;
    const std::size_t dmask = delays.size() - 1;
    return time_op(1048576, [&, tmask, dmask](std::size_t i) {
      const std::size_t t = i & tmask;
      sim.cancel(timers[t]);
      timers[t] = sim.schedule_after(delays[i & dmask],
                                     [state] { ++*state; });
      return static_cast<std::uint64_t>(timers[t]);
    });
  }
  if (op == "sim_broadcast_100") {
    // net::Network fan-out: one broadcast to 100 attached nodes, drained
    // through the event engine. ns_per_op is per *broadcast* (99
    // scheduled deliveries sharing one envelope body).
    sim::Simulator sim;
    net::NetworkOptions options;
    options.min_latency = 0.001;
    options.mean_extra_latency = 0.0;  // pure scheduling, no latency rng
    options.seed = seed;
    net::SimNetwork network(sim, options);
    std::uint64_t delivered = 0;
    for (net::NodeId n = 0; n < 100; ++n) {
      network.attach(n, [&delivered](const net::Message&) { ++delivered; });
    }
    const net::Envelope envelope(net::Probe{1, "fanout"});
    return time_op(4096, [&](std::size_t) {
      network.broadcast(0, envelope);
      sim.run();
      return delivered;
    });
  }
  if (op == "analyzer_n100") {
    const config::ComponentCatalog catalog = config::standard_catalog();
    config::ConfigurationSampler sampler(catalog,
                                         config::SamplerOptions{});
    support::Rng rng(seed);
    std::vector<diversity::ReplicaRecord> population;
    for (const auto& cfg : sampler.sample_population(rng, 100)) {
      population.push_back(diversity::ReplicaRecord{cfg, 1.0, true});
    }
    return time_op(64, [&](std::size_t i) {
      // Vary one power so every iteration misses the memo cache: this
      // times analyze(), not the cache lookup.
      population.front().power = 1.0 + static_cast<double>(i) * 1e-6;
      return static_cast<std::uint64_t>(
          diversity::DiversityAnalyzer::analyze(population).entropy_bits *
          1e6);
    });
  }
  throw std::invalid_argument("unknown micro op '" + op + "'");
}

}  // namespace

MicroScenario::MicroScenario(Params params) : params_(std::move(params)) {}

std::string MicroScenario::name() const { return "micro/" + params_.op; }

runtime::MetricRecord MicroScenario::run(
    const runtime::RunContext& ctx) const {
  const OpResult result = run_op(params_.op, ctx.seed);

  runtime::MetricRecord metrics;
  metrics.set("ns_per_op", result.seconds * 1e9 /
                               static_cast<double>(result.iterations));
  metrics.set("ops_per_sec",
              result.seconds > 0.0
                  ? static_cast<double>(result.iterations) / result.seconds
                  : 0.0);
  metrics.set("checksum_lo32",
              static_cast<double>(result.checksum & 0xffffffffULL));
  if (result.sha256_blocks_per_commit.has_value()) {
    metrics.set("sha256_blocks_per_commit", *result.sha256_blocks_per_commit);
  }
  if (result.hmac_verifies_per_commit.has_value()) {
    metrics.set("hmac_verifies_per_commit", *result.hmac_verifies_per_commit);
  }
  return metrics;
}

namespace {

const runtime::ScenarioRegistration kMicro{{
    .name = "micro",
    .description = "wall-clock microbenchmarks of the hot primitives "
                   "(timings measured, not seed-derived)",
    .grids = {runtime::ParamGrid{
        {"op", {"sha256_4k", "sign", "verify", "batch_verify_32",
                "merkle_build_1k", "merkle_prove_1k",
                "entropy_4k", "config_digest", "analyzer_n100",
                "sim_schedule_pop", "sim_timer_churn",
                "sim_far_future_insert", "sim_broadcast_100",
                "hash_work_pbft", "hash_work_hotstuff"}},
    }},
    .factory =
        [](const runtime::ParamSet& p) -> std::unique_ptr<runtime::Scenario> {
      return std::make_unique<MicroScenario>(
          MicroScenario::Params{.op = p.get_string("op")});
    },
    .deterministic = false,
}};

}  // namespace

}  // namespace findep::scenarios
