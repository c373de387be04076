#include "probes.h"

#include <algorithm>
#include <atomic>
#include <stdexcept>

#include "crypto/sha256.h"
#include "net/network.h"
#include "runtime/registry.h"
#include "sim/simulator.h"
#include "support/rng.h"
#include "trace.h"

namespace perfbench {

namespace fd = findep;

namespace {

/// Keeps probe results observable so the timed loops cannot be elided.
std::atomic<std::uint64_t> g_sink{0};

constexpr int kRepeats = 5;

template <typename Body>
double median_ns_per_op(std::size_t iterations, Body&& body) {
  std::vector<double> samples;
  for (int r = 0; r < kRepeats; ++r) {
    std::uint64_t checksum = 0;
    const double start = wall_seconds();
    for (std::size_t i = 0; i < iterations; ++i) checksum ^= body(i);
    const double stop = wall_seconds();
    g_sink.fetch_xor(checksum, std::memory_order_relaxed);
    samples.push_back((stop - start) * 1e9 / static_cast<double>(iterations));
  }
  std::sort(samples.begin(), samples.end());
  return samples[samples.size() / 2];
}

/// ns_per_op of one registered `micro` op, median of kRepeats runs.
double micro_op_ns(const std::string& op, std::uint64_t seed) {
  const fd::runtime::ScenarioFamily* family =
      fd::runtime::ScenarioRegistry::global().find("micro");
  if (family == nullptr) throw std::runtime_error("micro family missing");
  fd::runtime::ParamSet params;
  params.set("op", op);
  const auto scenario = family->factory(params);
  std::vector<double> samples;
  for (int r = 0; r < kRepeats; ++r) {
    samples.push_back(scenario->run({.seed = seed}).get("ns_per_op"));
  }
  std::sort(samples.begin(), samples.end());
  return samples[samples.size() / 2];
}

}  // namespace

std::map<std::string, double> run_probes(
    const std::vector<fd::bft::Request>& executed, std::size_t nodes,
    std::uint64_t seed) {
  std::map<std::string, double> out;
  out["crypto.sha256_4k_ns"] = micro_op_ns("sha256_4k", seed);
  out["crypto.sign_ns"] = micro_op_ns("sign", seed);
  out["crypto.verify_ns"] = micro_op_ns("verify", seed);
  out["sim.schedule_pop_ns"] = micro_op_ns("sim_schedule_pop", seed);
  out["net.broadcast_100_ns"] = micro_op_ns("sim_broadcast_100", seed);

  // 64 bytes: one data block plus a whole padding block, so finish()'s
  // padding path weighs as much as the data.
  std::vector<std::uint8_t> short_message(64);
  fd::support::Rng rng(seed);
  for (std::uint8_t& b : short_message) {
    b = static_cast<std::uint8_t>(rng.below(256));
  }
  out["crypto.sha256_short_ns"] = median_ns_per_op(65536, [&](std::size_t i) {
    short_message[0] = static_cast<std::uint8_t>(i);
    return fd::crypto::sha256(short_message).prefix64();
  });

  // Request and Batch digests over the workload's executed requests
  // (synthetic ones where the workload runs no replicated log).
  std::vector<fd::bft::Request> requests = executed;
  for (std::uint64_t id = 1; requests.size() < 64; ++id) {
    requests.push_back(fd::bft::Request{
        .id = id, .operation = fd::crypto::Sha256{}.update_u64(id).finish()});
  }
  out["crypto.request_digest_ns"] =
      median_ns_per_op(65536, [&](std::size_t i) {
        return requests[i % requests.size()].digest().prefix64();
      });
  std::vector<fd::bft::Batch> batches;
  for (const std::size_t size : {4, 8}) {
    for (std::size_t first = 0; first + size <= requests.size() &&
                                batches.size() < 512;
         first += size) {
      fd::bft::Batch batch;
      batch.requests.assign(requests.begin() + static_cast<long>(first),
                            requests.begin() + static_cast<long>(first + size));
      batches.push_back(std::move(batch));
    }
  }
  out["crypto.batch_digest_ns"] = median_ns_per_op(16384, [&](std::size_t i) {
    return batches[i % batches.size()].digest().prefix64();
  });

  // One point-to-point send plus its delivery among `nodes` attached
  // nodes, drawing latency from the default delay profile.
  {
    fd::sim::Simulator sim;
    fd::net::NetworkOptions options;
    options.seed = seed;
    fd::net::SimNetwork network(sim, options);
    std::uint64_t delivered = 0;
    for (fd::net::NodeId n = 0; n < nodes; ++n) {
      network.attach(n, [&delivered](const fd::net::Message&) {
        ++delivered;
      });
    }
    std::vector<std::pair<fd::net::NodeId, fd::net::NodeId>> pairs(4096);
    for (auto& [from, to] : pairs) {
      from = static_cast<fd::net::NodeId>(rng.below(nodes));
      to = static_cast<fd::net::NodeId>((from + 1 + rng.below(nodes - 1)) %
                                        nodes);
    }
    const fd::net::Envelope envelope(fd::net::Probe{1, "send"});
    out["net.send_ns"] = median_ns_per_op(65536, [&](std::size_t i) {
      const auto& [from, to] = pairs[i % pairs.size()];
      network.send(from, to, envelope);
      sim.run();
      return delivered;
    });
  }
  return out;
}

}  // namespace perfbench
