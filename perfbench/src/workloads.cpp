#include "workloads.h"

#include <malloc.h>

#include <algorithm>
#include <memory>
#include <stdexcept>

#include "bft/cluster.h"
#include "campaign/fault.h"
#include "campaign/outcome.h"
#include "campaign/target.h"
#include "config/catalog.h"
#include "crypto/cost.h"
#include "diversity/analyzer.h"
#include "nakamoto/miner.h"
#include "replication/options.h"
#include "support/rng.h"

namespace perfbench {

namespace fd = findep;
using fd::runtime::MetricRecord;
using fd::runtime::ParamSet;
using fd::runtime::ParamValue;

namespace {

ParamSet make_params(
    std::initializer_list<std::pair<const char*, ParamValue>> values) {
  ParamSet params;
  for (const auto& [name, value] : values) params.set(name, value);
  return params;
}

// steady_commit: the bft_scaling protocol lane (PBFT and HotStuff at
// n in {4,10,25,50}, batch 4, a 64-request burst at t=0) plus the
// modeled-crypto lane at n=10, batch 8, 2048 requests, workers in {1,8}.
std::vector<CellSpec> steady_commit_cells() {
  std::vector<CellSpec> cells;
  for (const int n : {4, 10, 25, 50}) {
    for (const char* protocol : {"pbft", "hotstuff"}) {
      cells.push_back(CellSpec{
          .kind = CellKind::kScaling,
          .family = "bft_scaling",
          .params = make_params({{"n", n},
                                 {"mix", std::string("honest")},
                                 {"batch_size", 4},
                                 {"requests", 64},
                                 {"offered_load", 0.0},
                                 {"crypto", std::string("free")},
                                 {"workers", 1},
                                 {"protocol", std::string(protocol)}})});
    }
  }
  for (const int workers : {1, 8}) {
    cells.push_back(CellSpec{
        .kind = CellKind::kScaling,
        .family = "bft_scaling",
        .params = make_params({{"n", 10},
                               {"mix", std::string("honest")},
                               {"batch_size", 8},
                               {"requests", 2048},
                               {"offered_load", 0.0},
                               {"crypto", std::string("modeled")},
                               {"workers", workers}})});
  }
  return cells;
}

// fault_campaign: the 56-cell campaign grid, 4 fleets x 6 fault kinds x
// 2 rates on PBFT n=7 plus the 8-cell HotStuff block.
std::vector<CellSpec> fault_campaign_cells() {
  std::vector<CellSpec> cells;
  const auto add = [&cells](const char* target, const char* fault,
                            double rate, const char* protocol) {
    ParamSet params = make_params({{"target", std::string(target)},
                                   {"fault", std::string(fault)},
                                   {"rate", rate},
                                   {"n", 7}});
    if (protocol != nullptr) params.set("protocol", std::string(protocol));
    cells.push_back(CellSpec{.kind = CellKind::kCampaign,
                             .family = "campaign",
                             .params = std::move(params)});
  };
  for (const char* target : {"uniform", "diverse", "skewed", "lazarus"}) {
    for (const char* fault : {"crash", "crash_restart", "partition",
                              "corrupt", "collude", "censor"}) {
      for (const double rate : {1.0, 0.5}) add(target, fault, rate, nullptr);
    }
  }
  for (const char* target : {"uniform", "diverse"}) {
    for (const char* fault : {"crash", "partition", "corrupt", "censor"}) {
      add(target, fault, 1.0, "hotstuff");
    }
  }
  return cells;
}

// gossip_10k: gossip_scale at 10,000 nodes, degree 4.
std::vector<CellSpec> gossip_cells() {
  return {CellSpec{.kind = CellKind::kGossip,
                   .family = "gossip_scale",
                   .params = make_params({{"n", 10000.0}, {"degree", 4.0}})}};
}

std::string optional_string(const ParamSet& p, const char* name) {
  return p.has(name) ? p.get_string(name) : std::string();
}

fd::replication::Protocol protocol_of(const ParamSet& p) {
  const std::string protocol = optional_string(p, "protocol");
  return protocol.empty() ? fd::replication::Protocol::kPbft
                          : fd::replication::parse_protocol(protocol);
}

double heap_in_use_mib() {
  const struct mallinfo2 info = mallinfo2();
  return static_cast<double>(info.uordblks + info.hblkhd) / (1024.0 * 1024.0);
}

/// Counts every cell reads off a cluster after its drive.
void observe_cluster(fd::bft::BftCluster& cluster, CellStats& stats) {
  const fd::net::TrafficStats& traffic = cluster.network().stats();
  stats.events = cluster.simulator().executed_count();
  stats.msgs_sent = traffic.messages_sent;
  stats.bytes_sent = traffic.bytes_sent;
  stats.delivered = traffic.messages_delivered;
  stats.dropped = traffic.messages_dropped;
  stats.corrupted = traffic.messages_corrupted;
  stats.commits = cluster.completed_requests();
  for (const fd::bft::RequestTrace& trace : cluster.traces()) {
    if (trace.done()) stats.commit_latencies_s.push_back(trace.latency());
  }
  const double span = cluster.simulator().now();
  for (std::size_t i = 0; i < cluster.size(); ++i) {
    const fd::replication::OrderingProtocol& node = cluster.node(i);
    stats.view_changes =
        std::max(stats.view_changes, node.progress_disruptions());
    stats.transfer_rejects += node.state_transfers_rejected();
    stats.corrupted_rejected += node.corrupted_rejected();
    stats.proposals_deferred += node.proposals_deferred();
    stats.verify_busy_s += node.verify_busy_seconds();
    stats.verify_capacity_s +=
        static_cast<double>(node.harness().options().crypto_workers) * span;
  }
  stats.state_transfers = cluster.state_transfers_completed();
  stats.state_transfer_bytes = cluster.state_transfer_bytes();
  stats.verify_tasks = cluster.verify_tasks();
  stats.verify_dropped_stale = cluster.verify_dropped_stale();
  stats.logs_consistent = cluster.logs_consistent();
  stats.heap_mib = heap_in_use_mib();
  const auto& executed = cluster.node(0).executed();
  for (const fd::bft::ExecutedEntry& entry : executed) {
    if (stats.executed.size() >= 4096) break;
    stats.executed.push_back(entry.request);
  }
}

void note_pending(const fd::sim::Simulator& sim, CellStats& stats) {
  stats.peak_pending = std::max(stats.peak_pending, sim.pending_count());
}

// BftScalingScenario::run, call for call.
MetricRecord run_scaling(const ParamSet& p, std::uint64_t seed,
                         Tracer& tracer, CellStats& stats) {
  const std::size_t n = p.get_size("n");
  const int requests = static_cast<int>(p.get_int("requests"));
  const std::string crypto = p.get_string("crypto");
  const bool modeled = crypto != "free";
  const bool protocol_axis = p.has("protocol");
  if (p.get_string("mix") != "honest" || p.get_double("offered_load") != 0.0) {
    throw std::invalid_argument("pinned scaling cells are honest bursts");
  }

  fd::bft::ClusterOptions options;
  options.seed = seed;
  options.replica.batch_size = p.get_size("batch_size");
  options.replica.batch_timeout = 0.05;
  options.replica.request_timeout = modeled ? 30.0 : 1.0;
  options.replica.view_change_timeout = modeled ? 45.0 : 1.5;
  options.replica.cost_model = fd::crypto::CostModel::parse(crypto);
  options.replica.crypto_workers = p.get_size("workers");
  options.protocol = protocol_of(p);
  std::unique_ptr<fd::bft::BftCluster> cluster;
  {
    const Span span(tracer, "bft.build");
    cluster = std::make_unique<fd::bft::BftCluster>(n, options);
  }
  {
    const Span span(tracer, "bft.submit");
    for (int i = 0; i < requests; ++i) (void)cluster->submit();
  }
  note_pending(cluster->simulator(), stats);
  bool completed = false;
  {
    const Span span(tracer, "bft.drive");
    completed = cluster->run_until_executed(
        static_cast<std::size_t>(requests), 240.0);
  }
  note_pending(cluster->simulator(), stats);

  MetricRecord metrics;
  {
    const Span span(tracer, "bft.check");
    const auto total = static_cast<std::uint64_t>(requests);
    const fd::net::TrafficStats& traffic = cluster->network().stats();
    std::uint64_t view_changes = 0;
    for (std::size_t i = 0; i < cluster->size(); ++i) {
      view_changes =
          std::max(view_changes, cluster->node(i).progress_disruptions());
    }
    const std::size_t committed = cluster->completed_requests();
    const double last = cluster->last_completion_time();
    metrics.set("completed", completed ? 1.0 : 0.0);
    metrics.set("latency_ms",
                completed ? cluster->mean_latency() * 1000.0 : -1.0);
    metrics.set("msgs_per_request",
                static_cast<double>(traffic.messages_sent / total));
    metrics.set("kib_per_request",
                static_cast<double>(traffic.bytes_sent / 1024 / total));
    metrics.set("msgs_per_committed_request",
                committed > 0 ? static_cast<double>(traffic.messages_sent) /
                                    static_cast<double>(committed)
                              : -1.0);
    metrics.set("requests_per_second",
                last > 0.0 ? static_cast<double>(committed) / last : 0.0);
    metrics.set("max_view_changes", static_cast<double>(view_changes));
    if (protocol_axis) {
      metrics.set("commit_latency_p50_ms",
                  committed > 0 ? cluster->latency_percentile(0.5) * 1000.0
                                : -1.0);
      metrics.set("commit_latency_p99_ms",
                  committed > 0 ? cluster->latency_percentile(0.99) * 1000.0
                                : -1.0);
    }
    if (modeled) {
      metrics.set("committed_requests", static_cast<double>(committed));
      metrics.set("verify_tasks",
                  static_cast<double>(cluster->verify_tasks()));
      metrics.set("verify_dropped_stale",
                  static_cast<double>(cluster->verify_dropped_stale()));
    }
  }
  {
    const Span span(tracer, "bench.observe");
    observe_cluster(*cluster, stats);
  }
  stats.submitted = static_cast<std::uint64_t>(requests);
  return metrics;
}

// CampaignCellScenario::run, call for call: 21 requests 0.5 s apart on
// the simulated clock, driven in 0.25 s slices up to a 45 s deadline.
MetricRecord run_campaign(const ParamSet& p, std::uint64_t seed,
                          Tracer& tracer, CellStats& stats) {
  namespace cp = fd::campaign;
  constexpr std::size_t kRequests = 21;
  constexpr double kPeriod = 0.5;
  constexpr double kDeadline = 45.0;
  constexpr double kSlice = 0.25;
  const std::size_t n = p.get_size("n");

  fd::support::Rng root(fd::support::mix64(seed ^ 0xca3ba1610f5eed11ULL));
  fd::support::Rng fleet_rng = root.fork(1);
  fd::support::Rng fault_rng = root.fork(2);
  auto link_rng = std::make_shared<fd::support::Rng>(root.fork(3));

  std::vector<fd::diversity::ReplicaRecord> fleet;
  cp::FaultPlan plan;
  fd::diversity::DiversityReport diversity;
  std::vector<fd::bft::Behavior> behaviors;
  {
    const Span span(tracer, "campaign.prep");
    fleet = cp::build_target_fleet(p.get_string("target"), n, fleet_rng);
    const fd::config::ComponentCatalog catalog =
        fd::config::standard_catalog();
    const cp::FaultKind kind = cp::parse_fault_kind(p.get_string("fault"));
    plan = cp::plan_fault(kind, p.get_double("rate"), fleet, catalog,
                          fault_rng);
    diversity = fd::diversity::DiversityAnalyzer::analyze(fleet);
    behaviors = cp::planned_behaviors(plan, n);
  }

  fd::bft::ClusterOptions options;
  options.seed = seed;
  options.network.min_latency = 0.005;
  options.network.mean_extra_latency = 0.01;
  options.replica.checkpoint_interval = 4;
  options.protocol = protocol_of(p);
  std::unique_ptr<fd::bft::BftCluster> cluster;
  {
    const Span span(tracer, "bft.build");
    cluster = std::make_unique<fd::bft::BftCluster>(n, options,
                                                    std::move(behaviors));
  }
  {
    const Span span(tracer, "campaign.prep");
    cp::schedule_fault(plan, *cluster, link_rng);
  }
  {
    const Span span(tracer, "bft.submit");
    fd::bft::BftCluster* c = cluster.get();
    for (std::size_t i = 0; i < kRequests; ++i) {
      c->simulator().schedule_at(static_cast<double>(i) * kPeriod,
                                 [c] { (void)c->submit(); });
    }
  }
  while (cluster->simulator().now() < kDeadline) {
    {
      const Span span(tracer, "bft.drive");
      cluster->run_for(kSlice);
    }
    note_pending(cluster->simulator(), stats);
    bool converged = false;
    {
      const Span span(tracer, "bft.check");
      converged = cluster->simulator().now() > plan.settle_at() &&
                  cluster->completed_requests() == kRequests &&
                  cp::unresolved_stragglers(*cluster, plan) == 0;
    }
    if (converged) break;
    if (!cluster->simulator().has_pending()) break;
  }

  cp::Outcome outcome;
  {
    const Span span(tracer, "campaign.classify");
    outcome = cp::classify_outcome(*cluster, plan, kRequests);
  }

  MetricRecord metrics;
  metrics.set("faults_injected", static_cast<double>(plan.victims.size()));
  metrics.set("exposed_fraction", plan.exposed_fraction);
  metrics.set("victim_fraction", plan.victim_fraction);
  metrics.set("component_kind", static_cast<double>(plan.component_kind));
  metrics.set("fleet_entropy_bits", diversity.entropy_bits);
  metrics.set("worst_component_share",
              diversity.worst_overall ? diversity.worst_overall->power_fraction
                                      : 0.0);
  metrics.set("fault_detected", outcome.detected ? 1.0 : 0.0);
  metrics.set("recovered", outcome.recovered ? 1.0 : 0.0);
  metrics.set("safety_violated", outcome.safety_violated ? 1.0 : 0.0);
  metrics.set("liveness_stalled", outcome.liveness_stalled ? 1.0 : 0.0);
  metrics.set("committed_requests", static_cast<double>(outcome.committed));
  metrics.set("recovery_time_s", outcome.recovery_time_s);
  metrics.set("max_view_changes",
              static_cast<double>(outcome.max_view_changes));
  metrics.set("corrupted_rejected",
              static_cast<double>(outcome.corrupted_rejected));
  metrics.set("state_transfers", static_cast<double>(outcome.state_transfers));

  {
    const Span span(tracer, "bench.observe");
    observe_cluster(*cluster, stats);
  }
  stats.submitted = kRequests;
  if (outcome.recovered) {
    double first_served = -1.0;
    for (const fd::bft::RequestTrace& trace : cluster->traces()) {
      if (trace.done() && trace.executed_at >= plan.inject_at &&
          (first_served < 0.0 || trace.executed_at < first_served)) {
        first_served = trace.executed_at;
      }
    }
    if (first_served >= 0.0) stats.outage_s = first_served - plan.inject_at;
  }
  return metrics;
}

// GossipScaleScenario::run: one honest mining race over a degree-4
// overlay for 12 expected block intervals of 600 s.
MetricRecord run_gossip(const ParamSet& p, std::uint64_t seed,
                        Tracer& tracer, CellStats& stats) {
  constexpr double kBlockInterval = 600.0;
  constexpr double kHorizonBlocks = 12.0;
  fd::nakamoto::NakamotoOptions options;
  options.mean_block_interval = kBlockInterval;
  options.gossip_degree = static_cast<std::size_t>(p.get_double("degree"));
  options.network.min_latency = 0.05;
  options.network.mean_extra_latency = 0.1;
  options.seed = seed;
  const auto nodes = static_cast<std::size_t>(p.get_double("n"));
  std::unique_ptr<fd::nakamoto::NakamotoSim> sim;
  {
    const Span span(tracer, "nakamoto.build");
    sim = std::make_unique<fd::nakamoto::NakamotoSim>(
        std::vector<double>(nodes, 1.0), options);
  }
  note_pending(sim->simulator(), stats);
  {
    const Span span(tracer, "nakamoto.drive");
    sim->run_for(kBlockInterval * kHorizonBlocks);
  }
  MetricRecord metrics;
  {
    const Span span(tracer, "nakamoto.stats");
    const fd::nakamoto::ChainStats chain = sim->stats();
    metrics.set("blocks_mined", static_cast<double>(chain.total_blocks));
    metrics.set("stale_rate_pct", chain.stale_rate * 100.0);
    metrics.set("messages_delivered",
                static_cast<double>(sim->network().stats().messages_delivered));
    metrics.set("events_executed",
                static_cast<double>(sim->simulator().executed_count()));
  }
  const fd::net::TrafficStats& traffic = sim->network().stats();
  stats.heap_mib = heap_in_use_mib();
  stats.events = sim->simulator().executed_count();
  stats.msgs_sent = traffic.messages_sent;
  stats.bytes_sent = traffic.bytes_sent;
  stats.delivered = traffic.messages_delivered;
  stats.dropped = traffic.messages_dropped;
  stats.corrupted = traffic.messages_corrupted;
  return metrics;
}

}  // namespace

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all = {
      {.name = "steady_commit", .cells = steady_commit_cells(),
       .probe_nodes = 50},
      {.name = "fault_campaign", .cells = fault_campaign_cells(),
       .probe_nodes = 7},
      {.name = "gossip_10k", .cells = gossip_cells(), .probe_nodes = 10000},
  };
  return all;
}

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

MetricRecord run_composed(const CellSpec& cell, std::uint64_t seed,
                          Tracer& tracer, CellStats& stats) {
  // The heap the benchmark itself holds (earlier cells' stats, records,
  // spans) is not the cell's.
  const double heap_before = heap_in_use_mib();
  MetricRecord record;
  switch (cell.kind) {
    case CellKind::kScaling:
      record = run_scaling(cell.params, seed, tracer, stats);
      break;
    case CellKind::kCampaign:
      record = run_campaign(cell.params, seed, tracer, stats);
      break;
    case CellKind::kGossip:
      record = run_gossip(cell.params, seed, tracer, stats);
      break;
    default:
      throw std::logic_error("unknown cell kind");
  }
  stats.heap_mib -= heap_before;
  return record;
}

std::string check_invariants(const CellSpec& cell, const MetricRecord& record,
                             const CellStats& stats) {
  switch (cell.kind) {
    case CellKind::kScaling:
      if (record.get("completed") != 1.0 || stats.commits != stats.submitted) {
        return "committed " + std::to_string(stats.commits) + " of " +
               std::to_string(stats.submitted) + " submitted requests";
      }
      if (!stats.logs_consistent) return "honest logs diverge";
      return {};
    case CellKind::kCampaign:
      // Colluding Byzantine replicas above a third of the power are
      // expected to break agreement (the paper's threshold); lazarus
      // fleets never may, and no other fault kind ever may.
      if (record.get("safety_violated") != 0.0 &&
          (cell.params.get_string("target") == "lazarus" ||
           cell.params.get_string("fault") != "collude")) {
        return "safety violated";
      }
      return {};
    case CellKind::kGossip:
      if (record.get("blocks_mined") < 1.0 || stats.delivered == 0) {
        return "no block propagated";
      }
      return {};
  }
  return "unknown cell kind";
}

}  // namespace perfbench
