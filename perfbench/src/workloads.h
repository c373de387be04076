// The benchmark's workloads: pinned cell lists, and each cell composed
// from the same public calls its registered scenario makes.
//
// A cell is a registry family plus its full parameter set, written out
// here rather than taken from the family's default grid, so a later
// catalog edit cannot silently change what a workload measures. The
// composed run wraps every call into a layer in a span and reads counts
// only through public accessors (TrafficStats, Simulator counters, the
// OrderingProtocol observables and the BftCluster getters); its record
// must equal the registered Scenario::run() record.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "bft/messages.h"
#include "runtime/metrics.h"
#include "runtime/param.h"
#include "trace.h"

namespace perfbench {

enum class CellKind { kScaling, kCampaign, kGossip };

struct CellSpec {
  CellKind kind = CellKind::kScaling;
  std::string family;
  findep::runtime::ParamSet params;
};

struct Workload {
  std::string name;
  std::vector<CellSpec> cells;
  /// Node count the net.send_ns probe attaches (the workload's largest
  /// cluster or overlay).
  std::size_t probe_nodes = 0;
};

[[nodiscard]] const std::vector<Workload>& workloads();
[[nodiscard]] const Workload* find_workload(const std::string& name);

/// What one composed cell observed, read through public accessors.
struct CellStats {
  double wall_s = 0.0;
  double cpu_s = 0.0;  ///< CPU seconds of the thread that ran the cell
  std::uint64_t events = 0;
  std::uint64_t msgs_sent = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t delivered = 0;
  std::uint64_t dropped = 0;
  std::uint64_t corrupted = 0;
  std::uint64_t submitted = 0;
  std::uint64_t commits = 0;
  /// Submit to first honest execution, simulated seconds, per committed
  /// request.
  std::vector<double> commit_latencies_s;
  std::uint64_t view_changes = 0;  ///< max over replicas
  std::uint64_t state_transfers = 0;
  std::uint64_t state_transfer_bytes = 0;
  std::uint64_t transfer_rejects = 0;
  std::uint64_t corrupted_rejected = 0;
  std::uint64_t proposals_deferred = 0;
  std::uint64_t verify_tasks = 0;
  std::uint64_t verify_dropped_stale = 0;
  /// Modeled worker-pool seconds busy, and seconds available
  /// (workers x replicas x simulated span).
  double verify_busy_s = 0.0;
  double verify_capacity_s = 0.0;
  std::size_t peak_pending = 0;
  /// Heap in use (all malloc arenas) with the cell's world still alive
  /// after its drive, less the heap in use before the cell began, MiB.
  double heap_mib = 0.0;
  /// Campaign cells that recovered: simulated seconds from the fault to
  /// the first request served after it. Negative otherwise.
  double outage_s = -1.0;
  bool logs_consistent = true;
  /// Requests one honest replica executed (crypto probe inputs).
  std::vector<findep::bft::Request> executed;
};

/// Runs `cell` at `seed` through the public calls its registered
/// scenario makes, with a span around each layer call.
[[nodiscard]] findep::runtime::MetricRecord run_composed(
    const CellSpec& cell, std::uint64_t seed, Tracer& tracer,
    CellStats& stats);

/// The seed-independent invariants of a cell's result; returns an
/// explanation when one fails, empty otherwise.
[[nodiscard]] std::string check_invariants(
    const CellSpec& cell, const findep::runtime::MetricRecord& record,
    const CellStats& stats);

}  // namespace perfbench
