// findep-perfbench: the repository's benchmark driver.
//
//   findep-perfbench --workload NAME --seed N --seconds T --trace 0|1
//                    [--root DIR]
//
// One run sets the workload up (registry instantiation, cell
// construction, loading the correctness references), then repeats
// passes while at least half a pass fits in T seconds (at least one). A
// pass is
//   - a serial pass: every pinned cell composed from public calls on
//     this thread, at the pass seed derive_seed(N, pass);
//   - a sweep pass: the same cells' registered scenarios through
//     runtime::run_task_pool at 2 worker threads, whose records the
//     serial pass must reproduce exactly.
// The set-up is timed again after every cell of the untraced serial
// pass, so its samples span the whole run. With --trace 1 each pass
// first repeats the serial pass untraced at the same seed, then traced
// with a span around every layer call; the difference is the tracing
// overhead. Spans are written to .bench_build/traces/ at exit.
//
// The last line of stdout is one JSON object: correct, attempted,
// failed and the metrics (end-to-end ones untraced, per-layer ones
// traced). Any failed cell makes the exit code 1.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <filesystem>
#include <functional>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "oracle.h"
#include "probes.h"
#include "runtime/registry.h"
#include "runtime/sweep.h"
#include "trace.h"
#include "workloads.h"

namespace fd = findep;

namespace perfbench {
namespace {

constexpr std::size_t kSweepThreads = 2;
/// Set-ups per timed set-up sample, which is their mean: single set-ups
/// (~1 ms) scatter between ~0.7 and ~1.3 ms within one process on a
/// shared host, and a median of single ones jumps between those modes.
constexpr int kSetupBurst = 4;
/// Set-up samples timed before the first pass; one more follows every
/// cell of each untraced serial pass.
constexpr int kSetupSamples = 2;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string root = ".";
};

Args parse_args(int argc, char** argv) {
  Args args;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument(flag + " needs a value");
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      args.seconds = std::stod(value);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") {
        throw std::invalid_argument("--trace takes 0 or 1");
      }
      args.trace = value == "1";
    } else if (flag == "--root") {
      args.root = value;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (!have_workload) throw std::invalid_argument("--workload is required");
  if (!(args.seconds > 0.0)) throw std::invalid_argument("--seconds > 0");
  return args;
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

/// Nearest-rank percentile, q in (0, 1].
double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  return values[std::max<std::size_t>(rank, 1) - 1];
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// The set-up a run repeats: the registered scenarios of every pinned
/// cell, and the correctness references.
struct Setup {
  std::vector<std::shared_ptr<const fd::runtime::Scenario>> scenarios;
  References references;
  double instantiate_s = 0.0;
  double total_s = 0.0;
};

/// Times itself in CPU seconds of the calling thread.
Setup set_up(const Workload& workload, const std::string& root) {
  Setup setup;
  const double start = cpu_seconds();
  std::set<std::string> names;
  for (const CellSpec& cell : workload.cells) {
    const fd::runtime::ScenarioFamily* family =
        fd::runtime::ScenarioRegistry::global().find(cell.family);
    if (family == nullptr) {
      throw std::runtime_error("family " + cell.family + " not registered");
    }
    std::shared_ptr<const fd::runtime::Scenario> scenario =
        family->factory(cell.params);
    if (!names.insert(scenario->name()).second) {
      throw std::runtime_error("duplicate cell " + scenario->name());
    }
    setup.scenarios.push_back(std::move(scenario));
  }
  const double instantiated = cpu_seconds();
  setup.references = References::load(root, names);
  setup.instantiate_s = instantiated - start;
  setup.total_s = cpu_seconds() - start;
  return setup;
}

class CellSource : public fd::runtime::TaskSource {
 public:
  CellSource(const Setup& setup, std::uint64_t seed)
      : setup_(setup), seed_(seed), claimed_cpu_(setup.scenarios.size()) {}
  bool next(fd::runtime::SweepTask& task) override {
    const std::size_t i = next_.fetch_add(1);
    if (i >= setup_.scenarios.size()) return false;
    claimed_cpu_[i] = cpu_seconds();
    task.scenario = setup_.scenarios[i];
    task.seed = seed_;
    task.run_index = 0;
    task.slot = i;
    return true;
  }
  /// The claiming worker's CPU clock when each slot's task was claimed
  /// (read after the pool joined).
  [[nodiscard]] const std::vector<double>& claimed_cpu() const noexcept {
    return claimed_cpu_;
  }

 private:
  const Setup& setup_;
  std::uint64_t seed_;
  std::atomic<std::size_t> next_{0};
  std::vector<double> claimed_cpu_;  ///< one writer per slot
};

class SlotCollector : public fd::runtime::ResultCollector {
 public:
  explicit SlotCollector(std::size_t size)
      : records_(size), done_cpu_(size) {}
  /// Called by the worker that ran the task, right after it.
  void collect(const fd::runtime::SweepTask& task,
               fd::runtime::RunRecord record) override {
    const double done = cpu_seconds();
    const std::lock_guard<std::mutex> lock(mutex_);
    records_[task.slot] = std::move(record);
    done_cpu_[task.slot] = done;
  }
  std::vector<fd::runtime::RunRecord> take() { return std::move(records_); }
  [[nodiscard]] const std::vector<double>& done_cpu() const noexcept {
    return done_cpu_;
  }

 private:
  std::mutex mutex_;
  std::vector<fd::runtime::RunRecord> records_;
  std::vector<double> done_cpu_;
};

struct Pass {
  std::uint64_t seed = 0;
  double serial_s = 0.0;   ///< Σ cell wall, untraced
  double traced_s = 0.0;   ///< Σ cell wall, traced (trace mode)
  double sweep_s = 0.0;
  std::vector<double> task_cpu_s;  ///< per cell, CPU seconds in the pool
  std::vector<CellStats> stats;  ///< per cell, untraced serial pass
  std::size_t span_first = 0;
  std::size_t span_last = 0;
};

struct Failures {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  void fail(const std::string& cell, const std::string& why) {
    ++failed;
    std::cerr << "FAIL " << cell << ": " << why << "\n";
  }
};

/// One serial pass; fills `records`/`stats` per cell, calls `after_cell`
/// after each cell's timing, and returns Σ cell wall.
double serial_pass(const Workload& workload, std::uint64_t seed, Tracer& tracer,
                   std::vector<fd::runtime::MetricRecord>& records,
                   std::vector<CellStats>& stats,
                   std::vector<std::string>& errors,
                   const std::function<void()>& after_cell) {
  records.assign(workload.cells.size(), {});
  stats.assign(workload.cells.size(), {});
  errors.assign(workload.cells.size(), {});
  double total = 0.0;
  for (std::size_t i = 0; i < workload.cells.size(); ++i) {
    tracer.set_cell(static_cast<std::uint32_t>(i));
    const double start = wall_seconds();
    const double cpu_start = cpu_seconds();
    try {
      const Span span(tracer, "cell");
      records[i] = run_composed(workload.cells[i], seed, tracer, stats[i]);
    } catch (const std::exception& e) {
      errors[i] = std::string("threw: ") + e.what();
    }
    stats[i].cpu_s = cpu_seconds() - cpu_start;
    stats[i].wall_s = wall_seconds() - start;
    total += stats[i].wall_s;
    after_cell();
  }
  return total;
}

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

/// The untraced run's metrics. Throughput is a speed index: for each
/// cell, its simulated events per CPU second of the thread that ran it,
/// pooled over every execution of the cell in the run (the serial pass's
/// and the pool's, at every pass seed); then the geometric mean of those
/// rates over the cells.
///
/// Per cell, not pooled over cells: a seed decides how many of
/// fault_campaign's collude cells run to their deadline (~4 s at about
/// half the event rate of a cell that converges in ~20 ms), and cells per
/// second or events per second pooled over cells swing with that
/// seed-drawn mix at fixed code; in the geometric mean a cell that turns
/// heavy moves the index by its own rate change over the cell count.
/// Pooled over the run's executions, because a shared host's speed drifts
/// by ±15% over tens of seconds and the whole run averages it best. CPU
/// time, because wall time also counts the seconds the hypervisor gives
/// the vCPU to other tenants.
std::vector<Metric> end_to_end_metrics(const std::vector<Pass>& passes,
                                       const std::vector<double>& setups) {
  const std::size_t cells = passes.front().stats.size();
  double log_sum = 0.0;
  for (std::size_t i = 0; i < cells; ++i) {
    double events = 0.0;
    double cpu_s = 0.0;
    for (const Pass& pass : passes) {
      // The pool ran the cell at the same seed: the same events again.
      events += 2.0 * static_cast<double>(pass.stats[i].events);
      cpu_s += pass.stats[i].cpu_s + pass.task_cpu_s[i];
    }
    log_sum += std::log(events / cpu_s);
  }
  double heap_sum = 0.0;
  for (const Pass& pass : passes) {
    double peak_heap = 0.0;
    for (const CellStats& s : pass.stats) {
      peak_heap = std::max(peak_heap, s.heap_mib);
    }
    heap_sum += peak_heap;
  }
  return {{"setup_s", "s", median(setups)},
          {"events_per_s", "events/s",
           std::exp(log_sum / static_cast<double>(cells))},
          {"peak_heap_mib", "MiB",
           heap_sum / static_cast<double>(passes.size())}};
}

/// Cost of recording one span (open + close), the per-span share of
/// trace.overhead_frac without the run-to-run noise of two pass timings.
double span_cost_ns() {
  constexpr int kSpans = 100000;
  Tracer scratch(true);
  const double start = wall_seconds();
  for (int i = 0; i < kSpans; ++i) {
    const Span span(scratch, "probe");
  }
  return (wall_seconds() - start) * 1e9 / kSpans;
}

/// The traced run's per-layer metrics. Span times are per serial pass,
/// median over passes; counts are the first pass's, exact functions of
/// its seed.
std::vector<Metric> layer_metrics(const Workload& workload,
                                  const std::vector<Pass>& passes,
                                  const Tracer& tracer,
                                  const std::vector<double>& instantiate_s,
                                  std::uint64_t seed) {
  std::map<std::string, std::vector<double>> self_per_pass;
  std::vector<double> overhead;
  std::vector<double> collude_frac;
  std::vector<double> pool_balance;
  std::vector<double> sweep_cells_per_s;
  double drive_s = 0.0;
  double nakamoto_drive_s = 0.0;
  double bft_events = 0.0;
  double deliveries = 0.0;
  for (const Pass& pass : passes) {
    std::map<std::string, double> self =
        tracer.self_seconds(pass.span_first, pass.span_last);
    for (const char* layer :
         {"bft.build", "bft.drive", "bft.check", "campaign.prep",
          "campaign.classify", "nakamoto.build", "nakamoto.drive"}) {
      self_per_pass[layer].push_back(self[layer]);
    }
    double collude_drive = 0.0;
    for (std::size_t s = pass.span_first; s < pass.span_last; ++s) {
      const SpanRecord& span = tracer.spans()[s];
      const CellSpec& cell = workload.cells[span.cell];
      if (std::string(span.name) == "bft.drive" &&
          cell.kind == CellKind::kCampaign &&
          cell.params.get_string("fault") == "collude") {
        collude_drive += span.end - span.start;
      }
    }
    collude_frac.push_back(ratio(collude_drive, pass.traced_s));
    overhead.push_back(ratio(pass.traced_s - pass.serial_s, pass.serial_s));
    pool_balance.push_back(ratio(
        pass.serial_s, static_cast<double>(kSweepThreads) * pass.sweep_s));
    sweep_cells_per_s.push_back(
        static_cast<double>(workload.cells.size()) / pass.sweep_s);
    drive_s += self["bft.drive"];
    nakamoto_drive_s += self["nakamoto.drive"];
    for (std::size_t i = 0; i < pass.stats.size(); ++i) {
      if (workload.cells[i].kind == CellKind::kGossip) {
        deliveries += static_cast<double>(pass.stats[i].delivered);
      } else {
        bft_events += static_cast<double>(pass.stats[i].events);
      }
    }
  }

  // Counts of the first pass.
  CellStats sum;
  std::vector<double> latencies_ms;
  std::vector<double> outages_s;
  std::vector<fd::bft::Request> executed;
  double first_deliveries = 0.0;
  for (std::size_t i = 0; i < workload.cells.size(); ++i) {
    const CellStats& s = passes.front().stats[i];
    if (workload.cells[i].kind == CellKind::kGossip) {
      first_deliveries += static_cast<double>(s.delivered);
    }
    sum.events += s.events;
    sum.msgs_sent += s.msgs_sent;
    sum.bytes_sent += s.bytes_sent;
    sum.delivered += s.delivered;
    sum.dropped += s.dropped;
    sum.corrupted += s.corrupted;
    sum.commits += s.commits;
    sum.view_changes += s.view_changes;
    sum.state_transfers += s.state_transfers;
    sum.state_transfer_bytes += s.state_transfer_bytes;
    sum.transfer_rejects += s.transfer_rejects;
    sum.corrupted_rejected += s.corrupted_rejected;
    sum.proposals_deferred += s.proposals_deferred;
    sum.verify_tasks += s.verify_tasks;
    sum.verify_dropped_stale += s.verify_dropped_stale;
    sum.verify_busy_s += s.verify_busy_s;
    sum.verify_capacity_s += s.verify_capacity_s;
    sum.peak_pending = std::max(sum.peak_pending, s.peak_pending);
    for (const double l : s.commit_latencies_s) latencies_ms.push_back(l * 1e3);
    if (s.outage_s >= 0.0) outages_s.push_back(s.outage_s);
    if (executed.size() < 4096) {
      executed.insert(executed.end(), s.executed.begin(), s.executed.end());
    }
  }
  const std::map<std::string, double> probe =
      run_probes(executed, workload.probe_nodes, seed);

  const auto count = [](auto v) { return static_cast<double>(v); };
  const auto ms = [&self_per_pass](const char* layer) {
    return median(self_per_pass[layer]) * 1e3;
  };
  const auto s = [&self_per_pass](const char* layer) {
    return median(self_per_pass[layer]);
  };
  return {
      {"crypto.sha256_short_ns", "ns", probe.at("crypto.sha256_short_ns")},
      {"crypto.sha256_4k_ns", "ns", probe.at("crypto.sha256_4k_ns")},
      {"crypto.request_digest_ns", "ns", probe.at("crypto.request_digest_ns")},
      {"crypto.batch_digest_ns", "ns", probe.at("crypto.batch_digest_ns")},
      {"crypto.sign_ns", "ns", probe.at("crypto.sign_ns")},
      {"crypto.verify_ns", "ns", probe.at("crypto.verify_ns")},
      {"bft.build_ms", "ms", ms("bft.build")},
      {"bft.drive_s", "s", s("bft.drive")},
      {"bft.drive_us_per_event", "us", ratio(drive_s * 1e6, bft_events)},
      {"bft.check_ms", "ms", ms("bft.check")},
      {"bft.drive_collude_frac", "ratio", median(collude_frac)},
      {"replication.commits", "count", count(sum.commits)},
      {"replication.view_changes", "count", count(sum.view_changes)},
      {"replication.state_transfers", "count", count(sum.state_transfers)},
      {"replication.state_transfer_kib", "KiB",
       count(sum.state_transfer_bytes) / 1024.0},
      {"replication.transfer_rejects", "count", count(sum.transfer_rejects)},
      {"replication.corrupted_rejected", "count",
       count(sum.corrupted_rejected)},
      {"replication.proposals_deferred", "count",
       count(sum.proposals_deferred)},
      {"sim_commit_ms_p50", "sim_ms", percentile(latencies_ms, 0.5)},
      {"sim_commit_ms_p99", "sim_ms", percentile(latencies_ms, 0.99)},
      {"msgs_per_commit", "msgs",
       ratio(count(sum.msgs_sent), count(sum.commits))},
      {"sim_recovery_s", "sim_s", median(outages_s)},
      {"runtime.instantiate_ms", "ms", median(instantiate_s) * 1e3},
      {"runtime.pool_balance", "ratio", median(pool_balance)},
      {"runtime.sweep_cells_per_s", "cells/s", median(sweep_cells_per_s)},
      {"runtime.pool.verify_tasks", "count", count(sum.verify_tasks)},
      {"runtime.pool.dropped_stale_frac", "ratio",
       ratio(count(sum.verify_dropped_stale), count(sum.verify_tasks))},
      {"runtime.pool.busy_frac", "ratio",
       ratio(sum.verify_busy_s, sum.verify_capacity_s)},
      {"net.msgs_sent", "count", count(sum.msgs_sent)},
      {"net.kib_per_commit", "KiB",
       ratio(count(sum.bytes_sent) / 1024.0, count(sum.commits))},
      {"net.dropped_frac", "ratio",
       ratio(count(sum.dropped), count(sum.msgs_sent))},
      {"net.corrupted", "count", count(sum.corrupted)},
      {"net.send_ns", "ns", probe.at("net.send_ns")},
      {"net.broadcast_100_ns", "ns", probe.at("net.broadcast_100_ns")},
      {"sim.events", "count", count(sum.events)},
      {"sim.events_per_commit", "count",
       ratio(count(sum.events), count(sum.commits))},
      {"sim.peak_pending", "count", count(sum.peak_pending)},
      {"sim.schedule_pop_ns", "ns", probe.at("sim.schedule_pop_ns")},
      {"campaign.prep_ms", "ms", ms("campaign.prep")},
      {"campaign.classify_ms", "ms", ms("campaign.classify")},
      {"nakamoto.build_ms", "ms", ms("nakamoto.build")},
      {"nakamoto.drive_s", "s", s("nakamoto.drive")},
      {"nakamoto.us_per_delivery", "us",
       ratio(nakamoto_drive_s * 1e6, deliveries)},
      {"nakamoto.deliveries", "count", first_deliveries},
      {"trace.overhead_frac", "ratio", median(overhead)},
      {"trace.spans", "count",
       count(tracer.spans().size()) / count(passes.size())},
      {"trace.span_ns", "ns", span_cost_ns()},
  };
}
int run(const Args& args) {
  const Workload* workload = find_workload(args.workload);
  if (workload == nullptr) {
    throw std::invalid_argument("unknown workload " + args.workload);
  }

  // --- set-up, repeated here and after every untraced serial cell; the
  // median is setup_s ------------------------------------------------------
  std::vector<double> setup_times;
  std::vector<double> instantiate_times;
  const auto time_set_up = [&] {
    Setup again;
    double total_s = 0.0;
    double instantiate_s = 0.0;
    for (int k = 0; k < kSetupBurst; ++k) {
      again = set_up(*workload, args.root);
      total_s += again.total_s;
      instantiate_s += again.instantiate_s;
    }
    setup_times.push_back(total_s / kSetupBurst);
    instantiate_times.push_back(instantiate_s / kSetupBurst);
    return again;
  };
  Setup setup;
  for (int r = 0; r < kSetupSamples; ++r) setup = time_set_up();

  // --- passes -------------------------------------------------------------
  Tracer tracer(args.trace);
  Tracer untraced(false);
  Failures failures;
  std::vector<Pass> passes;
  const double measure_start = wall_seconds();
  for (std::size_t p = 0;; ++p) {
    const double pass_start = wall_seconds();
    Pass pass;
    pass.seed = fd::runtime::derive_seed(args.seed, p);
    std::vector<fd::runtime::MetricRecord> records;
    std::vector<std::string> errors;
    pass.serial_s = serial_pass(*workload, pass.seed, untraced, records,
                                pass.stats, errors,
                                [&] { (void)time_set_up(); });
    if (args.trace) {
      std::vector<fd::runtime::MetricRecord> traced_records;
      std::vector<CellStats> traced_stats;
      std::vector<std::string> traced_errors;
      pass.span_first = tracer.spans().size();
      pass.traced_s = serial_pass(*workload, pass.seed, tracer,
                                  traced_records, traced_stats, traced_errors,
                                  [] {});
      pass.span_last = tracer.spans().size();
      for (std::size_t i = 0; i < records.size(); ++i) {
        if (!errors[i].empty()) continue;
        if (!traced_errors[i].empty()) {
          errors[i] = "traced: " + traced_errors[i];
        } else if (!(traced_records[i] == records[i])) {
          errors[i] = "traced record differs from the untraced one";
        }
      }
    }

    const double sweep_start = wall_seconds();
    CellSource source(setup, pass.seed);
    SlotCollector collector(setup.scenarios.size());
    fd::runtime::run_task_pool(source, collector, kSweepThreads);
    pass.sweep_s = wall_seconds() - sweep_start;
    for (std::size_t i = 0; i < setup.scenarios.size(); ++i) {
      pass.task_cpu_s.push_back(collector.done_cpu()[i] -
                                source.claimed_cpu()[i]);
    }
    const std::vector<fd::runtime::RunRecord> swept = collector.take();

    for (std::size_t i = 0; i < workload->cells.size(); ++i) {
      ++failures.attempted;
      const std::string& name = setup.scenarios[i]->name();
      std::string why = errors[i];
      if (why.empty() && !swept[i].ok()) {
        why = "Scenario::run() threw: " + swept[i].error;
      }
      if (why.empty() && !(swept[i].metrics == records[i])) {
        why = "composed record differs from Scenario::run()";
      }
      if (why.empty()) {
        why = check_invariants(workload->cells[i], records[i], pass.stats[i]);
      }
      // Pass 0 at the default seed must find a reference for every cell.
      if (why.empty() && args.seed == kReferenceSeed &&
          (p == 0 || p < setup.references.runs(name))) {
        why = setup.references.compare(name, p, records[i]);
      }
      if (!why.empty()) failures.fail(name, why);
    }
    passes.push_back(std::move(pass));
    const double now = wall_seconds();
    if (now - measure_start + 0.5 * (now - pass_start) > args.seconds) break;
  }

  std::vector<Metric> metrics =
      args.trace ? layer_metrics(*workload, passes, tracer, instantiate_times,
                                 args.seed)
                 : end_to_end_metrics(passes, setup_times);
  if (args.trace) {
    const std::filesystem::path dir =
        std::filesystem::path(args.root) / ".bench_build" / "traces";
    std::filesystem::create_directories(dir);
    std::ofstream spans(dir / (args.workload + "-seed" +
                               std::to_string(args.seed) + ".jsonl"));
    tracer.write_jsonl(spans);
  }

  std::cout << "workload " << workload->name << ": " << passes.size()
            << " pass(es) of " << workload->cells.size() << " cells, "
            << failures.failed << " failed\n";
  std::cout << "{\"correct\": " << (failures.failed == 0 ? "true" : "false")
            << ", \"attempted\": " << failures.attempted
            << ", \"failed\": " << failures.failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    std::cout << (i == 0 ? "" : ", ") << "\"" << m.name << "\": {\"value\": "
              << fd::runtime::format_exact(std::isfinite(m.value) ? m.value
                                                                  : 0.0)
              << ", \"unit\": \"" << m.unit << "\"}";
  }
  std::cout << "}}" << std::endl;
  return failures.failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(perfbench::parse_args(argc, argv));
  } catch (const std::invalid_argument& e) {
    std::cerr << "findep-perfbench: " << e.what() << "\n";
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "findep-perfbench: " << e.what() << "\n";
    return 1;
  }
}
