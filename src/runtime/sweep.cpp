#include "runtime/sweep.h"

#include <exception>
#include <thread>
#include <vector>

#include "support/rng.h"

namespace findep::runtime {

std::uint64_t derive_seed(std::uint64_t base_seed,
                          std::size_t run_index) noexcept {
  // splitmix64's state after i steps is base + i*gamma; mixing it yields
  // the stream's i-th output without iterating.
  constexpr std::uint64_t kGamma = 0x9e3779b97f4a7c15ULL;
  return support::mix64(base_seed + kGamma * static_cast<std::uint64_t>(
                                                 run_index + 1));
}

namespace {

RunRecord execute_task(const SweepTask& task) {
  RunRecord record;
  record.seed = task.seed;
  record.run_index = task.run_index;
  try {
    record.metrics =
        task.scenario->run(RunContext{task.seed, task.run_index});
  } catch (const std::exception& e) {
    record.error = e.what();
  } catch (...) {
    record.error = "unknown exception";
  }
  return record;
}

}  // namespace

void run_task_pool(TaskSource& source, ResultCollector& collector,
                   std::size_t threads) {
  if (threads == 0) threads = std::thread::hardware_concurrency();
  if (threads <= 1) {
    SweepTask task;
    while (source.next(task)) collector.collect(task, execute_task(task));
    return;
  }

  std::vector<std::thread> pool;
  pool.reserve(threads);
  for (std::size_t t = 0; t < threads; ++t) {
    pool.emplace_back([&] {
      SweepTask task;
      while (source.next(task)) collector.collect(task, execute_task(task));
    });
  }
  for (std::thread& worker : pool) worker.join();
}

}  // namespace findep::runtime
