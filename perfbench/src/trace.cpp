#include "trace.h"

#include <time.h>

#include <chrono>
#include <ostream>

namespace perfbench {

double wall_seconds() {
  // findep-lint: allow(wall-clock) -- the benchmark measures wall time; no simulated quantity reads it
  const auto now = std::chrono::steady_clock::now().time_since_epoch();
  return std::chrono::duration<double>(now).count();
}

double cpu_seconds() {
  timespec now{};
  // findep-lint: allow(wall-clock) -- the benchmark measures CPU time; no simulated quantity reads it
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &now);
  return static_cast<double>(now.tv_sec) +
         1e-9 * static_cast<double>(now.tv_nsec);
}

int Tracer::open(const char* name) {
  if (!enabled_) return -1;
  const int index = static_cast<int>(spans_.size());
  spans_.push_back(SpanRecord{.name = name,
                              .start = wall_seconds(),
                              .parent = open_.empty() ? -1 : open_.back(),
                              .cell = cell_});
  open_.push_back(index);
  return index;
}

void Tracer::close(int index) {
  if (index < 0) return;
  spans_[static_cast<std::size_t>(index)].end = wall_seconds();
  open_.pop_back();
}

std::map<std::string, double> Tracer::self_seconds(std::size_t first,
                                                  std::size_t last) const {
  std::map<std::string, double> self;
  for (std::size_t i = first; i < last; ++i) {
    const SpanRecord& s = spans_[i];
    const double duration = s.end - s.start;
    self[s.name] += duration;
    if (s.parent >= 0) {
      self[spans_[static_cast<std::size_t>(s.parent)].name] -= duration;
    }
  }
  return self;
}

void Tracer::write_jsonl(std::ostream& out) const {
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    out << "{\"id\": " << i << ", \"name\": \"" << s.name
        << "\", \"start_ns\": "
        << static_cast<std::int64_t>((s.start - spans_[0].start) * 1e9)
        << ", \"end_ns\": "
        << static_cast<std::int64_t>((s.end - spans_[0].start) * 1e9)
        << ", \"parent\": " << s.parent << ", \"cell\": " << s.cell << "}\n";
  }
}

}  // namespace perfbench
