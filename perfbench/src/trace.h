// Clocks and the in-memory span recorder of the benchmark driver.
//
// Every span is recorded here, in the benchmark's own files, around a
// call into one layer's public functions: nothing inside src/ is hooked.
// A span holds its name, start, end, parent span and the cell it belongs
// to; the recorder keeps them in memory and writes them out once, at
// exit. A layer's self time is its spans' durations minus the parts their
// child spans cover.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Monotonic wall-clock seconds.
[[nodiscard]] double wall_seconds();

/// CPU seconds the calling thread has run. On a shared host this leaves
/// out the time the hypervisor gave the vCPU to other tenants (steal),
/// which wall time counts.
[[nodiscard]] double cpu_seconds();

struct SpanRecord {
  const char* name = "";
  double start = 0.0;
  double end = 0.0;
  int parent = -1;  ///< index into the recorder's spans, -1 for a root
  std::uint32_t cell = 0;
};

/// Single-threaded span recorder; a disabled recorder records nothing
/// and costs one branch per span.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  [[nodiscard]] bool enabled() const noexcept { return enabled_; }
  void set_cell(std::uint32_t cell) noexcept { cell_ = cell; }

  /// Opens a span under the innermost open one; returns its index (or -1
  /// when disabled).
  int open(const char* name);
  void close(int index);

  [[nodiscard]] const std::vector<SpanRecord>& spans() const noexcept {
    return spans_;
  }
  /// Self seconds per span name over spans [first, last), which must
  /// hold whole span trees.
  [[nodiscard]] std::map<std::string, double> self_seconds(
      std::size_t first, std::size_t last) const;
  /// One JSON object per span.
  void write_jsonl(std::ostream& out) const;

 private:
  bool enabled_;
  std::uint32_t cell_ = 0;
  std::vector<SpanRecord> spans_;
  std::vector<int> open_;
};

/// RAII span: opened on construction, closed on destruction.
class Span {
 public:
  Span(Tracer& tracer, const char* name)
      : tracer_(tracer), index_(tracer.open(name)) {}
  ~Span() { tracer_.close(index_); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer& tracer_;
  int index_;
};

}  // namespace perfbench
