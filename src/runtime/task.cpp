#include "runtime/task.h"

#include <algorithm>
#include <atomic>
#include <charconv>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <iterator>
#include <mutex>
#include <set>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <tuple>

#include "runtime/counters.h"
#include "support/table.h"

namespace findep::runtime {

namespace {

// --- a minimal JSON reader --------------------------------------------------
// Just enough for the wire schema: objects (key order preserved), arrays,
// strings, booleans, and numbers kept as raw tokens so doubles can be
// re-parsed exactly. Accepts the bare tokens inf/-inf/nan that
// format_exact produces — the documented JSONL extension.

struct Json {
  enum class Kind { Null, Bool, Number, String, Array, Object };
  Kind kind = Kind::Null;
  bool boolean = false;
  std::string number;  // raw token, e.g. "1e-310", "inf"
  std::string str;
  std::vector<Json> array;
  std::vector<std::pair<std::string, Json>> object;

  [[nodiscard]] const Json* find(const std::string& key) const {
    for (const auto& [k, v] : object) {
      if (k == key) return &v;
    }
    return nullptr;
  }
  [[nodiscard]] const Json& at(const std::string& key) const {
    const Json* v = find(key);
    if (v == nullptr) {
      throw std::invalid_argument("missing key '" + key + "'");
    }
    return *v;
  }
  [[nodiscard]] const std::string& as_string() const {
    if (kind != Kind::String) throw std::invalid_argument("expected string");
    return str;
  }
  [[nodiscard]] double as_double() const {
    if (kind != Kind::Number) throw std::invalid_argument("expected number");
    char* end = nullptr;
    const double v = std::strtod(number.c_str(), &end);
    if (end != number.c_str() + number.size()) {
      throw std::invalid_argument("bad number '" + number + "'");
    }
    return v;
  }
  [[nodiscard]] std::uint64_t as_u64() const {
    if (kind != Kind::Number) throw std::invalid_argument("expected number");
    std::uint64_t v = 0;
    const auto [ptr, ec] =
        std::from_chars(number.data(), number.data() + number.size(), v);
    if (ec != std::errc{} || ptr != number.data() + number.size()) {
      throw std::invalid_argument("expected unsigned integer, got '" +
                                  number + "'");
    }
    return v;
  }
  [[nodiscard]] std::size_t as_size() const {
    return static_cast<std::size_t>(as_u64());
  }
};

class JsonReader {
 public:
  explicit JsonReader(const std::string& text) : text_(text) {}

  Json parse() {
    Json value = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing content");
    return value;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw std::invalid_argument("JSON error at offset " +
                                std::to_string(pos_) + ": " + what);
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' ||
            text_[pos_] == '\n' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  char peek() {
    skip_ws();
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool literal(const char* word) {
    const std::size_t n = std::string(word).size();
    if (text_.compare(pos_, n, word) != 0) return false;
    pos_ += n;
    return true;
  }

  Json parse_value() {
    // Depth bound (found by tests/fuzz_task_json): without it, a line of
    // a few hundred kilobytes of '[' recurses the parser off the stack.
    // The wire schema nests 3 levels deep; 64 is far beyond any legal
    // document and still at most a few dozen stack frames.
    if (depth_ >= kMaxDepth) fail("nesting too deep");
    ++depth_;
    Json v = parse_value_inner();
    --depth_;
    return v;
  }

  Json parse_value_inner() {
    const char c = peek();
    if (c == '{') return parse_object();
    if (c == '[') return parse_array();
    if (c == '"') {
      Json v;
      v.kind = Json::Kind::String;
      v.str = parse_string();
      return v;
    }
    Json v;
    if (literal("true")) {
      v.kind = Json::Kind::Bool;
      v.boolean = true;
      return v;
    }
    if (literal("false")) {
      v.kind = Json::Kind::Bool;
      v.boolean = false;
      return v;
    }
    if (literal("null")) return v;
    return parse_number();
  }

  Json parse_number() {
    Json v;
    v.kind = Json::Kind::Number;
    const std::size_t start = pos_;
    if (pos_ < text_.size() && (text_[pos_] == '-' || text_[pos_] == '+')) {
      ++pos_;
    }
    if (literal("inf") || literal("nan")) {
      v.number = text_.substr(start, pos_ - start);
      return v;
    }
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if ((c >= '0' && c <= '9') || c == '.' || c == 'e' || c == 'E' ||
          c == '+' || c == '-') {
        ++pos_;
      } else {
        break;
      }
    }
    if (pos_ == start) fail("expected a value");
    v.number = text_.substr(start, pos_ - start);
    return v;
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape");
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code |= static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code |= static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code |= static_cast<unsigned>(h - 'A' + 10);
            } else {
              fail("bad \\u escape");
            }
          }
          // The writer only emits \u for control characters; decode the
          // BMP anyway (UTF-8) so foreign JSONL parses too.
          if (code < 0x80) {
            out += static_cast<char>(code);
          } else if (code < 0x800) {
            out += static_cast<char>(0xc0 | (code >> 6));
            out += static_cast<char>(0x80 | (code & 0x3f));
          } else {
            out += static_cast<char>(0xe0 | (code >> 12));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3f));
            out += static_cast<char>(0x80 | (code & 0x3f));
          }
          break;
        }
        default: fail("unknown escape");
      }
    }
  }

  Json parse_array() {
    expect('[');
    Json v;
    v.kind = Json::Kind::Array;
    if (peek() == ']') {
      ++pos_;
      return v;
    }
    while (true) {
      v.array.push_back(parse_value());
      const char c = peek();
      ++pos_;
      if (c == ']') return v;
      if (c != ',') fail("expected ',' or ']'");
    }
  }

  Json parse_object() {
    expect('{');
    Json v;
    v.kind = Json::Kind::Object;
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    while (true) {
      std::string key = parse_string();
      expect(':');
      v.object.emplace_back(std::move(key), parse_value());
      const char c = peek();
      ++pos_;
      if (c == '}') return v;
      if (c != ',') fail("expected ',' or '}'");
    }
  }

  static constexpr int kMaxDepth = 64;

  const std::string& text_;
  std::size_t pos_ = 0;
  int depth_ = 0;
};

Json parse_json(const std::string& text) { return JsonReader(text).parse(); }

const char* type_tag(const ParamValue& value) {
  if (value.is_bool()) return "bool";
  if (value.is_int()) return "int";
  if (value.is_double()) return "double";
  return "string";
}

/// A representative value of the tagged type, for ParamValue::parse_as.
ParamValue exemplar(const std::string& type) {
  if (type == "bool") return ParamValue(false);
  if (type == "int") return ParamValue(std::int64_t{0});
  if (type == "double") return ParamValue(0.0);
  if (type == "string") return ParamValue(std::string{});
  throw std::invalid_argument("unknown parameter type '" + type + "'");
}

ParamValue param_value_from(const Json& json) {
  const std::string& type = json.at("type").as_string();
  const std::string& text = json.at("value").as_string();
  try {
    return ParamValue::parse_as(text, exemplar(type));
  } catch (const std::invalid_argument& e) {
    throw std::invalid_argument("parameter value '" + text + "' as " + type +
                                ": " + e.what());
  }
}

ParamSet param_set_from(const Json& json) {
  if (json.kind != Json::Kind::Array) {
    throw std::invalid_argument("params must be an array");
  }
  ParamSet set;
  for (const Json& entry : json.array) {
    set.set(entry.at("name").as_string(), param_value_from(entry));
  }
  return set;
}

MetricRecord metric_record_from(const Json& json) {
  if (json.kind != Json::Kind::Object) {
    throw std::invalid_argument("metrics must be an object");
  }
  MetricRecord metrics;
  for (const auto& [name, value] : json.object) {
    metrics.set(name, value.as_double());
  }
  return metrics;
}

RunRecord run_record_from(const Json& json) {
  RunRecord record;
  record.seed = json.at("seed").as_u64();
  record.run_index = json.at("run_index").as_size();
  if (const Json* error = json.find("error");
      error != nullptr && !error->as_string().empty()) {
    record.error = error->as_string();
  } else {
    record.metrics = metric_record_from(json.at("metrics"));
  }
  return record;
}

/// The shared body of RunRecord / TaskResult JSON (no braces).
void append_run_record_body(const RunRecord& record, std::string& out) {
  out += "\"seed\": " + std::to_string(record.seed) +
         ", \"run_index\": " + std::to_string(record.run_index);
  if (!record.ok()) {
    out += ", \"error\": \"" + json_escape(record.error) + '"';
    return;
  }
  out += ", \"metrics\": " + to_json(record.metrics);
}

}  // namespace

// --- writers ----------------------------------------------------------------

std::string to_json(const ParamValue& value) {
  // The value travels as a string rendered exactly (shortest round-trip
  // for doubles), with an explicit type tag: "7" the int and "7" the
  // double are different wire values.
  return std::string("{\"type\": \"") + type_tag(value) + "\", \"value\": \"" +
         json_escape(value.to_string()) + "\"}";
}

std::string to_json(const ParamSet& params) {
  std::string out = "[";
  bool first = true;
  for (const auto& [name, value] : params.entries()) {
    if (!first) out += ", ";
    first = false;
    out += "{\"name\": \"" + json_escape(name) + "\", \"type\": \"" +
           type_tag(value) + "\", \"value\": \"" +
           json_escape(value.to_string()) + "\"}";
  }
  return out + "]";
}

std::string to_json(const MetricRecord& metrics) {
  std::string out = "{";
  bool first = true;
  for (const auto& [name, value] : metrics.entries()) {
    if (!first) out += ", ";
    first = false;
    out += '"' + json_escape(name) + "\": " + format_exact(value);
  }
  return out + "}";
}

std::string to_json(const RunRecord& record) {
  std::string out = "{";
  append_run_record_body(record, out);
  return out + "}";
}

std::string to_json(const TaskSpec& task) {
  return "{\"family\": \"" + json_escape(task.family) +
         "\", \"params\": " + to_json(task.params) +
         ", \"base_seed\": " + std::to_string(task.base_seed) +
         ", \"run_index\": " + std::to_string(task.run_index) +
         ", \"sequence\": " + std::to_string(task.sequence) + "}";
}

std::string to_json(const TaskResult& result) {
  std::string out = "{\"family\": \"" + json_escape(result.family) +
                    "\", \"scenario\": \"" + json_escape(result.scenario) +
                    "\", \"sequence\": " + std::to_string(result.sequence) +
                    ", ";
  append_run_record_body(result.record, out);
  return out + "}";
}

// --- parsers ----------------------------------------------------------------

ParamValue param_value_from_json(const std::string& text) {
  return param_value_from(parse_json(text));
}

ParamSet param_set_from_json(const std::string& text) {
  return param_set_from(parse_json(text));
}

MetricRecord metric_record_from_json(const std::string& text) {
  return metric_record_from(parse_json(text));
}

RunRecord run_record_from_json(const std::string& text) {
  return run_record_from(parse_json(text));
}

TaskSpec task_spec_from_json(const std::string& text) {
  const Json json = parse_json(text);
  TaskSpec task;
  task.family = json.at("family").as_string();
  task.params = param_set_from(json.at("params"));
  task.base_seed = json.at("base_seed").as_u64();
  task.run_index = json.at("run_index").as_size();
  if (const Json* sequence = json.find("sequence")) {
    task.sequence = sequence->as_size();
  }
  return task;
}

TaskResult task_result_from_json(const std::string& text) {
  const Json json = parse_json(text);
  TaskResult result;
  result.family = json.at("family").as_string();
  result.scenario = json.at("scenario").as_string();
  if (const Json* sequence = json.find("sequence")) {
    result.sequence = sequence->as_size();
  }
  result.record = run_record_from(json);
  return result;
}

// --- expand ----------------------------------------------------------------

std::vector<BoundTask> expand_catalog(const FamilySelection& selection,
                                      const SweepOptions& sweep,
                                      const std::string& only,
                                      const std::string& exclude) {
  std::vector<BoundTask> tasks;
  std::size_t sequence = 0;
  for (const auto& [family, grids] : selection) {
    // Empty grid list = one parameterless instance.
    std::vector<ParamSet> points;
    if (grids.empty()) {
      points.emplace_back();
    } else {
      for (const ParamGrid& grid : grids) {
        for (ParamSet& point : grid.expand()) points.push_back(std::move(point));
      }
    }
    for (const ParamSet& point : points) {
      // Factories and scenario constructors validate their parameters
      // (string axes like mix/fleet/case, numeric preconditions); with
      // overridden grids those throws are user input, not bugs.
      std::shared_ptr<const Scenario> scenario;
      try {
        scenario = family->factory(point);
      } catch (const std::exception& e) {
        throw std::invalid_argument("family '" + family->name +
                                    "': " + e.what());
      }
      if (scenario == nullptr) {
        throw std::invalid_argument("family '" + family->name +
                                    "' factory returned null for {" +
                                    point.label() + "}");
      }
      const std::size_t seq = sequence++;
      const std::string name = scenario->name();
      if (!only.empty() && name.find(only) == std::string::npos) continue;
      if (!exclude.empty() && name.find(exclude) != std::string::npos) {
        continue;
      }
      for (std::size_t i = 0; i < sweep.num_seeds; ++i) {
        tasks.push_back(BoundTask{
            TaskSpec{family->name, point, sweep.base_seed, i, seq},
            scenario});
      }
    }
  }
  return tasks;
}

// --- execute ---------------------------------------------------------------

namespace {

/// Hands out the tasks by list position, which is also the slot.
class BoundTaskSource final : public TaskSource {
 public:
  explicit BoundTaskSource(const std::vector<BoundTask>& tasks)
      : tasks_(tasks) {}

  bool next(SweepTask& task) override {
    const std::size_t i = next_.fetch_add(1);
    if (i >= tasks_.size()) return false;
    task.scenario = tasks_[i].scenario;
    task.seed = derive_seed(tasks_[i].spec.base_seed,
                            tasks_[i].spec.run_index);
    task.run_index = tasks_[i].spec.run_index;
    task.slot = i;
    return true;
  }

 private:
  const std::vector<BoundTask>& tasks_;
  std::atomic<std::size_t> next_{0};
};

/// Places each result in its task's slot, and optionally streams the
/// results as JSONL in task order regardless of completion order, so a
/// worker's stdout is deterministic on any thread count.
class OrderedCollector final : public ResultCollector {
 public:
  OrderedCollector(const std::vector<BoundTask>& tasks, std::ostream* stream)
      : tasks_(tasks), results_(tasks.size()), done_(tasks.size(), false),
        stream_(stream) {}

  void collect(const SweepTask& task, RunRecord record) override {
    TaskResult result;
    // The *scenario's* rendered family, not the registry family the task
    // named: the two can differ (bft_batching instantiates bft_scaling
    // scenarios), and a merge must render exactly what the in-process
    // sweep renders — that's the byte-identity contract.
    result.family = task.scenario->family();
    result.scenario = task.scenario->name();
    result.sequence = tasks_[task.slot].spec.sequence;
    result.record = std::move(record);

    const std::lock_guard<std::mutex> lock(mutex_);
    results_[task.slot] = std::move(result);
    done_[task.slot] = true;
    while (next_to_emit_ < done_.size() && done_[next_to_emit_]) {
      if (stream_ != nullptr) {
        *stream_ << to_json(results_[next_to_emit_]) << '\n';
      }
      ++next_to_emit_;
    }
  }

  [[nodiscard]] std::vector<TaskResult> take() { return std::move(results_); }

 private:
  const std::vector<BoundTask>& tasks_;
  std::mutex mutex_;  // guards everything below
  std::vector<TaskResult> results_;
  std::vector<bool> done_;
  std::size_t next_to_emit_ = 0;
  std::ostream* stream_;
};

}  // namespace

std::vector<TaskResult> execute_tasks(const std::vector<BoundTask>& tasks,
                                      std::size_t threads,
                                      std::ostream* stream) {
  if (tasks.empty()) return {};
  if (threads == 0) threads = std::thread::hardware_concurrency();
  if (threads == 0) threads = 1;
  BoundTaskSource source(tasks);
  OrderedCollector collector(tasks, stream);
  run_task_pool(source, collector, std::min(threads, tasks.size()));
  return collector.take();
}

// --- render ----------------------------------------------------------------

namespace {

/// The one renderer behind the in-process sweep and --merge. Groups
/// `results` into scenario entries keyed by (sequence, family, scenario)
/// — sequence keeps same-named catalog instances apart, e.g. a --set
/// collapsing both bft_scaling grids onto one point — ordered by
/// sequence with first appearance breaking ties, then renders json or
/// csv, or `table_header` and tables, and reports every failed run on
/// `err`. Returns 1 when any run failed, else 0.
int render_results(std::vector<TaskResult> results, bool csv, bool json,
                   const std::string& table_header, std::ostream& out,
                   std::ostream& err) {
  struct Group {
    std::size_t sequence;
    std::string family;
    std::string scenario;
    std::vector<RunRecord> records;
  };
  std::vector<Group> groups;
  for (TaskResult& result : results) {
    auto group = std::find_if(groups.begin(), groups.end(),
                              [&](const Group& g) {
                                return g.sequence == result.sequence &&
                                       g.family == result.family &&
                                       g.scenario == result.scenario;
                              });
    if (group == groups.end()) {
      groups.push_back(Group{result.sequence, std::move(result.family),
                             std::move(result.scenario), {}});
      group = std::prev(groups.end());
    }
    group->records.push_back(std::move(result.record));
  }
  std::stable_sort(groups.begin(), groups.end(),
                   [](const Group& a, const Group& b) {
                     return a.sequence < b.sequence;
                   });

  MetricsSink sink;
  for (Group& group : groups) {
    sink.add(std::move(group.scenario), std::move(group.family),
             std::move(group.records));
  }
  if (json) {
    sink.print_json(out);
  } else if (csv) {
    sink.print_csv(out);
  } else {
    out << table_header;
    sink.print_tables(out);
  }

  if (!sink.any_errors()) return 0;
  for (const auto& entry : sink.entries()) {
    for (const RunRecord& record : entry.records) {
      if (!record.ok()) {
        err << entry.scenario << " seed " << record.seed
            << " failed: " << record.error << '\n';
      }
    }
  }
  return 1;
}

}  // namespace

int run_sweep(const std::vector<BoundTask>& tasks,
              const SuiteOptions& options, std::ostream& out,
              std::ostream& err) {
  std::ostringstream header;
  support::print_banner(header,
                        "findep-bench: the registered scenario catalog");
  header << "sweep: " << options.sweep.num_seeds << " seed(s) from --seed "
         << options.sweep.base_seed << '\n';
  const int code =
      render_results(execute_tasks(tasks, options.sweep.threads),
                     options.csv, options.json, header.str(), out, err);
  if (!options.csv && !options.json) {
    // Informational process counters (e.g. analyzer memo hits). Table
    // mode only: their totals depend on worker interleaving, so they
    // stay out of the deterministic CSV/JSON record.
    const auto counters = sample_process_counters();
    if (!counters.empty()) {
      out << "\ncounters:";
      for (const auto& [name, value] : counters) {
        out << ' ' << name << '=' << value;
      }
      out << '\n';
    }
  }
  return code;
}

// --- worker: --worker -------------------------------------------------------

namespace {

/// Stand-in for a task whose factory rejected its parameters: carries the
/// error into the normal execute/collect path so the result record is an
/// error-carrying TaskResult rather than a dead worker.
class FailedScenario final : public Scenario {
 public:
  FailedScenario(std::string name, std::string message)
      : name_(std::move(name)), message_(std::move(message)) {}
  std::string name() const override { return name_; }
  MetricRecord run(const RunContext&) const override {
    throw std::runtime_error(message_);
  }

 private:
  std::string name_;
  std::string message_;
};

}  // namespace

int run_worker(std::istream& in, std::ostream& out, std::ostream& err,
               std::size_t threads) {
  const ScenarioRegistry& registry = ScenarioRegistry::global();

  // Parse and bind everything up front: a malformed task list fails
  // fast (before any work runs) with the offending line number.
  std::vector<BoundTask> tasks;
  std::string line;
  std::size_t line_number = 0;
  while (std::getline(in, line)) {
    ++line_number;
    if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
    BoundTask task;
    try {
      task.spec = task_spec_from_json(line);
    } catch (const std::invalid_argument& e) {
      err << "error: task line " << line_number << ": " << e.what() << '\n';
      return 2;
    }
    const ScenarioFamily* family = registry.find(task.spec.family);
    if (family == nullptr) {
      err << "error: task line " << line_number << ": unknown scenario "
          << "family '" << task.spec.family << "'\n";
      return 2;
    }
    // A factory throw is data, not a protocol error: the run's record
    // carries it to the merge like any failed run.
    try {
      task.scenario = family->factory(task.spec.params);
      if (task.scenario == nullptr) {
        throw std::invalid_argument("factory returned null");
      }
    } catch (const std::exception& e) {
      task.scenario = std::make_shared<FailedScenario>(
          task.spec.family + "/" + task.spec.params.label(), e.what());
    }
    tasks.push_back(std::move(task));
  }

  const std::vector<TaskResult> results = execute_tasks(tasks, threads, &out);
  out.flush();
  const bool any_error =
      std::any_of(results.begin(), results.end(),
                  [](const TaskResult& r) { return !r.record.ok(); });
  return any_error ? 1 : 0;
}

// --- merge: --merge ---------------------------------------------------------

namespace {

/// (sequence, family, scenario, seed, run_index): one record's identity.
using RecordKey = std::tuple<std::size_t, std::string, std::string,
                             std::uint64_t, std::size_t>;

bool read_shard(std::istream& in, const std::string& label,
                std::vector<TaskResult>& results, std::set<RecordKey>& seen,
                std::ostream& err) {
  std::string line;
  std::size_t line_number = 0;
  while (std::getline(in, line)) {
    ++line_number;
    if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
    TaskResult result;
    try {
      result = task_result_from_json(line);
    } catch (const std::invalid_argument& e) {
      err << "error: " << label << " line " << line_number << ": "
          << e.what() << '\n';
      return false;
    }
    if (!seen.emplace(result.sequence, result.family, result.scenario,
                      result.record.seed, result.record.run_index)
             .second) {
      err << "error: " << label << " line " << line_number
          << ": duplicate record for scenario '" << result.scenario
          << "' seed " << result.record.seed << " (overlapping shards?)\n";
      return false;
    }
    results.push_back(std::move(result));
  }
  return true;
}

}  // namespace

int merge_shards(const std::vector<std::string>& paths, bool csv, bool json,
                 std::ostream& out, std::ostream& err) {
  std::vector<TaskResult> results;
  std::set<RecordKey> seen;
  for (const std::string& path : paths) {
    if (path == "-") {
      if (!read_shard(std::cin, "<stdin>", results, seen, err)) return 2;
      continue;
    }
    std::ifstream file(path);
    if (!file) {
      err << "error: cannot open shard file '" << path << "'\n";
      return 2;
    }
    if (!read_shard(file, path, results, seen, err)) return 2;
  }

  std::ostringstream header;
  support::print_banner(header, "merged " + std::to_string(results.size()) +
                                    " record(s) from " +
                                    std::to_string(paths.size()) +
                                    " shard(s)");
  return render_results(std::move(results), csv, json, header.str(), out,
                        err);
}

}  // namespace findep::runtime
