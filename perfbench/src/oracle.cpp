#include "oracle.h"

#include <zlib.h>

#include <fstream>
#include <sstream>
#include <stdexcept>

namespace perfbench {

namespace {

std::string gunzip_file(const std::string& path) {
  gzFile file = gzopen(path.c_str(), "rb");
  if (file == nullptr) throw std::runtime_error("cannot open " + path);
  std::string text;
  char buffer[1 << 16];
  int got = 0;
  while ((got = gzread(file, buffer, sizeof(buffer))) > 0) {
    text.append(buffer, static_cast<std::size_t>(got));
  }
  const bool failed = got < 0;
  gzclose(file);
  if (failed) throw std::runtime_error("cannot decompress " + path);
  return text;
}

bool is_proto_cell(const std::string& name) {
  return name.find(" proto=") != std::string::npos;
}

/// Reads a JSON string starting at the opening quote at `pos`; the
/// catalog's names and metric keys carry no escapes.
std::string read_string(const std::string& text, std::size_t& pos) {
  const std::size_t close = text.find('"', pos + 1);
  if (close == std::string::npos) throw std::runtime_error("bad golden");
  std::string out = text.substr(pos + 1, close - pos - 1);
  pos = close + 1;
  return out;
}

/// Parses the `{"k": v, ...}` object opening at `pos` into its entries,
/// values kept as the renderer printed them.
std::vector<std::pair<std::string, std::string>> read_metrics(
    const std::string& text, std::size_t& pos) {
  std::vector<std::pair<std::string, std::string>> out;
  pos = text.find('{', pos) + 1;
  while (true) {
    const std::size_t next = text.find_first_of("\"}", pos);
    if (next == std::string::npos) throw std::runtime_error("bad golden");
    if (text[next] == '}') {
      pos = next + 1;
      return out;
    }
    pos = next;
    std::string key = read_string(text, pos);
    pos = text.find(':', pos) + 1;
    while (text[pos] == ' ') ++pos;
    const std::size_t end = text.find_first_of(",}", pos);
    out.emplace_back(std::move(key), text.substr(pos, end - pos));
    pos = end == std::string::npos || text[end] == '}' ? end : end + 1;
  }
}

}  // namespace

References References::load(const std::string& root,
                            const std::set<std::string>& names) {
  References refs;
  const std::string golden = gunzip_file(root + "/ci/golden_catalog.json.gz");
  const std::string name_tag = "{\"name\": ";
  const std::string run_tag = "{\"seed\": ";
  std::size_t pos = golden.find(name_tag);
  while (pos != std::string::npos) {
    std::size_t cursor = pos + name_tag.size();
    const std::string name = read_string(golden, cursor);
    const std::size_t next = golden.find(name_tag, cursor);
    if (names.count(name) != 0) {
      std::vector<Values>& runs = refs.golden_[name];
      std::size_t run = golden.find(run_tag, cursor);
      while (run != std::string::npos && run < next) {
        std::size_t at = golden.find("\"metrics\": ", run);
        runs.push_back(read_metrics(golden, at));
        run = golden.find(run_tag, at);
      }
    }
    pos = next;
  }

  const std::string csv_path = root + "/ci/micro_baseline.csv";
  std::ifstream csv(csv_path);
  if (!csv) throw std::runtime_error("cannot open " + csv_path);
  std::string line;
  std::getline(csv, line);  // header
  while (std::getline(csv, line)) {
    // scenario,metric,kind,baseline — scenario names hold no commas.
    std::vector<std::string> fields;
    std::stringstream row(line);
    std::string field;
    while (std::getline(row, field, ',')) fields.push_back(field);
    if (fields.size() != 4 || fields[2] != "count") continue;
    if (names.count(fields[0]) == 0) continue;
    refs.counts_[fields[0]].emplace_back(fields[1], fields[3]);
  }
  return refs;
}

std::size_t References::runs(const std::string& name) const {
  if (is_proto_cell(name)) return counts_.count(name) != 0 ? 1 : 0;
  const auto it = golden_.find(name);
  return it == golden_.end() ? 0 : it->second.size();
}

std::string References::compare(
    const std::string& name, std::size_t run_index,
    const findep::runtime::MetricRecord& record) const {
  using findep::runtime::format_exact;
  if (run_index >= runs(name)) return "no reference for " + name;
  if (is_proto_cell(name)) {
    for (const auto& [metric, expected] : counts_.at(name)) {
      if (!record.has(metric)) return metric + " missing";
      const std::string got = format_exact(record.get(metric));
      if (got != expected) {
        return metric + " = " + got + ", count row pins " + expected;
      }
    }
    return {};
  }
  const Values& expected = golden_.at(name)[run_index];
  const auto& entries = record.entries();
  if (entries.size() != expected.size()) {
    return std::to_string(entries.size()) + " metrics, golden has " +
           std::to_string(expected.size());
  }
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const std::string got = format_exact(entries[i].second);
    if (entries[i].first != expected[i].first || got != expected[i].second) {
      return entries[i].first + " = " + got + ", golden has " +
             expected[i].first + " = " + expected[i].second;
    }
  }
  return {};
}

}  // namespace perfbench
