// Declarative campaign specs.
//
// A campaign spec is a tiny axis-override file over the campaign grid —
// the declarative surface of the engine. Format (one axis per line,
// '#' comments, blank lines ignored):
//
//   # nightly resilience campaign
//   target = uniform, diverse, skewed
//   fault  = crash, partition, collude
//   rate   = 1.0, 0.5
//   n      = 7
//   seeds  = 3
//
// Axes omitted keep the registered campaign defaults. `seeds` is not a
// grid axis: it sets the per-cell seed count (the CLI's --seeds wins when
// both are given). Validation is strict and happens at parse time, before
// any cell runs: unknown axes, duplicate axis lines, duplicate values
// within an axis (two identical cells — an overlapping campaign is almost
// always a spec bug), unknown target/fault names, rates outside (0, 1]
// and n < 4 are all rejected with the offending line number.
//
// A parsed spec lowers to the same `--set` flags the CLI takes:
// `findep-bench --spec FILE` is `findep-bench --family campaign --set ...`,
// so spec-driven and hand-written campaigns drive the identical expansion
// path (run_families_main), including `--emit-tasks` sharding.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace findep::campaign {

struct CampaignSpec {
  /// Axis overrides in file order, CLI `--set` shaped: axis name and its
  /// value strings.
  std::vector<std::pair<std::string, std::vector<std::string>>> overrides;
  /// Per-cell seed count, when the spec pins one.
  std::optional<std::uint64_t> seeds;
};

/// Parses spec text. Throws std::invalid_argument with "line N" context
/// on any malformed or semantically invalid input (see header comment).
[[nodiscard]] CampaignSpec parse_campaign_spec(const std::string& text);

/// Reads and parses a spec file. Throws std::runtime_error when the file
/// cannot be read; parse errors as parse_campaign_spec.
[[nodiscard]] CampaignSpec load_campaign_spec(const std::string& path);

/// What findep-bench makes of its two campaign flags, resolved before the
/// registry driver parses the command line.
struct CampaignCommand {
  /// `--report SHARD...` (the rest of the command line): print the
  /// outcome report of these result shards instead of sweeping.
  std::optional<std::vector<std::string>> report;
  /// Otherwise the registry-driver arguments (argv without argv[0]).
  /// `--spec FILE` lowers to `--family campaign`, one `--set AXIS=V,...`
  /// per spec axis and `--seeds K` when the spec pins one, all ahead of
  /// the command line's own flags — so a command-line `--set` or
  /// `--seeds` still wins. Without `--spec` the arguments pass unchanged.
  std::vector<std::string> args;
};

/// Resolves `--report` and `--spec` in `args` (argv without argv[0]).
/// Throws std::invalid_argument on `--spec` without a path, or on `--spec`
/// together with a `--family` naming any family but `campaign` (spec axes
/// such as `n` would silently re-aim it); spec errors propagate as from
/// load_campaign_spec.
[[nodiscard]] CampaignCommand lower_campaign_flags(
    const std::vector<std::string>& args);

}  // namespace findep::campaign
