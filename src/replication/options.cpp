#include "replication/options.h"

#include <stdexcept>

#include "support/assert.h"

namespace findep::replication {

Protocol parse_protocol(const std::string& name) {
  if (name == "pbft") return Protocol::kPbft;
  if (name == "hotstuff") return Protocol::kHotStuff;
  throw std::invalid_argument("unknown protocol '" + name +
                              "' (expected pbft or hotstuff)");
}

const char* protocol_name(Protocol protocol) noexcept {
  switch (protocol) {
    case Protocol::kPbft:
      return "pbft";
    case Protocol::kHotStuff:
      return "hotstuff";
  }
  return "?";
}

void validate_replica_options(const ReplicaOptions& options) {
  FINDEP_REQUIRE_MSG(options.request_timeout > 0.0,
                     "request_timeout must be positive");
  FINDEP_REQUIRE_MSG(options.view_change_timeout > 0.0,
                     "view_change_timeout must be positive");
  FINDEP_REQUIRE_MSG(options.checkpoint_interval > 0,
                     "checkpoint_interval must be >= 1: an interval of 0 "
                     "would re-checkpoint on every execution and never "
                     "bound the vote window");
  FINDEP_REQUIRE_MSG(options.batch_size >= 1, "batch_size must be >= 1");
  FINDEP_REQUIRE_MSG(options.batch_timeout > 0.0,
                     "batch_timeout must be positive");
  FINDEP_REQUIRE_MSG(
      options.batch_timeout < options.request_timeout,
      "batch_timeout must stay strictly below request_timeout: a partial "
      "batch waiting out a slower batch timer lets the liveness timers "
      "fire first, costing a spurious leader change per lull");
  FINDEP_REQUIRE_MSG(options.state_transfer_grace > 0.0,
                     "state_transfer_grace must be positive");
  FINDEP_REQUIRE_MSG(options.state_transfer_timeout > 0.0,
                     "state_transfer_timeout must be positive");
  FINDEP_REQUIRE_MSG(
      options.high_watermark_window >= 2 * options.checkpoint_interval,
      "high_watermark_window must be at least 2 * checkpoint_interval: "
      "execution legitimately runs up to an interval ahead of stability, "
      "and a tighter bound would throttle a perfectly healthy primary");
  FINDEP_REQUIRE_MSG(options.crypto_workers >= 1,
                     "crypto_workers must be >= 1");
}

}  // namespace findep::replication
