// The shared ReplicaOptions validator and the protocol axis parser: one
// protocol-free validator serves both ordering protocols, rejecting each
// misconfiguration with a specific message.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "replication/options.h"
#include "support/assert.h"

namespace findep::replication {
namespace {

/// Runs the validator and returns the ContractViolation message ("" when
/// the options validate).
std::string violation(const ReplicaOptions& options) {
  try {
    validate_replica_options(options);
    return "";
  } catch (const support::ContractViolation& e) {
    return e.what();
  }
}

TEST(ProtocolAxis, ParsesBothProtocolNames) {
  EXPECT_EQ(parse_protocol("pbft"), Protocol::kPbft);
  EXPECT_EQ(parse_protocol("hotstuff"), Protocol::kHotStuff);
  EXPECT_STREQ(protocol_name(Protocol::kPbft), "pbft");
  EXPECT_STREQ(protocol_name(Protocol::kHotStuff), "hotstuff");
}

TEST(ProtocolAxis, RejectsUnknownProtocolWithSpecificMessage) {
  try {
    (void)parse_protocol("raft");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_EQ(std::string(e.what()),
              "unknown protocol 'raft' (expected pbft or hotstuff)");
  }
}

TEST(ReplicaOptionsValidator, DefaultsValidate) {
  EXPECT_EQ(violation(ReplicaOptions{}), "");
}

TEST(ReplicaOptionsValidator, BatchTimerMustUndercutTheLivenessTimer) {
  // The batch cut must land before the timer that triggers a leader
  // change — request_timeout, PBFT's request deadline and HotStuff's
  // base round timeout alike.
  ReplicaOptions options;
  options.request_timeout = 1.0;
  options.batch_timeout = 1.5;
  EXPECT_NE(violation(options).find(
                "batch_timeout must stay strictly below request_timeout"),
            std::string::npos);
  options.batch_timeout = 1.0;  // a tie still loses the race
  EXPECT_NE(violation(options).find(
                "batch_timeout must stay strictly below request_timeout"),
            std::string::npos);
  options.batch_timeout = 0.5;
  EXPECT_EQ(violation(options), "");
}

}  // namespace
}  // namespace findep::replication
