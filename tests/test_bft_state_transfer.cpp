// Checkpoint-anchored state transfer: un-stranding laggards after
// outages spanning multiple stable checkpoints, adversarial responders,
// view changes racing in-flight transfers, the checkpoint-vote watermark
// window, ReplicaOptions validation, and the regression pin that
// disabling the mechanism reproduces the historical stranding.
#include <gtest/gtest.h>

#include <set>
#include <string>

#include "bft/cluster.h"
#include "scenarios/bft_churn.h"
#include "support/assert.h"

namespace findep::bft {
namespace {

ClusterOptions churn_options(std::uint64_t seed = 1) {
  ClusterOptions opt;
  opt.network.min_latency = 0.005;
  opt.network.mean_extra_latency = 0.01;
  opt.replica.request_timeout = 0.8;
  opt.replica.view_change_timeout = 1.2;
  opt.replica.checkpoint_interval = 4;
  opt.replica.state_transfer_grace = 0.1;
  opt.replica.state_transfer_timeout = 0.5;
  opt.seed = seed;
  return opt;
}

/// Offered load at `rate` req/s until `until` (simulated seconds).
void offer_load(BftCluster& cluster, double rate, double until) {
  const int count = static_cast<int>(until * rate);
  for (int i = 0; i < count; ++i) {
    cluster.simulator().schedule_at(static_cast<double>(i) / rate,
                                    [&cluster] { (void)cluster.submit(); });
  }
}

/// Partition the given replicas away (each in its own group) at `from`,
/// heal everyone at `to`.
void schedule_outage(BftCluster& cluster, std::vector<net::NodeId> crashed,
                     double from, double to) {
  cluster.simulator().schedule_at(from, [&cluster, crashed] {
    std::uint32_t group = 1;
    for (const net::NodeId node : crashed) {
      cluster.network().set_partition_group(node, group++);
    }
  });
  cluster.simulator().schedule_at(
      to, [&cluster] { cluster.network().heal_partitions(); });
}

TEST(BftStateTransfer, LaggardRecoversAcrossMultiCheckpointOutage) {
  // Replica 3 crashes through [1, 7) while load keeps flowing; the live
  // quorum advances many stable checkpoints meanwhile (interval 4), so
  // the laggard's missed traffic is unrecoverable from live messages —
  // only state transfer can close the gap.
  ClusterOptions opt = churn_options(101);
  BftCluster cluster(4, opt);
  offer_load(cluster, 12.0, 9.0);
  schedule_outage(cluster, {3}, 1.0, 7.0);
  cluster.run_for(6.0);
  // Mid-outage sanity: the live side has moved more than two checkpoint
  // intervals past the laggard's horizon (the stranding precondition).
  EXPECT_GE(cluster.replica(0).stable_checkpoint(),
            cluster.replica(3).last_executed() + 2 * 4);
  cluster.run_for(14.0);
  EXPECT_EQ(cluster.stranded_replicas(), 0u);
  EXPECT_TRUE(cluster.logs_consistent());
  EXPECT_GE(cluster.replica(3).state_transfers_completed(), 1u);
  EXPECT_GT(cluster.replica(3).state_transfer_bytes(), 0u);
  // Bounded view changes: the laggard may time out a few times while
  // catching up, but there is no open-ended thrash.
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_LE(cluster.replica(i).view_changes_started(), 10u) << i;
  }
}

TEST(BftStateTransfer, SplicedLogKeepsTheRunningStateDigest) {
  // The tail absorbs each executed entry into a running digest instead
  // of re-hashing the log at every checkpoint. A state-transfer splice
  // appends through the same path, so after recovery every replica's
  // digest must still equal a from-scratch fold over its executed log.
  ClusterOptions opt = churn_options(101);
  BftCluster cluster(4, opt);
  offer_load(cluster, 12.0, 9.0);
  schedule_outage(cluster, {3}, 1.0, 7.0);
  cluster.run_for(20.0);
  ASSERT_GE(cluster.replica(3).state_transfers_completed(), 1u);
  for (std::size_t i = 0; i < 4; ++i) {
    crypto::Sha256 fold;
    fold.update("findep/bft/state/v1");
    for (const ExecutedEntry& e : cluster.node(i).executed()) {
      fold.update_u64(e.seq);
      fold.update(e.request.digest().bytes);
    }
    EXPECT_EQ(cluster.node(i).state_digest(), fold.finish()) << i;
  }
  EXPECT_EQ(cluster.node(3).state_digest(), cluster.node(0).state_digest());
}

TEST(BftStateTransfer, DisabledStateTransferReproducesStranding) {
  // The identical schedule with state transfer off regression-pins the
  // historical behaviour: the laggard stays stranded below the stable
  // checkpoint and thrashes hopeless view changes.
  ClusterOptions opt = churn_options(101);
  opt.replica.enable_state_transfer = false;
  BftCluster cluster(4, opt);
  offer_load(cluster, 12.0, 9.0);
  schedule_outage(cluster, {3}, 1.0, 7.0);
  cluster.run_for(20.0);
  EXPECT_EQ(cluster.stranded_replicas(), 1u);
  EXPECT_LT(cluster.replica(3).last_executed(),
            cluster.replica(0).last_executed());
  EXPECT_EQ(cluster.replica(3).state_transfers_completed(), 0u);
  EXPECT_GT(cluster.replica(3).view_changes_started(), 5u);
  EXPECT_TRUE(cluster.logs_consistent());  // stranded, never inconsistent
}

TEST(BftStateTransfer, TwoLaggardsTwoCheckpointsBehindBothRecover) {
  // n = 7 tolerates f = 2: crash two replicas through an outage that
  // spans several stable checkpoints. Both must recover, and — the
  // checkpoint-adoption fix — the cluster must stabilize a *new*
  // checkpoint after the heal with the former laggards participating.
  ClusterOptions opt = churn_options(102);
  BftCluster cluster(7, opt);
  offer_load(cluster, 12.0, 10.0);
  schedule_outage(cluster, {5, 6}, 1.0, 7.5);
  cluster.run_for(6.0);
  const SeqNum mid_outage_stable = cluster.replica(0).stable_checkpoint();
  EXPECT_GE(mid_outage_stable, cluster.replica(5).last_executed() + 2 * 4);
  cluster.run_for(24.0);
  EXPECT_EQ(cluster.stranded_replicas(), 0u);
  EXPECT_TRUE(cluster.logs_consistent());
  for (const std::size_t laggard : {5u, 6u}) {
    EXPECT_GE(cluster.replica(laggard).state_transfers_completed(), 1u)
        << laggard;
  }
  // The next checkpoint quorum after the heal formed (no stall from
  // stale own-checkpoint re-broadcasts by the recovered laggards).
  for (std::size_t i = 0; i < 7; ++i) {
    EXPECT_GT(cluster.replica(i).stable_checkpoint(), mid_outage_stable)
        << i;
  }
}

TEST(BftStateTransfer, ViewChangeRacesInFlightTransfer) {
  // The primary crashes at the same instant the laggard's outage heals:
  // the cluster runs a view change while the laggard's fetch is in
  // flight. The laggard must both catch up on execution *and* adopt the
  // new view (via the NEW-VIEW relayed in the state response or heard
  // live), then participate normally.
  ClusterOptions opt = churn_options(103);
  BftCluster cluster(7, opt);
  offer_load(cluster, 12.0, 10.0);
  schedule_outage(cluster, {6}, 1.0, 7.0);
  // Primary of view 0 drops off just as the laggard rejoins.
  cluster.simulator().schedule_at(7.0, [&cluster] {
    cluster.network().set_partition_group(0, 9);
  });
  cluster.run_for(40.0);
  // Replica 0 is gone from 7.0 on; convergence is over replicas 1..6.
  bool advanced = false;
  SeqNum horizon = 0;
  for (std::size_t i = 1; i < 7; ++i) {
    advanced |= cluster.replica(i).view() > 0;
    horizon = std::max(horizon, cluster.replica(i).last_executed());
  }
  EXPECT_TRUE(advanced);
  EXPECT_GT(cluster.replica(6).view(), 0u);  // the laggard followed
  EXPECT_EQ(cluster.replica(6).last_executed(), horizon);
  EXPECT_GE(cluster.replica(6).state_transfers_completed(), 1u);
  EXPECT_TRUE(cluster.logs_consistent());
}

/// Runs on both ordering lanes: the verify/reject/splice path is the
/// shared ExecutionTail, whichever protocol ordered the log.
class BftStateTransferLanes
    : public ::testing::TestWithParam<replication::Protocol> {};

TEST_P(BftStateTransferLanes, MaliciousResponderWrongDigestIsRejected) {
  // A malicious responder cannot forge the checkpoint proof (it would
  // need > 2/3 of signing weight), so its only move is a *real* stable
  // checkpoint with tampered entries. The requester must detect the
  // state-digest mismatch, reject wholesale, and still converge via an
  // honest responder.
  ClusterOptions opt = churn_options(104);
  opt.protocol = GetParam();
  BftCluster cluster(4, opt);
  offer_load(cluster, 12.0, 9.0);
  schedule_outage(cluster, {3}, 1.0, 7.0);
  cluster.run_for(6.5);  // mid-outage: checkpoints are stable, 3 lags

  // Craft the poison: replica 1's keys (derived exactly as the cluster
  // derives them) sign a response carrying the *real* stable checkpoint
  // and proof-quorum votes, but garbage entries.
  const SeqNum stable = cluster.node(1).stable_checkpoint();
  ASSERT_GT(stable, cluster.node(3).last_executed());
  const Checkpoint real_cp{stable,
                          cluster.node(1).stable_checkpoint_digest()};
  StateResponse poison;
  poison.request_from = cluster.node(3).last_executed();
  poison.checkpoint = real_cp;
  for (ReplicaId r = 0; r < 3; ++r) {
    const crypto::KeyPair keys =
        crypto::KeyPair::derive(opt.seed * 1000003 + r);
    poison.proof.push_back(SignedCheckpoint{r, real_cp, keys.sign(real_cp.digest())});
  }
  for (SeqNum s = poison.request_from + 1; s <= stable; ++s) {
    poison.entries.push_back(
        ExecutedEntry{s, Request{90000 + s, crypto::sha256("tampered")}});
  }
  const crypto::KeyPair responder_keys =
      crypto::KeyPair::derive(opt.seed * 1000003 + 1);
  // Heal only the laggard's link and inject the poison immediately.
  cluster.simulator().schedule_at(7.0, [&cluster, &responder_keys, poison] {
    cluster.network().send(
        1, 3, net::Envelope(Envelope(1, responder_keys, poison)),
        payload_wire_bytes(Payload{poison}));
  });
  cluster.run_for(13.5);

  EXPECT_GE(cluster.node(3).state_transfers_rejected(), 1u);
  // ...and the honest path still won: fully converged, logs clean, no
  // tampered request ever executed.
  EXPECT_EQ(cluster.stranded_replicas(), 0u);
  EXPECT_TRUE(cluster.logs_consistent());
  for (const ExecutedEntry& e : cluster.node(3).executed()) {
    EXPECT_LT(e.request.id, 90000u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Protocols, BftStateTransferLanes,
    ::testing::Values(replication::Protocol::kPbft,
                      replication::Protocol::kHotStuff),
    [](const ::testing::TestParamInfo<replication::Protocol>& info) {
      return std::string(replication::protocol_name(info.param));
    });

TEST(BftStateTransfer, SingleFarFutureClaimDoesNotTriggerFetch) {
  // The watermark window drops far-future checkpoint votes from the
  // quorum map, and a lone claimant (< 1/3 weight) must not trigger
  // state transfer either — a Byzantine replica advertising a fantasy
  // horizon costs the cluster nothing.
  ClusterOptions opt = churn_options(105);
  BftCluster cluster(4, opt);
  const crypto::KeyPair liar_keys =
      crypto::KeyPair::derive(opt.seed * 1000003 + 2);
  for (int wave = 0; wave < 5; ++wave) {
    const Checkpoint fantasy{100000 + static_cast<SeqNum>(wave),
                             crypto::sha256("fantasy")};
    const net::Envelope env(Envelope(2, liar_keys, fantasy));
    cluster.simulator().schedule_at(0.5 * wave, [&cluster, env] {
      for (net::NodeId to = 0; to < 4; ++to) {
        if (to != 2) cluster.network().send(2, to, env, 192);
      }
    });
  }
  offer_load(cluster, 10.0, 2.0);
  cluster.run_for(20.0);
  EXPECT_EQ(cluster.stranded_replicas(), 0u);
  EXPECT_TRUE(cluster.logs_consistent());
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(cluster.replica(i).state_transfer_requests(), 0u) << i;
    EXPECT_EQ(cluster.replica(i).state_transfers_completed(), 0u) << i;
  }
}

TEST(BftStateTransfer, SustainedLoadCausesNoSpuriousViewChanges) {
  // Regression for the request-timer reset: under sustained load the
  // pending set never fully drains, and the un-reset timer used to fire
  // a spurious view change every request_timeout even though every
  // request committed promptly. Progress must keep the timer quiet.
  ClusterOptions opt = churn_options(106);
  opt.replica.batch_size = 4;
  BftCluster cluster(10, opt);
  offer_load(cluster, 12.0, 6.0);
  cluster.run_for(10.0);
  EXPECT_EQ(cluster.completed_requests(), 72u);
  EXPECT_EQ(cluster.stranded_replicas(), 0u);
  for (std::size_t i = 0; i < 10; ++i) {
    EXPECT_EQ(cluster.replica(i).view_changes_started(), 0u) << i;
    EXPECT_EQ(cluster.replica(i).view(), 0u) << i;
  }
}

TEST(BftStateTransfer, OptionsValidationFailsFast) {
  // batch_timeout >= request_timeout was a documented footgun (spurious
  // view changes); now it is a construction error, as is a zero
  // checkpoint interval.
  ClusterOptions bad_batch = churn_options(107);
  bad_batch.replica.batch_timeout = bad_batch.replica.request_timeout;
  EXPECT_THROW(BftCluster(4, bad_batch), support::ContractViolation);

  ClusterOptions bad_interval = churn_options(108);
  bad_interval.replica.checkpoint_interval = 0;
  EXPECT_THROW(BftCluster(4, bad_interval), support::ContractViolation);

  ClusterOptions bad_grace = churn_options(109);
  bad_grace.replica.state_transfer_grace = 0.0;
  EXPECT_THROW(BftCluster(4, bad_grace), support::ContractViolation);
}

TEST(BftStateTransfer, ChurnScenarioPinsBothDirections) {
  // Scenario-level acceptance, the same property CI gates: with state
  // transfer on, a just-under-1/3 crash through a multi-checkpoint
  // outage ends with zero stranded replicas; with it off, the identical
  // workload reproduces the stranding.
  using scenarios::BftChurnScenario;
  const auto run = [](bool transfer) {
    BftChurnScenario::Params params;
    params.n = 10;
    params.batch_size = 4;
    params.state_transfer = transfer;
    const BftChurnScenario scenario(params);
    return scenario.run(runtime::RunContext{.seed = 9, .run_index = 0});
  };
  const runtime::MetricRecord with = run(true);
  EXPECT_EQ(with.get("stranded_replicas"), 0.0);
  EXPECT_GT(with.get("recovery_time_s"), 0.0);
  EXPECT_GT(with.get("state_transfers"), 0.0);
  EXPECT_GT(with.get("state_transfer_bytes"), 0.0);
  EXPECT_LE(with.get("max_view_changes"), 10.0);

  const runtime::MetricRecord without = run(false);
  EXPECT_EQ(without.get("stranded_replicas"), 3.0);  // floor(10 * 0.3)
  EXPECT_EQ(without.get("recovery_time_s"), -1.0);
  EXPECT_EQ(without.get("state_transfers"), 0.0);
}

}  // namespace
}  // namespace findep::bft
