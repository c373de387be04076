// Request batching: the Batch payload, the size-aware wire model, the
// primary's cut policy (size / timeout), latency semantics at request
// granularity, and the headline amortization property — batch_size = 8
// commits the same requests with >= 4x fewer protocol messages per
// committed request than batch_size = 1.
#include <gtest/gtest.h>

#include <set>

#include "bft/cluster.h"
#include "scenarios/bft_scaling.h"
#include "support/assert.h"

namespace findep::bft {
namespace {

ClusterOptions fast_options(std::uint64_t seed = 1) {
  ClusterOptions opt;
  opt.network.min_latency = 0.005;
  opt.network.mean_extra_latency = 0.01;
  opt.replica.request_timeout = 0.8;
  opt.replica.view_change_timeout = 1.2;
  opt.seed = seed;
  return opt;
}

Request make_request(std::uint64_t id) {
  return Request{id, crypto::Sha256{}.update_u64(id).finish()};
}

std::set<std::uint64_t> executed_ids(const replication::Pbft& replica) {
  std::set<std::uint64_t> ids;
  for (const ExecutedEntry& e : replica.executed()) {
    if (e.request.id != 0) ids.insert(e.request.id);
  }
  return ids;
}

TEST(BftBatch, DigestCommitsToContentOrderAndCount) {
  const Request a = make_request(1);
  const Request b = make_request(2);
  const Batch ab{{a, b}};
  const Batch ba{{b, a}};
  const Batch a_only{{a}};
  const Batch aa{{a, a}};
  EXPECT_EQ(ab.digest(), (Batch{{a, b}}.digest()));
  EXPECT_NE(ab.digest(), ba.digest());
  EXPECT_NE(ab.digest(), a_only.digest());
  EXPECT_NE(a_only.digest(), aa.digest());
  EXPECT_NE(Batch{}.digest(), a_only.digest());
}

TEST(BftBatch, WireBytesScaleWithBatchAndPreparedEntries) {
  const Request r = make_request(7);
  // A single-request batch costs exactly what the unbatched protocol
  // charged for a pre-prepare (512), so batch_size=1 accounting is
  // byte-identical to the historical flat model.
  EXPECT_EQ(payload_wire_bytes(Payload{PrePrepare{0, 1, Batch{{r}}}}), 512u);
  EXPECT_EQ(payload_wire_bytes(Payload{r}), 512u);
  EXPECT_EQ(payload_wire_bytes(Payload{Prepare{}}), 192u);
  EXPECT_EQ(payload_wire_bytes(Payload{Commit{}}), 192u);
  EXPECT_EQ(payload_wire_bytes(Payload{Checkpoint{}}), 192u);
  // Batched requests share the header: 3 requests cost 192 + 3*320, far
  // below 3 separate pre-prepares.
  const Batch three{{make_request(1), make_request(2), make_request(3)}};
  EXPECT_EQ(payload_wire_bytes(Payload{PrePrepare{0, 1, three}}),
            192u + 3u * 320u);
  // View changes are flat while empty and grow with carried batches —
  // the under-reporting fix for variable-length payloads.
  EXPECT_EQ(payload_wire_bytes(Payload{ViewChange(1, 0, {})}), 1024u);
  EXPECT_EQ(payload_wire_bytes(
                Payload{ViewChange(
                    1, 0, {PreparedEntry{0, 1, three, three.digest()}})}),
            1024u + 48u + 3u * 320u);
}

TEST(BftBatch, ViewChangeDigestIsPinned) {
  // The view-change digest is computed once, at construction; this value
  // was computed by the mutable-struct digest it replaced, so the wire
  // digest cannot drift.
  const Request a{1, crypto::sha256("op-a")};
  const Request b{2, crypto::sha256("op-b")};
  const Request c{3, crypto::sha256("op-c")};
  const Batch ab{{a, b}};
  const Batch just_c{{c}};
  const Batch noop;
  const ViewChange vc(3, 8,
                      {PreparedEntry{1, 9, ab, ab.digest()},
                       PreparedEntry{2, 10, just_c, just_c.digest()},
                       PreparedEntry{2, 11, noop, noop.digest()}});
  EXPECT_EQ(vc.digest().to_hex(),
            "8eb5a46ef321deeada045336f6df16f2878fd58e3a5404d04aae68cd21080b8d");
  EXPECT_EQ(payload_digest(Payload{vc}), vc.digest());
  EXPECT_EQ(vc.new_view(), 3u);
  EXPECT_EQ(vc.last_executed(), 8u);
  ASSERT_EQ(vc.prepared().size(), 3u);
  EXPECT_EQ(vc.prepared()[0].batch, ab);
}

TEST(BftBatch, ViewChangeDigestFoldsCarriedBatchDigests) {
  // The view change folds in the batch digest each entry carries (the
  // one its PBFT slot computed at pre-prepare) instead of re-hashing the
  // batch. Recomputing Batch::digest() over the same entries must give
  // the same view-change digest.
  const Batch first{{make_request(1), make_request(2)}};
  const Batch second{{make_request(3)}};
  const ViewChange vc(5, 2,
                      {PreparedEntry{4, 3, first, first.digest()},
                       PreparedEntry{4, 4, second, second.digest()}});
  crypto::Sha256 h;
  h.update("findep/bft/viewchange/v1");
  h.update_u64(5);
  h.update_u64(2);
  h.update_u64(2);
  for (const PreparedEntry& e : vc.prepared()) {
    h.update_u64(e.view);
    h.update_u64(e.seq);
    h.update(e.batch.digest().bytes);
  }
  EXPECT_EQ(vc.digest(), h.finish());
}

TEST(BftBatch, ViewChangeRejectsDigestApartFromBatchInDebugBuilds) {
#ifdef NDEBUG
  GTEST_SKIP() << "the batch-digest pairing is checked in debug builds";
#else
  const Batch batch{{make_request(1)}};
  const Batch other{{make_request(2)}};
  EXPECT_THROW(
      (void)ViewChange(1, 0, {PreparedEntry{0, 1, batch, other.digest()}}),
      support::ContractViolation);
#endif
}

TEST(BftBatch, FullBatchesCommitAndUnrollPerRequest) {
  ClusterOptions opt = fast_options(41);
  opt.replica.batch_size = 4;
  // Cut on size only: 8 requests = exactly two full batches. The batch
  // timer must stay below request_timeout (enforced at construction), so
  // the timeout-free regime is modeled with a slow timer under a slower
  // request timer.
  opt.replica.batch_timeout = 5.0;
  opt.replica.request_timeout = 8.0;
  BftCluster cluster(4, opt);
  for (int i = 0; i < 8; ++i) cluster.submit();
  EXPECT_TRUE(cluster.run_until_executed(8, 60.0));
  EXPECT_TRUE(cluster.logs_consistent());
  // 8 requests in 4-request batches: the log unrolls each batch into
  // per-request entries that share the batch's slot seq.
  const auto& log = cluster.replica(1).executed();
  ASSERT_EQ(log.size(), 8u);
  std::set<std::uint64_t> seqs;
  for (const ExecutedEntry& e : log) seqs.insert(e.seq);
  EXPECT_EQ(seqs.size(), 2u);  // two consensus instances
  EXPECT_EQ(executed_ids(cluster.replica(1)),
            (std::set<std::uint64_t>{1, 2, 3, 4, 5, 6, 7, 8}));
}

TEST(BftBatch, PartialBatchIsCutByTimeout) {
  // 3 requests against batch_size = 8: nothing ever fills the batch, so
  // the timeout must cut a partial batch (light-load liveness).
  ClusterOptions opt = fast_options(42);
  opt.replica.batch_size = 8;
  opt.replica.batch_timeout = 0.05;
  BftCluster cluster(4, opt);
  for (int i = 0; i < 3; ++i) cluster.submit();
  EXPECT_TRUE(cluster.run_until_executed(3, 30.0));
  EXPECT_TRUE(cluster.logs_consistent());
  // No view change was needed: the batch timer, not the request timer,
  // drove the proposal.
  EXPECT_EQ(cluster.replica(1).view(), 0u);
}

TEST(BftBatch, LatencyTracksRequestsNotBatches) {
  // Requests trickling in one per 100 ms with batch_size = 2: each
  // request's trace must complete at its own first honest execution.
  ClusterOptions opt = fast_options(43);
  opt.replica.batch_size = 2;
  opt.replica.batch_timeout = 0.04;
  BftCluster cluster(4, opt);
  for (int i = 0; i < 4; ++i) {
    cluster.submit();
    cluster.run_for(0.1);
  }
  EXPECT_TRUE(cluster.run_until_executed(4, 30.0));
  for (const RequestTrace& t : cluster.traces()) {
    ASSERT_TRUE(t.done());
    EXPECT_GT(t.latency(), 0.0);
    // Submissions were 100 ms apart and batches cut within 40 ms, so no
    // request can have waited for a whole later arrival wave.
    EXPECT_LT(t.latency(), 0.5);
  }
}

TEST(BftBatch, BatchSizeEightAmortizesFourfold) {
  // The PR acceptance property, asserted through the scenario metric:
  // same cluster, same 16 requests, same seed — batch_size = 8 must
  // commit them with >= 4x fewer protocol messages per committed request
  // than batch_size = 1.
  using scenarios::BftScalingScenario;
  const auto metrics_for = [](std::size_t batch_size) {
    BftScalingScenario::Params params;
    params.n = 10;
    params.requests = 16;
    params.batch_size = batch_size;
    // Cut by size, not timer (16 = 2 full batches of 8): all requests
    // arrive within ~50 ms of t = 0, far under this timer, so the batch
    // count — and therefore this assertion — stays deterministic. (The
    // timer must also stay below the 1 s request_timeout, enforced at
    // construction.)
    params.batch_timeout = 0.9;
    const BftScalingScenario scenario(params);
    return scenario.run(runtime::RunContext{.seed = 77, .run_index = 0});
  };
  const runtime::MetricRecord unbatched = metrics_for(1);
  const runtime::MetricRecord batched = metrics_for(8);
  ASSERT_EQ(unbatched.get("completed"), 1.0);
  ASSERT_EQ(batched.get("completed"), 1.0);
  const double ratio = unbatched.get("msgs_per_committed_request") /
                       batched.get("msgs_per_committed_request");
  EXPECT_GE(ratio, 4.0) << "unbatched " << unbatched.get(
                               "msgs_per_committed_request")
                        << " vs batched "
                        << batched.get("msgs_per_committed_request");
  // Fewer messages must not mean fewer commits: both runs committed all
  // 16 requests (completed == 1 asserts the full target was reached).
  EXPECT_EQ(unbatched.get("requests_per_second") > 0.0, true);
  EXPECT_EQ(batched.get("requests_per_second") > 0.0, true);
}

TEST(BftBatch, SameRequestsCommittedAcrossBatchSizes) {
  // Cluster-level twin of the amortization test: identical submissions,
  // identical executed id sets, batching only changes the grouping.
  const auto ids_for = [](std::size_t batch_size) {
    ClusterOptions opt = fast_options(44);
    opt.replica.batch_size = batch_size;
    opt.replica.batch_timeout = 5.0;
    opt.replica.request_timeout = 8.0;
    BftCluster cluster(4, opt);
    for (int i = 0; i < 12; ++i) cluster.submit();
    EXPECT_TRUE(cluster.run_until_executed(12, 60.0));
    EXPECT_TRUE(cluster.logs_consistent());
    return executed_ids(cluster.replica(2));
  };
  EXPECT_EQ(ids_for(1), ids_for(4));
}

TEST(BftBatch, OfferedLoadScenarioCommitsEverything) {
  // Open-loop arrivals: 12 requests at 50 req/s against batch_size = 4.
  using scenarios::BftScalingScenario;
  BftScalingScenario::Params params;
  params.n = 4;
  params.requests = 12;
  params.batch_size = 4;
  params.offered_load = 50.0;
  const BftScalingScenario scenario(params);
  const runtime::MetricRecord metrics =
      scenario.run(runtime::RunContext{.seed = 5, .run_index = 0});
  EXPECT_EQ(metrics.get("completed"), 1.0);
  EXPECT_GT(metrics.get("requests_per_second"), 0.0);
  EXPECT_GT(metrics.get("msgs_per_committed_request"), 0.0);
}

TEST(BftBatch, LaggardSurvivesRemoteCheckpointAtDepth) {
  // Regression: 16 unbatched in-flight slots race the checkpoint at
  // seq 16 on a 25-replica cluster. Replicas that hear a stable
  // checkpoint before finishing their own slots used to prune the
  // in-flight state and strand themselves (no state transfer), thrashing
  // hopeless view changes; they must instead keep slots above their own
  // execution horizon and finish. This seed deterministically stalled
  // before the fix (completed == 0 with ~161 view changes).
  using scenarios::BftScalingScenario;
  BftScalingScenario::Params params;
  params.n = 25;
  params.requests = 16;
  params.batch_size = 1;
  const BftScalingScenario scenario(params);
  const runtime::MetricRecord metrics = scenario.run(
      runtime::RunContext{.seed = 13757245211066428519ULL, .run_index = 0});
  EXPECT_EQ(metrics.get("completed"), 1.0);
  EXPECT_EQ(metrics.get("max_view_changes"), 0.0);
}

TEST(BftBatch, RejectsZeroBatchSize) {
  ClusterOptions opt = fast_options(45);
  opt.replica.batch_size = 0;
  EXPECT_THROW(BftCluster(4, opt), support::ContractViolation);
}

}  // namespace
}  // namespace findep::bft
