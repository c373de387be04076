// OrderingProtocol: the seam between the protocol-neutral NodeHarness
// below and a concrete ordering protocol above.
//
// The base owns every inbound path that does not depend on how requests
// are ordered: client ingress (submit(), the executed-id dedup, the
// kCensor odd-id drop and admission to the tail's pending set),
// refusing non-Request traffic from clients, and the durability traffic
// (Checkpoint, StateRequest, StateResponse) it routes to the
// ExecutionTail (replication/tail.h) — the executed log, checkpoints and
// state transfer every protocol shares, so the log/transfer observables
// are plain accessors here. A lane keeps only its ordering logic: it
// implements on_request (an admitted request), on_ordering (its own
// consensus traffic), and the post-durability hooks below, plus the
// verify-pool hooks verify_stale_check / proof_verify_cost; it sends
// through the harness' broadcast()/send_to()/send_split() and arms
// simulator timers. The observable surface below is what the cluster
// harness, scenario metrics and campaign outcome classifier read, so a
// new protocol plugs into every existing experiment by implementing the
// few that stay virtual.
//
// To add a third protocol (e.g. an attestation-backed MinBFT using
// src/attest/ trusted counters): derive from OrderingProtocol, implement
// the lane hooks, hand each committed batch to tail_.execute(), add its
// wire messages to bft::Payload, and register the axis value in
// parse_protocol + the cluster factory. Nothing in the harness, the tail
// or the scenario plumbing changes.
#pragma once

#include <cstdint>
#include <optional>
#include <utility>
#include <variant>
#include <vector>

#include "bft/messages.h"
#include "net/network.h"
#include "replication/harness.h"
#include "replication/tail.h"
#include "runtime/workers.h"

namespace findep::replication {

// The wire/protocol vocabulary stays in findep::bft (the message set is
// shared by every protocol); pull it in so protocol implementations read
// naturally.
using bft::Batch;
using bft::Checkpoint;
using bft::Commit;
using bft::Envelope;
using bft::ExecutedEntry;
using bft::NewView;
using bft::Payload;
using bft::PrePrepare;
using bft::Prepare;
using bft::PreparedEntry;
using bft::ReplicaId;
using bft::Request;
using bft::SeqNum;
using bft::SignedCheckpoint;
using bft::SignedViewChange;
using bft::StateRequest;
using bft::StateResponse;
using bft::View;
using bft::ViewChange;

class OrderingProtocol {
 public:
  virtual ~OrderingProtocol() = default;
  OrderingProtocol(const OrderingProtocol&) = delete;
  OrderingProtocol& operator=(const OrderingProtocol&) = delete;

  /// Attaches the network handler. Call once before the simulation runs.
  void start() { harness_.start(); }
  /// Client entry point: hands a request to this replica (a silent
  /// replica ignores it).
  void submit(const Request& request) {
    if (behavior() == Behavior::kSilent) return;
    admit(request, id());
  }

  // --- harness → protocol ----------------------------------------------
  /// The post-authentication half of message receipt: admits requests,
  /// drops anything else a client sent, serves checkpoints and state
  /// transfer through the tail, and hands the rest to the lane's
  /// on_ordering. Reached through the inline crypto=free path and the
  /// worker-pool completion path alike, so offloading cannot drift from
  /// the inline dispatch semantics.
  void dispatch_payload(const Envelope& env, net::NodeId raw_from,
                        std::uint64_t raw_bytes);
  /// Stale predicate for a verify-pool task carrying `payload`, or null
  /// when the payload class never goes stale.
  [[nodiscard]] virtual runtime::WorkerPool::StaleCheck verify_stale_check(
      const Payload& payload) const {
    (void)payload;
    return nullptr;
  }
  /// Modeled verify cost beyond the envelope signature itself: quorum
  /// proofs embedded in `payload`, batch-verified in one pool task — a
  /// state response's checkpoint vote quorum here, the lane's own
  /// certificates through proof_verify_cost.
  [[nodiscard]] double verify_extra_cost(const Payload& payload) const {
    if (const auto* resp = std::get_if<StateResponse>(&payload)) {
      return options().cost_model.batch_verify_seconds(resp->proof.size());
    }
    return proof_verify_cost(payload);
  }

  // --- protocol-neutral observables ------------------------------------
  [[nodiscard]] const std::vector<ExecutedEntry>& executed() const noexcept {
    return tail_.executed();
  }
  [[nodiscard]] SeqNum last_executed() const noexcept {
    return tail_.last_executed();
  }
  [[nodiscard]] SeqNum stable_checkpoint() const noexcept {
    return tail_.checkpoints().stable();
  }
  /// Digest of this replica's whole executed log — what a checkpoint at
  /// last_executed() carries — read off the tail's running digest.
  [[nodiscard]] crypto::Digest state_digest() const {
    return tail_.state_digest();
  }
  /// State digest of this replica's stable checkpoint (meaningful only
  /// when stable_checkpoint() > 0).
  [[nodiscard]] const crypto::Digest& stable_checkpoint_digest()
      const noexcept {
    return tail_.checkpoints().digest();
  }
  /// Ordering-progress disruptions the protocol recorded: PBFT view
  /// changes started, HotStuff pacemaker timeouts fired. The campaign
  /// outcome classifier counts these as detection evidence.
  [[nodiscard]] virtual std::uint64_t progress_disruptions() const = 0;
  /// True if this replica ever witnessed a leader-regime disruption
  /// (even one it did not initiate — e.g. it installed a view or round
  /// advanced past a timeout started elsewhere).
  [[nodiscard]] virtual bool observed_disruption() const = 0;
  /// Proposals deferred by flow control (0 for protocols without it).
  [[nodiscard]] virtual std::uint64_t proposals_deferred() const {
    return 0;
  }
  /// Completed (verified + adopted) state transfers.
  [[nodiscard]] std::uint64_t state_transfers_completed() const noexcept {
    return tail_.transfers_completed();
  }
  /// State responses rejected for a bad proof, bad entries or a state
  /// digest mismatch (each followed by a retry at another peer).
  [[nodiscard]] std::uint64_t state_transfers_rejected() const noexcept {
    return tail_.transfers_rejected();
  }
  /// StateRequest messages sent (first attempts and retries).
  [[nodiscard]] std::uint64_t state_transfer_requests() const noexcept {
    return tail_.transfer_requests();
  }
  /// Wire bytes of every StateResponse received (adopted or rejected).
  [[nodiscard]] std::uint64_t state_transfer_bytes() const noexcept {
    return tail_.transfer_bytes();
  }
  /// (request id, simulated time) pairs recorded when a request first
  /// executes on this replica, in execution order. The protocol-
  /// comparison scenarios join them against client submit times to
  /// derive commit-latency percentiles. State-transfer splices are NOT
  /// recorded (the adopting replica did not witness the commit).
  [[nodiscard]] const std::vector<std::pair<std::uint64_t, double>>&
  commit_times() const noexcept {
    return tail_.commit_times();
  }

  // --- harness-backed observables --------------------------------------
  [[nodiscard]] ReplicaId id() const noexcept { return harness_.id(); }
  [[nodiscard]] Behavior behavior() const noexcept {
    return harness_.options().behavior;
  }
  [[nodiscard]] std::uint64_t corrupted_rejected() const noexcept {
    return harness_.corrupted_rejected();
  }
  [[nodiscard]] std::uint64_t verify_tasks() const noexcept {
    return harness_.verify_tasks();
  }
  [[nodiscard]] std::uint64_t verify_dropped_stale() const noexcept {
    return harness_.verify_dropped_stale();
  }
  [[nodiscard]] double verify_busy_seconds() const noexcept {
    return harness_.verify_busy_seconds();
  }
  [[nodiscard]] const NodeHarness& harness() const noexcept {
    return harness_;
  }

 protected:
  OrderingProtocol(ReplicaId id, std::vector<double> weights,
                   std::vector<crypto::PublicKey> directory,
                   crypto::KeyRegistry& registry, crypto::KeyPair keys,
                   net::SimNetwork& network, ReplicaOptions options)
      : harness_(*this, id, std::move(weights), std::move(directory),
                 registry, std::move(keys), network, std::move(options)),
        tail_(harness_) {}

  // --- lane hooks ------------------------------------------------------
  /// Modeled batch-verify cost of the lane's own certificates riding
  /// `payload` (0 when it carries none).
  [[nodiscard]] virtual double proof_verify_cost(
      const Payload& payload) const = 0;
  /// A request passed admission and sits in tail_.pending(); `fresh` is
  /// false for a retransmission of one already pending. `from` is the
  /// raw sender: a client, a relaying replica, or id() for submit().
  virtual void on_request(const Request& request, net::NodeId from,
                          bool fresh) = 0;
  /// The lane's own consensus traffic from a replica (anything but
  /// requests, checkpoints and state transfer).
  virtual void on_ordering(const Envelope& env) = 0;
  /// The stable checkpoint advanced: prune consensus state below it.
  virtual void on_checkpoint_stable() = 0;
  /// `resp` was verified and adopted: the lane's post-adoption step.
  virtual void on_state_adopted(const StateResponse& resp) = 0;
  /// The view-change artifact worth relaying inside a state response
  /// (PBFT's NEW-VIEW), if any.
  [[nodiscard]] virtual std::optional<NewView> relayed_new_view() const {
    return std::nullopt;
  }

  // --- harness forwarders for the protocol code ------------------------
  [[nodiscard]] const ReplicaOptions& options() const noexcept {
    return harness_.options();
  }
  [[nodiscard]] sim::Simulator& sim() const noexcept {
    return harness_.simulator();
  }
  void broadcast(Payload payload) { harness_.broadcast(std::move(payload)); }
  void send_to(net::NodeId to, Payload payload) {
    harness_.send_to(to, std::move(payload));
  }
  void send_split(Payload even, Payload odd) {
    harness_.send_split(std::move(even), std::move(odd));
  }
  [[nodiscard]] double weight_of(ReplicaId r) const {
    return harness_.weight_of(r);
  }
  [[nodiscard]] bool is_quorum(double weight) const noexcept {
    return harness_.is_quorum(weight);
  }
  [[nodiscard]] bool is_third(double weight) const noexcept {
    return harness_.is_third(weight);
  }

  NodeHarness harness_;
  ExecutionTail tail_;

 private:
  /// Request ingress: drops executed ids and, under kCensor, odd ids;
  /// admits the rest to the tail and hands them to on_request.
  void admit(const Request& request, net::NodeId from);
};

}  // namespace findep::replication
