// ExecutionTail: the replicated log below the ordering protocol.
//
// Every ordering protocol ends in the same place — a committed batch is
// unrolled into per-request log entries, executed at most once per
// request id, checkpointed every checkpoint_interval seqs, and recovered
// by a laggard through checkpoint-anchored state transfer. None of that
// depends on *how* the batch was ordered, so both lanes compose this one
// object instead of carrying a copy each: PBFT and HotStuff only say
// which batch executes at which seq, and run their own bookkeeping
// (slot pruning, view installation, block pruning) after the tail
// reports that a checkpoint went stable or a transfer was adopted.
//
// The tail owns the executed log and its horizon, the executed-id dedup
// set, the requests still pending execution, the commit-time record,
// the CheckpointStore and StateFetchMachine (replication/durability.h)
// and the state-transfer counters. The two lanes hash identical
// executed-entry logs, so a checkpoint proof is protocol-portable.
#pragma once

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "bft/messages.h"
#include "replication/durability.h"
#include "replication/harness.h"

namespace findep::replication {

class ExecutionTail {
 public:
  explicit ExecutionTail(NodeHarness& harness);

  ExecutionTail(const ExecutionTail&) = delete;
  ExecutionTail& operator=(const ExecutionTail&) = delete;

  /// Executes `batch` at `seq` (which becomes last_executed()): unrolls
  /// it into per-request log entries, all at `seq`, in batch order.
  /// Dedup holds across batch boundaries: a request id that already
  /// executed — in an earlier batch or earlier in this one — is skipped,
  /// so a Byzantine leader repeating a request cannot make it execute
  /// twice. Each newly executed request leaves pending() and records its
  /// commit time.
  void execute(bft::SeqNum seq, const bft::Batch& batch);

  /// Broadcasts this replica's checkpoint when the log crossed the next
  /// checkpoint_interval boundary.
  void maybe_checkpoint();

  /// The protocol-neutral prefix of checkpoint receipt: records the
  /// vote's claim for state transfer, tallies it, and — when the vote
  /// made a checkpoint stable above our horizon — arms a fetch. Returns
  /// true when the stable checkpoint advanced (the caller prunes its
  /// consensus state).
  [[nodiscard]] bool on_checkpoint(const bft::Checkpoint& cp,
                                   bft::ReplicaId from,
                                   const crypto::Signature& signature);

  /// Serves a state transfer: the stable checkpoint, its vote-quorum
  /// proof and the log entries the requester is missing up to it.
  /// `new_view` rides along for protocols with a view-change artifact
  /// worth relaying (PBFT's NEW-VIEW).
  void on_state_request(const bft::StateRequest& sr, bft::ReplicaId from,
                        std::optional<bft::NewView> new_view = std::nullopt);

  /// The verify-and-splice half of state-transfer receipt (`raw_bytes`
  /// is the response's wire size, counted adopted or not). Verifies the
  /// checkpoint proof, checks the entries splice onto our log and
  /// reproduce the proven state digest, then adopts: appends the suffix,
  /// advances the horizon to the checkpoint, takes over the proof and
  /// stands the fetch machine down. A response failing verification
  /// counts as rejected and retries at another peer. Returns true when
  /// the response was adopted (the caller runs its own post-adoption
  /// step).
  [[nodiscard]] bool on_state_response(const bft::StateResponse& resp,
                                       bft::ReplicaId from,
                                       std::uint64_t raw_bytes);

  /// Requests accepted but not yet executed, by request id.
  [[nodiscard]] std::unordered_map<std::uint64_t, bft::Request>& pending()
      noexcept {
    return pending_;
  }
  [[nodiscard]] const std::unordered_map<std::uint64_t, bft::Request>&
  pending() const noexcept {
    return pending_;
  }
  /// True once request `id` executed here (never for the id-0 noop).
  [[nodiscard]] bool has_executed(std::uint64_t id) const {
    return executed_ids_.contains(id);
  }

  [[nodiscard]] StateFetchMachine& fetch() noexcept { return fetch_; }
  [[nodiscard]] const CheckpointStore& checkpoints() const noexcept {
    return ckpt_;
  }

  [[nodiscard]] const std::vector<bft::ExecutedEntry>& executed()
      const noexcept {
    return executed_;
  }
  [[nodiscard]] bft::SeqNum last_executed() const noexcept {
    return last_executed_;
  }
  /// Digest of the whole executed log: what a checkpoint at the current
  /// horizon carries.
  [[nodiscard]] crypto::Digest state_digest() const {
    return state_digest_with({});
  }
  [[nodiscard]] const std::vector<std::pair<std::uint64_t, double>>&
  commit_times() const noexcept {
    return commit_times_;
  }
  [[nodiscard]] std::uint64_t transfers_completed() const noexcept {
    return transfers_completed_;
  }
  [[nodiscard]] std::uint64_t transfers_rejected() const noexcept {
    return transfers_rejected_;
  }
  [[nodiscard]] std::uint64_t transfer_requests() const noexcept {
    return fetch_.requests_sent();
  }
  [[nodiscard]] std::uint64_t transfer_bytes() const noexcept {
    return transfer_bytes_;
  }

 private:
  /// Appends one entry to the executed log and the running digest (the
  /// only way entries enter the log).
  void append(const bft::ExecutedEntry& entry);
  /// Absorbs one entry's (seq, request digest) into a state digest.
  static void absorb(crypto::Sha256& h, const bft::ExecutedEntry& e);
  /// State digest of this log extended by `extra` (what a checkpoint
  /// hashes, and what a state response's entries must reproduce). Copies
  /// the running digest and absorbs only `extra`.
  [[nodiscard]] crypto::Digest state_digest_with(
      const std::vector<bft::ExecutedEntry>& extra) const;

  NodeHarness* harness_;
  bft::SeqNum last_executed_ = 0;
  std::vector<bft::ExecutedEntry> executed_;
  /// SHA-256 of the state-digest tag followed by every executed entry,
  /// absorbed as each entry is appended, so a checkpoint never re-hashes
  /// the log from genesis.
  crypto::Sha256 state_hash_;
  std::unordered_map<std::uint64_t, bool> executed_ids_;
  std::unordered_map<std::uint64_t, bft::Request> pending_;
  /// (request id, simulated commit time) per request executed here —
  /// feeds the commit-latency percentiles in the protocol-comparison
  /// scenarios. Recording is observationally pure: no messages, timers
  /// or branches depend on it. State-transfer splices are not recorded
  /// (the adopting replica did not witness the commit).
  std::vector<std::pair<std::uint64_t, double>> commit_times_;

  CheckpointStore ckpt_;
  StateFetchMachine fetch_;
  std::uint64_t transfers_completed_ = 0;
  std::uint64_t transfers_rejected_ = 0;
  std::uint64_t transfer_bytes_ = 0;
};

}  // namespace findep::replication
