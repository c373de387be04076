// PBFT message set (Castro–Liskov '99/'02, the protocol the paper's BFT
// baseline numbers assume), with voting-*power* quorums so the same core
// serves classic count-based BFT (unit weights) and stake/hash-weighted
// committees (§II-A's voting-power abstraction).
//
// Every message is signed; receivers verify via the KeyRegistry before
// processing, so a Byzantine replica cannot forge others' votes — it can
// only equivocate with its own weight, which the quorum intersection
// argument charges to f.
#pragma once

#include <cstdint>
#include <optional>
#include <variant>
#include <vector>

#include "crypto/keys.h"
#include "crypto/sha256.h"

namespace findep::bft {

using ReplicaId = std::uint32_t;
using View = std::uint64_t;
using SeqNum = std::uint64_t;

/// A client operation (opaque payload digest + unique id).
struct Request {
  std::uint64_t id = 0;
  crypto::Digest operation;

  [[nodiscard]] crypto::Digest digest() const;
  bool operator==(const Request&) const = default;
};

/// An ordered block of client requests agreed on as one consensus
/// instance: the primary amortizes the O(n²) prepare/commit fan-out over
/// every request in the batch. The combined digest commits to count and
/// order, so two batches over the same requests in different order are
/// distinct proposals. An empty batch is the no-op filler used for
/// sequence gaps during view changes (it executes nothing).
struct Batch {
  std::vector<Request> requests;

  [[nodiscard]] std::size_t size() const noexcept { return requests.size(); }
  [[nodiscard]] bool empty() const noexcept { return requests.empty(); }
  [[nodiscard]] crypto::Digest digest() const;
  bool operator==(const Batch&) const = default;
};

/// The conflicting twin an equivocating leader sends alongside `batch`:
/// the same size, every request id flipped in its top bit and every
/// operation re-hashed, so its digest differs while its wire size does
/// not. Deterministic, so every replica forges the identical twin.
[[nodiscard]] Batch forged(const Batch& batch);

struct PrePrepare {
  View view = 0;
  SeqNum seq = 0;
  Batch batch;

  [[nodiscard]] crypto::Digest digest() const;
};

struct Prepare {
  View view = 0;
  SeqNum seq = 0;
  crypto::Digest request_digest;

  [[nodiscard]] crypto::Digest digest() const;
};

struct Commit {
  View view = 0;
  SeqNum seq = 0;
  crypto::Digest request_digest;

  [[nodiscard]] crypto::Digest digest() const;
};

struct Checkpoint {
  SeqNum seq = 0;  // executions up to and including seq are stable
  crypto::Digest state_digest;

  [[nodiscard]] crypto::Digest digest() const;
};

/// A checkpoint vote together with its sender's signature. Replicas keep
/// the signed votes of the quorum that made their checkpoint stable so a
/// state-transfer response can *prove* the checkpoint to the requester
/// (the requester re-verifies every vote, exactly like NEW-VIEW proofs).
struct SignedCheckpoint {
  ReplicaId sender = 0;
  Checkpoint checkpoint;
  crypto::Signature signature;
};

/// One executed log entry (what the state machine saw). Also the replay
/// unit of state transfer: a response carries the responder's committed
/// log suffix as ExecutedEntry records, one per request, each tagged with
/// the slot (batch) seq it executed under.
struct ExecutedEntry {
  SeqNum seq = 0;
  Request request;

  bool operator==(const ExecutedEntry&) const = default;
};

/// A prepared certificate entry carried inside a view change: the replica
/// prepared `batch` at (view, seq). View changes operate at batch
/// granularity — a prepared batch survives into the new view whole, so
/// safety at the request level follows from safety at the batch level.
struct PreparedEntry {
  View view = 0;
  SeqNum seq = 0;
  Batch batch;
  /// batch.digest(), carried from the slot that hashed the batch when it
  /// was pre-prepared, so building a view change re-hashes nothing.
  /// ViewChange's constructor re-derives it in debug builds and fails on
  /// a mismatch.
  crypto::Digest batch_digest;
};

/// A replica's vote to leave for `new_view`: its stable checkpoint and
/// every batch it prepared above it. Immutable, so the digest — which
/// folds in every prepared batch — is computed once, at construction,
/// and every NEW-VIEW that embeds this view change as a proof reuses it
/// instead of re-hashing the batches at each recipient.
class ViewChange {
 public:
  ViewChange(View new_view, SeqNum last_executed,
             std::vector<PreparedEntry> prepared);

  [[nodiscard]] View new_view() const noexcept { return new_view_; }
  [[nodiscard]] SeqNum last_executed() const noexcept {
    return last_executed_;
  }
  [[nodiscard]] const std::vector<PreparedEntry>& prepared() const noexcept {
    return prepared_;
  }
  [[nodiscard]] const crypto::Digest& digest() const noexcept {
    return digest_;
  }

 private:
  View new_view_ = 0;
  SeqNum last_executed_ = 0;
  std::vector<PreparedEntry> prepared_;
  crypto::Digest digest_;
};

/// A view-change message together with its sender's signature, embeddable
/// as a proof inside NEW-VIEW (receivers re-verify each one, so a
/// Byzantine new primary cannot invent the view-change quorum or alter
/// what was prepared).
struct SignedViewChange {
  ReplicaId sender = 0;
  ViewChange vc;
  crypto::Signature signature;
};

struct NewView {
  View view = 0;
  /// The view-change quorum justifying this view.
  std::vector<SignedViewChange> proofs;
  /// Re-proposals the new primary derived from the proofs; receivers
  /// recompute them from `proofs` and reject mismatches.
  std::vector<PrePrepare> reproposals;

  [[nodiscard]] crypto::Digest digest() const;
};

/// Checkpoint-anchored state transfer, request side: "I have executed up
/// to `last_executed`; send me everything you can prove stable above it."
struct StateRequest {
  SeqNum last_executed = 0;

  [[nodiscard]] crypto::Digest digest() const;
};

/// State-transfer response. Everything in it is verifiable by the
/// requester without trusting the responder:
///   - `checkpoint` + `proof`: the responder's stable checkpoint with the
///     signed vote quorum that made it stable;
///   - `entries`: the committed log suffix in (`request_from`,
///     `checkpoint.seq`], whose replay onto the requester's own log must
///     reproduce `checkpoint.state_digest` (wrong or tampered entries are
///     rejected wholesale and the requester retries elsewhere);
///   - `new_view`: the NEW-VIEW the responder last installed, so a
///     replica that also missed view changes during its outage can
///     re-verify and adopt the current view (NEW-VIEW is self-certifying
///     through its embedded view-change quorum).
struct StateResponse {
  SeqNum request_from = 0;
  Checkpoint checkpoint;
  std::vector<SignedCheckpoint> proof;
  std::vector<ExecutedEntry> entries;
  std::optional<NewView> new_view;

  [[nodiscard]] crypto::Digest digest() const;
};

// --- HotStuff lane (chained quorum-certificate protocol) -------------------
//
// The pipelined, linear-communication lane shares the request/batch/
// checkpoint/state-transfer types above and adds the chained-HotStuff wire
// set: one proposal per round extending the highest known quorum
// certificate, votes sent to the *next* round's leader (who aggregates
// them into a QC instead of every replica hearing every vote — this is
// what turns the O(n²) prepare/commit fan-out into O(n) per decision),
// and timeout messages carrying the sender's high-QC so a new leader can
// always extend the freshest certified block.

/// One vote signature inside a quorum certificate. The signature is over
/// the voter's HsVote digest, so a QC is re-verifiable by anyone holding
/// the directory (exactly like NEW-VIEW / checkpoint proof quorums).
struct HsSignedVote {
  ReplicaId voter = 0;
  crypto::Signature signature;
};

/// Quorum certificate: > 2/3 of voting power signed HsVote{round, height,
/// block_digest}. The genesis QC (round 0, height 0) is the one
/// certificate that carries no votes — every chain hangs off it.
struct QuorumCert {
  std::uint64_t round = 0;
  SeqNum height = 0;
  crypto::Digest block_digest;
  std::vector<HsSignedVote> votes;

  [[nodiscard]] crypto::Digest digest() const;
};

/// One chain block: a batch proposed at (round, height) extending the
/// block certified by `justify` (parent == justify.block_digest — the
/// chained variant always extends the freshest QC). Height is the
/// execution sequence number; round advances past height on timeouts.
struct HsBlock {
  std::uint64_t round = 0;
  SeqNum height = 0;
  crypto::Digest parent;
  QuorumCert justify;
  Batch batch;

  [[nodiscard]] crypto::Digest digest() const;
};

struct HsProposal {
  HsBlock block;

  [[nodiscard]] crypto::Digest digest() const;
};

/// A replica's vote for the block proposed at `round`, sent to the leader
/// of round + 1 (leader-collects-votes: the quadratic all-to-all of PBFT
/// prepare/commit collapses to one linear collection per round).
struct HsVote {
  std::uint64_t round = 0;
  SeqNum height = 0;
  crypto::Digest block_digest;

  [[nodiscard]] crypto::Digest digest() const;
};

/// Pacemaker timeout for `round`, sent to that round's leader. Carries the
/// sender's highest QC; a leader collecting a > 2/3 timeout quorum learns
/// the freshest certified block any honest replica is locked behind and
/// may propose extending it.
struct HsTimeout {
  std::uint64_t round = 0;
  QuorumCert high_qc;

  [[nodiscard]] crypto::Digest digest() const;
};

/// Orphan-chain repair: "send me the block with this digest" (a commit
/// walk hit a parent we never received). Broadcast; any peer still
/// holding the block answers.
struct HsBlockRequest {
  crypto::Digest block_digest;

  [[nodiscard]] crypto::Digest digest() const;
};

struct HsBlockResponse {
  HsBlock block;

  [[nodiscard]] crypto::Digest digest() const;
};

/// Tail-quiescence QC announcement. In leader-collects-votes HotStuff only
/// the collecting leader learns a QC formed; normally it shares it inside
/// its next proposal. When the chain has drained (no pending requests, no
/// further block to propose) there *is* no next proposal, so the final QC
/// — and with it the last commit — would be stranded at one replica while
/// everyone else waits out a pacemaker timeout. The collecting leader
/// instead broadcasts the bare QC; receivers adopt it and run the commit
/// rule, and since a notice triggers no votes or round entry, the cluster
/// quiesces symmetrically.
struct HsQcNotice {
  QuorumCert qc;

  [[nodiscard]] crypto::Digest digest() const;
};

using Payload = std::variant<Request, PrePrepare, Prepare, Commit,
                             Checkpoint, ViewChange, NewView, StateRequest,
                             StateResponse, HsProposal, HsVote, HsTimeout,
                             HsBlockRequest, HsBlockResponse, HsQcNotice>;

/// Envelope: sender identity + signature over the payload digest.
///
/// Immutable: construction computes the payload digest once and signs
/// it, and verify_envelope checks the signature against that digest, so
/// the recipients of a shared broadcast body do not each re-hash the
/// payload. Nothing can set the digest apart from the payload, so the
/// signature stays bound to the payload delivered.
///
/// Verify once: the first successful verify_envelope records the registry
/// it passed against, and later checks of the same body against that
/// registry skip the MAC. Verification is a pure function of (key,
/// digest, signature) and a registry only ever gains keys, so the
/// recorded pass is the answer every recomputation would give. Failures
/// are never recorded.
class Envelope {
 public:
  /// Signs `payload` as `sender`.
  Envelope(ReplicaId sender, const crypto::KeyPair& keys, Payload payload);

  [[nodiscard]] ReplicaId sender() const noexcept { return sender_; }
  [[nodiscard]] const crypto::PublicKey& sender_key() const noexcept {
    return sender_key_;
  }
  [[nodiscard]] const Payload& payload() const noexcept { return payload_; }
  /// payload_digest(payload()), computed at construction.
  [[nodiscard]] const crypto::Digest& digest() const noexcept {
    return digest_;
  }
  [[nodiscard]] const crypto::Signature& signature() const noexcept {
    return signature_;
  }

 private:
  friend bool verify_envelope(const crypto::KeyRegistry& registry,
                              const Envelope& envelope);

  ReplicaId sender_ = 0;
  crypto::PublicKey sender_key_;
  Payload payload_;
  crypto::Digest digest_;
  crypto::Signature signature_;
  /// The registry this body passed verification against, or null.
  /// Compared, never dereferenced; a registry outlives the bodies checked
  /// against it (a cluster owns both), so no other registry can take its
  /// address while the record is read. Written without synchronisation:
  /// a body belongs to one cell's network, and each cell runs start to
  /// end on one sweep thread, so no two threads touch the same body.
  mutable const crypto::KeyRegistry* verified_by_ = nullptr;
};

/// Digest of any payload alternative (dispatches on the variant).
[[nodiscard]] crypto::Digest payload_digest(const Payload& payload);

/// Wire-size model (bytes) of a payload, used for traffic accounting.
/// Sizes are per-message header plus per-element body for the
/// variable-length payloads (batches, view changes carrying prepared
/// batches, new-views embedding their proof quorum), so `bytes_sent`
/// tracks what a real deployment would put on the wire instead of a flat
/// per-type constant. A single-request batch costs exactly what the
/// unbatched protocol charged, keeping batch_size=1 accounting identical.
[[nodiscard]] std::uint64_t payload_wire_bytes(const Payload& payload);

/// Verifies the envelope signature over its payload digest. A pass is
/// recorded on the body, keyed to `registry`; only the first successful
/// check of a body against a registry computes the MAC.
[[nodiscard]] bool verify_envelope(const crypto::KeyRegistry& registry,
                                   const Envelope& envelope);

}  // namespace findep::bft
