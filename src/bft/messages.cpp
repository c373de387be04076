#include "bft/messages.h"

#include <type_traits>
#include <utility>

#include "support/assert.h"

namespace findep::bft {

crypto::Digest Request::digest() const {
  return crypto::Sha256{}
      .update("findep/bft/request/v1")
      .update_u64(id)
      .update(operation.bytes)
      .finish();
}

crypto::Digest Batch::digest() const {
  // Commits to count and order: the i-th request digest is folded in at
  // position i, so reordering or dropping a request changes the batch.
  crypto::Sha256 h;
  h.update("findep/bft/batch/v1");
  h.update_u64(requests.size());
  for (const Request& r : requests) {
    h.update(r.digest().bytes);
  }
  return h.finish();
}

Batch forged(const Batch& batch) {
  Batch twin;
  twin.requests.reserve(batch.size());
  for (const Request& r : batch.requests) {
    twin.requests.push_back(Request{
        r.id ^ 0x8000000000000000ULL,
        crypto::Sha256{}
            .update("findep/forged/v1")
            .update(r.operation.bytes)
            .finish()});
  }
  return twin;
}

crypto::Digest PrePrepare::digest() const {
  return crypto::Sha256{}
      .update("findep/bft/preprepare/v1")
      .update_u64(view)
      .update_u64(seq)
      .update(batch.digest().bytes)
      .finish();
}

crypto::Digest Prepare::digest() const {
  return crypto::Sha256{}
      .update("findep/bft/prepare/v1")
      .update_u64(view)
      .update_u64(seq)
      .update(request_digest.bytes)
      .finish();
}

crypto::Digest Commit::digest() const {
  return crypto::Sha256{}
      .update("findep/bft/commit/v1")
      .update_u64(view)
      .update_u64(seq)
      .update(request_digest.bytes)
      .finish();
}

crypto::Digest Checkpoint::digest() const {
  return crypto::Sha256{}
      .update("findep/bft/checkpoint/v1")
      .update_u64(seq)
      .update(state_digest.bytes)
      .finish();
}

ViewChange::ViewChange(View new_view, SeqNum last_executed,
                       std::vector<PreparedEntry> prepared)
    : new_view_(new_view),
      last_executed_(last_executed),
      prepared_(std::move(prepared)) {
  crypto::Sha256 h;
  h.update("findep/bft/viewchange/v1");
  h.update_u64(new_view_);
  h.update_u64(last_executed_);
  h.update_u64(prepared_.size());
  for (const PreparedEntry& e : prepared_) {
#ifndef NDEBUG
    FINDEP_ASSERT(e.batch_digest == e.batch.digest());
#endif
    h.update_u64(e.view);
    h.update_u64(e.seq);
    h.update(e.batch_digest.bytes);
  }
  digest_ = h.finish();
}

crypto::Digest NewView::digest() const {
  crypto::Sha256 h;
  h.update("findep/bft/newview/v1");
  h.update_u64(view);
  h.update_u64(proofs.size());
  for (const SignedViewChange& svc : proofs) {
    h.update_u64(svc.sender);
    h.update(svc.vc.digest().bytes);
    h.update(svc.signature.tag.bytes);
  }
  h.update_u64(reproposals.size());
  for (const PrePrepare& pp : reproposals) {
    h.update(pp.digest().bytes);
  }
  return h.finish();
}

crypto::Digest StateRequest::digest() const {
  return crypto::Sha256{}
      .update("findep/bft/staterequest/v1")
      .update_u64(last_executed)
      .finish();
}

crypto::Digest StateResponse::digest() const {
  crypto::Sha256 h;
  h.update("findep/bft/stateresponse/v1");
  h.update_u64(request_from);
  h.update(checkpoint.digest().bytes);
  h.update_u64(proof.size());
  for (const SignedCheckpoint& sc : proof) {
    h.update_u64(sc.sender);
    h.update(sc.checkpoint.digest().bytes);
    h.update(sc.signature.tag.bytes);
  }
  h.update_u64(entries.size());
  for (const ExecutedEntry& e : entries) {
    h.update_u64(e.seq);
    h.update(e.request.digest().bytes);
  }
  h.update_u64(new_view.has_value() ? 1 : 0);
  if (new_view.has_value()) h.update(new_view->digest().bytes);
  return h.finish();
}

crypto::Digest QuorumCert::digest() const {
  crypto::Sha256 h;
  h.update("findep/hs/qc/v1");
  h.update_u64(round);
  h.update_u64(height);
  h.update(block_digest.bytes);
  h.update_u64(votes.size());
  for (const HsSignedVote& v : votes) {
    h.update_u64(v.voter);
    h.update(v.signature.tag.bytes);
  }
  return h.finish();
}

crypto::Digest HsBlock::digest() const {
  // Commits to the full chain position: round, height, parent link and
  // the justifying QC, so two blocks with the same batch at different
  // chain points (or extending different parents) are distinct.
  return crypto::Sha256{}
      .update("findep/hs/block/v1")
      .update_u64(round)
      .update_u64(height)
      .update(parent.bytes)
      .update(justify.digest().bytes)
      .update(batch.digest().bytes)
      .finish();
}

crypto::Digest HsProposal::digest() const {
  return crypto::Sha256{}
      .update("findep/hs/proposal/v1")
      .update(block.digest().bytes)
      .finish();
}

crypto::Digest HsVote::digest() const {
  return crypto::Sha256{}
      .update("findep/hs/vote/v1")
      .update_u64(round)
      .update_u64(height)
      .update(block_digest.bytes)
      .finish();
}

crypto::Digest HsTimeout::digest() const {
  return crypto::Sha256{}
      .update("findep/hs/timeout/v1")
      .update_u64(round)
      .update(high_qc.digest().bytes)
      .finish();
}

crypto::Digest HsBlockRequest::digest() const {
  return crypto::Sha256{}
      .update("findep/hs/blockrequest/v1")
      .update(block_digest.bytes)
      .finish();
}

crypto::Digest HsBlockResponse::digest() const {
  return crypto::Sha256{}
      .update("findep/hs/blockresponse/v1")
      .update(block.digest().bytes)
      .finish();
}

crypto::Digest HsQcNotice::digest() const {
  return crypto::Sha256{}
      .update("findep/hs/qcnotice/v1")
      .update(qc.digest().bytes)
      .finish();
}

crypto::Digest payload_digest(const Payload& payload) {
  return std::visit([](const auto& msg) { return msg.digest(); }, payload);
}

namespace {
/// Wire-size model constants (bytes). kControlBytes covers the fixed
/// header of the small fixed-size messages (prepare/commit/checkpoint);
/// kRequestBytes is a full client request; kBatchedRequestBytes is a
/// request body inside a batch (the envelope header is shared), chosen so
/// control header + one batched request == one unbatched request message.
constexpr std::uint64_t kControlBytes = 192;
constexpr std::uint64_t kRequestBytes = 512;
constexpr std::uint64_t kBatchedRequestBytes = kRequestBytes - kControlBytes;
constexpr std::uint64_t kViewChangeBytes = 1024;
constexpr std::uint64_t kPreparedEntryBytes = 48;  // (view, seq, digest) frame
constexpr std::uint64_t kNewViewBytes = 4096;

std::uint64_t batch_body_bytes(const Batch& batch) {
  return kBatchedRequestBytes * batch.size();
}

std::uint64_t viewchange_wire_bytes(const ViewChange& vc) {
  std::uint64_t bytes = kViewChangeBytes;
  for (const PreparedEntry& e : vc.prepared()) {
    bytes += kPreparedEntryBytes + batch_body_bytes(e.batch);
  }
  return bytes;
}

std::uint64_t newview_wire_bytes(const NewView& nv) {
  // A new-view embeds its full view-change quorum plus the re-proposals
  // derived from it.
  std::uint64_t bytes = kNewViewBytes;
  for (const SignedViewChange& s : nv.proofs) {
    bytes += viewchange_wire_bytes(s.vc);
  }
  for (const PrePrepare& pp : nv.reproposals) {
    bytes += kControlBytes + batch_body_bytes(pp.batch);
  }
  return bytes;
}

/// A replayed log entry inside a state response: (seq, request) frame
/// plus the request body at the shared-header batch rate.
constexpr std::uint64_t kStateEntryBytes = 16 + kBatchedRequestBytes;

/// One (voter, signature) pair inside a quorum certificate.
constexpr std::uint64_t kQcVoteBytes = 96;
/// QC header: round, height, block digest, vote count frame.
constexpr std::uint64_t kQcHeaderBytes = 64;

std::uint64_t quorumcert_wire_bytes(const QuorumCert& qc) {
  return kQcHeaderBytes + kQcVoteBytes * qc.votes.size();
}

std::uint64_t hsblock_wire_bytes(const HsBlock& block) {
  // Chain-position header plus the embedded QC and the batch body — a
  // proposal is charged for the certificate it carries, which is what
  // makes HotStuff's per-decision bytes linear in n instead of the
  // quadratic vote fan-out paying per message.
  return kControlBytes + quorumcert_wire_bytes(block.justify) +
         batch_body_bytes(block.batch);
}

std::uint64_t stateresponse_wire_bytes(const StateResponse& resp) {
  // Header, one signed checkpoint vote per proof entry, the committed
  // log suffix, and the optional embedded NEW-VIEW at its own rate —
  // state transfer is the most variable-length payload in the protocol,
  // so it is charged for exactly what it carries.
  std::uint64_t bytes = kControlBytes;
  bytes += kControlBytes * resp.proof.size();
  bytes += kStateEntryBytes * resp.entries.size();
  if (resp.new_view.has_value()) bytes += newview_wire_bytes(*resp.new_view);
  return bytes;
}
}  // namespace

std::uint64_t payload_wire_bytes(const Payload& payload) {
  return std::visit(
      [](const auto& msg) -> std::uint64_t {
        using T = std::decay_t<decltype(msg)>;
        if constexpr (std::is_same_v<T, Request>) {
          return kRequestBytes;
        } else if constexpr (std::is_same_v<T, PrePrepare>) {
          return kControlBytes + batch_body_bytes(msg.batch);
        } else if constexpr (std::is_same_v<T, ViewChange>) {
          return viewchange_wire_bytes(msg);
        } else if constexpr (std::is_same_v<T, NewView>) {
          return newview_wire_bytes(msg);
        } else if constexpr (std::is_same_v<T, StateResponse>) {
          return stateresponse_wire_bytes(msg);
        } else if constexpr (std::is_same_v<T, HsProposal>) {
          return hsblock_wire_bytes(msg.block);
        } else if constexpr (std::is_same_v<T, HsTimeout>) {
          return kControlBytes + quorumcert_wire_bytes(msg.high_qc);
        } else if constexpr (std::is_same_v<T, HsQcNotice>) {
          return kControlBytes + quorumcert_wire_bytes(msg.qc);
        } else if constexpr (std::is_same_v<T, HsBlockResponse>) {
          return hsblock_wire_bytes(msg.block);
        } else {
          // Prepare / Commit / Checkpoint / StateRequest / HsVote /
          // HsBlockRequest
          return kControlBytes;
        }
      },
      payload);
}

Envelope::Envelope(ReplicaId sender, const crypto::KeyPair& keys,
                   Payload payload)
    : sender_(sender),
      sender_key_(keys.public_key()),
      payload_(std::move(payload)),
      digest_(payload_digest(payload_)),
      signature_(keys.sign(digest_)) {}

bool verify_envelope(const crypto::KeyRegistry& registry,
                     const Envelope& envelope) {
  if (envelope.verified_by_ == &registry) return true;
  if (!registry.verify(envelope.sender_key(), envelope.digest(),
                       envelope.signature())) {
    return false;
  }
  envelope.verified_by_ = &registry;
  return true;
}

}  // namespace findep::bft
