#include "replication/tail.h"

#include <algorithm>

namespace findep::replication {

ExecutionTail::ExecutionTail(NodeHarness& harness)
    : harness_(&harness), ckpt_(harness), fetch_(harness, last_executed_) {
  state_hash_.update("findep/bft/state/v1");
}

void ExecutionTail::append(const bft::ExecutedEntry& entry) {
  executed_.push_back(entry);
  absorb(state_hash_, entry);
}

void ExecutionTail::absorb(crypto::Sha256& h, const bft::ExecutedEntry& e) {
  h.update_u64(e.seq);
  h.update(e.request.digest().bytes);
}

void ExecutionTail::execute(bft::SeqNum seq, const bft::Batch& batch) {
  last_executed_ = seq;
  for (const bft::Request& r : batch.requests) {
    if (r.id != 0) {
      if (executed_ids_.contains(r.id)) continue;
      executed_ids_[r.id] = true;
      pending_.erase(r.id);
      commit_times_.emplace_back(r.id, harness_->simulator().now());
    }
    append(bft::ExecutedEntry{seq, r});
  }
}

std::vector<const bft::Request*> ExecutionTail::pending_by_id() const {
  std::vector<const bft::Request*> out;
  out.reserve(pending_.size());
  // findep-lint: allow(unordered-iteration) -- collect-only walk; sorted by request id below before anything order-sensitive happens
  for (const auto& [rid, request] : pending_) out.push_back(&request);
  std::sort(out.begin(), out.end(),
            [](const bft::Request* a, const bft::Request* b) {
              return a->id < b->id;
            });
  return out;
}

crypto::Digest ExecutionTail::state_digest_with(
    const std::vector<bft::ExecutedEntry>& extra) const {
  crypto::Sha256 h = state_hash_;
  for (const bft::ExecutedEntry& e : extra) absorb(h, e);
  return h.finish();
}

void ExecutionTail::maybe_checkpoint() {
  const bft::SeqNum seq = ckpt_.maybe_emit(
      last_executed_, harness_->options().checkpoint_interval);
  if (seq == 0) return;
  harness_->broadcast(bft::Checkpoint{seq, state_digest()});
}

bool ExecutionTail::on_checkpoint(const bft::Checkpoint& cp,
                                  bft::ReplicaId from,
                                  const crypto::Signature& signature) {
  // A signed checkpoint is also a claim about the sender's execution
  // horizon; record it before any windowing so far-behind replicas can
  // detect credible progress beyond their vote window (state transfer).
  fetch_.note_claim(from, cp.seq);
  if (!ckpt_.on_vote(cp, from, signature, last_executed_,
                     harness_->options().checkpoint_interval)) {
    return false;
  }
  if (ckpt_.stable() > last_executed_) fetch_.maybe_schedule();
  return true;
}

void ExecutionTail::on_state_request(const bft::StateRequest& sr,
                                     bft::ReplicaId from,
                                     std::optional<bft::NewView> new_view) {
  if (ckpt_.stable() == 0 || ckpt_.proof().empty()) return;
  if (sr.last_executed >= ckpt_.stable()) return;  // nothing to prove
  // A replica that adopted a remote stable checkpoint it has not itself
  // executed up to cannot substantiate the digest — decline instead of
  // sending a response the requester would provably reject.
  if (last_executed_ < ckpt_.stable()) return;
  bft::StateResponse resp;
  resp.request_from = sr.last_executed;
  resp.checkpoint = bft::Checkpoint{ckpt_.stable(), ckpt_.digest()};
  resp.proof = ckpt_.proof();
  for (const bft::ExecutedEntry& e : executed_) {
    if (e.seq > sr.last_executed && e.seq <= ckpt_.stable()) {
      resp.entries.push_back(e);
    }
  }
  resp.new_view = std::move(new_view);
  harness_->send_to(from, std::move(resp));
}

bool ExecutionTail::on_state_response(const bft::StateResponse& resp,
                                      bft::ReplicaId from,
                                      std::uint64_t raw_bytes) {
  transfer_bytes_ += raw_bytes;
  if (!harness_->options().enable_state_transfer) return false;
  if (resp.checkpoint.seq <= last_executed_) return false;  // stale/no-op

  const auto reject = [&] {
    ++transfers_rejected_;
    fetch_.on_rejected(from);
    return false;
  };

  // 1. The checkpoint must be proven by a quorum of verifiable votes.
  if (!verify_checkpoint_proof(*harness_, resp.checkpoint, resp.proof)) {
    return reject();
  }

  // 2. The entries must splice onto our own log — in range, seq-ordered —
  //    and reproduce the proven state digest exactly. Entries below our
  //    horizon are skipped (we may have executed further since asking);
  //    honest logs are prefix-consistent, so the remainder is precisely
  //    the suffix our log is missing, and the digest is the arbiter.
  std::vector<bft::ExecutedEntry> suffix;
  suffix.reserve(resp.entries.size());
  bft::SeqNum prev = last_executed_;
  for (const bft::ExecutedEntry& e : resp.entries) {
    if (e.seq <= last_executed_) continue;
    if (e.seq < prev || e.seq > resp.checkpoint.seq) return reject();
    prev = e.seq;
    suffix.push_back(e);
  }
  if (state_digest_with(suffix) != resp.checkpoint.state_digest) {
    return reject();
  }

  // 3. Adopt: replay the suffix, advance the horizon to the checkpoint,
  //    take over the proof so we can serve transfers ourselves.
  for (const bft::ExecutedEntry& e : suffix) {
    if (e.request.id != 0) {
      executed_ids_[e.request.id] = true;
      pending_.erase(e.request.id);
    }
    append(e);
  }
  last_executed_ = resp.checkpoint.seq;
  ++transfers_completed_;
  ckpt_.maybe_adopt(resp.checkpoint, resp.proof);
  fetch_.on_adopted();
  return true;
}

}  // namespace findep::replication
