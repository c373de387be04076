#include "replication/pbft.h"

#include <algorithm>
#include <type_traits>
#include <variant>

#include "support/assert.h"

namespace findep::replication {

Batch Pbft::noop_batch() { return Batch{}; }

Pbft::Pbft(ReplicaId id, std::vector<double> weights,
           std::vector<crypto::PublicKey> directory,
           crypto::KeyRegistry& registry, crypto::KeyPair keys,
           net::SimNetwork& network, ReplicaOptions options)
    : OrderingProtocol(id, std::move(weights), std::move(directory),
                       registry, std::move(keys), network,
                       std::move(options)) {}

// --- dispatch --------------------------------------------------------------

double Pbft::proof_verify_cost(const Payload& payload) const {
  // A NEW-VIEW carries its view-change quorum.
  if (const auto* nv = std::get_if<NewView>(&payload)) {
    return options().cost_model.batch_verify_seconds(nv->proofs.size());
  }
  return 0.0;
}

runtime::WorkerPool::StaleCheck Pbft::verify_stale_check(
    const Payload& payload) const {
  // Only messages the handler would provably ignore are shed: normal-case
  // traffic from views older than the installed one, and view-change /
  // new-view traffic for views already installed. (Future-view traffic is
  // NOT stale — dispatch buffers it for replay.) Checkpoints, requests
  // and state transfer never expire.
  return std::visit(
      [this](const auto& m) -> runtime::WorkerPool::StaleCheck {
        using T = std::decay_t<decltype(m)>;
        if constexpr (std::is_same_v<T, PrePrepare> ||
                      std::is_same_v<T, Prepare> ||
                      std::is_same_v<T, Commit>) {
          return [this, v = m.view] { return v < view_; };
        } else if constexpr (std::is_same_v<T, ViewChange>) {
          return [this, v = m.new_view()] { return v <= view_; };
        } else if constexpr (std::is_same_v<T, NewView>) {
          return [this, v = m.view] { return v <= view_; };
        } else {
          return nullptr;
        }
      },
      payload);
}

void Pbft::on_ordering(const Envelope& env) {
  std::visit(
      [&](const auto& m) {
        using T = std::decay_t<decltype(m)>;
        if constexpr (std::is_same_v<T, PrePrepare> ||
                      std::is_same_v<T, Prepare> ||
                      std::is_same_v<T, Commit>) {
          if (m.view > view_) {
            // We lag behind a view change; replay after installation.
            future_messages_.push_back(env);
            return;
          }
        }
        if constexpr (std::is_same_v<T, PrePrepare>) {
          on_preprepare(m, env.sender());
        } else if constexpr (std::is_same_v<T, Prepare>) {
          on_prepare(m, env.sender());
        } else if constexpr (std::is_same_v<T, Commit>) {
          on_commit(m, env.sender());
        } else if constexpr (std::is_same_v<T, ViewChange>) {
          on_viewchange(m, env.sender(), env.signature());
        } else if constexpr (std::is_same_v<T, NewView>) {
          on_newview(m, env.sender());
        }
        // HotStuff payloads fall through: a PBFT replica ignores the
        // other lane's traffic entirely.
      },
      env.payload());
}

void Pbft::replay_future_messages() {
  // Only normal-case messages are buffered; on_ordering re-buffers those
  // still ahead of the installed view.
  std::vector<Envelope> replay;
  replay.swap(future_messages_);
  for (const Envelope& env : replay) on_ordering(env);
}

// --- normal case ----------------------------------------------------------

void Pbft::on_request(const Request& request, net::NodeId from, bool fresh) {
  if (fresh) track_request_deadline(request.id);
  arm_request_timer();
  if (in_view_change_) return;
  if (is_primary()) {
    enqueue_for_proposal(request);
  } else if (from >= harness_.n() || from == id()) {
    // Came from a client (or local submit): relay to the primary.
    send_to(primary_of(view_), request);
  }
}

void Pbft::enqueue_for_proposal(const Request& request) {
  FINDEP_REQUIRE(is_primary());
  if (request.id != 0 &&
      (queued_ids_.contains(request.id) || assigned_.contains(request.id) ||
       tail_.has_executed(request.id))) {
    return;
  }
  batch_queue_.push_back(request);
  if (request.id != 0) queued_ids_[request.id] = true;
  if (batch_queue_.size() >= options().batch_size) {
    // Cut synchronously: with batch_size = 1 every request is proposed
    // the moment it arrives and the batch timer is never armed, which is
    // exactly the unbatched protocol.
    cut_batch();
  } else {
    arm_batch_timer();
  }
}

void Pbft::cut_batch() {
  sim().cancel(batch_timer_);
  if (batch_queue_.empty()) return;
  if (next_seq_ > stable_checkpoint() + options().high_watermark_window) {
    // High-watermark back-pressure: the queue holds the batch until the
    // stable checkpoint advances (retry_deferred_cut), bounding in-flight
    // consensus state instead of letting a fast primary outrun a slow
    // checkpoint quorum without limit.
    cut_deferred_ = true;
    ++proposals_deferred_;
    return;
  }
  cut_deferred_ = false;
  Batch batch;
  batch.requests.swap(batch_queue_);
  for (const Request& r : batch.requests) {
    if (r.id != 0) queued_ids_.erase(r.id);
  }
  propose(std::move(batch));
}

void Pbft::retry_deferred_cut() {
  if (!cut_deferred_) return;
  cut_deferred_ = false;
  // A view change may have demoted us since the deferral; install_new_view
  // already voided the old queue in that case.
  if (!is_primary() || in_view_change_) return;
  cut_batch();  // re-defers itself if the watermark still binds
}

void Pbft::propose(Batch batch) {
  FINDEP_REQUIRE(is_primary());
  const SeqNum seq = next_seq_++;
  for (const Request& r : batch.requests) {
    if (r.id != 0) assigned_[r.id] = seq;
  }

  if (options().behavior == Behavior::kEquivocate ||
      options().behavior == Behavior::kCollude) {
    // Conflicting proposals: the real batch to the even half, its forged
    // twin to the odd half. A lone equivocator is harmless — neither half
    // can reach a prepared certificate for a conflicting pair, because
    // commit weight only comes from replicas that prepared that digest. A
    // *colluding* primary additionally throws its own prepare + commit
    // weight behind both digests (and colluding backups endorse whatever
    // they hear), which is what makes conflicting certificates reachable
    // once colluding power exceeds a third.
    const PrePrepare real{view_, seq, std::move(batch)};
    const PrePrepare fake{view_, seq, bft::forged(real.batch)};
    send_split(real, fake);
    if (options().behavior == Behavior::kCollude) {
      collude_endorse(view_, seq, real.batch.digest());
      collude_endorse(view_, seq, fake.batch.digest());
    }
    return;  // the equivocator does not even convince itself
  }

  broadcast(PrePrepare{view_, seq, std::move(batch)});
}

void Pbft::on_preprepare(const PrePrepare& pp, ReplicaId from) {
  if (in_view_change_ || pp.view != view_) return;
  if (options().behavior == Behavior::kCollude) {
    collude_endorse(pp.view, pp.seq, pp.batch.digest());
  }
  if (from != primary_of(pp.view)) return;
  // Reject by our own execution horizon, not the stable checkpoint: a
  // lagging replica may adopt a *remote* stable checkpoint above its own
  // last_executed() and, with no state transfer, must still be able to
  // finish its in-flight slots below it (same in on_prepare/on_commit).
  if (pp.seq <= last_executed()) return;
  accept_preprepare(pp);
}

void Pbft::accept_preprepare(const PrePrepare& pp) {
  Slot& slot = slots_[pp.seq];
  const crypto::Digest digest = pp.batch.digest();
  if (slot.have_preprepare && slot.batch_digest != digest) {
    return;  // conflicting pre-prepare from an equivocating primary
  }
  slot.have_preprepare = true;
  slot.batch = pp.batch;
  slot.batch_digest = digest;
  // The primary's pre-prepare doubles as its prepare vote.
  slot.prepare_votes[digest][primary_of(pp.view)] =
      weight_of(primary_of(pp.view));

  if (!slot.sent_prepare && id() != primary_of(pp.view)) {
    slot.sent_prepare = true;
    slot.prepare_votes[digest][id()] = weight_of(id());
    broadcast(Prepare{pp.view, pp.seq, digest});
  }
  // Track the batch's requests for liveness even if they reached us only
  // via the primary.
  bool tracked = false;
  for (const Request& r : slot.batch.requests) {
    if (r.id != 0 && !tail_.has_executed(r.id)) {
      if (tail_.admit(r)) track_request_deadline(r.id);
      tracked = true;
    }
  }
  if (tracked) arm_request_timer();
  maybe_prepared(pp.seq);
}

void Pbft::on_prepare(const Prepare& p, ReplicaId from) {
  if (in_view_change_ || p.view != view_) return;
  if (options().behavior == Behavior::kCollude) {
    collude_endorse(p.view, p.seq, p.request_digest);
  }
  if (p.seq <= last_executed()) return;
  Slot& slot = slots_[p.seq];
  slot.prepare_votes[p.request_digest][from] = weight_of(from);
  maybe_prepared(p.seq);
}

void Pbft::maybe_prepared(SeqNum seq) {
  const auto it = slots_.find(seq);
  if (it == slots_.end()) return;
  Slot& slot = it->second;
  if (!slot.have_preprepare || slot.prepared) return;
  const auto votes = slot.prepare_votes.find(slot.batch_digest);
  if (votes == slot.prepare_votes.end()) return;
  if (!is_quorum(harness_.vote_weight(votes->second))) return;

  slot.prepared = true;
  slot.prepared_view = view_;
  if (!slot.sent_commit) {
    slot.sent_commit = true;
    slot.commit_votes[slot.batch_digest][id()] = weight_of(id());
    broadcast(Commit{view_, seq, slot.batch_digest});
  }
  maybe_committed(seq);
}

void Pbft::on_commit(const Commit& c, ReplicaId from) {
  if (in_view_change_ || c.view != view_) return;
  if (options().behavior == Behavior::kCollude) {
    collude_endorse(c.view, c.seq, c.request_digest);
  }
  if (c.seq <= last_executed()) return;
  Slot& slot = slots_[c.seq];
  slot.commit_votes[c.request_digest][from] = weight_of(from);
  maybe_committed(c.seq);
}

void Pbft::collude_endorse(View v, SeqNum seq,
                           const crypto::Digest& digest) {
  FINDEP_ASSERT(options().behavior == Behavior::kCollude);
  if (v != view_ || in_view_change_) return;
  if (seq <= last_executed()) return;
  // Lend full weight to every digest exactly once: prepare and commit
  // with no conflict check, the classic vote-for-everything strategy.
  // The endorse set is pruned with slots_ when checkpoints advance.
  auto& endorsed = colluded_[seq];
  if (std::find(endorsed.begin(), endorsed.end(), digest) !=
      endorsed.end()) {
    return;
  }
  endorsed.push_back(digest);
  broadcast(Prepare{v, seq, digest});
  broadcast(Commit{v, seq, digest});
}

void Pbft::maybe_committed(SeqNum seq) {
  const auto it = slots_.find(seq);
  if (it == slots_.end()) return;
  Slot& slot = it->second;
  if (!slot.prepared || slot.committed) return;
  const auto votes = slot.commit_votes.find(slot.batch_digest);
  if (votes == slot.commit_votes.end()) return;
  if (!is_quorum(harness_.vote_weight(votes->second))) return;
  slot.committed = true;
  execute_ready();
}

void Pbft::execute_ready() {
  for (;;) {
    const auto it = slots_.find(last_executed() + 1);
    if (it == slots_.end() || !it->second.committed) break;
    tail_.execute(it->first, it->second.batch);
  }
  if (tail_.pending().empty()) {
    // Fully drained: drop the timer and the (all-dead) deadline queue.
    sim().cancel(request_timer_);
    request_deadlines_.clear();
  }
  // Otherwise the armed timer stays put. Each request carries its own
  // arrival-based deadline, so progress on *other* requests neither
  // resets nor extends a pending one — a primary serving some clients
  // while starving another is detected within one request_timeout
  // (previously documented as the starvation caveat: the old single
  // timer reset on any progress). Executed ids are popped from the
  // deadline queue lazily, by the timer callback.
  tail_.maybe_checkpoint();
}

void Pbft::on_checkpoint_stable() {
  // Prune consensus state at and below the stable checkpoint — but never
  // above our own execution horizon: a replica that lags behind a remote
  // checkpoint keeps its in-flight slots and can still finish them from
  // live traffic while a state transfer is pending.
  prune_slots(std::min(stable_checkpoint(), last_executed()));
  retry_deferred_cut();  // the raised watermark may unblock a deferred cut
}

void Pbft::prune_slots(SeqNum seq) {
  for (auto it = slots_.begin(); it != slots_.end();) {
    it = it->first <= seq ? slots_.erase(it) : std::next(it);
  }
  colluded_.erase(colluded_.begin(), colluded_.upper_bound(seq));
}

// --- timers ----------------------------------------------------------------

void Pbft::track_request_deadline(std::uint64_t request_id) {
  // Called exactly when `request_id` first enters tail_.pending(), so
  // deadlines are arrival-ordered and nondecreasing: the front of the
  // deque is always the earliest live deadline. Retransmissions do not
  // reach here (the caller guards on !contains), so a retried request
  // keeps its original deadline instead of being silently extended.
  request_deadlines_.emplace_back(sim().now() + options().request_timeout,
                                  request_id);
}

void Pbft::refresh_request_deadlines() {
  // A view change is a cluster-wide progress event: every still-pending
  // request gets a fresh grace period under the new primary. Deadlines
  // are rewritten in place — the deque stays arrival-ordered and all
  // entries share one timestamp, so the nondecreasing invariant holds.
  const double deadline = sim().now() + options().request_timeout;
  for (auto& entry : request_deadlines_) entry.first = deadline;
}

void Pbft::arm_request_timer() {
  if (options().behavior == Behavior::kSilent) return;
  // Lazily shed entries whose request already executed (or was never
  // tracked locally): the deadline queue is append-only on arrival, so
  // the front may be stale.
  while (!request_deadlines_.empty() &&
         !tail_.pending().contains(request_deadlines_.front().second)) {
    request_deadlines_.pop_front();
  }
  if (request_timer_.has_value() || request_deadlines_.empty()) return;
  const double wait =
      std::max(0.0, request_deadlines_.front().first - sim().now());
  request_timer_ = sim().schedule_after(wait, [this] {
    request_timer_.reset();
    request_timer_fired();
  });
}

void Pbft::request_timer_fired() {
  while (!request_deadlines_.empty() &&
         !tail_.pending().contains(request_deadlines_.front().second)) {
    request_deadlines_.pop_front();
  }
  if (request_deadlines_.empty()) return;
  if (in_view_change_) return;  // install_new_view refreshes and re-arms
  // Epsilon absorbs the float roundoff of scheduling `deadline - now`
  // relative to a moved `now`; deadlines are seconds-scale, so 1ns of
  // slack cannot conflate two distinct timeouts.
  if (request_deadlines_.front().first <= sim().now() + 1e-9) {
    // The front request outlived its own timeout — progress elsewhere
    // does not excuse the primary (client-selective starvation is a
    // fault, not a scheduling artifact).
    start_view_change(view_ + 1);
    return;
  }
  // The old front was shed above and a later deadline surfaced: re-arm
  // for it. Never late, because deadlines are nondecreasing.
  arm_request_timer();
}

void Pbft::arm_viewchange_timer(View target) {
  sim().cancel(viewchange_timer_);
  viewchange_timer_ = sim().schedule_after(
      options().view_change_timeout, [this, target] {
        viewchange_timer_.reset();
        if (in_view_change_ && pending_view_ == target) {
          start_view_change(target + 1);  // new primary also failed
        }
      });
}

void Pbft::arm_batch_timer() {
  if (batch_timer_.has_value() || batch_queue_.empty()) return;
  batch_timer_ = sim().schedule_after(options().batch_timeout, [this] {
    batch_timer_.reset();
    // Cut whatever accumulated: a partial batch must not wait for
    // traffic that may never come (liveness of light load).
    if (!in_view_change_ && is_primary()) cut_batch();
  });
}

// --- view change -------------------------------------------------------

void Pbft::start_view_change(View target) {
  if (target <= view_) return;
  if (in_view_change_ && target <= pending_view_) return;
  in_view_change_ = true;
  pending_view_ = target;
  ++view_changes_started_;
  sim().cancel(request_timer_);
  sim().cancel(batch_timer_);

  std::vector<PreparedEntry> prepared;
  for (const auto& [seq, slot] : slots_) {
    if (slot.prepared && seq > stable_checkpoint()) {
      prepared.push_back(PreparedEntry{slot.prepared_view, seq, slot.batch,
                                       slot.batch_digest});
    }
  }
  arm_viewchange_timer(target);
  broadcast(ViewChange(target, stable_checkpoint(), std::move(prepared)));
}

void Pbft::on_viewchange(const ViewChange& vc, ReplicaId from,
                         const crypto::Signature& signature) {
  // A view change states the sender's stable checkpoint — a signed claim
  // usable as state-transfer evidence.
  tail_.fetch().note_claim(from, vc.last_executed());
  if (vc.new_view() <= view_) return;
  auto& votes = viewchange_votes_[vc.new_view()];
  const bool already =
      std::any_of(votes.begin(), votes.end(),
                  [from](const SignedViewChange& s) {
                    return s.sender == from;
                  });
  if (!already) {
    votes.push_back(SignedViewChange{from, vc, signature});
  }

  double weight = 0.0;
  for (const SignedViewChange& s : votes) weight += weight_of(s.sender);

  // Join rule: a third of the power already wants this view, so at least
  // one honest replica timed out — join to guarantee liveness.
  if (is_third(weight) &&
      (!in_view_change_ || pending_view_ < vc.new_view())) {
    start_view_change(vc.new_view());
  }
  if (primary_of(vc.new_view()) == id()) {
    maybe_assemble_new_view(vc.new_view());
  }
}

std::vector<PrePrepare> Pbft::compute_reproposals(
    View target, const std::vector<SignedViewChange>& proofs) {
  SeqNum min_s = 0;
  SeqNum max_s = 0;
  for (const SignedViewChange& s : proofs) {
    min_s = std::max(min_s, s.vc.last_executed());
    for (const PreparedEntry& e : s.vc.prepared()) {
      max_s = std::max(max_s, e.seq);
    }
  }
  std::vector<PrePrepare> out;
  for (SeqNum seq = min_s + 1; seq <= max_s; ++seq) {
    const PreparedEntry* best = nullptr;
    for (const SignedViewChange& s : proofs) {
      for (const PreparedEntry& e : s.vc.prepared()) {
        if (e.seq != seq) continue;
        if (best == nullptr || e.view > best->view) best = &e;
      }
    }
    out.push_back(PrePrepare{
        target, seq, best != nullptr ? best->batch : noop_batch()});
  }
  return out;
}

void Pbft::maybe_assemble_new_view(View target) {
  if (view_ >= target || newview_assembled_for_ >= target) return;
  const auto it = viewchange_votes_.find(target);
  if (it == viewchange_votes_.end()) return;
  // Must include our own view change.
  const bool have_own =
      std::any_of(it->second.begin(), it->second.end(),
                  [this](const SignedViewChange& s) {
                    return s.sender == id();
                  });
  if (!have_own) return;
  double weight = 0.0;
  for (const SignedViewChange& s : it->second) weight += weight_of(s.sender);
  if (!is_quorum(weight)) return;

  newview_assembled_for_ = target;
  NewView nv;
  nv.view = target;
  nv.proofs = it->second;
  nv.reproposals = compute_reproposals(target, nv.proofs);
  broadcast(nv);
}

bool Pbft::verify_new_view(const NewView& nv) const {
  // Verify the view-change quorum: distinct senders, valid signatures,
  // matching target view, quorum weight.
  double weight = 0.0;
  std::vector<bool> seen(harness_.n(), false);
  for (const SignedViewChange& s : nv.proofs) {
    if (s.sender >= harness_.n() || seen[s.sender]) return false;
    if (s.vc.new_view() != nv.view) return false;
    if (!harness_.registry().verify(harness_.directory()[s.sender],
                                    s.vc.digest(), s.signature)) {
      return false;
    }
    seen[s.sender] = true;
    weight += weight_of(s.sender);
  }
  if (!is_quorum(weight)) return false;

  // Recompute the re-proposals; a lying primary is rejected here.
  const std::vector<PrePrepare> expected =
      compute_reproposals(nv.view, nv.proofs);
  if (expected.size() != nv.reproposals.size()) return false;
  for (std::size_t i = 0; i < expected.size(); ++i) {
    if (expected[i].view != nv.reproposals[i].view ||
        expected[i].seq != nv.reproposals[i].seq ||
        !(expected[i].batch == nv.reproposals[i].batch)) {
      return false;
    }
  }
  return true;
}

void Pbft::on_newview(const NewView& nv, ReplicaId from) {
  if (nv.view <= view_) return;
  if (from != primary_of(nv.view)) return;
  if (!verify_new_view(nv)) return;
  install_new_view(nv);
}

void Pbft::install_new_view(const NewView& nv) {
  view_ = nv.view;
  in_view_change_ = false;
  pending_view_ = nv.view;
  last_new_view_ = nv;
  sim().cancel(viewchange_timer_);
  viewchange_votes_.erase(viewchange_votes_.begin(),
                          viewchange_votes_.upper_bound(nv.view));
  // The proofs are signed claims of their senders' stable checkpoints;
  // if a quorum certifies state above our horizon, we missed committed
  // traffic and should fetch rather than wait for the next checkpoint.
  for (const SignedViewChange& s : nv.proofs) {
    tail_.fetch().note_claim(s.sender, s.vc.last_executed());
  }

  // Reset consensus state for unexecuted sequence numbers: votes from
  // earlier views are void in the new view.
  for (auto& [seq, slot] : slots_) {
    if (seq > last_executed()) slot = Slot{};
  }

  SeqNum max_seq = last_executed();
  for (const PrePrepare& pp : nv.reproposals) {
    max_seq = std::max(max_seq, pp.seq);
    if (pp.seq <= last_executed()) continue;
    accept_preprepare(pp);
  }
  next_seq_ = max_seq + 1;
  assigned_.clear();
  // The old view's batch queue is void: its requests are still in
  // pending() and get re-driven below, through the new primary.
  sim().cancel(batch_timer_);
  batch_queue_.clear();
  queued_ids_.clear();
  cut_deferred_ = false;  // nothing queued, nothing deferred

  // Replay normal-case traffic that raced ahead of our installation.
  replay_future_messages();

  // Re-drive pending client requests in the new view, in request-id
  // order, so the new primary's batches pack identically everywhere.
  const std::vector<const Request*> redrive = tail_.pending_by_id();
  if (is_primary()) {
    for (const Request* request : redrive) {
      enqueue_for_proposal(*request);
    }
    // Don't leave a partial batch waiting on the timer: these requests
    // already aged through a whole view change.
    cut_batch();
  } else {
    for (const Request* request : redrive) {
      send_to(primary_of(view_), *request);
    }
  }
  refresh_request_deadlines();
  arm_request_timer();
  tail_.fetch().maybe_schedule();
}

// --- state transfer --------------------------------------------------------

void Pbft::on_state_adopted(const StateResponse& resp) {
  prune_slots(last_executed());

  if (resp.new_view.has_value() && resp.new_view->view > view_ &&
      verify_new_view(*resp.new_view)) {
    // We also missed a view change during the outage: the relayed
    // NEW-VIEW is self-certifying, so adopt the cluster's view (this
    // replays buffered future-view traffic and re-drives pending
    // requests).
    install_new_view(*resp.new_view);
  } else {
    if (in_view_change_) {
      // Our view change was a lone timeout caused by our own lag — the
      // proven checkpoint shows the cluster committing without us, in a
      // view we now share. Abandon it and rejoin the normal case; if we
      // are still starved the request timer below re-escalates.
      in_view_change_ = false;
      pending_view_ = view_;
      sim().cancel(viewchange_timer_);
    }
    sim().cancel(request_timer_);  // the adoption itself is execution progress
    execute_ready();
    replay_future_messages();
    // Catching up across the outage is cluster-wide progress for every
    // request still pending here, same as a view change.
    refresh_request_deadlines();
    arm_request_timer();
  }
  // Still behind a credible horizon (e.g. the responder itself lagged)?
  // Go again.
  tail_.fetch().maybe_schedule();
  retry_deferred_cut();  // adoption advanced the stable checkpoint
}

}  // namespace findep::replication
