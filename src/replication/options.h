// Protocol-neutral replica configuration for the replication core.
//
// Every ordering protocol (src/replication/pbft.h, hotstuff.h) is driven
// by the same ReplicaOptions struct and the same validator — one set of
// knobs, one place that rejects misconfigurations with a specific
// message, regardless of which protocol the scenario axis selected. The
// knobs are protocol-neutral: request_timeout is the leader patience of
// both lanes (PBFT's per-request deadline, HotStuff's base round timer),
// so a grid flipping `protocol=` changes the ordering logic and nothing
// else.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "crypto/cost.h"

namespace findep::replication {

/// Replica fault behaviours for the fault-injection experiments. The
/// protocol-independent ones (kSilent) are enforced by the NodeHarness;
/// the rest are interpreted by each ordering protocol: a PBFT primary or
/// a HotStuff round leader equivocates/censors over its proposals, and a
/// colluder lends its vote weight to every conflicting candidate it
/// hears of.
enum class Behavior : std::uint8_t {
  kHonest,
  kSilent,
  kEquivocate,
  kCollude,
  kCensor,
};

/// The ordering protocol behind the replication core — the `protocol`
/// scenario axis.
enum class Protocol : std::uint8_t {
  kPbft,
  kHotStuff,
};

/// Parses a `protocol` axis value: "pbft" or "hotstuff". Throws
/// std::invalid_argument on anything else.
[[nodiscard]] Protocol parse_protocol(const std::string& name);

/// Short axis-value name of a protocol ("pbft" / "hotstuff").
[[nodiscard]] const char* protocol_name(Protocol protocol) noexcept;

struct ReplicaOptions {
  /// Leader patience: seconds a known-but-unexecuted request may age
  /// before a PBFT replica starts a view change, and the base round
  /// timeout of the HotStuff pacemaker (armed only while the chain is
  /// dirty, backed off exponentially per consecutive timeout).
  double request_timeout = 1.0;
  /// Patience for a new view to be installed before escalating further.
  double view_change_timeout = 1.5;
  /// Execute-to-checkpoint distance.
  std::uint64_t checkpoint_interval = 16;
  /// Leader-side batching: accumulate pending requests and cut a batch
  /// as soon as `batch_size` are queued, or `batch_timeout` simulated
  /// seconds after the first queued request — whichever comes first.
  /// batch_size = 1 cuts on every request immediately and never arms the
  /// timer, which is behaviourally identical to the unbatched protocol.
  /// batch_timeout must stay strictly below request_timeout — a lone
  /// request waiting out a slower batch timer lets the liveness timers
  /// fire first, costing a spurious leader change per light-load lull.
  /// The validator rejects the misconfiguration outright.
  std::size_t batch_size = 1;
  double batch_timeout = 0.05;
  /// Checkpoint-anchored state transfer (off only for regression sweeps
  /// that need the historical stranding behaviour).
  bool enable_state_transfer = true;
  /// Grace before the first fetch once lag is observed: in-flight slots
  /// usually commit from live traffic within a round trip, so a fetch is
  /// only worth its bytes when the gap persists.
  double state_transfer_grace = 0.2;
  /// Patience per fetch attempt before retrying another random peer.
  double state_transfer_timeout = 1.0;
  /// Primary flow control: the PBFT primary never proposes a sequence
  /// number more than this far ahead of its stable checkpoint. Without
  /// the bound, a primary outrunning a slow checkpoint quorum piles up
  /// unbounded in-flight slots (each one full consensus state on every
  /// replica); with it, a stalled checkpoint back-pressures proposals
  /// instead of memory. Deferred batches stay queued and are cut as soon
  /// as the stable checkpoint advances. Must be at least
  /// 2 * checkpoint_interval, or the bound would bite during the
  /// perfectly healthy execute-ahead-of-stability phase.
  std::uint64_t high_watermark_window = 128;
  /// Seed of the replica-local RNG (random peer choice during state
  /// transfer). The cluster harness derives one per replica from the
  /// cluster seed.
  std::uint64_t rng_seed = 0x5eedb1f7;
  Behavior behavior = Behavior::kHonest;
  /// Modeled CPU cost of the signature primitives. The default
  /// (CostModel::free()) disables cost modeling entirely: no worker
  /// pool is created, sends are not delayed, and runs are bit-identical
  /// to the historical protocol. A non-free model (a) serializes sends
  /// behind a per-replica signing accumulator and (b) offloads inbound
  /// signature verification onto `crypto_workers` modeled cores
  /// (runtime::WorkerPool) — consensus traffic at critical priority,
  /// client requests speculative, dead-view work shed on dequeue.
  crypto::CostModel cost_model{};
  /// Modeled verification cores per replica (>= 1). Only read when
  /// cost_model is non-free.
  std::size_t crypto_workers = 1;
};

/// The one option validator both protocols share: rejects every
/// misconfiguration with a specific message (support::ContractViolation).
void validate_replica_options(const ReplicaOptions& options);

}  // namespace findep::replication
