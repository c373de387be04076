#include "replication/protocol.h"

#include <variant>

namespace findep::replication {

void OrderingProtocol::dispatch_payload(const Envelope& env,
                                        net::NodeId raw_from,
                                        std::uint64_t raw_bytes) {
  const Payload& payload = env.payload();
  if (const auto* request = std::get_if<Request>(&payload)) {
    admit(*request, raw_from);
    return;
  }
  const ReplicaId from = env.sender();
  if (from >= harness_.n()) return;  // clients may only send requests
  if (const auto* cp = std::get_if<Checkpoint>(&payload)) {
    if (tail_.on_checkpoint(*cp, from, env.signature())) {
      on_checkpoint_stable();
    }
  } else if (const auto* sr = std::get_if<StateRequest>(&payload)) {
    tail_.on_state_request(*sr, from, relayed_new_view());
  } else if (const auto* resp = std::get_if<StateResponse>(&payload)) {
    if (tail_.on_state_response(*resp, from, raw_bytes)) {
      on_state_adopted(*resp);
    }
  } else {
    on_ordering(env);
  }
}

void OrderingProtocol::admit(const Request& request, net::NodeId from) {
  if (tail_.has_executed(request.id)) return;
  if (behavior() == Behavior::kCensor && (request.id & 1) != 0) {
    return;  // client-selective starvation: odd-id requests vanish here
  }
  on_request(request, from, tail_.admit(request));
}

}  // namespace findep::replication
