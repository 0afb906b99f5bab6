// The transit verdict for one encounter: what the network does to its
// frames. sim::FaultPlane draws one per encounter; the protocol bodies
// (vote::vote_encounter, moderation::exchange) take it and apply it, so
// the simulator's faulted encounter and the fault-free one the socket
// plane is checked against are the same function. The default verdict is
// all-clear.
#pragma once

#include <cstdint>

#include "util/time.hpp"

namespace tribvote::util {

/// What happens to a message body in flight.
enum class PayloadFault : std::uint8_t {
  kNone,
  kTruncated,  ///< partial payload arrives (tail of the batch lost)
  kCorrupted,  ///< bit damage: a Schnorr signature no longer verifies
};

/// The pre-drawn fault verdict for one encounter. All-false (the default)
/// means the encounter executes exactly as in a fault-free run.
struct EncounterFaults {
  /// An endpoint crashed at a lower seq this round; the dial fails
  /// outright and nothing else applies. The caller's to honour: the
  /// protocol bodies never see an unreachable encounter.
  bool unreachable = false;
  /// The initiator's request is lost; the responder never learns of the
  /// encounter (implies no reply, no crash, no payload faults).
  bool drop_request = false;
  /// The responder's reply is lost after it processed the request.
  bool drop_reply = false;
  /// The responder processes the request, then goes offline; the reply is
  /// lost and the peer leaves the online set after the round.
  bool crash_responder = false;
  /// Non-zero: the reply lands this many ticks later. The protocol body
  /// builds and damages it now and hands it back; the caller delivers it.
  Duration delay_reply = 0;
  PayloadFault request_payload = PayloadFault::kNone;
  PayloadFault reply_payload = PayloadFault::kNone;
  /// Deterministic per-encounter salt for the damage helpers (which bit
  /// to flip, which item of a batch to damage). The reply uses salt + 1.
  std::uint64_t payload_salt = 0;

  /// The initiator hears nothing back (crash or reply loss).
  [[nodiscard]] bool reply_lost() const noexcept {
    return drop_reply || crash_responder;
  }
  [[nodiscard]] bool any() const noexcept {
    return unreachable || drop_request || drop_reply || crash_responder ||
           delay_reply != 0 || request_payload != PayloadFault::kNone ||
           reply_payload != PayloadFault::kNone;
  }
};

}  // namespace tribvote::util
