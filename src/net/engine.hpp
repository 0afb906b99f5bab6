// Transport-agnostic protocol state machines: frames in, frames out.
//
// One ExchangeEngine drives both roles of one connection: the initiator
// side runs the encounters this node opens (on its own channel), the
// responder side serves the peer's (on the other channel). The per-agent
// call sequence is exactly vote::vote_encounter's — outgoing_votes /
// build_delta / note_counterpart on the sender, scan_digest / receive_* on
// the receiver, then bootstrapping / answer_topk / receive_topk after both
// legs — so a completed wire encounter leaves both agents in bit-identical
// state to the simulator running the same pair at the same timestamp
// (DESIGN.md §13; verified by tests/net_engine_test.cpp and
// tests/net_socket_test.cpp).
//
// The engine never touches a socket: the caller feeds decoded frames and
// ships whatever the engine emits. The same engine instance therefore runs
// under an in-memory frame shuttle (the equivalence tests' middle rung) and
// under the poll loop's TCP connections (net/node_service.hpp).
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "moderation/moderationcast.hpp"
#include "net/codec.hpp"
#include "net/frame.hpp"
#include "vote/agent.hpp"

namespace tribvote::net {

class ExchangeEngine {
 public:
  /// Protocol-level accounting. The signature/rejection counters play the
  /// same role the PR 4 fault plane's FaultStats do in the simulator: a
  /// frame that decodes but fails its Schnorr signature (or digest binding)
  /// lands in votes_rejected / mod_rejected, never in the ballot box.
  struct Counters {
    std::uint64_t encounters_completed = 0;  ///< as initiator
    std::uint64_t encounters_served = 0;     ///< as responder
    std::uint64_t mod_completed = 0;
    std::uint64_t mod_served = 0;
    std::uint64_t open_full = 0;     ///< legs this node opened with VOTE_FULL
    std::uint64_t open_digest = 0;   ///< legs opened with VOTE_DIGEST
    std::uint64_t votes_accepted = 0;
    std::uint64_t votes_rejected = 0;  ///< kBadSignature verdicts (PR 4 role)
    std::uint64_t votes_inexperienced = 0;
    std::uint64_t fallbacks_requested = 0;  ///< broken digest seen, asked full
    std::uint64_t fallbacks_served = 0;     ///< peer asked full for our digest
    std::uint64_t vox_answered = 0;  ///< non-null top-K merged (initiator)
    std::uint64_t vox_null = 0;
    std::uint64_t mod_rejected = 0;  ///< item-wise bad signatures received
    std::uint64_t protocol_errors = 0;  ///< out-of-state or invalid frames
  };

  /// `initiator_channel` is 0 when this node dialed the connection, 1 when
  /// it accepted — the channel byte every frame of an encounter this node
  /// initiates carries (PROTOCOL.md §3). `mod` may be null (vote-only node).
  ExchangeEngine(vote::VoteAgent& vote, moderation::ModerationCastAgent* mod,
                 std::uint8_t initiator_channel);

  /// Bind the connection's counterpart once its HELLO arrives.
  void set_peer(PeerId peer) {
    peer_ = peer;
    has_peer_ = true;
  }
  [[nodiscard]] bool has_peer() const noexcept { return has_peer_; }
  [[nodiscard]] PeerId peer() const noexcept { return peer_; }

  /// No encounter of ours in flight (the responder side may still be busy).
  [[nodiscard]] bool idle() const noexcept { return i_state_ == IState::kIdle; }
  [[nodiscard]] bool responder_idle() const noexcept {
    return r_state_ == RState::kIdle;
  }

  /// Open a vote (or moderation) encounter as initiator: emits ENC_BEGIN
  /// plus the opening leg onto `out`. Fails (false) when the peer is not
  /// yet known, an encounter is already in flight, or (moderation) no
  /// moderation agent was wired.
  bool begin_vote_encounter(Time now, std::vector<Frame>& out);
  bool begin_moderation_encounter(Time now, std::vector<Frame>& out);

  /// Feed one decoded frame, appending any responses to `out`. Returns
  /// false on a protocol error — an out-of-state frame, an undecodable
  /// payload or an invalid delta-request — after which the connection must
  /// be dropped (PROTOCOL.md §5).
  bool on_frame(const Frame& frame, std::vector<Frame>& out);

  /// Invoked when a peer-initiated encounter opens (ENC_BEGIN decoded,
  /// nothing merged yet) with its kind and timestamp. The only safe point
  /// for a responder to apply scheduled local casts so a scripted run stays
  /// bit-identical to the sim oracle — later frames of the encounter may
  /// arrive in the same read batch (tribvote_node relies on this).
  void set_begin_hook(std::function<void(std::uint8_t, Time)> hook) {
    begin_hook_ = std::move(hook);
  }

  [[nodiscard]] const Counters& counters() const noexcept { return counters_; }

 private:
  enum class IState : std::uint8_t {
    kIdle,
    kAwaitDeltaRequest,    ///< sent digest; peer scans it
    kAwaitReverseOpen,     ///< our leg done; peer's leg not yet opened
    kAwaitReverseDelta,    ///< requested missing entries of peer's digest
    kAwaitReverseFull,     ///< peer's digest broken; asked full retransmit
    kAwaitVox,             ///< sent VOX_REQUEST
    kAwaitModBatch,        ///< sent our moderation batch
  };
  enum class RState : std::uint8_t {
    kIdle,
    kAwaitOpen,            ///< ENC_BEGIN(vote) seen; initiator's leg next
    kAwaitDelta,           ///< requested missing entries of their digest
    kAwaitFullRetry,       ///< their digest broken; asked full retransmit
    kAwaitDeltaRequest,    ///< our reverse digest out; they scan it
    kAwaitWrap,            ///< both legs done; VOX_REQUEST or ENC_END next
    kAwaitModBatch,        ///< ENC_BEGIN(moderation) seen
    kAwaitModEnd,          ///< our batch sent; ENC_END next
  };

  /// Per-role working state for the encounter in flight.
  struct Leg {
    Time now = 0;
    vote::VoteListMessage full;           ///< our built message (sender side)
    bool pending_full = false;
    vote::VoteDigestMessage peer_digest;  ///< their digest (receiver side)
    std::vector<std::size_t> missing;
  };

  bool on_initiator_frame(const Frame& frame, std::vector<Frame>& out);
  bool on_responder_frame(const Frame& frame, std::vector<Frame>& out);

  /// Build our leg's opening frame (digest or full, by
  /// VoteAgent::opens_with_digest). Returns true when it opened with a
  /// digest.
  bool open_leg(Leg& leg, std::uint8_t channel, std::vector<Frame>& out);
  /// Serve a delta-request / full-request against our pending full message.
  bool serve_delta_request(Leg& leg, const Frame& frame, std::uint8_t channel,
                           std::vector<Frame>& out);
  void serve_full_retry(Leg& leg, std::uint8_t channel,
                        std::vector<Frame>& out);
  void note_receive(vote::ReceiveResult result);
  /// After the reverse leg completes on the initiator side: VP or wrap up.
  void initiator_wrap(std::vector<Frame>& out);
  bool fail();

  void push(std::vector<Frame>& out, FrameType type, std::uint8_t channel,
            std::vector<std::uint8_t> payload);

  vote::VoteAgent* vote_;
  moderation::ModerationCastAgent* mod_;
  std::uint8_t init_channel_;
  PeerId peer_ = kInvalidPeer;
  bool has_peer_ = false;

  IState i_state_ = IState::kIdle;
  RState r_state_ = RState::kIdle;
  Leg i_leg_;
  Leg r_leg_;
  Counters counters_;
  std::function<void(std::uint8_t, Time)> begin_hook_;
};

}  // namespace tribvote::net
