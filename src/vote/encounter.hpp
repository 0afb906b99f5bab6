// One active-thread vote encounter (Fig. 3): the BallotBox exchange both
// ways, then a VoxPopuli request while the initiator is bootstrapping.
//
// vote_encounter is the one body of that encounter. The simulator's vote
// round (core/runner.cpp) runs it under each encounter's fault verdict;
// the socket plane's equivalence tests, tribvote_cluster's and
// tribvote_node's oracles and perf's vote_plane run it all-clear. The
// socket plane's ExchangeEngine (net/engine.cpp) makes the same agent calls
// in the same order across its wire round-trips, so an encounter leaves
// both agents in the same state on every transport (DESIGN.md §13,
// PROTOCOL.md §6).
#pragma once

#include <optional>

#include "util/transit.hpp"
#include "vote/agent.hpp"

namespace tribvote::vote {

/// What one encounter did, for the caller's accounting. The runner folds
/// these into its probes and RunStats; library users may ignore it.
struct VoteEncounterOutcome {
  /// Initiator → responder leg. Under a lost request only the sender side
  /// is filled: the opening frame's bytes, list size and build costs.
  GossipLegOutcome forward;
  /// Responder → initiator leg; default when the reply is lost. A held
  /// reply's result is not known yet: the caller delivers it.
  GossipLegOutcome reverse;
  bool vox_requested = false;  ///< initiator was bootstrapping after legs
  std::size_t vox_topk = 0;    ///< entries in the responder's answer (0=null)

  /// The reply a deferring verdict holds in flight: built (and damaged)
  /// during the encounter, for the caller to deliver to the initiator
  /// later — the vote list through receive_votes, then a non-empty top-K
  /// answer through receive_topk.
  struct HeldReply {
    VoteListMessage votes;
    RankedList topk;
  };
  std::optional<HeldReply> held;
};

/// One full encounter of `initiator` with a PSS-sampled `responder` under
/// `verdict`: mutual vote-list exchange (full or digest-first delta per
/// leg, decided by each sender's counterpart memory), then the conditional
/// VP leg, decided after both legs. A node's outgoing message never
/// depends on what it just received, so the sequential legs are
/// bit-identical to a simultaneous build-then-merge.
///
/// The verdict (default all-clear; `unreachable` is the caller's):
///   * lost request — the initiator builds and sends its opening frame
///     (digest or full), which never arrives; nothing else happens;
///   * damaged request or reply — the leg's frame is damaged in flight and
///     the receiver rejects it wholesale;
///   * lost reply — the responder builds no reply and the VP answer is
///     lost with it;
///   * deferred reply — the responder's list travels as a full message
///     (the delta handshake needs both endpoints live), built and damaged
///     now and returned in `held` with the VP answer.
VoteEncounterOutcome vote_encounter(VoteAgent& initiator,
                                    VoteAgent& responder, Time now,
                                    const util::EncounterFaults& verdict = {});

}  // namespace tribvote::vote
