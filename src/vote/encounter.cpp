#include "vote/encounter.hpp"

#include <utility>

namespace tribvote::vote {

namespace {

/// The sender side of a leg that is not delivered now: `full` was just
/// built, and the work since `before` is what building it cost.
GossipLegOutcome built_leg(const VoteAgent& sender, const GossipStats& before,
                           const VoteListMessage& full) {
  GossipLegOutcome leg;
  leg.list_size = full.votes.size();
  const GossipStats& after = sender.gossip_stats();
  leg.cache_hit = after.cache_hits > before.cache_hits;
  leg.signatures =
      static_cast<std::uint32_t>(after.signatures - before.signatures);
  return leg;
}

}  // namespace

VoteEncounterOutcome vote_encounter(VoteAgent& initiator,
                                    VoteAgent& responder, Time now,
                                    const util::EncounterFaults& verdict) {
  VoteEncounterOutcome out;
  if (verdict.drop_request) {
    // The opening frame was built and put on the wire; the responder never
    // learns of the encounter, and no counterpart is noted.
    const GossipStats before = initiator.gossip_stats();
    const VoteListMessage full = initiator.outgoing_votes(now);
    out.forward = built_leg(initiator, before, full);
    out.forward.bytes = initiator.opens_with_digest(full, responder.self())
                            ? wire_size(make_digest(full))
                            : wire_size(full);
    out.vox_requested = initiator.bootstrapping();
    return out;
  }
  out.forward = gossip_send(initiator, responder, now, verdict.request_payload,
                            verdict.payload_salt);
  const bool reply_lost = verdict.reply_lost();
  if (!reply_lost && verdict.delay_reply > 0) {
    const GossipStats before = responder.gossip_stats();
    VoteListMessage reply = responder.outgoing_votes(now);
    out.reverse = built_leg(responder, before, reply);
    damage_message(reply, verdict.reply_payload, verdict.payload_salt + 1);
    out.reverse.bytes = wire_size(reply);
    out.held.emplace().votes = std::move(reply);
  } else if (!reply_lost) {
    out.reverse = gossip_send(responder, initiator, now, verdict.reply_payload,
                              verdict.payload_salt + 1);
  }
  // The VP decision comes after both legs: a leg that lifts the box past
  // B_min suppresses the request. The answer shares the reply's fate.
  out.vox_requested = initiator.bootstrapping();
  if (out.vox_requested && !reply_lost) {
    RankedList topk = responder.answer_topk();
    out.vox_topk = topk.size();
    if (out.held) {
      out.held->topk = std::move(topk);
    } else {
      initiator.receive_topk(std::move(topk));
    }
  }
  return out;
}

}  // namespace tribvote::vote
