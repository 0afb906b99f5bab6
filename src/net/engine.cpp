#include "net/engine.hpp"

#include <utility>

namespace tribvote::net {

ExchangeEngine::ExchangeEngine(vote::VoteAgent& vote,
                               moderation::ModerationCastAgent* mod,
                               std::uint8_t initiator_channel)
    : vote_(&vote), mod_(mod), init_channel_(initiator_channel) {}

void ExchangeEngine::push(std::vector<Frame>& out, FrameType type,
                          std::uint8_t channel,
                          std::vector<std::uint8_t> payload) {
  Frame f;
  f.type = type;
  f.channel = channel;
  f.payload = std::move(payload);
  out.push_back(std::move(f));
}

bool ExchangeEngine::fail() {
  ++counters_.protocol_errors;
  return false;
}

void ExchangeEngine::note_receive(vote::ReceiveResult result) {
  switch (result) {
    case vote::ReceiveResult::kAccepted:
      ++counters_.votes_accepted;
      break;
    case vote::ReceiveResult::kBadSignature:
      ++counters_.votes_rejected;
      break;
    case vote::ReceiveResult::kInexperienced:
      ++counters_.votes_inexperienced;
      break;
    case vote::ReceiveResult::kSelfMessage:
    case vote::ReceiveResult::kEmpty:
      break;
  }
}

bool ExchangeEngine::open_leg(Leg& leg, std::uint8_t channel,
                              std::vector<Frame>& out) {
  // Same predicate and same sender-agent call order as vote::gossip_send:
  // outgoing_votes, (build_delta on request), note_counterpart.
  vote::VoteListMessage full = vote_->outgoing_votes(leg.now);
  if (vote_->opens_with_digest(full, peer_)) {
    push(out, FrameType::kVoteDigest, channel,
         encode_vote_digest(vote::make_digest(full)));
    leg.full = std::move(full);
    leg.pending_full = true;
    ++counters_.open_digest;
    return true;
  }
  push(out, FrameType::kVoteFull, channel, encode_vote_full(full));
  vote_->note_counterpart(peer_);
  leg.pending_full = false;
  ++counters_.open_full;
  return false;
}

bool ExchangeEngine::serve_delta_request(Leg& leg, const Frame& frame,
                                         std::uint8_t channel,
                                         std::vector<Frame>& out) {
  std::vector<std::size_t> missing;
  if (!leg.pending_full || !decode_delta_request(frame.payload, missing)) {
    return false;
  }
  if (!missing.empty() && missing.back() >= leg.full.votes.size()) {
    return false;  // index beyond the message the digest described
  }
  if (!missing.empty()) {
    push(out, FrameType::kVoteDelta, channel,
         encode_vote_delta(vote_->build_delta(leg.full, missing)));
  }
  vote_->note_counterpart(peer_);
  leg.pending_full = false;
  return true;
}

void ExchangeEngine::serve_full_retry(Leg& leg, std::uint8_t channel,
                                      std::vector<Frame>& out) {
  push(out, FrameType::kVoteFull, channel, encode_vote_full(leg.full));
  ++counters_.fallbacks_served;
  vote_->note_counterpart(peer_);
  leg.pending_full = false;
}

bool ExchangeEngine::begin_vote_encounter(Time now, std::vector<Frame>& out) {
  if (!has_peer_ || i_state_ != IState::kIdle) return false;
  i_leg_ = Leg{};
  i_leg_.now = now;
  push(out, FrameType::kEncounterBegin, init_channel_,
       encode_encounter_begin({kEncounterVote, now}));
  const bool digest = open_leg(i_leg_, init_channel_, out);
  i_state_ = digest ? IState::kAwaitDeltaRequest : IState::kAwaitReverseOpen;
  return true;
}

bool ExchangeEngine::begin_moderation_encounter(Time now,
                                                std::vector<Frame>& out) {
  if (!has_peer_ || mod_ == nullptr || i_state_ != IState::kIdle) return false;
  i_leg_ = Leg{};
  i_leg_.now = now;
  push(out, FrameType::kEncounterBegin, init_channel_,
       encode_encounter_begin({kEncounterModeration, now}));
  push(out, FrameType::kModBatch, init_channel_,
       encode_mod_batch(mod_->outgoing()));
  i_state_ = IState::kAwaitModBatch;
  return true;
}

void ExchangeEngine::initiator_wrap(std::vector<Frame>& out) {
  // The VP decision comes after both gossip legs, exactly as in
  // vote::vote_encounter: a leg that lifts the box past B_min suppresses
  // the request on the wire too.
  if (vote_->bootstrapping()) {
    push(out, FrameType::kVoxRequest, init_channel_, {});
    i_state_ = IState::kAwaitVox;
    return;
  }
  push(out, FrameType::kEncounterEnd, init_channel_, {});
  i_state_ = IState::kIdle;
  ++counters_.encounters_completed;
}

bool ExchangeEngine::on_frame(const Frame& frame, std::vector<Frame>& out) {
  return frame.channel == init_channel_ ? on_initiator_frame(frame, out)
                                        : on_responder_frame(frame, out);
}

bool ExchangeEngine::on_initiator_frame(const Frame& frame,
                                        std::vector<Frame>& out) {
  const std::uint8_t ch = init_channel_;
  switch (i_state_) {
    case IState::kIdle:
      return fail();  // nothing of ours in flight on this channel

    case IState::kAwaitDeltaRequest:
      if (frame.type == FrameType::kVoteDeltaRequest) {
        if (!serve_delta_request(i_leg_, frame, ch, out)) return fail();
        i_state_ = IState::kAwaitReverseOpen;
        return true;
      }
      if (frame.type == FrameType::kVoteFullRequest) {
        if (!frame.payload.empty()) return fail();
        serve_full_retry(i_leg_, ch, out);
        i_state_ = IState::kAwaitReverseOpen;
        return true;
      }
      return fail();

    case IState::kAwaitReverseOpen:
      if (frame.type == FrameType::kVoteFull) {
        vote::VoteListMessage msg;
        if (!decode_vote_full(frame.payload, msg)) return fail();
        note_receive(vote_->receive_votes(msg, i_leg_.now));
        initiator_wrap(out);
        return true;
      }
      if (frame.type == FrameType::kVoteDigest) {
        vote::VoteDigestMessage digest;
        if (!decode_vote_digest(frame.payload, digest)) return fail();
        if (!vote::digest_intact(digest)) {
          push(out, FrameType::kVoteFullRequest, ch, {});
          ++counters_.fallbacks_requested;
          i_state_ = IState::kAwaitReverseFull;
          return true;
        }
        i_leg_.peer_digest = std::move(digest);
        i_leg_.missing = vote_->scan_digest(i_leg_.peer_digest);
        push(out, FrameType::kVoteDeltaRequest, ch,
             encode_delta_request(i_leg_.missing));
        if (i_leg_.missing.empty()) {
          note_receive(
              vote_->receive_delta(i_leg_.peer_digest, nullptr, i_leg_.now));
          initiator_wrap(out);
        } else {
          i_state_ = IState::kAwaitReverseDelta;
        }
        return true;
      }
      return fail();

    case IState::kAwaitReverseDelta:
      if (frame.type != FrameType::kVoteDelta) return fail();
      {
        vote::VoteDeltaMessage delta;
        if (!decode_vote_delta(frame.payload, delta)) return fail();
        note_receive(
            vote_->receive_delta(i_leg_.peer_digest, &delta, i_leg_.now));
        initiator_wrap(out);
      }
      return true;

    case IState::kAwaitReverseFull:
      if (frame.type != FrameType::kVoteFull) return fail();
      {
        vote::VoteListMessage msg;
        if (!decode_vote_full(frame.payload, msg)) return fail();
        note_receive(vote_->receive_votes(msg, i_leg_.now));
        initiator_wrap(out);
      }
      return true;

    case IState::kAwaitVox:
      if (frame.type != FrameType::kVoxTopK) return fail();
      {
        vote::RankedList list;
        if (!decode_vox_topk(frame.payload, list)) return fail();
        // An empty list is the responder's explicit "null" answer.
        ++(list.empty() ? counters_.vox_null : counters_.vox_answered);
        vote_->receive_topk(std::move(list));
        push(out, FrameType::kEncounterEnd, ch, {});
        i_state_ = IState::kIdle;
        ++counters_.encounters_completed;
      }
      return true;

    case IState::kAwaitModBatch:
      if (frame.type != FrameType::kModBatch || mod_ == nullptr) return fail();
      {
        std::vector<moderation::Moderation> items;
        if (!decode_mod_batch(frame.payload, items)) return fail();
        counters_.mod_rejected += mod_->receive(items, i_leg_.now).bad_signature;
        push(out, FrameType::kEncounterEnd, ch, {});
        i_state_ = IState::kIdle;
        ++counters_.mod_completed;
      }
      return true;
  }
  return fail();
}

bool ExchangeEngine::on_responder_frame(const Frame& frame,
                                        std::vector<Frame>& out) {
  const std::uint8_t ch = frame.channel;  // the peer-initiator's channel
  switch (r_state_) {
    case RState::kIdle:
      if (frame.type != FrameType::kEncounterBegin) return fail();
      {
        EncounterBegin begin;
        if (!decode_encounter_begin(frame.payload, begin)) return fail();
        if (begin_hook_) begin_hook_(begin.kind, begin.time);
        r_leg_ = Leg{};
        r_leg_.now = begin.time;
        if (begin.kind == kEncounterVote) {
          r_state_ = RState::kAwaitOpen;
        } else {
          if (mod_ == nullptr) return fail();
          r_state_ = RState::kAwaitModBatch;
        }
      }
      return true;

    case RState::kAwaitOpen:
      if (frame.type == FrameType::kVoteFull) {
        vote::VoteListMessage msg;
        if (!decode_vote_full(frame.payload, msg)) return fail();
        note_receive(vote_->receive_votes(msg, r_leg_.now));
        r_state_ = open_leg(r_leg_, ch, out) ? RState::kAwaitDeltaRequest
                                             : RState::kAwaitWrap;
        return true;
      }
      if (frame.type == FrameType::kVoteDigest) {
        vote::VoteDigestMessage digest;
        if (!decode_vote_digest(frame.payload, digest)) return fail();
        if (!vote::digest_intact(digest)) {
          push(out, FrameType::kVoteFullRequest, ch, {});
          ++counters_.fallbacks_requested;
          r_state_ = RState::kAwaitFullRetry;
          return true;
        }
        r_leg_.peer_digest = std::move(digest);
        r_leg_.missing = vote_->scan_digest(r_leg_.peer_digest);
        push(out, FrameType::kVoteDeltaRequest, ch,
             encode_delta_request(r_leg_.missing));
        if (r_leg_.missing.empty()) {
          note_receive(
              vote_->receive_delta(r_leg_.peer_digest, nullptr, r_leg_.now));
          r_state_ = open_leg(r_leg_, ch, out) ? RState::kAwaitDeltaRequest
                                               : RState::kAwaitWrap;
        } else {
          r_state_ = RState::kAwaitDelta;
        }
        return true;
      }
      return fail();

    case RState::kAwaitDelta:
      if (frame.type != FrameType::kVoteDelta) return fail();
      {
        vote::VoteDeltaMessage delta;
        if (!decode_vote_delta(frame.payload, delta)) return fail();
        note_receive(
            vote_->receive_delta(r_leg_.peer_digest, &delta, r_leg_.now));
        r_state_ = open_leg(r_leg_, ch, out) ? RState::kAwaitDeltaRequest
                                             : RState::kAwaitWrap;
      }
      return true;

    case RState::kAwaitFullRetry:
      if (frame.type != FrameType::kVoteFull) return fail();
      {
        vote::VoteListMessage msg;
        if (!decode_vote_full(frame.payload, msg)) return fail();
        note_receive(vote_->receive_votes(msg, r_leg_.now));
        r_state_ = open_leg(r_leg_, ch, out) ? RState::kAwaitDeltaRequest
                                             : RState::kAwaitWrap;
      }
      return true;

    case RState::kAwaitDeltaRequest:
      if (frame.type == FrameType::kVoteDeltaRequest) {
        if (!serve_delta_request(r_leg_, frame, ch, out)) return fail();
        r_state_ = RState::kAwaitWrap;
        return true;
      }
      if (frame.type == FrameType::kVoteFullRequest) {
        if (!frame.payload.empty()) return fail();
        serve_full_retry(r_leg_, ch, out);
        r_state_ = RState::kAwaitWrap;
        return true;
      }
      return fail();

    case RState::kAwaitWrap:
      if (frame.type == FrameType::kVoxRequest) {
        if (!frame.payload.empty()) return fail();
        // An empty answer is the protocol's "null" (Fig. 3c) — sent
        // explicitly so the initiator never waits on silence.
        push(out, FrameType::kVoxTopK, ch,
             encode_vox_topk(vote_->answer_topk()));
        return true;
      }
      if (frame.type == FrameType::kEncounterEnd) {
        if (!frame.payload.empty()) return fail();
        r_state_ = RState::kIdle;
        ++counters_.encounters_served;
        return true;
      }
      return fail();

    case RState::kAwaitModBatch:
      if (frame.type != FrameType::kModBatch || mod_ == nullptr) return fail();
      {
        std::vector<moderation::Moderation> items;
        if (!decode_mod_batch(frame.payload, items)) return fail();
        // The shared responder half (moderation::respond_exchange):
        // extract-before-merge in Fig. 1 order, identical to the sim path.
        moderation::ModerationCastAgent::ReceiveStats merged;
        const std::vector<moderation::Moderation> from_us =
            moderation::respond_exchange(*mod_, items, r_leg_.now, &merged);
        counters_.mod_rejected += merged.bad_signature;
        push(out, FrameType::kModBatch, ch, encode_mod_batch(from_us));
        r_state_ = RState::kAwaitModEnd;
      }
      return true;

    case RState::kAwaitModEnd:
      if (frame.type != FrameType::kEncounterEnd || !frame.payload.empty()) {
        return fail();
      }
      r_state_ = RState::kIdle;
      ++counters_.mod_served;
      return true;
  }
  return fail();
}

}  // namespace tribvote::net
