#include "vote/agent.hpp"

#include <cassert>

#include "util/hash.hpp"

namespace tribvote::vote {

std::uint64_t VoteListMessage::digest() const {
  std::uint64_t h = util::digest_fields({voter, key.y, votes.size()});
  for (const VoteEntry& v : votes) {
    h = util::hash_combine(
        h, util::digest_fields(
               {v.moderator,
                static_cast<std::uint64_t>(
                    static_cast<std::int64_t>(opinion_value(v.opinion))),
                static_cast<std::uint64_t>(v.cast_at)}));
  }
  return h;
}

VoteAgent::VoteAgent(PeerId self, const crypto::KeyPair& keys,
                     VoteConfig config, ExperienceCb experienced,
                     util::Rng rng)
    : self_(self),
      keys_(&keys),
      config_(config),
      experienced_(std::move(experienced)),
      rng_(rng),
      box_(config.b_max),
      observed_(config.b_max),
      vox_(config.v_max, config.k),
      nonce_rng_(rng.derive(0x6e6f6e6365ULL)),  // "nonce"
      counterparts_(config.gossip_memory) {
  assert(experienced_);
  assert(config_.b_min <= config_.b_max);
}

void VoteAgent::cast_vote(ModeratorId moderator, Opinion opinion, Time now) {
  votes_.cast(moderator, opinion, now);
}

bool VoteAgent::selection_deterministic() const {
  // select_for_message consumes rng_ only when the list exceeds the cap
  // under a policy with a random share; everything else is a pure function
  // of the vote list, so its selected-and-signed message may be memoized.
  return votes_.size() <= config_.max_votes_per_message ||
         config_.selection == SelectionPolicy::kRecentOnly;
}

VoteListMessage VoteAgent::outgoing_votes(Time now) {
  ++gossip_stats_.builds;
  const bool cacheable = config_.gossip_cache && selection_deterministic();
  if (cacheable && cache_valid_ && cache_version_ == votes_.version() &&
      cache_policy_ == config_.selection &&
      cache_max_votes_ == config_.max_votes_per_message) {
    ++gossip_stats_.cache_hits;
    (void)now;
    return cache_msg_;
  }
  VoteListMessage msg;
  msg.voter = self_;
  msg.key = keys_->pub;
  msg.votes = votes_.select_for_message(config_.max_votes_per_message, rng_,
                                        config_.selection);
  msg.signature = crypto::sign(*keys_, msg.digest(), nonce_rng_);
  ++gossip_stats_.signatures;
  if (cacheable) {
    cache_valid_ = true;
    cache_version_ = votes_.version();
    cache_policy_ = config_.selection;
    cache_max_votes_ = config_.max_votes_per_message;
    cache_msg_ = msg;
  }
  (void)now;
  return msg;
}

ReceiveResult VoteAgent::receive_votes(const VoteListMessage& message,
                                       Time now) {
  if (message.voter == self_) return ReceiveResult::kSelfMessage;
  if (!crypto::verify(message.key, message.digest(), message.signature)) {
    return ReceiveResult::kBadSignature;  // forged or corrupted
  }
  return absorb_votes(message.voter, message.votes, now);
}

ReceiveResult VoteAgent::absorb_votes(PeerId voter,
                                      const std::vector<VoteEntry>& votes,
                                      Time now) {
  if (votes.empty()) return ReceiveResult::kEmpty;
  // Every authentic message feeds the observed-dispersion signal, even
  // when the experience function rejects its votes.
  observed_.merge(voter, votes, now);
  if (!experienced_(voter)) {
    return ReceiveResult::kInexperienced;  // E_i(j) = false
  }
  box_.merge(voter, votes, now);
  return ReceiveResult::kAccepted;
}

std::optional<VoteEntry> VoteAgent::covered_by(PeerId voter,
                                               const DigestEntry& entry) const {
  if (auto held = box_.find(voter, entry.moderator);
      held && entry_check(*held) == entry.check) {
    return held;
  }
  if (auto seen = observed_.find(voter, entry.moderator);
      seen && entry_check(*seen) == entry.check) {
    return seen;
  }
  return std::nullopt;
}

std::vector<std::size_t> VoteAgent::scan_digest(
    const VoteDigestMessage& digest) const {
  std::vector<std::size_t> missing;
  for (std::size_t i = 0; i < digest.entries.size(); ++i) {
    if (!covered_by(digest.voter, digest.entries[i])) missing.push_back(i);
  }
  return missing;
}

VoteDeltaMessage VoteAgent::build_delta(
    const VoteListMessage& full, const std::vector<std::size_t>& missing) {
  VoteDeltaMessage delta;
  delta.voter = self_;
  delta.key = keys_->pub;
  delta.bound_checksum = make_digest(full).checksum;
  delta.votes.reserve(missing.size());
  for (const std::size_t pos : missing) {
    assert(pos < full.votes.size());
    delta.votes.push_back(full.votes[pos]);
  }
  delta.signature = crypto::sign(*keys_, delta.digest(), nonce_rng_);
  ++gossip_stats_.signatures;
  return delta;
}

ReceiveResult VoteAgent::receive_delta(const VoteDigestMessage& digest,
                                       const VoteDeltaMessage* delta,
                                       Time now) {
  if (digest.voter == self_) return ReceiveResult::kSelfMessage;
  if (!digest_intact(digest)) return ReceiveResult::kBadSignature;
  const std::vector<std::size_t> missing = scan_digest(digest);
  if (delta == nullptr) {
    if (!missing.empty()) return ReceiveResult::kBadSignature;
  } else {
    // Bind the delta to this digest and this identity, size it against the
    // scan, verify its one signature, then pin every carried entry to the
    // digest line it fills. Any mismatch rejects wholesale.
    if (delta->voter != digest.voter || !(delta->key == digest.key) ||
        delta->bound_checksum != digest.checksum ||
        delta->votes.size() != missing.size()) {
      return ReceiveResult::kBadSignature;
    }
    if (!crypto::verify(delta->key, delta->digest(), delta->signature)) {
      return ReceiveResult::kBadSignature;
    }
    for (std::size_t i = 0; i < missing.size(); ++i) {
      const DigestEntry& line = digest.entries[missing[i]];
      if (delta->votes[i].moderator != line.moderator ||
          entry_check(delta->votes[i]) != line.check) {
        return ReceiveResult::kBadSignature;
      }
    }
  }
  // Reconstruct the exact vector the sender selected, in digest order, and
  // absorb it through the common path — received-timestamp refreshes and
  // eviction order come out bit-identical to a full exchange.
  std::vector<VoteEntry> votes;
  votes.reserve(digest.entries.size());
  std::size_t cursor = 0;
  for (std::size_t i = 0; i < digest.entries.size(); ++i) {
    if (cursor < missing.size() && missing[cursor] == i) {
      votes.push_back(delta->votes[cursor]);
      ++cursor;
    } else {
      const auto held = covered_by(digest.voter, digest.entries[i]);
      if (!held) return ReceiveResult::kBadSignature;  // unreachable
      votes.push_back(*held);
    }
  }
  return absorb_votes(digest.voter, votes, now);
}

std::map<ModeratorId, Tally> VoteAgent::augmented_tally() const {
  std::map<ModeratorId, Tally> tally = box_.tally();
  if (known_moderators) {
    for (const ModeratorId m : known_moderators()) {
      tally.try_emplace(m, Tally{});
    }
  }
  return tally;
}

RankedList VoteAgent::answer_topk() {
  if (bootstrapping()) return {};  // "null" — never relay second-hand lists
  return rank_top_k(augmented_tally(), config_.method, config_.k);
}

void VoteAgent::receive_topk(RankedList list) {
  if (list.empty()) return;
  vox_.add_list(std::move(list));
}

RankedList VoteAgent::current_ranking() const {
  if (box_.unique_voters() >= config_.b_min) {
    return rank(augmented_tally(), config_.method);
  }
  return vox_.merged_ranking();
}

std::uint64_t VoteAgent::state_digest() const {
  std::uint64_t h = util::digest_fields(
      {self_, keys_->pub.y, votes_.version(), votes_.entries().size()});
  for (const VoteEntry& v : votes_.entries()) {
    h = util::hash_combine(
        h, util::digest_fields(
               {v.moderator,
                static_cast<std::uint64_t>(
                    static_cast<std::int64_t>(opinion_value(v.opinion))),
                static_cast<std::uint64_t>(v.cast_at)}));
  }
  h = util::hash_combine(h, box_.digest());
  h = util::hash_combine(h, observed_.digest());
  h = util::hash_combine(h, vox_.digest());
  h = util::hash_combine(h, counterparts_.digest());
  return h;
}

std::optional<ModeratorId> VoteAgent::top_moderator() const {
  const RankedList ranking = current_ranking();
  if (ranking.empty()) return std::nullopt;
  return ranking.front();
}

GossipLegOutcome gossip_send(VoteAgent& sender, VoteAgent& receiver, Time now,
                             util::PayloadFault fault, std::uint64_t salt) {
  GossipLegOutcome leg;
  const GossipStats before = sender.gossip_stats();
  VoteListMessage full = sender.outgoing_votes(now);
  leg.list_size = full.votes.size();
  if (!sender.opens_with_digest(full, receiver.self())) {
    damage_message(full, fault, salt);
    leg.bytes = wire_size(full);
    leg.result = receiver.receive_votes(full, now);
  } else {
    VoteDigestMessage digest = make_digest(full);
    // The fault verdict hits exactly one frame of the leg; the salt routes
    // it to the digest or to the delta, deterministically.
    const bool hit_digest =
        fault != util::PayloadFault::kNone && ((salt >> 6) & 1) == 0;
    if (hit_digest) damage_digest(digest, fault, salt);
    leg.bytes = wire_size(digest);
    if (!digest_intact(digest)) {
      // Receiver can't trust the frame — it requests a full retransmit.
      // The leg's verdict damages that frame too (one verdict poisons the
      // leg), so it still rejects, exactly like the legacy full path.
      leg.fallback_full = true;
      VoteListMessage retry = full;
      damage_message(retry, fault, salt);
      leg.bytes += wire_size(retry);
      leg.result = receiver.receive_votes(retry, now);
    } else {
      leg.delta = true;
      const std::vector<std::size_t> missing = receiver.scan_digest(digest);
      leg.bytes += kFrameHeaderBytes + missing.size() * kRequestBytes;
      if (fault != util::PayloadFault::kNone) {
        // Damage routed to the delta: ship one even when nothing is
        // missing, so the leg deterministically rejects with nothing
        // merged — the same outcome a damaged full message produces.
        VoteDeltaMessage delta = sender.build_delta(full, missing);
        damage_delta(delta, fault, salt);
        leg.bytes += wire_size(delta);
        leg.result = receiver.receive_delta(digest, &delta, now);
      } else if (missing.empty()) {
        // Steady state: the digest alone closes the leg — no payload, no
        // signing at all.
        leg.result = receiver.receive_delta(digest, nullptr, now);
      } else {
        VoteDeltaMessage delta = sender.build_delta(full, missing);
        leg.bytes += wire_size(delta);
        leg.result = receiver.receive_delta(digest, &delta, now);
      }
    }
  }
  sender.note_counterpart(receiver.self());
  const GossipStats& after = sender.gossip_stats();
  leg.cache_hit = after.cache_hits > before.cache_hits;
  leg.signatures =
      static_cast<std::uint32_t>(after.signatures - before.signatures);
  return leg;
}

}  // namespace tribvote::vote
