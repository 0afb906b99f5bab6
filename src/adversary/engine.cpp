#include "adversary/engine.hpp"

#include <cassert>

#include "util/hash.hpp"
#include "vote/gossip.hpp"

namespace tribvote::adversary {

namespace {
// Action-stream tags: the first field of every derive key, so the streams
// of different action types never collide even for the same
// (strategy, agent, round) triple.
constexpr std::uint64_t kPresenceTag = 0x70726573;  // "pres"
constexpr std::uint64_t kFloodTag = 0x666c6f64;     // "flod"
constexpr std::uint64_t kFlipTag = 0x666c6970;      // "flip"
constexpr std::uint64_t kCreditTag = 0x63726564;    // "cred"

[[nodiscard]] bool lies_votes(StrategyKind kind) {
  return kind == StrategyKind::kColluder || kind == StrategyKind::kSybil;
}
}  // namespace

// ---- layout -----------------------------------------------------------------

Layout::Layout(const AdversaryConfig& config, PeerId first_id)
    : first_id_(first_id) {
  PeerId next = first_id;
  for (std::size_t s = 0; s < config.roster.size(); ++s) {
    const StrategySpec& spec = config.roster[s];
    strategy_first_.push_back(next);
    strategy_agents_.push_back(spec.agents);
    if (spec.agents > 0 && lies_votes(spec.kind) &&
        spam_moderator_ == kInvalidModerator) {
      spam_moderator_ = next;  // M0: first agent of the first lying strategy
    }
    const std::size_t region =
        spec.kind == StrategyKind::kSybil ? std::max<std::size_t>(2, spec.region)
                                          : 1;
    for (std::size_t i = 0; i < spec.agents; ++i) {
      AgentProfile p;
      p.kind = spec.kind;
      p.strategy = s;
      p.index = i;
      p.spam_votes = lies_votes(spec.kind);
      p.fake_experience =
          spec.kind == StrategyKind::kFrontPeer ||
          (spec.kind == StrategyKind::kColluder && spec.fake_experience);
      if (spec.kind == StrategyKind::kSybil) {
        p.worker = (i % region) == 0;
        p.region_head = next - static_cast<PeerId>(i % region);
      }
      profiles_.push_back(p);
      ++next;
    }
  }
}

std::vector<PeerId> Layout::agents_of(std::size_t strategy) const {
  std::vector<PeerId> ids;
  if (strategy >= strategy_first_.size()) return ids;
  ids.reserve(strategy_agents_[strategy]);
  for (std::size_t i = 0; i < strategy_agents_[strategy]; ++i) {
    ids.push_back(strategy_first_[strategy] + static_cast<PeerId>(i));
  }
  return ids;
}

// ---- engine -----------------------------------------------------------------

AdversaryEngine::AdversaryEngine(AdversaryConfig config, Layout layout,
                                 util::Rng stream, Host host)
    : config_(std::move(config)),
      layout_(std::move(layout)),
      stream_(stream),
      host_(std::move(host)) {
  states_.resize(config_.roster.size());
  for (std::size_t s = 0; s < config_.roster.size(); ++s) {
    states_[s].online.assign(config_.roster[s].agents, 0);
  }
}

util::Rng AdversaryEngine::action_stream(std::uint64_t tag,
                                         std::size_t strategy,
                                         std::size_t agent,
                                         std::uint64_t round) const {
  // Pure function of (plane seed, tag, strategy, agent, round): the same
  // quadruple yields the same stream whatever the shard count — the
  // shard-invariance argument for the whole plane rests on this line plus
  // the fact that every hook runs serially on the simulator thread.
  return stream_.derive(util::digest_fields(
      {tag, static_cast<std::uint64_t>(strategy),
       static_cast<std::uint64_t>(agent), round}));
}

void AdversaryEngine::activate(std::size_t s, Time now) {
  const StrategySpec& spec = config_.roster[s];
  StrategyState& st = states_[s];
  st.active = true;
  ++stats_.activations;
  if (spec.agents == 0) return;
  const std::vector<PeerId> ids = layout_.agents_of(s);
  const ModeratorId m0 = layout_.spam_moderator();
  if (lies_votes(spec.kind)) {
    // The strategy owning M0 publishes the spam moderation; every lying
    // agent "approves" it so local_dbs forward the metadata (the Fig. 8
    // launch sequence, per strategy).
    if (ids.front() == m0) {
      host_.publish_moderation(m0, "FREE MOVIE (adversary spam)", now);
    }
    for (const PeerId id : ids) {
      host_.cast_vote(id, m0, Opinion::kPositive, now);
      if (spec.victim != kInvalidModerator) {
        host_.cast_vote(id, spec.victim, Opinion::kNegative, now);
      }
    }
  } else if (spec.kind == StrategyKind::kAttrition) {
    // Seed each flooder with one worthless-but-well-formed vote (its own
    // id as moderator) so its signed vote lists are never empty.
    for (const PeerId id : ids) {
      host_.cast_vote(id, static_cast<ModeratorId>(id), Opinion::kPositive,
                      now);
    }
  }
}

void AdversaryEngine::update_presence(std::size_t s, Time now) {
  const StrategySpec& spec = config_.roster[s];
  StrategyState& st = states_[s];
  const std::vector<PeerId> ids = layout_.agents_of(s);
  for (std::size_t i = 0; i < ids.size(); ++i) {
    bool want = true;
    if (spec.duty < 1.0) {
      // Presence is a pure function of the session window index — agents
      // churn with the configured duty cycle without consuming any shared
      // RNG stream.
      const auto window = static_cast<std::uint64_t>(now - spec.start) /
                          static_cast<std::uint64_t>(spec.session_mean);
      want = action_stream(kPresenceTag, s, i, window).next_bool(spec.duty);
    }
    if (want != static_cast<bool>(st.online[i])) {
      st.online[i] = want ? 1 : 0;
      ++stats_.presence_flips;
      host_.set_online(ids[i], want);
    }
  }
}

void AdversaryEngine::run_attrition(std::size_t s, Time now) {
  const StrategySpec& spec = config_.roster[s];
  StrategyState& st = states_[s];
  const std::vector<PeerId> honest = host_.online_honest();
  if (honest.empty()) return;
  const std::vector<PeerId> ids = layout_.agents_of(s);
  for (std::size_t i = 0; i < ids.size(); ++i) {
    if (!st.online[i]) continue;
    util::Rng r = action_stream(kFloodTag, s, i, st.vote_rounds);
    vote::VoteAgent& sender = host_.vote_agent(ids[i]);
    // LOCKSS-style per-round rate limit: exactly `rate` well-formed
    // messages. Each costs the receiver one signature verification and a
    // merge into its observed (dispersion) box before the experience
    // function rejects it — budget drain, not forgery.
    for (std::size_t k = 0; k < spec.rate; ++k) {
      const PeerId target = honest[r.next_below(honest.size())];
      const vote::VoteListMessage msg = sender.outgoing_votes(now);
      stats_.flood_bytes += vote::wire_size(msg);
      ++stats_.floods_sent;
      const vote::ReceiveResult res =
          host_.vote_agent(target).receive_votes(msg, now);
      if (res != vote::ReceiveResult::kAccepted) ++stats_.flood_rejected;
    }
  }
}

void AdversaryEngine::run_nuisance(std::size_t s, Time now) {
  const StrategySpec& spec = config_.roster[s];
  StrategyState& st = states_[s];
  const std::vector<PeerId> ids = layout_.agents_of(s);
  for (std::size_t i = 0; i < ids.size(); ++i) {
    if (!st.online[i]) continue;
    util::Rng r = action_stream(kFlipTag, s, i, st.vote_rounds);
    if (!r.next_bool(spec.flip)) continue;
    const std::vector<ModeratorId> mods = host_.known_moderators(ids[i]);
    if (mods.empty()) continue;
    const ModeratorId m = mods[r.next_below(mods.size())];
    // Churn: vote the opposite of the current opinion. Every flip bumps
    // the vote-list version (cache invalidation + a re-sign on the next
    // gossip build) and a negative flip additionally purges the
    // moderator's metadata — re-fetch traffic on top of vote churn.
    const Opinion cur = host_.vote_agent(ids[i]).vote_list().opinion_of(m);
    const Opinion next =
        cur == Opinion::kPositive ? Opinion::kNegative : Opinion::kPositive;
    host_.cast_vote(ids[i], m, next, now);
    ++stats_.nuisance_flips;
  }
}

void AdversaryEngine::drip_credit(std::size_t s, Time now) {
  (void)now;
  const StrategySpec& spec = config_.roster[s];
  StrategyState& st = states_[s];
  if (spec.credit_mb <= 0.0) return;
  const double bytes = spec.credit_mb * 1024.0 * 1024.0;
  const std::vector<PeerId> honest = host_.online_honest();
  const std::vector<PeerId> ids = layout_.agents_of(s);
  for (std::size_t i = 0; i < ids.size(); ++i) {
    if (!st.online[i]) continue;
    const PeerId id = ids[i];
    if (spec.kind == StrategyKind::kSybil) {
      const AgentProfile& p = layout_.profile(id);
      if (p.worker) {
        // The worker spends the region's outward capacity on genuine
        // uploads to rotating honest peers.
        if (honest.empty()) continue;
        util::Rng r = action_stream(kCreditTag, s, i, st.bt_rounds);
        host_.ledger->add_transfer(id, honest[r.next_below(honest.size())],
                                   bytes);
      } else {
        // Members upload to their worker: real ledger edges at zero
        // external cost, so two-hop max-flow member -> worker -> honest
        // clears E for every member.
        host_.ledger->add_transfer(id, p.region_head, bytes);
      }
    } else {  // nuisance: genuine credit to rotating honest peers
      if (honest.empty()) continue;
      util::Rng r = action_stream(kCreditTag, s, i, st.bt_rounds);
      host_.ledger->add_transfer(id, honest[r.next_below(honest.size())],
                                 bytes);
    }
    ++stats_.credit_transfers;
    stats_.credit_mb += spec.credit_mb;
  }
}

void AdversaryEngine::on_vote_round(Time now) {
  for (std::size_t s = 0; s < config_.roster.size(); ++s) {
    const StrategySpec& spec = config_.roster[s];
    if (spec.agents == 0) continue;
    StrategyState& st = states_[s];
    if (!st.active) {
      if (now < spec.start) continue;
      activate(s, now);
    }
    update_presence(s, now);
    switch (spec.kind) {
      case StrategyKind::kAttrition:
        run_attrition(s, now);
        break;
      case StrategyKind::kNuisance:
        run_nuisance(s, now);
        break;
      case StrategyKind::kColluder:
      case StrategyKind::kFrontPeer:
      case StrategyKind::kSybil:
        break;  // encounter-level behaviour lives in the agent subclasses
    }
    ++st.vote_rounds;
  }
}

void AdversaryEngine::on_bt_round(Time now) {
  for (std::size_t s = 0; s < config_.roster.size(); ++s) {
    const StrategySpec& spec = config_.roster[s];
    if (spec.agents == 0) continue;
    StrategyState& st = states_[s];
    if (!st.active) continue;  // activation happens on the vote-round hook
    if (spec.kind == StrategyKind::kSybil ||
        spec.kind == StrategyKind::kNuisance) {
      drip_credit(s, now);
    }
    ++st.bt_rounds;
  }
}

}  // namespace tribvote::adversary
