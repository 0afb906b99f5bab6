#include "core/node.hpp"

namespace tribvote::core {

Node::Node(PeerId id, NodeRole role, const ScenarioConfig& config,
           util::Rng rng, const AgentSelection& selection)
    : id_(id),
      role_(role),
      threshold_mb_(config.adaptive_threshold
                        ? config.adaptive.t_min
                        : config.experience_threshold_mb),
      adaptive_enabled_(config.adaptive_threshold),
      adaptive_(config.adaptive) {
  util::Rng key_rng = rng.derive(0x6b657973);  // "keys"
  keys_ = crypto::generate_keypair(key_rng);

  // BarterCast agent (honest, or front-peer when the selection fakes
  // experience).
  if (selection.fake_experience) {
    barter_ = std::make_unique<attack::FrontPeerBarterAgent>(
        id, config.barter, selection.clique, selection.fake_mb);
  } else {
    barter_ = std::make_unique<bartercast::BarterAgent>(id, config.barter);
  }

  // Vote agent; its experience callback reads this node's current
  // (possibly adaptive) threshold.
  auto experience_cb = [this](PeerId j) { return experienced(j); };
  if (selection.spam_votes) {
    vote_ = std::make_unique<attack::ColluderVoteAgent>(
        id, keys_, config.vote, experience_cb, rng.derive(0x766f7465),
        selection.plan);
  } else {
    vote_ = std::make_unique<vote::VoteAgent>(
        id, keys_, config.vote, experience_cb, rng.derive(0x766f7465));
  }

  // ModerationCast agent; approval gating reads the local vote list.
  auto opinion_cb = [this](ModeratorId m) {
    return vote_->vote_list().opinion_of(m);
  };
  moderation_ = std::make_unique<moderation::ModerationCastAgent>(
      id, keys_, config.moderation, opinion_cb, rng.derive(0x6d6f6463));

  // Rankings may order moderators known from the local_db even when the
  // vote sample holds no votes on them yet.
  vote_->known_moderators = [this] {
    return moderation_->db().known_moderators();
  };
}

bool Node::experienced(PeerId j) const {
  return barter_->contribution_of(j) >= threshold_mb_;
}

void Node::update_adaptive_threshold() {
  if (!adaptive_enabled_) return;
  const double before = threshold_mb_;
  threshold_mb_ =
      adaptive_.observe_dispersion(vote_->observed_dispersion());
  if (threshold_mb_ > before) {
    // Shield from newcomers (§VII): votes absorbed under the old, laxer
    // threshold are re-checked against the raised one.
    (void)vote_->refilter_ballot();
  }
}

void Node::user_vote(ModeratorId moderator, Opinion opinion, Time now) {
  vote_->cast_vote(moderator, opinion, now);
  if (opinion == Opinion::kNegative) {
    moderation_->handle_disapproval(moderator);
  }
}

}  // namespace tribvote::core
