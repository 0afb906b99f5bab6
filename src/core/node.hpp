// One simulated Tribler peer: identity keys plus one agent per protocol,
// wired together exactly as the deployed client would wire them:
//
//   * the vote agent's experience function is BarterCast max-flow against
//     the node's (possibly adaptive) threshold;
//   * the moderation db consults the local vote list for approval gating;
//   * rankings include moderators known from the local_db;
//   * a negative user vote purges and blocks that moderator's metadata.
//
// Colluder nodes substitute the lying agent subclasses from src/attack for
// what they *send*; their acceptance logic stays honest-equivalent (it
// simply doesn't matter to the attack).
#pragma once

#include <memory>

#include "attack/colluder.hpp"
#include "attack/front_peer.hpp"
#include "core/config.hpp"
#include "crypto/schnorr.hpp"
#include "moderation/moderationcast.hpp"

namespace tribvote::core {

enum class NodeRole : std::uint8_t { kHonest, kColluder };

/// Which agent implementations a node runs — the bridge between the
/// adversary plane's per-strategy profiles and the Node constructor. An
/// all-default selection is a fully honest node.
struct AgentSelection {
  /// Install attack::ColluderVoteAgent driven by `plan`.
  bool spam_votes = false;
  /// Install attack::FrontPeerBarterAgent over `clique`.
  bool fake_experience = false;
  double fake_mb = 1000.0;
  attack::ColluderPlan plan;
  std::vector<PeerId> clique;
};

class Node {
 public:
  /// Agents are selected per node (the adversary plane derives the
  /// selection from the strategy profile); the default selection is a
  /// fully honest node.
  Node(PeerId id, NodeRole role, const ScenarioConfig& config, util::Rng rng,
       const AgentSelection& selection = {});

  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  [[nodiscard]] PeerId id() const noexcept { return id_; }
  [[nodiscard]] NodeRole role() const noexcept { return role_; }
  [[nodiscard]] const crypto::KeyPair& keys() const noexcept { return keys_; }

  /// E_id(j): does this node consider j experienced right now?
  [[nodiscard]] bool experienced(PeerId j) const;
  [[nodiscard]] double threshold_mb() const noexcept { return threshold_mb_; }

  /// Adaptive-threshold hook (no-op when the scenario uses fixed T):
  /// re-evaluates T from the current ballot-box vote dispersion (§VII).
  void update_adaptive_threshold();

  /// The local user votes on a moderator. A negative vote also purges and
  /// blocks the moderator's metadata (§IV).
  void user_vote(ModeratorId moderator, Opinion opinion, Time now);

  [[nodiscard]] vote::VoteAgent& vote() noexcept { return *vote_; }
  [[nodiscard]] const vote::VoteAgent& vote() const noexcept {
    return *vote_;
  }
  [[nodiscard]] moderation::ModerationCastAgent& mod() noexcept {
    return *moderation_;
  }
  [[nodiscard]] const moderation::ModerationCastAgent& mod() const noexcept {
    return *moderation_;
  }
  [[nodiscard]] bartercast::BarterAgent& barter() noexcept {
    return *barter_;
  }
  [[nodiscard]] const bartercast::BarterAgent& barter() const noexcept {
    return *barter_;
  }

 private:
  PeerId id_;
  NodeRole role_;
  crypto::KeyPair keys_;
  double threshold_mb_;
  bool adaptive_enabled_;
  bartercast::AdaptiveThreshold adaptive_;
  std::unique_ptr<bartercast::BarterAgent> barter_;
  std::unique_ptr<vote::VoteAgent> vote_;
  std::unique_ptr<moderation::ModerationCastAgent> moderation_;
};

}  // namespace tribvote::core
