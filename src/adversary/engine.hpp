// AdversaryEngine: the deterministic, shard-invariant attack driver.
//
// The engine owns the roster's strategy state machines and runs them at
// round hooks the scenario runner calls *serially* on the simulator
// thread — before the vote round's pairing phase and after the BT round's
// swarm ticks. Nothing the engine does runs inside a worker lane, so its
// output is trivially bit-identical at any shard count; every stochastic
// choice draws from an RNG stream that is a pure function of
// (plane seed, strategy, agent, round) via util::Rng::derive.
//
// The engine talks to the population through a small Host interface
// (std::function callbacks + the ledger sink) instead of core::Node, so
// src/adversary has no dependency on src/core (core depends on adversary
// for ScenarioConfig).
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "adversary/config.hpp"
#include "bt/ledger.hpp"
#include "util/opinion.hpp"
#include "util/rng.hpp"
#include "vote/agent.hpp"

namespace tribvote::adversary {

/// Per-agent behaviour switches derived from the roster; the runner reads
/// these when constructing each adversary Node (which agent subclasses to
/// install) and the engine when driving it.
struct AgentProfile {
  StrategyKind kind = StrategyKind::kColluder;
  std::size_t strategy = 0;  ///< roster index
  std::size_t index = 0;     ///< agent index within the strategy
  /// Install attack::ColluderVoteAgent (colluder + sybil agents lie about
  /// votes and always answer VoxPopuli).
  bool spam_votes = false;
  /// Install attack::FrontPeerBarterAgent over `clique` (front peers and
  /// fake_experience colluders).
  bool fake_experience = false;
  /// Region worker (sybil only): spends the region's outward credit.
  bool worker = false;
  /// First id of this agent's sybil region (== own id for the worker).
  PeerId region_head = kInvalidPeer;
};

/// Static id layout of the adversary population: agents occupy the dense
/// id block [first_id, first_id + total); strategies in roster order,
/// agents in index order. A pure function of (config, first_id).
class Layout {
 public:
  Layout() = default;
  Layout(const AdversaryConfig& config, PeerId first_id);

  [[nodiscard]] bool empty() const noexcept { return profiles_.empty(); }
  [[nodiscard]] PeerId first_id() const noexcept { return first_id_; }
  [[nodiscard]] PeerId end_id() const noexcept {
    return first_id_ + static_cast<PeerId>(profiles_.size());
  }
  [[nodiscard]] bool is_adversary(PeerId id) const noexcept {
    return id >= first_id_ && id < end_id();
  }
  /// Profile of an adversary id (id must satisfy is_adversary).
  [[nodiscard]] const AgentProfile& profile(PeerId id) const {
    return profiles_.at(id - first_id_);
  }
  /// Agent ids of one roster entry, ascending.
  [[nodiscard]] std::vector<PeerId> agents_of(std::size_t strategy) const;
  /// Spam moderator M0 of a vote-lying strategy (first agent of the first
  /// colluder or sybil roster entry); kInvalidModerator when none lies.
  [[nodiscard]] ModeratorId spam_moderator() const noexcept {
    return spam_moderator_;
  }
  /// All vote-lying agent ids (the front-peer clique used when a colluder
  /// strategy fakes experience is per-strategy; see clique_of).
  [[nodiscard]] std::vector<PeerId> clique_of(std::size_t strategy) const {
    return agents_of(strategy);
  }

 private:
  PeerId first_id_ = 0;
  std::vector<AgentProfile> profiles_;
  std::vector<PeerId> strategy_first_;  ///< first id per roster entry
  std::vector<std::size_t> strategy_agents_;
  ModeratorId spam_moderator_ = kInvalidModerator;
};

/// Serial work counters (monotone; sampled by benches, tests and the
/// telemetry mirror). All increments happen on the simulator thread, so
/// the totals are shard-invariant by construction.
struct AdversaryStats {
  std::uint64_t activations = 0;      ///< strategies brought live
  std::uint64_t presence_flips = 0;   ///< duty-cycle online/offline edges
  std::uint64_t floods_sent = 0;      ///< attrition messages delivered
  std::uint64_t flood_bytes = 0;      ///< wire bytes of flood traffic
  std::uint64_t flood_rejected = 0;   ///< floods the receiver did not merge
  std::uint64_t nuisance_flips = 0;   ///< nuisance vote churns cast
  std::uint64_t credit_transfers = 0;  ///< ledger credit transfers written
  double credit_mb = 0.0;             ///< genuine MB moved by the plane
};

class AdversaryEngine {
 public:
  /// Runner-provided population access. Every callback is invoked serially
  /// from the engine's round hooks.
  struct Host {
    /// The vote agent of any peer (adversary or honest).
    std::function<vote::VoteAgent&(PeerId)> vote_agent;
    /// Cast a user vote on `peer` (Node::user_vote: updates the vote list
    /// and purges on disapproval).
    std::function<void(PeerId peer, ModeratorId m, Opinion o, Time now)>
        cast_vote;
    /// Moderators `peer` knows from its local moderation db.
    std::function<std::vector<ModeratorId>(PeerId peer)> known_moderators;
    /// Publish a signed moderation authored by `peer`.
    std::function<void(PeerId peer, const std::string& description, Time now)>
        publish_moderation;
    [[nodiscard]] bool online(PeerId id) const { return is_online(id); }
    std::function<bool(PeerId)> is_online;
    /// Flip a peer's presence (runner routes through its online directory
    /// and PSS lifecycle hooks).
    std::function<void(PeerId, bool)> set_online;
    /// Online honest (non-adversary) ids, ascending.
    std::function<std::vector<PeerId>()> online_honest;
    /// Ground-truth transfer ledger (genuine credit lands here in bytes).
    bt::Ledger* ledger = nullptr;
  };

  /// `stream` is the dedicated adversary RNG (derive it from the scenario
  /// seed; deriving is a pure read, so an absent engine perturbs nothing).
  AdversaryEngine(AdversaryConfig config, Layout layout, util::Rng stream,
                  Host host);

  [[nodiscard]] const Layout& layout() const noexcept { return layout_; }
  [[nodiscard]] const AdversaryStats& stats() const noexcept { return stats_; }

  /// Serial hook, start of every vote round (before pairing): activation,
  /// duty-cycle presence, nuisance vote churn, attrition floods. Presence
  /// changes apply before the round pairs, so a dark agent is neither
  /// sampled nor initiates.
  void on_vote_round(Time now);

  /// Serial hook, end of every BT round (after swarm ticks, before the
  /// ledger flush): sybil region credit splitting and nuisance credit
  /// drip.
  void on_bt_round(Time now);

 private:
  struct StrategyState {
    bool active = false;
    std::uint64_t vote_rounds = 0;  ///< rounds since activation
    std::uint64_t bt_rounds = 0;
    std::vector<std::uint8_t> online;  ///< current presence per agent
  };

  /// Stream for one (strategy, agent, round) action triple.
  [[nodiscard]] util::Rng action_stream(std::uint64_t tag,
                                        std::size_t strategy,
                                        std::size_t agent,
                                        std::uint64_t round) const;
  void activate(std::size_t s, Time now);
  void update_presence(std::size_t s, Time now);
  void run_attrition(std::size_t s, Time now);
  void run_nuisance(std::size_t s, Time now);
  void drip_credit(std::size_t s, Time now);

  AdversaryConfig config_;
  Layout layout_;
  util::Rng stream_;
  Host host_;
  std::vector<StrategyState> states_;
  AdversaryStats stats_;
};

}  // namespace tribvote::adversary
