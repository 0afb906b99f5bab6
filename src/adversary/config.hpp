// Adversary-plane configuration (DESIGN.md "Adversary plane").
//
// A scenario's adversary is a *roster* of strategies; each strategy fields
// a block of agent identities appended after the trace population and is
// driven by the AdversaryEngine at round hooks. The paper's Fig. 8 flash
// crowd is a `colluder` entry. The roster is the unit of the
// TRIBVOTE_ADVERSARY / --adversary knob:
// "attrition:n=20,rate=4;sybil:n=16,region=4".
//
// An empty roster disables the plane entirely: the runner never constructs
// an engine, no extra identities exist, and no code path draws an extra
// random number — runs are byte-identical to a build without the plane.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "util/ids.hpp"
#include "util/time.hpp"

namespace tribvote::adversary {

/// The five strategy state machines the engine can drive.
enum class StrategyKind : std::uint8_t {
  /// Flash-crowd vote-spam colluder (paper §VI-C, ported from src/attack):
  /// promotes a spam moderator M0 in every vote list and answers VoxPopuli
  /// with fabricated top-K lists.
  kColluder = 0,
  /// Front-peer fake-experience clique (paper §VII, ported from
  /// src/attack): claims fake_mb fabricated transfers inside the clique;
  /// the vote agent stays honest.
  kFrontPeer,
  /// LOCKSS-style attrition: floods honest BallotBox/VoxPopuli capacity
  /// with well-formed but worthless signed vote lists, `rate` messages per
  /// agent per vote round. Receivers burn a signature verification per
  /// message and reject kInexperienced; the observed (dispersion) box is
  /// still poisoned — exactly the budget-drain LOCKSS rate limits against.
  kAttrition,
  /// Nuisance: intermittently honest peers that churn their genuine votes
  /// (flip probability per round), invalidating vote-history caches,
  /// burning re-sign budgets and poisoning VoxPopuli answers. They drip
  /// real upload credit so they pass E and their churn lands in ballot
  /// boxes.
  kNuisance,
  /// Sybil collusion regions: blocks of `region` identities. The region's
  /// worker uploads genuine credit to rotating honest peers; the other
  /// members upload to the worker — real ledger edges, so two-hop max-flow
  /// member -> worker -> honest clears E for every member while only the
  /// worker spends outward capacity. Every member free-rides the vote
  /// plane (ColluderVoteAgent promoting the region's M0).
  kSybil,
};
inline constexpr std::size_t kStrategyKindCount = 5;

[[nodiscard]] const char* to_string(StrategyKind kind);

/// One roster entry. Defaults are sized for paper-scale scenarios
/// (n_trace = 100); benches scale `agents` with the adversary fraction.
struct StrategySpec {
  StrategyKind kind = StrategyKind::kColluder;
  std::size_t agents = 0;  ///< identities this strategy fields (0 = inert)
  Time start = 0;          ///< activation time (engine round hooks before
                           ///< this see the agents offline)
  /// Fraction of time each agent is online after `start`; presence is a
  /// pure function of (seed, strategy, agent, session window), so it is
  /// shard-invariant by construction.
  double duty = 1.0;
  Duration session_mean = kHour;  ///< presence window length when duty < 1
  /// Attrition: flood messages per agent per vote round (the LOCKSS
  /// "rate limit" the defender assumes — keep it small).
  std::size_t rate = 4;
  /// Nuisance: per-round probability an agent flips one of its votes.
  double flip = 0.25;
  /// Sybil: identities per collusion region (>= 2; the first member of
  /// each region is its worker).
  std::size_t region = 4;
  /// Nuisance/Sybil: genuine upload credit in MB dripped per BT round
  /// (nuisance: agent -> rotating honest; sybil: members -> worker and
  /// worker -> rotating honest).
  double credit_mb = 2.0;
  /// Colluder: also run the front-peer barter lie inside the crowd.
  bool fake_experience = false;
  /// FrontPeer/Colluder: fabricated MB claimed per clique edge.
  double fake_mb = 1000.0;
  /// Colluder/Sybil: honest moderator demoted with negative votes
  /// (kInvalidModerator = none).
  ModeratorId victim = kInvalidModerator;
};

struct AdversaryConfig {
  std::vector<StrategySpec> roster;

  [[nodiscard]] std::size_t total_agents() const noexcept {
    std::size_t n = 0;
    for (const StrategySpec& s : roster) n += s.agents;
    return n;
  }
  [[nodiscard]] bool enabled() const noexcept { return total_agents() > 0; }
};

/// Parse an adversary spec into `out` (appending to its roster). Grammar:
///   spec     := strategy (';' strategy)*
///   strategy := kind [':' key '=' value (',' key '=' value)*]
///   kind     := colluder | front | attrition | nuisance | sybil
///   key      := n | start | duty | session | rate | flip | region |
///               credit | fake_exp | fake_mb | victim
/// Values are read by util::read_spec: n, start, session, rate, region and
/// victim are integers; duty is in (0, 1], flip in [0, 1]; fake_exp is 0/1.
/// Returns false, leaving `out` untouched, and fills *error (if given) on
/// an unknown kind/key or an invalid value. An empty spec parses to an
/// empty roster.
[[nodiscard]] bool parse_adversary_spec(const std::string& spec,
                                        AdversaryConfig& out,
                                        std::string* error = nullptr);

/// One-line human-readable form for banners ("off" when disabled).
[[nodiscard]] std::string describe(const AdversaryConfig& config);

}  // namespace tribvote::adversary
