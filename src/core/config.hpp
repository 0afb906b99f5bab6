// Scenario configuration: every knob a simulation run exposes, with
// defaults matching the paper's parameter choices (DESIGN.md §5).
#pragma once

#include <cstddef>
#include <cstdint>

#include "adversary/config.hpp"
#include "bartercast/experience.hpp"
#include "bartercast/protocol.hpp"
#include "bt/streaming.hpp"
#include "moderation/moderationcast.hpp"
#include "pss/newscast.hpp"
#include "sim/fault_plane.hpp"
#include "telemetry/config.hpp"
#include "util/ids.hpp"
#include "util/time.hpp"
#include "vote/agent.hpp"

namespace tribvote::core {

/// How often each protocol loop fires.
struct ProtocolPeriods {
  Duration bt_round = 10;              ///< BitTorrent rechoke round (spec)
  Duration vote_exchange = 60;         ///< BallotBox/VoxPopuli Δ
  Duration moderation_exchange = 60;   ///< ModerationCast Δ
  Duration barter_exchange = 120;      ///< BarterCast encounters
  Duration newscast_gossip = 60;       ///< PSS view exchange (if Newscast)
  Duration adaptive_update = 600;      ///< adaptive-threshold re-evaluation
};

enum class PssKind : std::uint8_t {
  kOracle,    ///< uniform random over the online set (paper's assumption)
  kNewscast,  ///< gossip view-exchange PSS
};

struct ScenarioConfig {
  vote::VoteConfig vote;                    // B_min=5, B_max=100, V_max=10, K=3
  moderation::ModerationCastConfig moderation;
  bartercast::BarterConfig barter;

  /// Fixed experience threshold T in MB (paper: 5 MB via Fig. 5).
  double experience_threshold_mb = 5.0;
  /// Use the §VII adaptive threshold instead of the fixed T.
  bool adaptive_threshold = false;
  bartercast::AdaptiveThresholdParams adaptive;

  /// Worker shards for the population event kernel (sim/shard_kernel.hpp).
  /// Nodes map to shards by id; protocol rounds fan encounters out across
  /// one worker lane per shard. Results are bit-identical for every value
  /// (1 = serial execution on the calling thread, today's behaviour).
  std::size_t shards = 1;

  /// Deterministic network fault plane (sim/fault_plane.hpp). Defaults to
  /// no faults — the perfect-transport setting every golden CSV was
  /// recorded under; with faults disabled every verdict is all-clear and
  /// runs are byte-identical to pre-fault-plane builds.
  sim::FaultConfig faults;

  /// Telemetry plane (src/telemetry/, DESIGN.md §11). Off by default — the
  /// goldens' setting; the runner then never constructs a registry or
  /// trace buffer and every probe is an inert null handle. Counter and
  /// histogram totals are bit-identical at any shard count; span timing
  /// (mode = trace) is wall-clock and therefore not.
  telemetry::TelemetryConfig telemetry;

  ProtocolPeriods periods;
  PssKind pss = PssKind::kOracle;
  pss::NewscastConfig newscast;

  /// Adversary plane (src/adversary/, DESIGN.md "Adversary plane") — the
  /// one attack configuration: the Fig. 8 flash crowd is a `colluder`
  /// roster entry. An empty roster (the default) is fully inert: no
  /// engine, no extra identities, runs byte-identical to pre-adversary
  /// builds. Adversary ids follow the trace peers'.
  adversary::AdversaryConfig adversary;

  /// Streaming-swarm workload (bt/streaming.hpp). Off by default — the
  /// download workload every golden was recorded on.
  bt::StreamingConfig streaming;
};

}  // namespace tribvote::core
