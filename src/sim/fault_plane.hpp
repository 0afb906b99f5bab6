// Deterministic network fault plane (DESIGN.md "Fault model").
//
// Sits between the serial pairing phase and the sharded exchange execution
// of every gossip protocol round. For each encounter the plane pre-draws a
// complete fault verdict — message loss, bounded delivery delay, a
// mid-encounter responder crash, payload truncation/corruption — from an
// RNG stream that is a pure function of (scenario seed, protocol, round,
// encounter seq). The draw happens *serially*, before any worker lane runs,
// so:
//
//   * the verdict table is immutable while lanes execute (no RNG and no
//     shared mutable state inside exchange bodies — the PR 2 shard-count
//     invariance argument extends to faulty runs unchanged);
//   * crash propagation within a round (a peer that crashed at seq k is
//     unreachable for every later encounter touching it) is computed in
//     one deterministic pass.
//
// Lanes report execution-dependent outcomes (receiver-side rejections,
// VoxPopuli timeouts, deferred deliveries) into per-lane buffers; after the
// round's barriers the runner calls finish_round(), which merges the
// buffers in encounter-seq order and returns everything that must be
// applied serially: delayed deliveries to schedule on the event queue,
// crashed peers to take offline, and failed VoxPopuli requests to retry
// with exponential backoff.
//
// With every probability at zero the plane is inert: enabled() is false,
// draw_round hands out an all-clear table (every verdict default, no RNG
// drawn, no counter moved) and finish_round returns an empty outcome, so
// each protocol's one encounter body (vote::vote_encounter,
// moderation::exchange, the runner's barter and Newscast bodies) executes
// exactly the fault-free encounter — runs are byte-identical to a build
// without the plane. The verdict type is util::EncounterFaults
// (util/transit.hpp), so the protocol libraries take it without sim/.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "sim/shard_kernel.hpp"
#include "util/chaos.hpp"
#include "util/ids.hpp"
#include "util/rng.hpp"
#include "util/time.hpp"
#include "util/transit.hpp"

namespace tribvote::sim {

/// Transport-fault knobs (ScenarioConfig::faults / TRIBVOTE_FAULTS). The
/// shared chaos model (util/chaos.hpp) is drawn per encounter: `loss` per
/// leg, `delay_rate` per non-lost reply, `corrupt_rate` per payload, the
/// GE chain once per encounter in seq order, and partition rounds are
/// protocol rounds, so protocols sharing a gossip period go dark together.
struct FaultConfig : util::ChaosModel {
  /// Delay bound in simulated seconds; a delayed reply lands uniformly in
  /// [1, max_delay] ticks via the event queue.
  Duration max_delay = 30;
  /// Probability the responder goes offline between request and reply
  /// (it processes the request, the reply is lost, and the peer leaves
  /// the online set through the regular peer_offline path).
  double crash_rate = 0.0;
  /// VoxPopuli hardening: retry budget per failed top-K request and the
  /// base backoff (attempt n fires after vp_retry_base * 2^(n-1) s).
  std::size_t vp_retry_budget = 4;
  Duration vp_retry_base = 15;

  [[nodiscard]] bool enabled() const noexcept {
    return ChaosModel::enabled() || crash_rate > 0.0;
  }
};

/// Parse a spec such as "loss=0.3,delay=0.1,max_delay=120,crash=0.01,
/// retries=4" over `out` with util::parse_chaos_spec: the shared keys plus
/// crash, max_delay, retries, retry_base and the delay_rate, crash_rate and
/// corrupt_rate aliases.
[[nodiscard]] bool parse_fault_spec(const std::string& spec, FaultConfig& out,
                                    std::string* error = nullptr);

/// One-line human-readable form for banners ("off" when disabled).
[[nodiscard]] std::string describe(const FaultConfig& config);

/// Degradation counters, tracked per protocol (CSV columns of
/// bench/abl_fault_sweep and assertions in the fault tests).
struct FaultCounters {
  std::uint64_t encounters_hit = 0;    ///< encounters with >= 1 fault drawn
  std::uint64_t dropped_requests = 0;  ///< request legs lost in flight
  std::uint64_t dropped_replies = 0;   ///< reply legs lost in flight
  std::uint64_t delayed = 0;           ///< replies routed via the queue
  std::uint64_t late_drops = 0;  ///< delayed replies to a peer gone offline
  std::uint64_t crashes = 0;     ///< mid-encounter responder crashes
  std::uint64_t unreachable = 0;  ///< encounters voided by an earlier crash
  std::uint64_t corrupted = 0;    ///< payloads truncated/corrupted in flight
  std::uint64_t rejected = 0;     ///< damaged items rejected by the receiver
  std::uint64_t one_sided = 0;    ///< exchanges completing half-duplex
  std::uint64_t timeouts = 0;     ///< requests that got no answer in time
  std::uint64_t retries = 0;      ///< retry attempts issued (VoxPopuli)
  std::uint64_t retry_successes = 0;  ///< retries that produced an answer
  std::uint64_t reoffers = 0;  ///< moderation items queued for re-offer
  std::uint64_t partitioned = 0;  ///< encounters voided by a partition window
  std::uint64_t ge_bad_encounters = 0;  ///< encounters drawn in the GE bad state

  FaultCounters& operator+=(const FaultCounters& o) noexcept;
};

/// Protocols the plane arbitrates; each keeps its own round counter so the
/// per-encounter streams never collide across protocols.
enum class Protocol : std::uint8_t {
  kVote = 0,
  kVoxPopuli,
  kModeration,
  kBarter,
  kNewscast,
};
inline constexpr std::size_t kProtocolCount = 5;

struct FaultStats {
  FaultCounters vote;
  FaultCounters vox;
  FaultCounters moderation;
  FaultCounters barter;
  FaultCounters newscast;

  [[nodiscard]] FaultCounters& of(Protocol p) noexcept;
  [[nodiscard]] const FaultCounters& of(Protocol p) const noexcept;
  /// Sum over every protocol (headline degradation numbers).
  [[nodiscard]] FaultCounters total() const noexcept;
  FaultStats& operator+=(const FaultStats& o) noexcept;
};

/// A reply held in flight: the runner schedules `deliver` on the simulator
/// `delay` ticks after the round.
struct DeferredDelivery {
  std::uint32_t seq = 0;
  Duration delay = 0;
  std::function<void()> deliver;
};

/// A failed VoxPopuli top-K request; the runner schedules a backoff retry
/// driven by `retry_rng` (a pure function of (seed, round, seq), so the
/// retry chain is as deterministic as the encounter that spawned it).
struct VpFailure {
  std::uint32_t seq = 0;
  PeerId initiator = kInvalidPeer;
  util::Rng retry_rng;
};

/// Everything a round leaves behind for serial post-round application, in
/// encounter-seq order.
struct RoundOutcome {
  std::vector<DeferredDelivery> deferred;
  std::vector<PeerId> crashed;
  std::vector<VpFailure> vp_failures;
};

class FaultPlane {
 public:
  /// `stream` is the dedicated fault RNG (derive it from the scenario
  /// seed); `lanes` matches the shard kernel's lane count.
  FaultPlane(FaultConfig config, util::Rng stream, std::size_t lanes);

  [[nodiscard]] bool enabled() const noexcept { return config_.enabled(); }
  [[nodiscard]] const FaultConfig& config() const noexcept { return config_; }

  /// Serial (pairing phase): draw the fault table for this round, indexed
  /// by encounter seq. Advances the protocol's round counter. A disabled
  /// plane returns an all-clear table and advances nothing. The returned
  /// reference is valid until the next draw_round call; the table is
  /// read-only while lanes execute.
  const std::vector<util::EncounterFaults>& draw_round(
      Protocol proto, const std::vector<Encounter>& encounters);

  // ---- lane-safe recorders (callable from exchange bodies) -----------------

  /// This lane's counter block (merged into stats() by finish_round).
  [[nodiscard]] FaultStats& lane_stats(std::size_t lane) noexcept {
    return lane_stats_[lane];
  }
  /// Hold a reply in flight; delivered (in seq order) after the round.
  void defer(std::size_t lane, std::uint32_t seq, Duration delay,
             std::function<void()> deliver);
  /// Record a VoxPopuli top-K request that got no answer.
  void record_vp_failure(std::size_t lane, std::uint32_t seq,
                         PeerId initiator);

  // ---- serial post-round ---------------------------------------------------

  /// Merge lane buffers/counters and hand back the round's deferred
  /// deliveries, crashes and VP failures, each sorted by encounter seq
  /// (ties keep lane insertion order, which is per-encounter order — the
  /// whole outcome is therefore shard-count invariant).
  [[nodiscard]] RoundOutcome finish_round();

  /// Counter block for code running serially on the simulator thread
  /// (deferred deliveries, retry events, the Newscast loop).
  [[nodiscard]] FaultStats& serial_stats() noexcept { return stats_; }
  [[nodiscard]] const FaultStats& stats() const noexcept { return stats_; }

  /// Whether `node` is dark in protocol round `round`: the shared
  /// partition schedule rooted at this plane's stream (protocol-free).
  [[nodiscard]] bool partitioned(std::uint64_t round, PeerId node) const;

 private:
  [[nodiscard]] util::Rng encounter_stream(Protocol proto,
                                           std::uint64_t round,
                                           std::uint32_t seq) const;

  FaultConfig config_;
  util::Rng stream_;
  std::uint64_t round_counter_[kProtocolCount] = {};
  /// Gilbert–Elliott chain state, one chain per protocol; advanced
  /// serially in seq order inside draw_round (so shard-invariant).
  bool ge_bad_[kProtocolCount] = {};
  // Round currently being executed (set by draw_round, read by
  // finish_round to key retry streams).
  Protocol current_proto_ = Protocol::kVote;
  std::uint64_t current_round_ = 0;

  std::vector<util::EncounterFaults> table_;
  std::vector<PeerId> crashed_round_;  ///< crash order == seq order
  std::vector<PeerId> crashed_set_;    ///< sorted ids crashed this round

  std::vector<FaultStats> lane_stats_;
  std::vector<std::vector<DeferredDelivery>> lane_deferred_;
  std::vector<std::vector<VpFailure>> lane_vp_failures_;
  FaultStats stats_;
};

}  // namespace tribvote::sim
