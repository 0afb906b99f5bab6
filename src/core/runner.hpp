// ScenarioRunner: replays one trace through the full protocol stack.
//
// Owns the discrete-event simulator, the population (trace peers plus any
// adversary-plane agents), the BitTorrent swarms, the PSS and every
// per-node protocol agent, and drives:
//
//   * trace events — session starts/ends, swarm creation, swarm joins;
//   * protocol loops — BT unchoke rounds, BallotBox/VoxPopuli exchanges,
//     ModerationCast exchanges, BarterCast exchanges, PSS gossip — each
//     through one round body that reads the fault plane's verdict table;
//   * the adversary plane's round hooks (attack arrival, churn, floods);
//   * scenario scripting — moderation publishing, vote-on-receipt
//     behaviours, pre-converged-core setup;
//   * metric sampling on a fixed grid.
//
// One runner per replica; runners share nothing, so replicas parallelize
// freely (core/experiment.hpp).
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "adversary/engine.hpp"
#include "bt/bandwidth.hpp"
#include "bt/ledger.hpp"
#include "bt/swarm.hpp"
#include "core/config.hpp"
#include "core/node.hpp"
#include "pss/factory.hpp"
#include "pss/online_directory.hpp"
#include "sim/shard_kernel.hpp"
#include "sim/simulator.hpp"
#include "telemetry/telemetry.hpp"
#include "trace/trace.hpp"
#include "util/thread_pool.hpp"

namespace tribvote::core {

/// Counters accumulated over a run (sanity checks and perf accounting).
struct RunStats {
  std::uint64_t downloads_completed = 0;
  std::uint64_t vote_exchanges = 0;
  std::uint64_t moderation_exchanges = 0;
  std::uint64_t barter_exchanges = 0;
  std::uint64_t votes_accepted = 0;
  std::uint64_t votes_rejected_inexperienced = 0;
  std::uint64_t vp_requests_answered = 0;
  std::uint64_t vp_requests_null = 0;
};

class ScenarioRunner {
 public:
  /// `trace` is copied; `config` is copied. `seed` drives every stochastic
  /// choice (per-node streams are derived), so (trace, config, seed) fully
  /// determines the run.
  ScenarioRunner(trace::Trace trace, ScenarioConfig config,
                 std::uint64_t seed);

  // Swarms, the adversary host and scheduled events hold this runner's
  // address and its ledger's.
  ScenarioRunner(const ScenarioRunner&) = delete;
  ScenarioRunner& operator=(const ScenarioRunner&) = delete;

  // ---- population layout ---------------------------------------------------

  /// Trace peers occupy ids [0, trace_peer_count()); adversary-plane
  /// agents (roster order, agent order) fill the tail up to
  /// population_size(). The spam moderator M0, if any, is
  /// adversary_layout().spam_moderator().
  [[nodiscard]] std::size_t trace_peer_count() const noexcept {
    return trace_.peers.size();
  }
  [[nodiscard]] std::size_t population_size() const noexcept {
    return nodes_.size();
  }

  [[nodiscard]] Node& node(PeerId id) { return *nodes_.at(id); }
  [[nodiscard]] const Node& node(PeerId id) const { return *nodes_.at(id); }

  // ---- scenario scripting (call before run_until) --------------------------

  /// Schedule `moderator` to publish a signed moderation at time `at`
  /// (skipped silently if it never happens to be possible — publishing
  /// requires nothing but the key, so it always happens).
  void publish_moderation(PeerId moderator, Time at, std::string description);

  /// When `voter` first receives any moderation authored by `moderator`,
  /// it casts `opinion` on the moderator (the Fig. 6 voting behaviour:
  /// "voting nodes do not vote until they receive the appropriate
  /// moderations").
  void script_vote_on_receipt(PeerId voter, ModeratorId moderator,
                              Opinion opinion);

  /// Immediate vote at setup time (t = 0), e.g. a pre-converged core.
  void cast_vote_now(PeerId voter, ModeratorId moderator, Opinion opinion);

  /// Pre-seed pairwise transfer history into the global ledger (experienced
  /// core bootstrap). Takes effect on the next BarterCast sync.
  void preseed_transfer(PeerId from, PeerId to, double mb);

  /// Pre-load `owner`'s ballot box with a vote from `voter`.
  void preload_ballot(PeerId owner, PeerId voter, ModeratorId moderator,
                      Opinion opinion);

  /// Register a sampling callback fired every `period` seconds starting at
  /// t = 0 (before any event at t = 0 fires, the baseline sample).
  void sample_every(Duration period, std::function<void(Time)> fn);

  // ---- execution ------------------------------------------------------------

  /// Advance simulated time. May be called repeatedly with increasing t.
  /// The first call lazily schedules all trace events and protocol loops.
  void run_until(Time t);

  [[nodiscard]] Time now() const noexcept { return sim_.now(); }
  [[nodiscard]] sim::Simulator& simulator() noexcept { return sim_; }

  /// Effective worker-shard count of the population event kernel (>= 1;
  /// clamped from ScenarioConfig::shards at construction).
  [[nodiscard]] std::size_t shard_count() const noexcept {
    return kernel_->shards();
  }
  [[nodiscard]] const sim::ShardKernelStats& kernel_stats() const noexcept {
    return kernel_->stats();
  }
  /// Degradation counters of the fault plane, per protocol (all zero when
  /// ScenarioConfig::faults is disabled).
  [[nodiscard]] const sim::FaultStats& fault_stats() const noexcept {
    return fault_plane_->stats();
  }

  /// Telemetry plane of this run, or nullptr when
  /// ScenarioConfig::telemetry is off (DESIGN.md §11). Counter/histogram
  /// totals are bit-identical at any shard count; span timing is
  /// wall-clock. The harness owns exporting (Chrome trace / per-round CSV)
  /// after the run.
  [[nodiscard]] telemetry::Telemetry* telemetry() noexcept {
    return telemetry_.get();
  }
  [[nodiscard]] const telemetry::Telemetry* telemetry() const noexcept {
    return telemetry_.get();
  }

  /// Adversary plane of this run, or nullptr when the roster is empty
  /// (an empty roster constructs no engine — the inert-when-off contract).
  [[nodiscard]] const adversary::AdversaryEngine* adversary() const noexcept {
    return adversary_.get();
  }
  /// Static id layout of the adversary population (empty when disabled).
  [[nodiscard]] const adversary::Layout& adversary_layout() const noexcept {
    return adv_layout_;
  }
  /// Serial work counters of the adversary plane (all-zero when disabled).
  [[nodiscard]] adversary::AdversaryStats adversary_stats() const {
    return adversary_ ? adversary_->stats() : adversary::AdversaryStats{};
  }
  /// Playback outcomes aggregated over every swarm (all-zero under the
  /// download workload).
  [[nodiscard]] bt::StreamingTotals streaming_totals() const;

  // ---- queries for metrics --------------------------------------------------

  [[nodiscard]] bool is_online(PeerId id) const {
    return online_.is_online(id);
  }
  [[nodiscard]] std::size_t online_count() const noexcept {
    return online_.online_count();
  }
  /// Has this identity appeared yet (trace arrival / roster entry start)?
  [[nodiscard]] bool has_arrived(PeerId id, Time t) const;
  /// Read-only view of the contribution ledger.
  [[nodiscard]] const bt::Ledger& ledger() const noexcept { return ledger_; }
  /// Node id's current moderator ranking (ballot box or VoxPopuli merge).
  [[nodiscard]] vote::RankedList ranking_of(PeerId id) const {
    return nodes_.at(id)->vote().current_ranking();
  }
  /// Pointers to every node's BarterCast agent, indexed by PeerId (for the
  /// CEV metric).
  [[nodiscard]] std::vector<const bartercast::BarterAgent*> barter_agents()
      const;
  /// CEV over the trace population (colluder identities excluded, as the
  /// paper's measurements are) at threshold T, via the batched
  /// contribution-column engine. Pass a pool to fan the per-sink columns
  /// out across threads; the result is bit-identical either way.
  [[nodiscard]] double collective_experience(
      double threshold_mb, util::ThreadPool* pool = nullptr) const;
  [[nodiscard]] const RunStats& stats() const noexcept { return stats_; }
  [[nodiscard]] const trace::Trace& trace() const noexcept { return trace_; }
  [[nodiscard]] const ScenarioConfig& config() const noexcept {
    return config_;
  }

 private:
  void build_population(std::uint64_t seed);
  void schedule_everything();
  void peer_online(PeerId id);
  void peer_offline(PeerId id);
  void swarm_created(const trace::SwarmSpec& spec);
  void swarm_join(const trace::SwarmJoin& join);
  void bt_round();
  void vote_round();
  void moderation_round();
  void barter_round();
  /// Serial post-round fault application: schedule the round's deferred
  /// deliveries, take crashed responders offline, spawn VoxPopuli retries.
  void flush_round_faults();
  /// Backoff retry of a failed VoxPopuli top-K request. `attempt` is
  /// 1-based; the chain stops at the configured budget or the moment the
  /// node leaves its bootstrap phase.
  void schedule_vp_retry(PeerId initiator, std::size_t attempt,
                         util::Rng rng);
  /// Fire metric sampler `index` at `t` and schedule its next firing.
  void fire_sampler(std::size_t index, Time t);
  /// Population-access callbacks handed to the adversary engine; every one
  /// is invoked serially from the engine's round hooks.
  [[nodiscard]] adversary::AdversaryEngine::Host make_adversary_host();
  [[nodiscard]] PeerId sample_peer(PeerId self);

  /// Serial pairing phase shared by every gossip round: shuffle the online
  /// set and draw one PSS counterpart per initiator, consuming the global
  /// RNG/PSS streams in the exact pre-shard order (shard-count invariance
  /// depends on it — see sim/shard_kernel.hpp).
  [[nodiscard]] std::vector<sim::Encounter> pair_round();
  /// Fold the per-lane counter deltas of the round just executed into
  /// stats_ (lane order; all fields are sums, so the fold is exact).
  void merge_lane_stats();

  /// Construct the telemetry plane and register every counter/histogram
  /// (no-op when ScenarioConfig::telemetry is off).
  void init_telemetry();
  /// Per-round telemetry barrier (end of each vote round): mirror the
  /// serial counters (RunStats, kernel stats, fault degradation) onto the
  /// registry, fold the lane blocks, snapshot a per-round CSV row.
  void telemetry_round_sample();
  /// Count a user vote being cast (lane-local; inert when telemetry off).
  void note_vote_cast(Opinion opinion) {
    (opinion == Opinion::kPositive ? probes_.votes_cast_positive
                                   : probes_.votes_cast_negative)
        .add();
  }
  /// Account one directed gossip leg (lane-local; inert when telemetry
  /// off): the sender's list size, build costs and every frame it put on
  /// the wire. A lost leg counts as neither a full nor a delta exchange.
  void note_gossip_leg(const vote::GossipLegOutcome& leg, bool lost = false) {
    probes_.vote_list_size.observe(static_cast<double>(leg.list_size));
    probes_.gossip_bytes.add(leg.bytes);
    if (!lost) (leg.delta ? probes_.gossip_delta : probes_.gossip_full).add();
    if (leg.fallback_full) probes_.gossip_fallbacks.add();
    if (leg.cache_hit) probes_.gossip_cache_hits.add();
    if (leg.signatures > 0) probes_.gossip_signatures.add(leg.signatures);
  }
  /// Count a moderation being published. The publisher holds its own item,
  /// so it counts as "reached" too (publish() fires no on_new_moderation —
  /// that callback is receive-side only).
  void note_moderation_published(PeerId moderator) {
    probes_.mod_published.add();
    if (moderator < mod_reached_.size() && mod_reached_[moderator] == 0) {
      mod_reached_[moderator] = 1;
      probes_.mod_nodes_reached.add();
    }
  }

  trace::Trace trace_;
  ScenarioConfig config_;
  util::Rng rng_;

  sim::Simulator sim_;
  // Population event kernel: worker pool + sharded round executor. The pool
  // exists only when shards > 1; lane_stats_ holds one counter block per
  // lane so exchange bodies never contend on stats_.
  std::unique_ptr<util::ThreadPool> shard_pool_;
  std::unique_ptr<sim::ShardKernel> kernel_;
  std::vector<RunStats> lane_stats_;
  // One reusable BarterCast batch per lane (barter_round).
  std::vector<std::vector<bartercast::BarterRecord>> barter_records_;
  // Network fault plane. Constructed unconditionally from a derived RNG
  // stream (deriving is a pure function of the parent seed); when disabled
  // it hands out all-clear verdicts that draw nothing, so the fault-free
  // RNG sequence and output stay byte-identical.
  std::unique_ptr<sim::FaultPlane> fault_plane_;
  bt::Ledger ledger_;
  std::unique_ptr<bt::BandwidthAllocator> bandwidth_;
  pss::OnlineDirectory online_;
  /// The PSS behind the shared abstract interface (pss::make_sampler);
  /// lifecycle hooks are virtual no-ops on the oracle, so every call site
  /// is implementation-agnostic.
  std::unique_ptr<pss::PeerSampler> sampler_;
  std::vector<std::unique_ptr<Node>> nodes_;
  // Adversary plane (inert unless the roster is non-empty: no engine is
  // constructed, the layout is empty, and no code path draws an extra
  // random number). Engine traffic deliberately bypasses the fault plane —
  // it models application-level attack behaviour, not the network.
  adversary::Layout adv_layout_;
  std::unique_ptr<adversary::AdversaryEngine> adversary_;
  std::map<SwarmId, std::unique_ptr<bt::Swarm>> swarms_;
  std::vector<std::unique_ptr<sim::PeriodicTask>> loops_;
  // Scripted votes: voter -> (moderator -> opinion), consumed on receipt.
  std::vector<std::map<ModeratorId, Opinion>> scripted_votes_;
  struct PendingModeration {
    PeerId moderator;
    Time at;
    std::string description;
  };
  std::vector<PendingModeration> pending_moderations_;
  struct Sampler {
    Duration period;
    std::function<void(Time)> fn;
  };
  std::vector<Sampler> samplers_;
  RunStats stats_;
  bool scheduled_ = false;

  // ---- telemetry plane (null/inert when ScenarioConfig::telemetry is off) --
  std::unique_ptr<telemetry::Telemetry> telemetry_;
  /// Lane-local event probes and histograms. Null handles when telemetry
  /// is off, so instrumentation sites call them unconditionally.
  struct Probes {
    telemetry::Counter votes_cast_positive;
    telemetry::Counter votes_cast_negative;
    telemetry::Counter mod_published;
    telemetry::Counter mod_deliveries;
    telemetry::Counter mod_nodes_reached;
    // Gossip-cache / delta-exchange accounting (lane-local sums, so the
    // fold is shard-invariant like every other probe).
    telemetry::Counter gossip_bytes;        ///< wire bytes, incl. lost frames
    telemetry::Counter gossip_full;         ///< legs completed as full lists
    telemetry::Counter gossip_delta;        ///< legs completed digest-first
    telemetry::Counter gossip_fallbacks;    ///< damaged digest → full retry
    telemetry::Counter gossip_cache_hits;   ///< messages served from cache
    telemetry::Counter gossip_signatures;   ///< Schnorr signing operations
    telemetry::Histogram vote_list_size;
    telemetry::Histogram vox_topk_size;
    telemetry::Histogram mod_batch_size;
    telemetry::Histogram barter_batch_size;
  };
  Probes probes_;
  /// Serial-mirror counter ids (set_total at the round barrier).
  struct Mirrors {
    telemetry::CounterId vote_exchanges, votes_accepted, votes_rejected;
    telemetry::CounterId vox_answered, vox_null;
    telemetry::CounterId mod_exchanges, barter_exchanges, bt_completed;
    telemetry::CounterId kernel_levels, kernel_local, kernel_mailed;
    // Adversary-plane mirrors (registered only when the roster is
    // non-empty, so an adversary-free telemetry CSV keeps its columns).
    telemetry::CounterId adv_floods, adv_flood_rejected, adv_nuisance_flips;
    telemetry::CounterId adv_credit_transfers, adv_presence_flips;
  };
  Mirrors mirrors_{};
  std::vector<telemetry::CounterId> fault_counter_ids_;
  bt::SwarmProbes swarm_probes_;  ///< shared by every swarm
  /// Per-node flag: has any moderation reached this node yet? Guards the
  /// exactly-once "mod.nodes_reached" count; a node's encounters are
  /// serialized by the kernel, so the flag needs no synchronization.
  std::vector<std::uint8_t> mod_reached_;
  std::uint64_t telemetry_round_ = 0;
};

}  // namespace tribvote::core
