#include "core/runner.hpp"

#include <algorithm>
#include <cassert>

#include "metrics/cev.hpp"
#include "metrics/degradation.hpp"
#include "moderation/moderationcast.hpp"
#include "vote/encounter.hpp"

namespace tribvote::core {

namespace {
/// Colluder identities are cheap cloud VMs: connectable, decent downlink,
/// negligible uplink (they contribute nothing).
constexpr double kColluderUploadKbps = 1.0;
constexpr double kColluderDownloadKbps = 1024.0;

/// Fold a delivered leg's receive verdict into the run counters: kAccepted
/// counts as accepted, and kInexperienced is the only other verdict a
/// non-empty undamaged message produces (pairing never bounces a message
/// back to its signer, and every agent — colluders included — signs with
/// its own key). A damaged leg's rejection counts in `fault`.
void note_vote_receive(RunStats& st, sim::FaultCounters& fault,
                       vote::ReceiveResult r, util::PayloadFault damage) {
  if (r == vote::ReceiveResult::kAccepted) {
    ++st.votes_accepted;
  } else if (r == vote::ReceiveResult::kInexperienced) {
    ++st.votes_rejected_inexperienced;
  } else if (r == vote::ReceiveResult::kBadSignature &&
             damage != util::PayloadFault::kNone) {
    ++fault.rejected;
  }
}

/// In-flight damage to a BarterCast batch; returns how many records the
/// receiver is guaranteed to reject. A corrupted record no longer parses
/// as adjacent to its sender, which is exactly the record-wise check
/// BarterAgent::receive applies; truncation just loses the tail.
std::size_t corrupt_barter_batch(std::vector<bartercast::BarterRecord>& records,
                                 util::PayloadFault fault,
                                 std::uint64_t salt) {
  if (records.empty()) return 0;
  switch (fault) {
    case util::PayloadFault::kNone:
      return 0;
    case util::PayloadFault::kTruncated:
      records.resize((records.size() + 1) / 2);
      return 0;
    case util::PayloadFault::kCorrupted: {
      bartercast::BarterRecord& r = records[salt % records.size()];
      r.from = kInvalidPeer;
      r.to = kInvalidPeer;
      return 1;
    }
  }
  return 0;
}
}  // namespace

ScenarioRunner::ScenarioRunner(trace::Trace trace, ScenarioConfig config,
                               std::uint64_t seed)
    : trace_(std::move(trace)),
      config_(config),
      rng_(seed),
      ledger_(trace_.peers.size() + config.adversary.total_agents()),
      online_(trace_.peers.size() + config.adversary.total_agents()),
      scripted_votes_(trace_.peers.size() + config.adversary.total_agents()) {
  build_population(seed);
  const std::size_t shards = std::max<std::size_t>(1, config_.shards);
  if (shards > 1) shard_pool_ = std::make_unique<util::ThreadPool>(shards);
  kernel_ = std::make_unique<sim::ShardKernel>(nodes_.size(), shards,
                                               shard_pool_.get());
  lane_stats_.assign(shards, RunStats{});
  barter_records_.resize(shards);
  // "fault". Deriving is a pure read of rng_'s state, so a disabled plane
  // perturbs nothing.
  fault_plane_ = std::make_unique<sim::FaultPlane>(
      config_.faults, rng_.derive(0x6661756c74), shards);
  // "advs". Constructed only for a non-empty roster; deriving is a pure
  // read of rng_'s state, so a disabled plane perturbs nothing.
  if (config_.adversary.enabled()) {
    adversary_ = std::make_unique<adversary::AdversaryEngine>(
        config_.adversary, adv_layout_, rng_.derive(0x61647673),
        make_adversary_host());
  }
  init_telemetry();
}

void ScenarioRunner::init_telemetry() {
  if (!config_.telemetry.enabled()) return;
  telemetry_ =
      std::make_unique<telemetry::Telemetry>(config_.telemetry,
                                             kernel_->shards());
  kernel_->set_telemetry(telemetry_.get());
  telemetry::Registry& reg = telemetry_->registry();

  // Serial mirrors of RunStats / kernel stats. Registration order is the
  // per-round CSV column order. The kernel.* counters describe the
  // *schedule* (levels, cross-shard encounters) and are the only columns
  // that legitimately vary with the shard count.
  mirrors_.vote_exchanges = reg.counter("vote.exchanges");
  mirrors_.votes_accepted = reg.counter("vote.accepted");
  mirrors_.votes_rejected = reg.counter("vote.rejected_inexperienced");
  mirrors_.vox_answered = reg.counter("vox.answered");
  mirrors_.vox_null = reg.counter("vox.null");
  mirrors_.mod_exchanges = reg.counter("mod.exchanges");
  mirrors_.barter_exchanges = reg.counter("barter.exchanges");
  mirrors_.bt_completed = reg.counter("bt.downloads_completed");
  mirrors_.kernel_levels = reg.counter("kernel.levels");
  mirrors_.kernel_local = reg.counter("kernel.local");
  mirrors_.kernel_mailed = reg.counter("kernel.mailed");

  // Lane-local event counters (written from exchange bodies and scripted
  // callbacks; folded at the barrier in lane order).
  probes_.votes_cast_positive =
      telemetry::Counter(&reg, reg.counter("vote.cast_positive"));
  probes_.votes_cast_negative =
      telemetry::Counter(&reg, reg.counter("vote.cast_negative"));
  probes_.mod_published =
      telemetry::Counter(&reg, reg.counter("mod.published"));
  probes_.mod_deliveries =
      telemetry::Counter(&reg, reg.counter("mod.deliveries"));
  probes_.mod_nodes_reached =
      telemetry::Counter(&reg, reg.counter("mod.nodes_reached"));
  // Gossip cache / delta exchange accounting. Lane-local sums over
  // per-encounter values that depend only on per-node state the kernel
  // serializes, so the folded totals are shard-invariant.
  probes_.gossip_bytes =
      telemetry::Counter(&reg, reg.counter("gossip.bytes_sent"));
  probes_.gossip_full =
      telemetry::Counter(&reg, reg.counter("gossip.full_exchanges"));
  probes_.gossip_delta =
      telemetry::Counter(&reg, reg.counter("gossip.delta_exchanges"));
  probes_.gossip_fallbacks =
      telemetry::Counter(&reg, reg.counter("gossip.digest_fallbacks"));
  probes_.gossip_cache_hits =
      telemetry::Counter(&reg, reg.counter("gossip.cache_hits"));
  probes_.gossip_signatures =
      telemetry::Counter(&reg, reg.counter("gossip.signatures"));

  // BT swarm probes (serial: bt_round ticks swarms on the simulator
  // thread) and the PSS view-exchange probe.
  swarm_probes_.ticks = telemetry::Counter(&reg, reg.counter("bt.ticks"));
  swarm_probes_.pieces_completed =
      telemetry::Counter(&reg, reg.counter("bt.pieces_completed"));
  swarm_probes_.active_members = telemetry::Histogram(
      &reg, reg.histogram("bt.active_members", {1, 2, 5, 10, 20, 50, 100}));
  if (config_.streaming.enabled) {
    // Deadline accounting only exists under the streaming workload, so an
    // adversary-free download run keeps its historical CSV columns.
    swarm_probes_.pieces_on_time =
        telemetry::Counter(&reg, reg.counter("bt.pieces_on_time"));
    swarm_probes_.deadline_misses =
        telemetry::Counter(&reg, reg.counter("bt.deadline_misses"));
  }
  if (adversary_) {
    mirrors_.adv_floods = reg.counter("adv.floods_sent");
    mirrors_.adv_flood_rejected = reg.counter("adv.flood_rejected");
    mirrors_.adv_nuisance_flips = reg.counter("adv.nuisance_flips");
    mirrors_.adv_credit_transfers = reg.counter("adv.credit_transfers");
    mirrors_.adv_presence_flips = reg.counter("adv.presence_flips");
  }
  if (config_.pss == PssKind::kNewscast) {
    sampler_->set_exchange_probe(
        telemetry::Counter(&reg, reg.counter("pss.exchanges")));
  }

  // Message-size histograms (observed inside exchange bodies, pre-damage).
  probes_.vote_list_size = telemetry::Histogram(
      &reg, reg.histogram("vote.list_size", {0, 1, 2, 5, 10, 20, 50}));
  probes_.vox_topk_size = telemetry::Histogram(
      &reg, reg.histogram("vox.topk_size", {0, 1, 2, 3, 5}));
  probes_.mod_batch_size = telemetry::Histogram(
      &reg, reg.histogram("mod.batch_size", {0, 1, 2, 5, 10, 25}));
  probes_.barter_batch_size = telemetry::Histogram(
      &reg, reg.histogram("barter.batch_size", {0, 1, 2, 5, 10, 20, 50}));

  // Fault-plane degradation port: the abl_fault_sweep columns, prefixed
  // "fault.", mirrored from FaultStats each round.
  fault_counter_ids_ = metrics::register_degradation(reg);

  mod_reached_.assign(nodes_.size(), 0);
}

void ScenarioRunner::telemetry_round_sample() {
  if (!telemetry_) return;
  telemetry::Registry& reg = telemetry_->registry();
  reg.set_total(mirrors_.vote_exchanges, stats_.vote_exchanges);
  reg.set_total(mirrors_.votes_accepted, stats_.votes_accepted);
  reg.set_total(mirrors_.votes_rejected,
                stats_.votes_rejected_inexperienced);
  reg.set_total(mirrors_.vox_answered, stats_.vp_requests_answered);
  reg.set_total(mirrors_.vox_null, stats_.vp_requests_null);
  reg.set_total(mirrors_.mod_exchanges, stats_.moderation_exchanges);
  reg.set_total(mirrors_.barter_exchanges, stats_.barter_exchanges);
  reg.set_total(mirrors_.bt_completed, stats_.downloads_completed);
  const sim::ShardKernelStats& ks = kernel_->stats();
  reg.set_total(mirrors_.kernel_levels, ks.levels);
  reg.set_total(mirrors_.kernel_local, ks.local);
  reg.set_total(mirrors_.kernel_mailed, ks.mailed);
  if (adversary_) {
    const adversary::AdversaryStats& as = adversary_->stats();
    reg.set_total(mirrors_.adv_floods, as.floods_sent);
    reg.set_total(mirrors_.adv_flood_rejected, as.flood_rejected);
    reg.set_total(mirrors_.adv_nuisance_flips, as.nuisance_flips);
    reg.set_total(mirrors_.adv_credit_transfers, as.credit_transfers);
    reg.set_total(mirrors_.adv_presence_flips, as.presence_flips);
  }
  metrics::update_degradation(reg, fault_counter_ids_, fault_plane_->stats());
  reg.merge_lanes();
  telemetry_->sample_round(telemetry_round_++,
                           static_cast<double>(sim_.now()) / kHour);
}

void ScenarioRunner::build_population(std::uint64_t seed) {
  const std::size_t n_trace = trace_.peers.size();
  const std::size_t n_total = n_trace + config_.adversary.total_agents();

  // Adversary agents occupy the dense id block after the trace peers.
  adv_layout_ =
      adversary::Layout(config_.adversary, static_cast<PeerId>(n_trace));

  // Physical capacities for the bandwidth allocator.
  std::vector<double> up(n_total, kColluderUploadKbps);
  std::vector<double> down(n_total, kColluderDownloadKbps);
  for (const auto& p : trace_.peers) {
    up[p.id] = p.upload_kbps;
    down[p.id] = p.download_kbps;
  }
  bandwidth_ = std::make_unique<bt::BandwidthAllocator>(std::move(up),
                                                        std::move(down));

  util::Rng node_rng = rng_.derive(0x6e6f6465);  // "node"
  nodes_.reserve(n_total);
  for (PeerId id = 0; id < n_total; ++id) {
    if (adv_layout_.is_adversary(id)) {
      // Adversary agents select their agent subclasses from the strategy
      // profile; honest-behaving strategies (attrition, nuisance) take
      // exactly the honest construction path.
      const adversary::AgentProfile& p = adv_layout_.profile(id);
      const adversary::StrategySpec& spec =
          config_.adversary.roster[p.strategy];
      AgentSelection sel;
      sel.spam_votes = p.spam_votes;
      sel.fake_experience = p.fake_experience;
      sel.fake_mb = spec.fake_mb;
      if (p.spam_votes) {
        sel.plan.spam_moderator = adv_layout_.spam_moderator();
        sel.plan.victim_moderator = spec.victim;
        if (spec.victim != kInvalidModerator) {
          sel.plan.decoys.push_back(spec.victim);
        }
      }
      if (sel.fake_experience) sel.clique = adv_layout_.clique_of(p.strategy);
      nodes_.push_back(std::make_unique<Node>(id, NodeRole::kColluder,
                                              config_, node_rng.derive(id),
                                              sel));
    } else {
      nodes_.push_back(std::make_unique<Node>(id, NodeRole::kHonest, config_,
                                              node_rng.derive(id)));
    }
    // Wire scripted vote-on-receipt behaviour for every node up front; the
    // scripts themselves are registered later via script_vote_on_receipt.
    Node* node = nodes_.back().get();
    node->mod().on_new_moderation =
        [this, node](const moderation::Moderation& m) {
          // Telemetry: every insert is a delivery; the first ever insert
          // marks the node reached. The flag is per node and a node's
          // encounters are kernel-serialized, so the exactly-once count
          // is shard-count invariant. mod_reached_ is empty (size 0) when
          // telemetry is off.
          probes_.mod_deliveries.add();
          if (node->id() < mod_reached_.size() &&
              mod_reached_[node->id()] == 0) {
            mod_reached_[node->id()] = 1;
            probes_.mod_nodes_reached.add();
          }
          auto& script = scripted_votes_[node->id()];
          const auto it = script.find(m.moderator);
          if (it == script.end()) return;
          node->user_vote(m.moderator, it->second, sim_.now());
          note_vote_cast(it->second);
          script.erase(it);
        };
  }

  // PSS, factory-selected behind the shared PeerSampler interface. Each
  // kind keeps its historical derive key (derive() is a pure function of
  // the parent seed), so routing both through the factory leaves every RNG
  // stream — and therefore every golden — untouched.
  sampler_ = config_.pss == PssKind::kNewscast
                 ? pss::make_sampler(pss::SamplerKind::kNewscast, n_total,
                                     online_, config_.newscast,
                                     rng_.derive(0x6e657773))
                 : pss::make_sampler(pss::SamplerKind::kOracle, n_total,
                                     online_, config_.newscast,
                                     rng_.derive(0x707373));
  (void)seed;
}

PeerId ScenarioRunner::sample_peer(PeerId self) {
  return sampler_->sample(self);
}

adversary::AdversaryEngine::Host ScenarioRunner::make_adversary_host() {
  // Every callback runs serially on the simulator thread (the engine's
  // hooks fire outside kernel rounds), so none of them needs locking. The
  // only global stream any of them touches is via rng_.derive — a pure
  // read, so honest-run RNG sequences stay untouched.
  adversary::AdversaryEngine::Host host;
  host.vote_agent = [this](PeerId id) -> vote::VoteAgent& {
    return nodes_[id]->vote();
  };
  host.cast_vote = [this](PeerId peer, ModeratorId m, Opinion o, Time now) {
    nodes_[peer]->user_vote(m, o, now);
    note_vote_cast(o);
  };
  host.known_moderators = [this](PeerId peer) {
    return nodes_[peer]->mod().db().known_moderators();
  };
  host.publish_moderation = [this](PeerId peer,
                                   const std::string& description, Time now) {
    util::Rng ih = rng_.derive(0x696e666f ^ peer);  // "info", as scripted
    nodes_[peer]->mod().publish(ih(), description, now);
    note_moderation_published(peer);
  };
  host.is_online = [this](PeerId id) { return online_.is_online(id); };
  host.set_online = [this](PeerId id, bool on) {
    // Route through the regular session paths so the PSS lifecycle hooks
    // and swarm (re)activation fire exactly as for trace churn.
    if (on) {
      peer_online(id);
    } else {
      peer_offline(id);
    }
  };
  host.online_honest = [this] {
    std::vector<PeerId> honest = online_.online_ids();
    std::sort(honest.begin(), honest.end());
    std::erase_if(honest,
                  [n = trace_.peers.size()](PeerId id) { return id >= n; });
    return honest;
  };
  host.ledger = &ledger_;
  return host;
}

// ---- scripting --------------------------------------------------------------

void ScenarioRunner::publish_moderation(PeerId moderator, Time at,
                                        std::string description) {
  pending_moderations_.push_back(
      PendingModeration{moderator, at, std::move(description)});
}

void ScenarioRunner::script_vote_on_receipt(PeerId voter,
                                            ModeratorId moderator,
                                            Opinion opinion) {
  assert(voter < scripted_votes_.size());
  scripted_votes_[voter][moderator] = opinion;
}

void ScenarioRunner::cast_vote_now(PeerId voter, ModeratorId moderator,
                                   Opinion opinion) {
  nodes_.at(voter)->user_vote(moderator, opinion, sim_.now());
  note_vote_cast(opinion);
  // A vote consumes any matching script entry.
  scripted_votes_[voter].erase(moderator);
}

void ScenarioRunner::preseed_transfer(PeerId from, PeerId to, double mb) {
  ledger_.add_transfer(from, to, mb * 1024.0 * 1024.0);
}

void ScenarioRunner::preload_ballot(PeerId owner, PeerId voter,
                                    ModeratorId moderator, Opinion opinion) {
  nodes_.at(owner)->vote().preload_sample(
      voter, {vote::VoteEntry{moderator, opinion, sim_.now()}}, sim_.now());
}

void ScenarioRunner::sample_every(Duration period,
                                  std::function<void(Time)> fn) {
  assert(period > 0);
  samplers_.push_back(Sampler{period, std::move(fn)});
}

// ---- trace + protocol scheduling ---------------------------------------------

void ScenarioRunner::schedule_everything() {
  assert(!scheduled_);
  scheduled_ = true;

  // Trace events.
  for (const auto& session : trace_.sessions) {
    sim_.schedule_at(session.start,
                     [this, p = session.peer] { peer_online(p); });
    sim_.schedule_at(session.end,
                     [this, p = session.peer] { peer_offline(p); });
  }
  for (const auto& spec : trace_.swarms) {
    sim_.schedule_at(spec.created, [this, spec] { swarm_created(spec); });
  }
  for (const auto& join : trace_.joins) {
    sim_.schedule_at(join.at, [this, join] { swarm_join(join); });
  }

  // Scripted moderation publishing.
  for (const auto& pm : pending_moderations_) {
    sim_.schedule_at(pm.at, [this, pm] {
      Node& moderator = *nodes_.at(pm.moderator);
      util::Rng ih = rng_.derive(0x696e666f ^ pm.moderator);
      moderator.mod().publish(ih(), pm.description, sim_.now());
      note_moderation_published(pm.moderator);
    });
  }
  pending_moderations_.clear();

  // Protocol loops. Phases are staggered so loops do not all fire on the
  // same tick.
  auto add_loop = [this](Duration period, Duration phase,
                         std::function<void()> fn) {
    loops_.push_back(
        std::make_unique<sim::PeriodicTask>(sim_, period, std::move(fn)));
    loops_.back()->start(phase);
  };
  const auto& pp = config_.periods;
  add_loop(pp.bt_round, pp.bt_round, [this] { bt_round(); });
  add_loop(pp.vote_exchange, pp.vote_exchange, [this] { vote_round(); });
  add_loop(pp.moderation_exchange, pp.moderation_exchange / 2 + 1,
           [this] { moderation_round(); });
  add_loop(pp.barter_exchange, pp.barter_exchange / 3 + 1,
           [this] { barter_round(); });
  if (config_.pss == PssKind::kNewscast) {
    // A zero loss draws nothing, so the fault-free PSS stream is untouched.
    add_loop(pp.newscast_gossip, 1, [this] {
      telemetry::Span span(telemetry_.get(), "pss.gossip");
      sampler_->gossip_round(
          sim_.now(), config_.faults.loss,
          &fault_plane_->serial_stats().newscast.dropped_requests);
    });
  }
  if (config_.adaptive_threshold) {
    add_loop(pp.adaptive_update, pp.adaptive_update, [this] {
      // Node-local and order-independent: each node reads its own observed
      // dispersion and re-derives its own threshold, so the update shards
      // with no cross-shard encounters.
      kernel_->for_each_node(
          [this](PeerId id, std::size_t) {
            nodes_[id]->update_adaptive_threshold();
          });
    });
  }

  // Metric samplers: fire at t = 0, period, 2·period, ...
  for (std::size_t i = 0; i < samplers_.size(); ++i) {
    sim_.schedule_at(0, [this, i] { fire_sampler(i, 0); });
  }
}

void ScenarioRunner::fire_sampler(std::size_t index, Time t) {
  // The callback stays owned by samplers_: a pending event carries only
  // (index, t), so nothing it holds can keep the callback alive. The next
  // firing is scheduled after the callback returns, which fixes the event
  // insertion order the goldens were recorded under.
  const Time next = t + samplers_[index].period;
  samplers_[index].fn(t);
  sim_.schedule_at(next, [this, index, next] { fire_sampler(index, next); });
}

void ScenarioRunner::run_until(Time t) {
  if (!scheduled_) schedule_everything();
  sim_.run_until(t);
}

bool ScenarioRunner::has_arrived(PeerId id, Time t) const {
  if (id < trace_.peers.size()) return trace_.peers[id].arrival <= t;
  return adv_layout_.is_adversary(id) &&
         config_.adversary.roster[adv_layout_.profile(id).strategy].start <=
             t;
}

bt::StreamingTotals ScenarioRunner::streaming_totals() const {
  bt::StreamingTotals totals;
  for (const auto& [sid, swarm] : swarms_) totals += swarm->streaming_totals();
  return totals;
}

std::vector<const bartercast::BarterAgent*> ScenarioRunner::barter_agents()
    const {
  std::vector<const bartercast::BarterAgent*> agents;
  agents.reserve(nodes_.size());
  for (const auto& node : nodes_) agents.push_back(&node->barter());
  return agents;
}

double ScenarioRunner::collective_experience(double threshold_mb,
                                             util::ThreadPool* pool) const {
  const std::vector<const bartercast::BarterAgent*> agents = barter_agents();
  const std::span<const bartercast::BarterAgent* const> trace_span(
      agents.data(), trace_peer_count());
  if (pool != nullptr) {
    return metrics::collective_experience_value(trace_span, threshold_mb,
                                                *pool);
  }
  return metrics::collective_experience_value(trace_span, threshold_mb);
}

// ---- event handlers -----------------------------------------------------------

void ScenarioRunner::peer_online(PeerId id) {
  if (online_.is_online(id)) return;
  online_.set_online(id, true);
  sampler_->on_peer_online(id, sim_.now());
  for (auto& [sid, swarm] : swarms_) {
    if (swarm->is_member(id) && !swarm->is_active(id)) {
      swarm->reactivate(id);
    }
  }
}

void ScenarioRunner::peer_offline(PeerId id) {
  if (!online_.is_online(id)) return;
  online_.set_online(id, false);
  sampler_->on_peer_offline(id);
  for (auto& [sid, swarm] : swarms_) {
    if (swarm->is_active(id)) swarm->deactivate(id);
  }
}

void ScenarioRunner::swarm_created(const trace::SwarmSpec& spec) {
  auto swarm = std::make_unique<bt::Swarm>(
      spec, std::span<const trace::PeerProfile>(trace_.peers), ledger_,
      *bandwidth_, rng_.derive(0x7377 ^ spec.id), config_.streaming);
  swarm->probes = swarm_probes_;
  swarm->on_complete = [this, sid = spec.id](PeerId peer) {
    ++stats_.downloads_completed;
    if (trace_.peers[peer].behavior == trace::Behavior::kFreeRider) {
      // Free-riders leave the swarm the moment their download finishes.
      // Deferred: we are inside Swarm::tick.
      sim_.schedule_in(0, [this, sid, peer] { swarms_.at(sid)->leave(peer); });
    }
  };
  swarm->add_member(spec.initial_seeder, /*as_seed=*/true);
  if (!online_.is_online(spec.initial_seeder)) {
    swarm->deactivate(spec.initial_seeder);
  }
  swarms_.emplace(spec.id, std::move(swarm));
}

void ScenarioRunner::swarm_join(const trace::SwarmJoin& join) {
  if (!online_.is_online(join.peer)) return;  // session ended prematurely
  const auto it = swarms_.find(join.swarm);
  if (it == swarms_.end()) return;  // swarm not created yet (defensive)
  if (it->second->is_member(join.peer)) return;
  it->second->add_member(join.peer, /*as_seed=*/false);
}

// ---- protocol rounds ------------------------------------------------------------

void ScenarioRunner::bt_round() {
  // Swarm ticks write the shared ledger and bandwidth allocator, so the BT
  // loop stays serial.
  telemetry::Span span(telemetry_.get(), "bt.round");
  const double dt = static_cast<double>(config_.periods.bt_round);
  for (auto& [sid, swarm] : swarms_) swarm->tick(dt);
  // Adversary credit drips land here, so the gossip rounds that follow see
  // the plane's ledger writes alongside the swarms'.
  if (adversary_) adversary_->on_bt_round(sim_.now());
}

std::vector<sim::Encounter> ScenarioRunner::pair_round() {
  // Every online node initiates one exchange with a PSS-sampled peer.
  // Iteration order is shuffled each round for fairness. Pairing runs
  // serially whatever the shard count: it is the only part of a gossip
  // round that draws from the global RNG and the PSS.
  telemetry::Span span(telemetry_.get(), "pair");
  std::vector<PeerId> order = online_.online_ids();
  std::sort(order.begin(), order.end());
  rng_.shuffle(order);
  std::vector<sim::Encounter> encounters;
  encounters.reserve(order.size());
  for (const PeerId i : order) {
    if (!online_.is_online(i)) continue;
    const PeerId j = sample_peer(i);
    if (j == kInvalidPeer) continue;
    encounters.push_back(
        {static_cast<std::uint32_t>(encounters.size()), i, j});
  }
  return encounters;
}

void ScenarioRunner::merge_lane_stats() {
  for (RunStats& lane : lane_stats_) {
    stats_.vote_exchanges += lane.vote_exchanges;
    stats_.moderation_exchanges += lane.moderation_exchanges;
    stats_.barter_exchanges += lane.barter_exchanges;
    stats_.votes_accepted += lane.votes_accepted;
    stats_.votes_rejected_inexperienced += lane.votes_rejected_inexperienced;
    stats_.vp_requests_answered += lane.vp_requests_answered;
    stats_.vp_requests_null += lane.vp_requests_null;
    lane = RunStats{};
  }
}

void ScenarioRunner::vote_round() {
  // One BallotBox (+ conditional VoxPopuli) exchange per pair (Fig. 3
  // active thread), fanned out across the shard kernel. Each encounter is
  // vote::vote_encounter under its fault verdict; the body touches only
  // the two endpoint nodes, its lane's counter block and the fault plane's
  // lane-local buffers, and keeps the simulator's part: unreachable
  // encounters, deferred deliveries, VoxPopuli retries and the counters.
  const Time now = sim_.now();
  telemetry::Span span(telemetry_.get(), "vote.round");
  // Adversary hook before pairing: presence flips apply before the round
  // pairs (a dark agent is neither sampled nor initiates) and floods are
  // serial, so the round stays shard-invariant.
  if (adversary_) adversary_->on_vote_round(now);
  const std::vector<sim::Encounter> encounters = pair_round();
  const std::vector<util::EncounterFaults>& faults =
      fault_plane_->draw_round(sim::Protocol::kVote, encounters);
  kernel_->run_round(
      encounters,
      [this, now, &faults](const sim::Encounter& e, std::size_t lane) {
        const util::EncounterFaults& f = faults[e.seq];
        if (f.unreachable) return;  // endpoint crashed earlier this round
        RunStats& st = lane_stats_[lane];
        sim::FaultStats& fs = fault_plane_->lane_stats(lane);
        vote::VoteEncounterOutcome o =
            vote::vote_encounter(nodes_[e.initiator]->vote(),
                                 nodes_[e.responder]->vote(), now, f);
        note_gossip_leg(o.forward, f.drop_request);
        if (o.vox_requested && (f.drop_request || f.reply_lost())) {
          // The VP request timed out with the dial or the reply; the retry
          // chain takes over after the round.
          ++fs.vox.timeouts;
          fault_plane_->record_vp_failure(lane, e.seq, e.initiator);
        }
        if (f.drop_request) return;
        note_vote_receive(st, fs.vote, o.forward.result, f.request_payload);
        if (!f.reply_lost()) {
          note_gossip_leg(o.reverse);
          if (!o.held) {
            note_vote_receive(st, fs.vote, o.reverse.result, f.reply_payload);
          }
          if (o.vox_topk > 0) {
            ++st.vp_requests_answered;
            probes_.vox_topk_size.observe(static_cast<double>(o.vox_topk));
          } else if (o.vox_requested) {
            ++st.vp_requests_null;
          }
        }
        if (o.held) {
          fault_plane_->defer(
              lane, e.seq, f.delay_reply,
              [this, votes = std::move(o.held->votes), i = e.initiator,
               damage = f.reply_payload] {
                sim::FaultStats& serial = fault_plane_->serial_stats();
                if (!online_.is_online(i)) {
                  ++serial.vote.late_drops;
                  return;
                }
                note_vote_receive(
                    stats_, serial.vote,
                    nodes_[i]->vote().receive_votes(votes, sim_.now()),
                    damage);
              });
          if (!o.held->topk.empty()) {
            fault_plane_->defer(
                lane, e.seq, f.delay_reply,
                [this, topk = std::move(o.held->topk),
                 i = e.initiator]() mutable {
                  if (!online_.is_online(i)) {
                    ++fault_plane_->serial_stats().vox.late_drops;
                    return;
                  }
                  nodes_[i]->vote().receive_topk(std::move(topk));
                });
          }
        }
        ++st.vote_exchanges;
      });
  merge_lane_stats();
  flush_round_faults();
  telemetry_round_sample();
}

void ScenarioRunner::moderation_round() {
  // One ModerationCast push/pull per pair: moderation::exchange under the
  // encounter's fault verdict, with a held reply delivered after the round.
  const Time now = sim_.now();
  telemetry::Span span(telemetry_.get(), "moderation.round");
  const std::vector<sim::Encounter> encounters = pair_round();
  const std::vector<util::EncounterFaults>& faults =
      fault_plane_->draw_round(sim::Protocol::kModeration, encounters);
  kernel_->run_round(
      encounters,
      [this, now, &faults](const sim::Encounter& e, std::size_t lane) {
        const util::EncounterFaults& f = faults[e.seq];
        if (f.unreachable) return;
        sim::FaultStats& fs = fault_plane_->lane_stats(lane);
        moderation::ExchangeStats x = moderation::exchange(
            nodes_[e.initiator]->mod(), nodes_[e.responder]->mod(), now, f);
        probes_.mod_batch_size.observe(static_cast<double>(x.sent_initiator));
        fs.moderation.reoffers += x.reoffered;
        if (f.drop_request) return;
        probes_.mod_batch_size.observe(static_cast<double>(x.sent_responder));
        fs.moderation.rejected += x.rejected;
        if (x.held_reply) {
          fault_plane_->defer(
              lane, e.seq, f.delay_reply,
              [this, items = std::move(*x.held_reply), i = e.initiator] {
                sim::FaultStats& serial = fault_plane_->serial_stats();
                if (!online_.is_online(i)) {
                  ++serial.moderation.late_drops;
                  return;
                }
                serial.moderation.rejected +=
                    nodes_[i]->mod().receive(items, sim_.now()).bad_signature;
              });
        }
        ++lane_stats_[lane].moderation_exchanges;
      });
  merge_lane_stats();
  flush_round_faults();
}

void ScenarioRunner::barter_round() {
  // The ledger is read-only during a barter round (transfers land in
  // bt_round), so concurrent direct-view reads are safe.
  const Time now = sim_.now();
  telemetry::Span span(telemetry_.get(), "barter.round");
  const std::vector<sim::Encounter> encounters = pair_round();
  const std::vector<util::EncounterFaults>& faults =
      fault_plane_->draw_round(sim::Protocol::kBarter, encounters);
  kernel_->run_round(
      encounters,
      [this, now, &faults](const sim::Encounter& e, std::size_t lane) {
        const util::EncounterFaults& f = faults[e.seq];
        if (f.unreachable) return;
        sim::FaultStats& fs = fault_plane_->lane_stats(lane);
        bartercast::BarterAgent& bi = nodes_[e.initiator]->barter();
        bartercast::BarterAgent& bj = nodes_[e.responder]->barter();
        bi.sync_direct(ledger_, now);
        if (f.drop_request) return;  // records are unsolicited; no re-offer
        bj.sync_direct(ledger_, now);

        // One buffer per lane carries both legs: the initiator's batch is
        // merged before the responder's is written over it.
        std::vector<bartercast::BarterRecord>& recs = barter_records_[lane];
        bi.outgoing_records(ledger_, now, recs);
        probes_.barter_batch_size.observe(static_cast<double>(recs.size()));
        fs.barter.rejected +=
            corrupt_barter_batch(recs, f.request_payload, f.payload_salt);
        bj.receive(e.initiator, recs);

        if (!f.reply_lost()) {
          bj.outgoing_records(ledger_, now, recs);
          probes_.barter_batch_size.observe(static_cast<double>(recs.size()));
          const std::size_t damaged = corrupt_barter_batch(
              recs, f.reply_payload, f.payload_salt + 1);
          if (f.delay_reply > 0) {
            fault_plane_->defer(
                lane, e.seq, f.delay_reply,
                [this, recs_j = recs, i = e.initiator,
                 j = e.responder, damaged] {
                  sim::FaultStats& serial = fault_plane_->serial_stats();
                  if (!online_.is_online(i)) {
                    ++serial.barter.late_drops;
                    return;
                  }
                  nodes_[i]->barter().receive(j, recs_j);
                  serial.barter.rejected += damaged;
                });
          } else {
            bi.receive(e.responder, recs);
            fs.barter.rejected += damaged;
          }
        }
        ++lane_stats_[lane].barter_exchanges;
      });
  merge_lane_stats();
  flush_round_faults();
}

void ScenarioRunner::flush_round_faults() {
  telemetry::Span span(telemetry_.get(), "fault.flush");
  sim::RoundOutcome out = fault_plane_->finish_round();
  for (sim::DeferredDelivery& d : out.deferred) {
    sim_.schedule_in(d.delay, std::move(d.deliver));
  }
  for (const PeerId p : out.crashed) {
    // A mid-encounter crash leaves through the regular offline path; the
    // identity returns at its next trace session start (or churn flip).
    peer_offline(p);
  }
  for (sim::VpFailure& vf : out.vp_failures) {
    schedule_vp_retry(vf.initiator, 1, vf.retry_rng);
  }
}

void ScenarioRunner::schedule_vp_retry(PeerId initiator, std::size_t attempt,
                                       util::Rng rng) {
  const sim::FaultConfig& fc = config_.faults;
  if (attempt > fc.vp_retry_budget) return;  // budget exhausted — give up
  const Duration delay = fc.vp_retry_base << (attempt - 1);
  sim_.schedule_in(delay, [this, initiator, attempt, rng]() mutable {
    if (!online_.is_online(initiator)) return;
    Node& ni = *nodes_[initiator];
    // Regular gossip may have finished the bootstrap meanwhile.
    if (!ni.vote().bootstrapping()) return;
    sim::FaultStats& fs = fault_plane_->serial_stats();
    ++fs.vox.retries;
    const PeerId j = sample_peer(initiator);
    if (j == kInvalidPeer || !online_.is_online(j)) {
      schedule_vp_retry(initiator, attempt + 1, rng.derive(attempt));
      return;
    }
    // The retry is its own dial: both legs face the configured loss,
    // drawn from the failure's dedicated stream.
    const double loss = config_.faults.loss;
    if (loss > 0.0 && (rng.next_bool(loss) || rng.next_bool(loss))) {
      ++fs.vox.timeouts;
      schedule_vp_retry(initiator, attempt + 1, rng.derive(attempt));
      return;
    }
    vote::RankedList topk = nodes_[j]->vote().answer_topk();
    if (topk.empty()) {
      ++stats_.vp_requests_null;
      schedule_vp_retry(initiator, attempt + 1, rng.derive(attempt));
      return;
    }
    ++stats_.vp_requests_answered;
    ++fs.vox.retry_successes;
    ni.vote().receive_topk(std::move(topk));
  });
}

}  // namespace tribvote::core
