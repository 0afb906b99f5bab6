// P1 — microbenchmarks of the hot kernels (google-benchmark).
//
// These are the operations the discrete-event runs execute millions of
// times; keeping them fast is what makes the 7-day × 100-peer experiments
// tractable on one core.
#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "bartercast/maxflow.hpp"
#include "bartercast/protocol.hpp"
#include "bartercast/subjective_graph.hpp"
#include "bt/ledger.hpp"
#include "bt/piece_picker.hpp"
#include "bt/swarm.hpp"
#include "core/node.hpp"
#include "core/runner.hpp"
#include "crypto/schnorr.hpp"
#include "trace/generator.hpp"
#include "metrics/cev.hpp"
#include "sim/event_queue.hpp"
#include "sim/shard_kernel.hpp"
#include "telemetry/telemetry.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"
#include "vote/agent.hpp"
#include "vote/ballot_box.hpp"
#include "vote/encounter.hpp"
#include "vote/voxpopuli.hpp"

namespace {

using namespace tribvote;

void BM_RngNextBelow(benchmark::State& state) {
  util::Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.next_below(1000));
  }
}
BENCHMARK(BM_RngNextBelow);

void BM_EventQueueSchedulePop(benchmark::State& state) {
  const auto batch = static_cast<std::size_t>(state.range(0));
  util::Rng rng(2);
  for (auto _ : state) {
    sim::EventQueue queue;
    for (std::size_t i = 0; i < batch; ++i) {
      (void)queue.schedule(static_cast<Time>(rng.next_below(10000)), [] {});
    }
    while (!queue.empty()) queue.pop();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(batch));
}
BENCHMARK(BM_EventQueueSchedulePop)->Arg(256)->Arg(4096);

void BM_SchnorrSign(benchmark::State& state) {
  util::Rng rng(3);
  const crypto::KeyPair keys = crypto::generate_keypair(rng);
  std::uint64_t msg = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::sign(keys, ++msg, rng));
  }
}
BENCHMARK(BM_SchnorrSign);

/// A full verify: cycles through four times as many pre-signed digests as
/// the per-thread verdict memo holds, so every call misses it.
void BM_SchnorrVerify(benchmark::State& state) {
  util::Rng rng(4);
  const crypto::KeyPair keys = crypto::generate_keypair(rng);
  std::vector<crypto::Signature> sigs;
  for (std::uint64_t m = 0; m < 4 * crypto::kVerifyMemoSlots; ++m) {
    sigs.push_back(crypto::sign(keys, m, rng));
  }
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::verify(keys.pub, i, sigs[i]));
    if (++i == sigs.size()) i = 0;
  }
}
BENCHMARK(BM_SchnorrVerify);

/// A repeated verify of one tuple: a hit in the verdict memo.
void BM_SchnorrVerifyRepeat(benchmark::State& state) {
  util::Rng rng(4);
  const crypto::KeyPair keys = crypto::generate_keypair(rng);
  const crypto::Signature sig = crypto::sign(keys, 42, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::verify(keys.pub, 42, sig));
  }
}
BENCHMARK(BM_SchnorrVerifyRepeat);

bartercast::SubjectiveGraph random_graph(std::size_t nodes,
                                         std::size_t edges,
                                         std::uint64_t seed) {
  bartercast::SubjectiveGraph g;
  util::Rng rng(seed);
  for (std::size_t e = 0; e < edges; ++e) {
    const auto a = static_cast<PeerId>(rng.next_below(nodes));
    const auto b = static_cast<PeerId>(rng.next_below(nodes));
    if (a != b) g.update_direct(a, b, rng.next_double(1, 100), 0);
  }
  return g;
}

void BM_MaxflowTwoHopClosedForm(benchmark::State& state) {
  const auto g =
      random_graph(100, static_cast<std::size_t>(state.range(0)), 5);
  util::Rng rng(6);
  for (auto _ : state) {
    const auto s = static_cast<PeerId>(rng.next_below(100));
    const auto t = static_cast<PeerId>(rng.next_below(100));
    benchmark::DoNotOptimize(bartercast::max_flow(g, s, t, 2));
  }
}
BENCHMARK(BM_MaxflowTwoHopClosedForm)->Arg(400)->Arg(2000);

void BM_MaxflowEdmondsKarp3Hop(benchmark::State& state) {
  const auto g =
      random_graph(100, static_cast<std::size_t>(state.range(0)), 7);
  util::Rng rng(8);
  for (auto _ : state) {
    const auto s = static_cast<PeerId>(rng.next_below(100));
    const auto t = static_cast<PeerId>(rng.next_below(100));
    benchmark::DoNotOptimize(bartercast::max_flow(g, s, t, 3));
  }
}
BENCHMARK(BM_MaxflowEdmondsKarp3Hop)->Arg(400)->Arg(2000);

/// A gossip-converged population of BarterCast agents over a random
/// transfer matrix, as the CEV measurements see it.
struct BarterPopulation {
  bt::Ledger ledger;
  std::vector<std::unique_ptr<bartercast::BarterAgent>> agents;
  std::vector<const bartercast::BarterAgent*> ptrs;

  BarterPopulation(std::size_t n, std::size_t transfers, std::uint64_t seed)
      : ledger(n) {
    util::Rng rng(seed);
    for (std::size_t e = 0; e < transfers; ++e) {
      const auto a = static_cast<PeerId>(rng.next_below(n));
      const auto b = static_cast<PeerId>(rng.next_below(n));
      if (a != b) {
        ledger.add_transfer(a, b, rng.next_double(1, 100) * 1024 * 1024);
      }
    }
    for (PeerId i = 0; i < n; ++i) {
      agents.push_back(std::make_unique<bartercast::BarterAgent>(
          i, bartercast::BarterConfig{}));
    }
    std::vector<bartercast::BarterRecord> report;
    for (PeerId i = 0; i < n; ++i) {
      agents[i]->sync_direct(ledger, 0);
      for (PeerId j = 0; j < n; ++j) {
        if (i == j) continue;
        agents[j]->outgoing_records(ledger, 0, report);
        agents[i]->receive(j, report);
      }
    }
    for (const auto& a : agents) ptrs.push_back(a.get());
  }

  [[nodiscard]] std::span<const bartercast::BarterAgent* const> span() const {
    return {ptrs.data(), ptrs.size()};
  }
};

/// Uncached baseline: scratch max-flow per query, what contribution_of cost
/// before the version cache.
void BM_ContributionOf_cold(benchmark::State& state) {
  const BarterPopulation pop(100, 3000, 42);
  const bartercast::BarterAgent& agent = *pop.agents[0];
  util::Rng rng(6);
  for (auto _ : state) {
    const auto j = static_cast<PeerId>(1 + rng.next_below(99));
    benchmark::DoNotOptimize(
        bartercast::max_flow(agent.graph(), j, agent.self(), 2));
  }
}
BENCHMARK(BM_ContributionOf_cold);

/// Memoized path on an unchanged graph: O(1) hash lookup per query.
void BM_ContributionOf_warm(benchmark::State& state) {
  const BarterPopulation pop(100, 3000, 42);
  const bartercast::BarterAgent& agent = *pop.agents[0];
  for (PeerId j = 0; j < 100; ++j) {
    benchmark::DoNotOptimize(agent.contribution_of(j));  // warm the cache
  }
  util::Rng rng(6);
  for (auto _ : state) {
    const auto j = static_cast<PeerId>(1 + rng.next_below(99));
    benchmark::DoNotOptimize(agent.contribution_of(j));
  }
}
BENCHMARK(BM_ContributionOf_warm);

/// Uncached CEV baseline: all ordered pairs, scratch max-flow each — the
/// pre-cache cost of one CEV sample on a warm (unchanged) graph.
void BM_CEV_uncached(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const BarterPopulation pop(n, 30 * n, 42);
  for (auto _ : state) {
    benchmark::DoNotOptimize(metrics::collective_experience_value(
        n, [&](PeerId i, PeerId j) {
          return bartercast::max_flow(pop.agents[i]->graph(), j, i, 2) >= 5.0;
        }));
  }
}
BENCHMARK(BM_CEV_uncached)->Arg(50)->Arg(100)->Unit(benchmark::kMicrosecond);

/// Batched + memoized CEV on a warm graph (the per-epoch steady state: the
/// acceptance target is ≥5× over BM_CEV_uncached at n=100).
void BM_CEV(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const BarterPopulation pop(n, 30 * n, 42);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        metrics::collective_experience_value(pop.span(), 5.0));
  }
}
BENCHMARK(BM_CEV)->Arg(50)->Arg(100)->Unit(benchmark::kMicrosecond);

/// Same with the per-sink columns fanned out across a thread pool.
void BM_CEV_pooled(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const BarterPopulation pop(n, 30 * n, 42);
  util::ThreadPool pool(4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        metrics::collective_experience_value(pop.span(), 5.0, pool));
  }
}
BENCHMARK(BM_CEV_pooled)->Arg(100)->Unit(benchmark::kMicrosecond);

/// First CEV after a graph mutation: columns rebuilt from the CSR snapshot
/// (the cold half of the per-epoch cost).
void BM_CEV_after_mutation(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  BarterPopulation pop(n, 30 * n, 42);
  std::uint64_t tick = 0;
  std::vector<bartercast::BarterRecord> report;
  for (auto _ : state) {
    state.PauseTiming();
    // One new transfer, gossiped to everyone: every sink's column and the
    // affected cache entries go stale.
    pop.ledger.add_transfer(0, 1, static_cast<double>(++tick) * 1024 * 1024);
    pop.agents[0]->sync_direct(pop.ledger, static_cast<Time>(tick));
    pop.agents[1]->sync_direct(pop.ledger, static_cast<Time>(tick));
    pop.agents[0]->outgoing_records(pop.ledger, static_cast<Time>(tick),
                                    report);
    for (auto& agent : pop.agents) agent->receive(0, report);
    state.ResumeTiming();
    benchmark::DoNotOptimize(
        metrics::collective_experience_value(pop.span(), 5.0));
  }
}
BENCHMARK(BM_CEV_after_mutation)->Arg(100)->Unit(benchmark::kMicrosecond);

/// Population for the round-throughput benchmark: honest nodes that each
/// cast one vote (so vote-list messages are non-empty) under a zero
/// experience threshold (so receives take the full merge path).
struct RoundPopulation {
  core::ScenarioConfig config;
  std::vector<std::unique_ptr<core::Node>> nodes;

  explicit RoundPopulation(std::size_t n, bool gossip_cache = true) {
    config.experience_threshold_mb = 0.0;
    config.vote.gossip_cache = gossip_cache;
    util::Rng rng(21);
    nodes.reserve(n);
    for (PeerId id = 0; id < n; ++id) {
      nodes.push_back(std::make_unique<core::Node>(
          id, core::NodeRole::kHonest, config, rng.derive(id)));
      nodes.back()->vote().cast_vote(
          id % 16, id % 3 == 0 ? Opinion::kNegative : Opinion::kPositive, 0);
    }
  }
};

/// One full BallotBox/VoxPopuli gossip round over a 10⁴-node population
/// through the sharded event kernel, at shards ∈ {1, 2, 4, 8}. Pairing is
/// serial and identical across shard counts; the measured quantity is the
/// exchange fan-out. items/sec == nodes/sec (the ≥10⁵-peer scaling metric).
/// Speedup over the shards=1 row requires as many physical cores as shards.
/// cache:1 runs with the vote-history cache + delta gossip (the default);
/// cache:0 is the legacy select-sign-full-message path on every leg.
void BM_RoundThroughput(benchmark::State& state) {
  constexpr std::size_t kNodes = 10'000;
  const auto shards = static_cast<std::size_t>(state.range(0));
  RoundPopulation pop(kNodes, state.range(1) != 0);
  util::ThreadPool pool(shards);
  sim::ShardKernel kernel(kNodes, shards, shards > 1 ? &pool : nullptr);
  util::Rng rng(22);
  std::vector<PeerId> order(kNodes);
  for (std::size_t i = 0; i < kNodes; ++i) order[i] = static_cast<PeerId>(i);
  Time now = 0;
  for (auto _ : state) {
    // Serial pairing phase, as ScenarioRunner::pair_round performs it.
    rng.shuffle(order);
    std::vector<sim::Encounter> encounters;
    encounters.reserve(kNodes);
    for (const PeerId i : order) {
      const auto j = static_cast<PeerId>(rng.next_below(kNodes));
      if (j == i) continue;
      encounters.push_back(
          {static_cast<std::uint32_t>(encounters.size()), i, j});
    }
    kernel.run_round(encounters,
                     [&](const sim::Encounter& e, std::size_t) {
                       vote::vote_encounter(pop.nodes[e.initiator]->vote(),
                                            pop.nodes[e.responder]->vote(),
                                            now);
                     });
    now += 60;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kNodes));
}
BENCHMARK(BM_RoundThroughput)
    ->ArgNames({"shards", "cache"})
    ->Args({1, 1})
    ->Args({2, 1})
    ->Args({4, 1})
    ->Args({8, 1})
    ->Args({1, 0})
    ->Args({4, 0})
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

/// A pair of warmed-up vote agents for the gossip-path microbenchmarks:
/// each holds `votes` deterministic-selection entries (≤ one message), and
/// one full exchange has already run so the counterpart memory is primed.
struct GossipPair {
  std::vector<crypto::KeyPair> keys;
  std::vector<std::unique_ptr<vote::VoteAgent>> agents;

  GossipPair(bool cache, std::size_t votes) {
    util::Rng root(33);
    vote::VoteConfig config;
    config.gossip_cache = cache;
    for (PeerId id = 0; id < 2; ++id) {
      util::Rng krng = root.derive(100 + id);
      keys.push_back(crypto::generate_keypair(krng));
    }
    for (PeerId id = 0; id < 2; ++id) {
      agents.push_back(std::make_unique<vote::VoteAgent>(
          id, keys[id], config, [](PeerId) { return true; },
          root.derive(200 + id)));
      for (ModeratorId m = 0; m < votes; ++m) {
        agents[id]->cast_vote(static_cast<ModeratorId>(100 * id) + m,
                              Opinion::kPositive, static_cast<Time>(m));
      }
    }
    (void)vote::gossip_send(*agents[0], *agents[1], 1000);
    (void)vote::gossip_send(*agents[1], *agents[0], 1000);
  }
};

/// Per-encounter sender cost of outgoing_votes on an unchanged ballot
/// paper, cache off (arg 0: select + Schnorr-sign every call) vs on
/// (arg 1: one signature per vote-list version, then O(1) cache hits).
/// The signatures_per_build counter is the ≥2× signing-reduction evidence:
/// 1.0 cold vs ~0 warm.
void BM_OutgoingVotes(benchmark::State& state) {
  GossipPair pair(state.range(0) != 0, 40);
  vote::VoteAgent& agent = *pair.agents[0];
  const vote::GossipStats before = agent.gossip_stats();
  for (auto _ : state) {
    benchmark::DoNotOptimize(agent.outgoing_votes(2000));
  }
  const vote::GossipStats after = agent.gossip_stats();
  const auto builds = static_cast<double>(after.builds - before.builds);
  state.counters["signatures_per_build"] =
      static_cast<double>(after.signatures - before.signatures) /
      (builds > 0 ? builds : 1.0);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_OutgoingVotes)->ArgNames({"cache"})->Arg(0)->Arg(1);

/// Wire bytes per steady-state gossip leg: cache off (arg 0) re-sends the
/// full signed vote list every encounter; cache on (arg 1) opens with a
/// digest and — once the counterpart holds everything — closes digest-only.
/// bytes_per_leg and delta_fraction are reported as user counters.
void BM_GossipBytes(benchmark::State& state) {
  GossipPair pair(state.range(0) != 0, 40);
  std::uint64_t bytes = 0, deltas = 0, legs = 0;
  Time now = 2000;
  for (auto _ : state) {
    const vote::GossipLegOutcome a =
        vote::gossip_send(*pair.agents[0], *pair.agents[1], now);
    const vote::GossipLegOutcome b =
        vote::gossip_send(*pair.agents[1], *pair.agents[0], now);
    bytes += a.bytes + b.bytes;
    deltas += (a.delta ? 1u : 0u) + (b.delta ? 1u : 0u);
    legs += 2;
    now += 60;
    benchmark::DoNotOptimize(a.result);
    benchmark::DoNotOptimize(b.result);
  }
  state.counters["bytes_per_leg"] =
      static_cast<double>(bytes) / static_cast<double>(legs > 0 ? legs : 1);
  state.counters["delta_fraction"] =
      static_cast<double>(deltas) / static_cast<double>(legs > 0 ? legs : 1);
  state.SetItemsProcessed(static_cast<std::int64_t>(legs));
}
BENCHMARK(BM_GossipBytes)->ArgNames({"cache"})->Arg(0)->Arg(1);

void BM_BallotBoxMerge(benchmark::State& state) {
  std::vector<vote::VoteEntry> votes;
  for (ModeratorId m = 0; m < 50; ++m) {
    votes.push_back(vote::VoteEntry{m, Opinion::kPositive, 0});
  }
  for (auto _ : state) {
    vote::BallotBox box(100);
    for (PeerId voter = 0; voter < 30; ++voter) {
      box.merge(voter, votes, static_cast<Time>(voter));
    }
    benchmark::DoNotOptimize(box.unique_voters());
  }
}
BENCHMARK(BM_BallotBoxMerge);

void BM_VoxPopuliMerge(benchmark::State& state) {
  util::Rng rng(11);
  vote::VoxPopuliCache cache(10, 3);
  for (int i = 0; i < 10; ++i) {
    vote::RankedList list;
    list.push_back(static_cast<ModeratorId>(1 + rng.next_below(8)));
    list.push_back(static_cast<ModeratorId>(10 + rng.next_below(8)));
    list.push_back(static_cast<ModeratorId>(20 + rng.next_below(8)));
    cache.add_list(list);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.merged_ranking());
  }
}
BENCHMARK(BM_VoxPopuliMerge);

void BM_PiecePickerRarest(benchmark::State& state) {
  const std::size_t pieces = 700;
  bt::PiecePicker picker(pieces);
  util::Rng rng(12);
  bt::Bitfield uploader(pieces), downloader(pieces);
  bt::Bitfield in_flight(pieces);
  for (std::size_t i = 0; i < pieces; ++i) {
    for (std::uint64_t a = 0; a < rng.next_below(6); ++a) {
      picker.add_have(i);
    }
    if (rng.next_bool(0.7)) uploader.set(i);
    if (rng.next_bool(0.4)) downloader.set(i);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        picker.pick(uploader, downloader, in_flight, rng));
  }
}
BENCHMARK(BM_PiecePickerRarest);

void BM_SwarmTick(benchmark::State& state) {
  const auto members = static_cast<PeerId>(state.range(0));
  std::vector<trace::PeerProfile> peers;
  for (PeerId id = 0; id < members; ++id) {
    trace::PeerProfile p;
    p.id = id;
    p.upload_kbps = 96;
    p.download_kbps = 768;
    peers.push_back(p);
  }
  trace::SwarmSpec spec;
  spec.size_mb = 256;
  spec.piece_kb = 1024;
  spec.initial_seeder = 0;
  bt::Ledger ledger(members);
  bt::BandwidthAllocator bandwidth(std::vector<double>(members, 96.0),
                                   std::vector<double>(members, 768.0));
  bt::Swarm swarm(spec, peers, ledger, bandwidth, util::Rng(13));
  swarm.add_member(0, true);
  for (PeerId p = 1; p < members; ++p) swarm.add_member(p, false);
  for (auto _ : state) {
    swarm.tick(10.0);
  }
}
BENCHMARK(BM_SwarmTick)->Arg(8)->Arg(32);

/// Ledger throughput, args = {peers, mix}. items/sec == transfers/sec.
///
/// mix:0 times the append path alone — the cost add_transfer puts on the
/// swarm tick's critical path. mix:1 adds a point/total query mix after
/// each batch.
void BM_LedgerThroughput(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const bool full_mix = state.range(1) != 0;
  constexpr std::size_t kBatch = 1 << 16;
  constexpr std::size_t kQueries = 1024;
  // Pre-generated stream (RNG cost out of the measured loop); reusing it
  // every iteration keeps the touched pair set — and so the row sizes —
  // stable after the first iteration.
  struct Xfer {
    PeerId from, to;
    double bytes;
  };
  std::vector<Xfer> stream(kBatch);
  util::Rng rng(31);
  for (auto& x : stream) {
    x.from = static_cast<PeerId>(rng.next_below(n));
    x.to = static_cast<PeerId>(rng.next_below(n));
    if (x.to == x.from) x.to = static_cast<PeerId>((x.to + 1) % n);
    x.bytes = rng.next_double(0.1, 10.0) * 1024 * 1024;
  }
  bt::Ledger ledger(n);
  util::Rng query_rng(32);
  for (auto _ : state) {
    for (const Xfer& x : stream) {
      ledger.add_transfer(x.from, x.to, x.bytes);
    }
    if (full_mix) {
      double acc = 0;
      for (std::size_t q = 0; q < kQueries; ++q) {
        const auto p = static_cast<PeerId>(query_rng.next_below(n));
        acc += ledger.total_uploaded_mb(p);
        acc += ledger.uploaded_mb(p, static_cast<PeerId>((p + 1) % n));
      }
      benchmark::DoNotOptimize(acc);
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kBatch));
}
BENCHMARK(BM_LedgerThroughput)
    ->ArgNames({"peers", "mix"})
    ->Args({10'000, 0})
    ->Args({100'000, 0})
    ->Args({1'000'000, 0})
    ->Args({10'000, 1})
    ->Args({100'000, 1})
    ->Args({1'000'000, 1})
    ->Unit(benchmark::kMillisecond);

/// Cost of the telemetry hot path per instrumented operation, at each mode:
/// arg 0 = off (null handles — the price every run pays), 1 = counters
/// (lane-local adds + a histogram observe), 2 = trace (adds plus a scoped
/// span recording into the trace buffer). One "op" is a representative
/// protocol step: one counter add, one histogram observe, one span.
void BM_TelemetryOverhead(benchmark::State& state) {
  const auto mode = static_cast<telemetry::TelemetryMode>(state.range(0));
  telemetry::TelemetryConfig config;
  config.mode = mode;
  std::unique_ptr<telemetry::Telemetry> tel;
  telemetry::Counter counter;
  telemetry::Histogram histogram;
  if (config.enabled()) {
    tel = std::make_unique<telemetry::Telemetry>(config, /*lanes=*/1);
    const auto cid = tel->registry().counter("bench.ops");
    const auto hid =
        tel->registry().histogram("bench.size", {1.0, 2.0, 5.0, 10.0});
    counter = telemetry::Counter(&tel->registry(), cid);
    histogram = telemetry::Histogram(&tel->registry(), hid);
  }
  telemetry::Telemetry* handle = tel.get();
  std::uint64_t n = 0;
  for (auto _ : state) {
    {
      telemetry::Span span(handle, "bench.op");
      counter.add();
      histogram.observe(static_cast<double>(n % 12));
      span.set_arg(n);
    }
    ++n;
    if (handle != nullptr && handle->tracing() &&
        handle->trace().size() >= (1u << 16)) {
      state.PauseTiming();
      handle->trace().clear();  // keep the buffer from growing unboundedly
      state.ResumeTiming();
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_TelemetryOverhead)->Arg(0)->Arg(1)->Arg(2);

/// End-to-end scenario cost with the adversary plane off vs on. Arg 0 runs
/// an empty roster: the engine is never constructed and every round pays
/// exactly one null-pointer branch — this row must match a build without
/// the plane. Arg 1 drives an attrition flood, arg 2 a mixed
/// attrition+sybil roster (serial hook work: presence draws, floods,
/// ledger credit). One "item" is a full simulated day of one small
/// population.
void BM_AdversaryOverhead(benchmark::State& state) {
  trace::GeneratorParams params;
  params.n_peers = 30;
  params.n_swarms = 3;
  params.duration = kDay;
  const trace::Trace tr = trace::generate_trace(params, 17);
  core::ScenarioConfig config;
  std::string error;
  const char* specs[] = {"", "attrition:n=6,rate=4",
                         "attrition:n=6,rate=4;sybil:n=8,region=4"};
  if (!adversary::parse_adversary_spec(
          specs[static_cast<std::size_t>(state.range(0))], config.adversary,
          &error)) {
    state.SkipWithError(error.c_str());
    return;
  }
  for (auto _ : state) {
    core::ScenarioRunner runner(tr, config, 23);
    runner.run_until(tr.duration);
    benchmark::DoNotOptimize(runner.stats().vote_exchanges);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_AdversaryOverhead)
    ->ArgNames({"roster"})
    ->Arg(0)
    ->Arg(1)
    ->Arg(2)
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
