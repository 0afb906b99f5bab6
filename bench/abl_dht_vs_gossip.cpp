// Ablation A9 — DHT metadata storage vs gossip replication under churn —
// the §II design decision:
//
//   "We could have stored metadata in a Distributed Hash Table but these
//    require explicit leave and join operations which are costly in
//    systems with high churn [14]. Additionally, search performance is
//    considerably enhanced if metadata is stored locally because it is
//    not necessary to perform multi-hop look-ups."
//
// Both systems replay the same paper-calibrated trace's session churn:
//   * Chord ring: stabilization every 60 s, 50 metadata keys stored once
//     published; every 10 min each online node looks up a random key.
//     Costs: maintenance + routing messages, lookup failures, multi-hop
//     latency, data loss when all replicas churn out.
//   * ModerationCast: the full gossip stack on the same trace with 50
//     moderations from approved moderators; a "lookup" is a local_db hit
//     (0 hops by construction). Cost: gossip messages.
#include <cstdio>
#include <vector>

#include "bench_common.hpp"
#include "core/runner.hpp"
#include "dht/chord.hpp"
#include "trace/analyzer.hpp"

using namespace tribvote;

namespace {

constexpr std::size_t kKeys = 50;
constexpr Duration kStabilize = 60;
constexpr Duration kLookupEvery = 10 * kMinute;

struct DhtOutcome {
  double lookup_success = 0;
  double mean_hops = 0;
  double messages_per_node_hour = 0;
  double keys_surviving = 0;  ///< time-averaged fraction of keys alive
};

DhtOutcome run_dht(const trace::Trace& tr, std::uint64_t seed) {
  // Give the DHT a fair shake: 4 replicas per key and periodic
  // re-publication by the publisher while it is online (real deployments
  // do both; they cost messages, which is exactly the paper's point).
  dht::ChordConfig chord_config;
  chord_config.replication = 4;
  dht::ChordRing ring(tr.peers.size(), chord_config, util::Rng(seed));
  util::Rng rng(seed ^ 0xd47);

  // Time-stepped replay of the trace's session churn.
  std::vector<dht::Key> keys;
  util::RunningStats survival;
  std::size_t lookups = 0, successes = 0, hops = 0;
  std::size_t session_idx = 0;
  std::vector<std::pair<Time, PeerId>> offline_events;
  for (Time t = 0; t <= tr.duration; t += kStabilize) {
    // Session starts.
    while (session_idx < tr.sessions.size() &&
           tr.sessions[session_idx].start <= t) {
      ring.join(tr.sessions[session_idx].peer);
      offline_events.emplace_back(tr.sessions[session_idx].end,
                                  tr.sessions[session_idx].peer);
      ++session_idx;
    }
    // Session ends (events recorded when the session started).
    std::erase_if(offline_events, [&](const auto& ev) {
      if (ev.first > t) return false;
      ring.leave(ev.second);
      return true;
    });

    ring.stabilize_round();

    // Publish the keys early on, once enough nodes are up.
    if (keys.size() < kKeys && ring.online_count() >= 10) {
      const dht::Key key = rng();
      if (ring.store(ring.responsible_for(rng()), key)) keys.push_back(key);
    }
    // Publisher re-publication: lost keys are re-stored hourly by a random
    // online node that still has the original (the publisher's client).
    if (t % kHour == 0 && keys.size() == kKeys &&
        ring.online_count() >= 2) {
      for (const dht::Key key : keys) {
        if (!ring.key_alive(key)) {
          (void)ring.store(ring.responsible_for(rng()), key);
        }
      }
    }

    // Periodic lookups from every online node, plus a key-survival sample.
    if (t % kLookupEvery == 0 && !keys.empty()) {
      for (PeerId p = 0; p < tr.peers.size(); ++p) {
        if (!ring.is_online(p)) continue;
        const dht::Key key = keys[rng.next_below(keys.size())];
        const dht::LookupResult res = ring.lookup(p, key);
        ++lookups;
        if (res.success) {
          ++successes;
          hops += res.hops;
        }
      }
      if (keys.size() == kKeys) {
        std::size_t alive = 0;
        for (const dht::Key key : keys) {
          if (ring.key_alive(key)) ++alive;
        }
        survival.add(static_cast<double>(alive) /
                     static_cast<double>(keys.size()));
      }
    }
  }

  DhtOutcome out;
  out.lookup_success =
      lookups ? static_cast<double>(successes) / static_cast<double>(lookups)
              : 0.0;
  out.mean_hops =
      successes ? static_cast<double>(hops) / static_cast<double>(successes)
                : 0.0;
  out.messages_per_node_hour =
      static_cast<double>(ring.messages()) /
      (static_cast<double>(tr.peers.size()) * to_hours(tr.duration));
  out.keys_surviving = survival.mean();  // time-averaged availability
  return out;
}

struct GossipOutcome {
  double lookup_success = 0;  // online nodes holding a random item
  double messages_per_node_hour = 0;
};

GossipOutcome run_gossip(const trace::Trace& tr, std::uint64_t seed) {
  core::ScenarioConfig config;
  config.shards = bench::shard_count();
  config.faults = bench::fault_config();
  config.telemetry = bench::telemetry_config();
  config.vote.gossip_cache = bench::gossip_cache();
  core::ScenarioRunner runner(tr, config, seed);
  // 50 moderations from the earliest arrival; population approves it so
  // items relay at full gossip speed (the favourable case for gossip is
  // also the common one: metadata from approved moderators).
  const auto firsts = trace::earliest_arrivals(tr, 1);
  const ModeratorId m1 = firsts[0];
  for (std::size_t k = 0; k < kKeys; ++k) {
    runner.publish_moderation(m1, kMinute + static_cast<Time>(k), "item");
  }
  for (PeerId p = 0; p < tr.peers.size(); ++p) {
    if (p != m1) runner.script_vote_on_receipt(p, m1, Opinion::kPositive);
  }
  // Sample availability over the second half of the trace (steady state).
  util::RunningStats availability;
  runner.sample_every(6 * kHour, [&](Time t) {
    if (t < tr.duration / 2) return;
    std::size_t online = 0, holding = 0;
    for (PeerId p = 0; p < tr.peers.size(); ++p) {
      if (!runner.is_online(p)) continue;
      ++online;
      if (runner.node(p).mod().db().count_from(m1) > 0) ++holding;
    }
    if (online > 0) {
      availability.add(static_cast<double>(holding) /
                       static_cast<double>(online));
    }
  });
  runner.run_until(tr.duration);

  GossipOutcome out;
  out.lookup_success = availability.mean();
  // Each moderation exchange carries two messages (push + pull).
  out.messages_per_node_hour =
      2.0 * static_cast<double>(runner.stats().moderation_exchanges) /
      (static_cast<double>(tr.peers.size()) * to_hours(tr.duration));
  return out;
}

}  // namespace

int main() {
  bench::banner("abl_dht_vs_gossip",
                "A9 — Chord DHT storage vs ModerationCast gossip "
                "replication under trace churn (§II)");
  const auto traces = bench::paper_dataset(bench::ablation_replica_count());

  util::RunningStats dht_success, dht_hops, dht_msgs, dht_survive;
  util::RunningStats gos_success, gos_msgs;
  for (std::size_t r = 0; r < traces.size(); ++r) {
    const DhtOutcome d = run_dht(traces[r], bench::env_seed() + r);
    dht_success.add(d.lookup_success);
    dht_hops.add(d.mean_hops);
    dht_msgs.add(d.messages_per_node_hour);
    dht_survive.add(d.keys_surviving);
    const GossipOutcome g = run_gossip(traces[r], bench::env_seed() + r);
    gos_success.add(g.lookup_success);
    gos_msgs.add(g.messages_per_node_hour);
  }

  std::printf("\n%26s  %12s  %12s\n", "", "Chord DHT", "gossip");
  std::printf("%26s  %12.3f  %12.3f\n", "lookup success rate",
              dht_success.mean(), gos_success.mean());
  std::printf("%26s  %12.2f  %12.2f\n", "lookup hops", dht_hops.mean(), 0.0);
  std::printf("%26s  %12.1f  %12.1f\n", "messages / node / hour",
              dht_msgs.mean(), gos_msgs.mean());
  std::printf("%26s  %12.3f  %12s\n", "keys alive (time avg)",
              dht_survive.mean(), "1.000");

  util::CsvWriter csv("abl_dht_vs_gossip.csv");
  csv.write_row({"system", "lookup_success", "mean_hops",
                 "messages_per_node_hour", "keys_surviving"});
  csv.field("chord")
      .field(dht_success.mean())
      .field(dht_hops.mean())
      .field(dht_msgs.mean())
      .field(dht_survive.mean());
  csv.end_row();
  csv.field("gossip")
      .field(gos_success.mean())
      .field(0.0)
      .field(gos_msgs.mean())
      .field(1.0);
  csv.end_row();
  std::printf("\ncsv written: abl_dht_vs_gossip.csv\n");
  return 0;
}
