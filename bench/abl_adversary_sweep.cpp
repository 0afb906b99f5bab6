// A13 — adversary-plane sweep: ranking robustness vs adversary fraction.
//
// The paper's attack experiments (Figs. 8-9) study one adversary at one
// size. This sweep replays the Fig. 6 moderation-ranking scenario (every
// non-moderator honest node votes on receipt) against each of the five
// adversary strategies (DESIGN.md "Adversary plane") at adversary
// fractions {0, 0.1, 0.25, 0.5} of the honest population, on both the
// download workload and the streaming workload (windowed piece picking +
// playback deadlines):
//
//   colluder   flash-crowd vote spam promoting M0, demoting the top
//              honest moderator
//   front      fake-experience clique (honest votes, fabricated ledger)
//   attrition  LOCKSS-style rate-limited vote-list floods
//   nuisance   intermittent honest peers churning their votes
//   sybil      collusion regions splitting upload credit through the
//              ledger so two-hop max-flow clears E for every identity
//
// Reported per (strategy, workload, fraction): the final correct-ordering
// fraction and VoxPopuli bootstrap fraction among exposed honest nodes
// (the A11 exposure rule), the adversary plane's serial counters, and the
// streaming deadline columns (pieces on time, misses, miss rate) on the
// streaming workload. The frac=0 rows carry an empty roster: the plane is
// never constructed and the row is the golden Fig. 6 baseline for its
// workload.
//
// `--smoke` shrinks the grid (fractions {0, 0.25}, one replica) for CI;
// the full run is a pure function of TRIBVOTE_SEED and must produce
// byte-identical CSVs across invocations.
#include <algorithm>
#include <array>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "adversary/engine.hpp"
#include "bench_common.hpp"
#include "core/runner.hpp"
#include "metrics/ordering.hpp"
#include "trace/analyzer.hpp"

using namespace tribvote;

namespace {

constexpr std::array<double, 4> kFractions{0.0, 0.1, 0.25, 0.5};
constexpr std::array<double, 2> kSmokeFractions{0.0, 0.25};

/// A11's exposure rule: bootstrap is only demanded of peers with >= 12 h
/// cumulative presence (Fig. 6's pipeline needs that long fault-free).
constexpr Duration kMinExposure = 12 * kHour;

/// Strategies become active after the honest population has formed its
/// first rankings — the paper's Fig. 8 attack timing.
constexpr Time kAttackStart = kDay;

const std::array<adversary::StrategyKind, 5> kStrategies{
    adversary::StrategyKind::kColluder, adversary::StrategyKind::kFrontPeer,
    adversary::StrategyKind::kAttrition, adversary::StrategyKind::kNuisance,
    adversary::StrategyKind::kSybil};

std::vector<Duration> exposure_by(const trace::Trace& tr, Time t) {
  std::vector<Duration> online(tr.peers.size(), 0);
  for (const auto& s : tr.sessions) {
    if (s.start >= t) break;  // sessions are sorted by start time
    online[s.peer] += std::min(s.end, t) - s.start;
  }
  return online;
}

/// Roster of one strategy sized to `agents` identities. `victim` is the
/// top honest moderator (colluder and sybil demote it with negative
/// votes); paper-scale knob defaults otherwise.
adversary::AdversaryConfig roster_for(adversary::StrategyKind kind,
                                      std::size_t agents, ModeratorId victim) {
  adversary::AdversaryConfig config;
  if (agents == 0) return config;  // frac=0: empty roster, plane off
  adversary::StrategySpec spec;
  spec.kind = kind;
  spec.agents = agents;
  spec.start = kAttackStart;
  if (kind == adversary::StrategyKind::kColluder ||
      kind == adversary::StrategyKind::kSybil) {
    spec.victim = victim;
  }
  config.roster.push_back(spec);
  return config;
}

core::ReplicaResult run_replica(const trace::Trace& tr, std::size_t index,
                                adversary::StrategyKind kind, double frac,
                                bool streaming) {
  core::ScenarioConfig config;  // paper defaults
  config.shards = bench::shard_count();
  config.faults = bench::fault_config();
  config.telemetry = bench::telemetry_config();
  config.vote.gossip_cache = bench::gossip_cache();
  config.streaming.enabled = streaming;

  const auto firsts = trace::earliest_arrivals(tr, 3);
  const ModeratorId m1 = firsts[0], m2 = firsts[1], m3 = firsts[2];
  const auto agents = static_cast<std::size_t>(
      frac * static_cast<double>(tr.peers.size()) + 0.5);
  config.adversary = roster_for(kind, agents, m1);

  core::ScenarioRunner runner(tr, config, 0xA13 + index);
  runner.publish_moderation(m1, 10 * kMinute, "well-described release");
  runner.publish_moderation(m2, 10 * kMinute, "plain release");
  runner.publish_moderation(m3, 10 * kMinute, "misleading spam");
  for (PeerId voter = 0; voter < tr.peers.size(); ++voter) {
    if (voter == m1 || voter == m2 || voter == m3) continue;
    if (voter % 2 == 0) {
      runner.script_vote_on_receipt(voter, m1, Opinion::kPositive);
    } else {
      runner.script_vote_on_receipt(voter, m3, Opinion::kNegative);
    }
  }

  const std::vector<ModeratorId> expected{m1, m2, m3};
  metrics::TimeSeries correct, bootstrap;
  runner.sample_every(2 * kHour, [&](Time t) {
    std::vector<vote::RankedList> rankings;
    std::size_t exposed = 0, bootstrapped = 0;
    const auto online = exposure_by(tr, t);
    for (PeerId p = 0; p < tr.peers.size(); ++p) {
      if (p == m1 || p == m2 || p == m3) continue;
      rankings.push_back(runner.ranking_of(p));
      if (online[p] < kMinExposure) continue;
      ++exposed;
      if (!runner.node(p).vote().bootstrapping()) ++bootstrapped;
    }
    correct.add(t, metrics::correct_ordering_fraction(
                       rankings, std::span<const ModeratorId>(expected)));
    bootstrap.add(t, exposed == 0 ? 0.0
                                  : static_cast<double>(bootstrapped) /
                                        static_cast<double>(exposed));
  });
  runner.run_until(tr.duration);

  core::ReplicaResult result;
  result.series["correct"] = std::move(correct);
  result.series["bootstrap"] = std::move(bootstrap);
  const auto point = [&](const char* name, double value) {
    metrics::TimeSeries s;
    s.add(tr.duration, value);
    result.series[name] = std::move(s);
  };
  const adversary::AdversaryStats as = runner.adversary_stats();
  point("floods", static_cast<double>(as.floods_sent));
  point("flood_rejected", static_cast<double>(as.flood_rejected));
  point("nuisance_flips", static_cast<double>(as.nuisance_flips));
  point("credit_transfers", static_cast<double>(as.credit_transfers));
  point("presence_flips", static_cast<double>(as.presence_flips));
  point("adv_credit_mb", as.credit_mb);
  const bt::StreamingTotals st = runner.streaming_totals();
  point("stream_started", static_cast<double>(st.started));
  point("stream_finished", static_cast<double>(st.finished));
  point("pieces_on_time", static_cast<double>(st.pieces_on_time));
  point("deadline_misses", static_cast<double>(st.deadline_misses));
  return result;
}

double final_mean(const metrics::AggregateSeries& agg) {
  return agg.mean.empty() ? 0.0 : agg.mean.back();
}

double final_stderr(const metrics::AggregateSeries& agg) {
  return agg.stderr_mean.empty() ? 0.0 : agg.stderr_mean.back();
}

constexpr std::array<const char*, 10> kCounterNames{
    "floods",          "flood_rejected", "nuisance_flips",
    "credit_transfers", "presence_flips", "adv_credit_mb",
    "stream_started",  "stream_finished", "pieces_on_time",
    "deadline_misses"};

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
  bench::banner("abl_adversary_sweep",
                "A13 — Fig. 6 scenario vs the adversary plane: ranking "
                "quality and bootstrap vs adversary fraction, five "
                "strategies, download + streaming workloads");
  const std::size_t replicas =
      smoke ? 1 : bench::ablation_replica_count();
  const auto traces = bench::paper_dataset(replicas);
  const std::span<const double> fractions =
      smoke ? std::span<const double>(kSmokeFractions)
            : std::span<const double>(kFractions);

  util::CsvWriter csv("abl_adversary_sweep.csv");
  std::vector<std::string> header{"strategy",       "workload",
                                  "frac",           "agents",
                                  "final_correct",  "final_correct_stderr",
                                  "bootstrap",      "bootstrap_stderr"};
  for (const char* name : kCounterNames) header.emplace_back(name);
  header.emplace_back("miss_rate");
  csv.write_row(header);

  std::printf("\n%-10s %-9s %5s %6s  %13s  %9s  %7s %7s %9s\n", "strategy",
              "workload", "frac", "agents", "final_correct", "bootstrap",
              "floods", "flips", "misses");
  for (const bool streaming : {false, true}) {
    const char* workload = streaming ? "streaming" : "download";
    for (const adversary::StrategyKind kind : kStrategies) {
      const char* strategy = adversary::to_string(kind);
      for (const double frac : fractions) {
        const auto results = core::run_replicas(
            traces,
            [kind, frac, streaming](const trace::Trace& tr,
                                    std::size_t index) {
              return run_replica(tr, index, kind, frac, streaming);
            });
        const auto correct = core::aggregate_named(results, "correct");
        const auto bootstrap = core::aggregate_named(results, "bootstrap");
        const auto agents = static_cast<std::size_t>(
            frac * static_cast<double>(traces.front().peers.size()) + 0.5);

        csv.field(strategy).field(workload);
        csv.field(util::format_double(frac, 3));
        csv.field(static_cast<double>(agents));
        csv.field(final_mean(correct)).field(final_stderr(correct));
        csv.field(final_mean(bootstrap)).field(final_stderr(bootstrap));
        double floods = 0, flips = 0, on_time = 0, misses = 0;
        for (const char* name : kCounterNames) {
          const double mean =
              final_mean(core::aggregate_named(results, name));
          csv.field(mean);
          if (std::strcmp(name, "floods") == 0) floods = mean;
          if (std::strcmp(name, "nuisance_flips") == 0) flips = mean;
          if (std::strcmp(name, "pieces_on_time") == 0) on_time = mean;
          if (std::strcmp(name, "deadline_misses") == 0) misses = mean;
        }
        const double consumed = on_time + misses;
        const double miss_rate = consumed > 0.0 ? misses / consumed : 0.0;
        csv.field(miss_rate);
        csv.end_row();
        std::printf("%-10s %-9s %5g %6zu  %13.3f  %9.3f  %7.0f %7.0f %9.0f\n",
                    strategy, workload, frac, agents, final_mean(correct),
                    final_mean(bootstrap), floods, flips, misses);
      }
    }
  }
  std::printf("\n(frac=0 rows run with an empty roster — the plane is never "
              "constructed and the row is the workload's golden baseline)\n"
              "csv written: abl_adversary_sweep.csv\n");
  return 0;
}
