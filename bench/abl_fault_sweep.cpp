// A11 — protocol robustness under lossy transport (fault-plane sweep).
//
// The paper's experiments assume perfect message delivery; a deployed
// gossip stack sees loss, delay, crashes and damaged payloads. This sweep
// replays the Fig. 6 moderation-ranking scenario (every non-moderator node
// votes on receipt, so VoxPopuli bootstrap is observable population-wide)
// through the deterministic fault plane at increasing loss levels, with the
// companion fault rates scaled from the loss axis:
//
//   loss      in {0, 0.05, 0.1, 0.3, 0.5}   per message leg
//   delay     loss/2, up to 120 s           reply via the event queue
//   corrupt   loss/5                        truncation/bit damage
//   crash     loss/30                       mid-encounter responder crash
//
// Reported per loss level: the final correct-ordering fraction, the
// fraction of *exposed* honest nodes (>= 12 h cumulative online time by the
// sample — Fig. 6's bootstrap takes ~12 h even fault-free, so a rare peer
// with a 5 % duty cycle measures its own absence, not transport) that
// completed VoxPopuli bootstrap (reached B_min distinct voters — the
// robustness acceptance bar is >= 95 % at 30 % loss), the hours until 95 %
// of them had, and the fault plane's degradation counters
// (metrics/degradation.hpp). At loss 0 every fault rate is 0, the plane is
// inert, and the row is the golden baseline.
//
// A12 (`--tcp`): the same degradation axis replayed over a *real*
// in-process TCP cluster — N NodeServices on one EventLoop, Newscast
// bootstrap, scheduled encounters over real sockets — with the loss level
// mapped onto the transport chaos plane's Gilbert–Elliott chain (`ge=L`,
// DESIGN.md §16) instead of the simulator's fault plane. Encounters retry
// through resets; one that cannot complete within its retry budget is
// skipped, exactly like a lost encounter in the sim. Reported per level:
// the correct-ordering fraction among exposed nodes (>= 1 completed
// encounter — the EXPERIMENTS.md acceptance bar is >= 0.95 at 0.3),
// exposure, completed/skipped encounters and the impairment counters.
// Writes abl_fault_sweep_tcp.csv; the run is a pure function of the
// built-in seed, so two invocations must produce identical bytes.
#include <algorithm>
#include <array>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/runner.hpp"
#include "crypto/schnorr.hpp"
#include "metrics/degradation.hpp"
#include "metrics/ordering.hpp"
#include "net/event_loop.hpp"
#include "net/impairment.hpp"
#include "net/node_service.hpp"
#include "net/peer_directory.hpp"
#include "trace/analyzer.hpp"
#include "vote/agent.hpp"

using namespace tribvote;

namespace {

constexpr std::array<double, 5> kLossLevels{0.0, 0.05, 0.1, 0.3, 0.5};

/// Minimum cumulative online time before a peer counts toward the bootstrap
/// fraction: the paper's bootstrap pipeline needs ~12 h of presence even
/// with perfect delivery (Fig. 6), so peers below this measure their own
/// duty cycle rather than the transport.
constexpr Duration kMinExposure = 12 * kHour;

/// Cumulative online seconds of each peer up to time `t`.
std::vector<Duration> exposure_by(const trace::Trace& tr, Time t) {
  std::vector<Duration> online(tr.peers.size(), 0);
  for (const auto& s : tr.sessions) {
    if (s.start >= t) break;  // sessions are sorted by start time
    online[s.peer] += std::min(s.end, t) - s.start;
  }
  return online;
}

sim::FaultConfig faults_for(double loss) {
  sim::FaultConfig f = bench::fault_config();  // retry knobs from the env
  f.loss = loss;
  f.delay_rate = loss / 2;
  f.max_delay = 120;
  f.corrupt_rate = loss / 5;
  f.crash_rate = loss / 30;
  return f;
}

core::ReplicaResult run_replica(const trace::Trace& tr, std::size_t index,
                                double loss) {
  core::ScenarioConfig config;  // paper defaults
  config.shards = bench::shard_count();
  config.faults = faults_for(loss);
  config.telemetry = bench::telemetry_config();
  config.vote.gossip_cache = bench::gossip_cache();
  core::ScenarioRunner runner(tr, config, 0xFA7 + index);

  const auto firsts = trace::earliest_arrivals(tr, 3);
  const ModeratorId m1 = firsts[0], m2 = firsts[1], m3 = firsts[2];
  runner.publish_moderation(m1, 10 * kMinute, "well-described release");
  runner.publish_moderation(m2, 10 * kMinute, "plain release");
  runner.publish_moderation(m3, 10 * kMinute, "misleading spam");

  // Unlike Fig. 6's 20 % voter sample, every non-moderator votes on
  // receipt: the voter pool is then far above B_min, so the bootstrap
  // metric measures transport robustness, not voter scarcity.
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
  // Degradation counters as single-point series so the replica machinery
  // aggregates them like everything else.
  for (const auto& [name, value] :
       metrics::degradation_columns(runner.fault_stats())) {
    metrics::TimeSeries s;
    s.add(tr.duration, static_cast<double>(value));
    result.series[name] = std::move(s);
  }
  return result;
}

/// First time the aggregated mean reaches `level` (-1 if never).
double hours_to_reach(const metrics::AggregateSeries& agg, double level) {
  for (std::size_t i = 0; i < agg.times.size(); ++i) {
    if (agg.mean[i] >= level) return to_hours(agg.times[i]);
  }
  return -1.0;
}

double final_mean(const metrics::AggregateSeries& agg) {
  return agg.mean.empty() ? 0.0 : agg.mean.back();
}

// ---------------------------------------------------------------------------
// A12 — the sweep over a real in-process TCP cluster (--tcp).

constexpr std::size_t kTcpNodes = 8;
constexpr int kTcpRounds = 10;
constexpr Time kTcpRoundPeriod = 1000;
constexpr std::uint64_t kTcpSeed = 0xA12;
constexpr int kStepMs = 10000;

struct TcpNode {
  std::unique_ptr<crypto::KeyPair> keys;
  std::unique_ptr<vote::VoteAgent> vote;
};

std::uint64_t tcp_node_seed(PeerId id) {
  return kTcpSeed * 1000003ULL + id;
}

TcpNode make_tcp_node(PeerId id) {
  TcpNode n;
  util::Rng krng(tcp_node_seed(id));
  n.keys = std::make_unique<crypto::KeyPair>(crypto::generate_keypair(krng));
  n.vote = std::make_unique<vote::VoteAgent>(
      id, *n.keys, vote::VoteConfig{}, [](PeerId) { return true; },
      util::Rng(tcp_node_seed(id) * 7919 + 1));
  return n;
}

/// The scripted casts give every node the same strong signal — m1 all
/// positive, m2 alternating (net neutral), m3 all negative — so any node
/// whose ballot box crossed b_min ranks m1 > m2 > m3.
void tcp_casts(vote::VoteAgent& agent, int round) {
  const Time base = kTcpRoundPeriod * (round + 1);
  agent.cast_vote(1, Opinion::kPositive, base - 3);
  agent.cast_vote(2, round % 2 == 0 ? Opinion::kPositive : Opinion::kNegative,
                  base - 2);
  agent.cast_vote(3, Opinion::kNegative, base - 1);
}

std::string tcp_ip_string(std::uint32_t ip) {
  char buf[16];
  std::snprintf(buf, sizeof buf, "%u.%u.%u.%u", (ip >> 24) & 0xff,
                (ip >> 16) & 0xff, (ip >> 8) & 0xff, ip & 0xff);
  return buf;
}

struct TcpRow {
  bool ok = false;           ///< bootstrap reached full membership
  double correct = 0.0;      ///< correct-ordering fraction, exposed nodes
  double exposed = 0.0;      ///< exposed fraction of the cluster
  long completed = 0;        ///< encounters driven to completion
  long skipped = 0;          ///< encounters that exhausted their retries
  std::uint64_t resets = 0;  ///< impairment-forced connection resets
  std::uint64_t timeouts = 0;  ///< deadline evictions (hello + encounter)
};

TcpRow run_tcp_level(double loss) {
  TcpRow row;
  net::ImpairConfig icfg;
  if (loss > 0.0) {
    char spec[32];
    std::snprintf(spec, sizeof spec, "ge=%g", loss);
    std::string err;
    if (!net::parse_impair_spec(spec, icfg, &err)) {
      std::fprintf(stderr, "abl_fault_sweep: bad ge spec: %s\n", err.c_str());
      return row;
    }
  }
  const bool impaired = icfg.enabled();

  std::vector<TcpNode> nodes;
  for (std::size_t i = 0; i < kTcpNodes; ++i) {
    nodes.push_back(make_tcp_node(static_cast<PeerId>(i)));
  }

  net::EventLoop loop;
  std::vector<std::unique_ptr<net::Impairment>> impairs;  // outlives svcs
  std::vector<std::unique_ptr<net::NodeService>> svcs;
  std::vector<std::unique_ptr<net::PeerDirectory>> dirs;
  net::PeerDirectoryConfig dcfg;
  dcfg.view_size = std::max<std::size_t>(dcfg.view_size, kTcpNodes);
  dcfg.shuffle_size = std::min<std::size_t>(
      net::kMaxPeerDescriptors, std::max(dcfg.shuffle_size, kTcpNodes));
  for (std::size_t i = 0; i < kTcpNodes; ++i) {
    const auto id = static_cast<PeerId>(i);
    svcs.push_back(std::make_unique<net::NodeService>(
        loop, id, *nodes[i].keys, *nodes[i].vote, nullptr));
    std::string err;
    if (!svcs[i]->listen(0, &err)) {
      std::fprintf(stderr, "abl_fault_sweep: node %zu listen failed: %s\n", i,
                   err.c_str());
      return row;
    }
    dirs.push_back(std::make_unique<net::PeerDirectory>(
        id, *nodes[i].keys, 0x7f000001u, svcs[i]->listen_port(), dcfg,
        util::Rng(tcp_node_seed(id) * 7919 + 3)));
    svcs[i]->set_directory(dirs[i].get(), [] { return Time{0}; });
    if (impaired) {
      impairs.push_back(
          std::make_unique<net::Impairment>(icfg, kTcpSeed, id));
      svcs[i]->set_impairment(impairs[i].get());
      svcs[i]->set_deadlines(2000, 2000);
    }
  }

  // Bootstrap via node 0, redialing seed connections the chaos plane kills.
  std::vector<int> seed_conns(kTcpNodes, -1);
  const auto full_membership = [&] {
    for (const auto& d : dirs) {
      if (d->view_count() != kTcpNodes - 1) return false;
    }
    return true;
  };
  for (int pump = 0; pump < 400 && !full_membership(); ++pump) {
    for (std::size_t i = 1; i < kTcpNodes; ++i) {
      if (seed_conns[i] < 0 || !svcs[i]->open(seed_conns[i])) {
        seed_conns[i] =
            svcs[i]->connect("127.0.0.1", svcs[0]->listen_port());
        continue;
      }
      if (svcs[i]->ready(seed_conns[i])) {
        (void)svcs[i]->send_peer_exchange(seed_conns[i], true);
      }
    }
    (void)loop.run_until(full_membership, 100);
  }
  if (!full_membership()) {
    std::fprintf(stderr,
                 "abl_fault_sweep: tcp bootstrap failed at loss %g\n", loss);
    return row;
  }

  const auto run_encounter = [&](PeerId initiator, PeerId responder,
                                 Time now) {
    net::NodeService& svc = *svcs[initiator];
    const int max_attempts = impaired ? 16 : 1;
    for (int attempt = 0; attempt < max_attempts; ++attempt) {
      int conn = svc.conn_for_peer(responder);
      if (conn < 0) {
        net::PeerDescriptor d;
        if (!dirs[initiator]->lookup(responder, d)) return false;
        conn = svc.connect(tcp_ip_string(d.ip), d.port);
        if (conn < 0) continue;
        if (!loop.run_until(
                [&] { return svc.ready(conn) || !svc.open(conn); },
                kStepMs)) {
          return false;
        }
        if (!svc.open(conn)) continue;
      }
      const std::uint64_t want =
          svc.engine_counters(conn)->encounters_completed + 1;
      if (!svc.initiate_vote_encounter(conn, now)) {
        svc.close(conn);
        continue;
      }
      const auto settled = [&] {
        if (!svc.open(conn)) return true;
        return svc.initiator_idle(conn) &&
               svc.engine_counters(conn)->encounters_completed >= want;
      };
      if (!loop.run_until(settled, kStepMs)) return false;
      if (svc.open(conn) &&
          svc.engine_counters(conn)->encounters_completed >= want) {
        return true;
      }
    }
    return false;
  };

  for (int r = 0; r < kTcpRounds; ++r) {
    for (auto& n : nodes) tcp_casts(*n.vote, r);
    for (const auto& im : impairs) {
      im->set_round(static_cast<std::uint64_t>(r));
    }
    const Time now = kTcpRoundPeriod * (r + 1);
    for (std::size_t i = 0; i < kTcpNodes; ++i) {
      const auto self = static_cast<PeerId>(i);
      const PeerId target = dirs[i]->sample(self);
      if (target == kInvalidPeer) continue;
      if (impaired && (impairs[i]->self_offline() ||
                       impairs[i]->offline(target))) {
        continue;  // partitioned this round; the sim would skip it too
      }
      if (run_encounter(self, target, now)) {
        ++row.completed;
      } else {
        ++row.skipped;
      }
    }
  }

  std::vector<vote::RankedList> rankings;
  std::size_t exposed = 0;
  for (std::size_t i = 0; i < kTcpNodes; ++i) {
    const net::ExchangeEngine::Counters t = svcs[i]->engine_totals();
    if (t.encounters_completed + t.encounters_served == 0) continue;
    ++exposed;
    rankings.push_back(nodes[i].vote->current_ranking());
  }
  const std::vector<ModeratorId> expected{1, 2, 3};
  row.correct = metrics::correct_ordering_fraction(
      rankings, std::span<const ModeratorId>(expected));
  row.exposed =
      static_cast<double>(exposed) / static_cast<double>(kTcpNodes);
  for (const auto& svc : svcs) {
    row.resets += svc->stats().impair_resets;
    row.timeouts +=
        svc->stats().hello_timeouts + svc->stats().encounter_timeouts;
  }
  for (const auto& svc : svcs) {
    for (const int c : svc->connections()) svc->send_bye(c);
  }
  loop.poll_once(0);
  row.ok = true;
  return row;
}

int run_tcp_sweep() {
  bench::banner("abl_fault_sweep --tcp",
                "A12 — degradation sweep over a real in-process TCP "
                "cluster: Gilbert-Elliott chunk loss vs correct ordering");
  util::CsvWriter csv("abl_fault_sweep_tcp.csv");
  csv.write_row({"loss", "correct", "exposed", "completed", "skipped",
                 "impair_resets", "timeouts"});
  std::printf("\n%6s  %8s  %8s  %10s  %8s  %8s  %9s\n", "loss", "correct",
              "exposed", "completed", "skipped", "resets", "timeouts");
  int rc = 0;
  for (const double loss : kLossLevels) {
    const TcpRow row = run_tcp_level(loss);
    if (!row.ok) rc = 1;
    csv.field(util::format_double(loss, 3));
    csv.field(row.correct);
    csv.field(row.exposed);
    csv.field(static_cast<double>(row.completed));
    csv.field(static_cast<double>(row.skipped));
    csv.field(static_cast<double>(row.resets));
    csv.field(static_cast<double>(row.timeouts));
    csv.end_row();
    std::printf("%6g  %8.3f  %8.3f  %10ld  %8ld  %8llu  %9llu\n", loss,
                row.correct, row.exposed, row.completed, row.skipped,
                static_cast<unsigned long long>(row.resets),
                static_cast<unsigned long long>(row.timeouts));
  }
  std::printf("\ncsv written: abl_fault_sweep_tcp.csv\n");
  return rc;
}

}  // namespace

int main(int argc, char** argv) {
  // `--tcp` switches to the A12 socket-plane sweep; the bare invocation is
  // the A11 golden path and its csv must stay byte-identical.
  if (argc > 1 && std::strcmp(argv[1], "--tcp") == 0) return run_tcp_sweep();
  bench::banner("abl_fault_sweep",
                "A11 — Fig. 6 scenario under transport faults: ranking "
                "quality and VoxPopuli bootstrap vs message loss");
  const std::size_t replicas = bench::ablation_replica_count();
  const auto traces = bench::paper_dataset(replicas);

  const auto counter_names = [] {
    std::vector<std::string> names;
    for (const auto& [name, value] :
         metrics::degradation_columns(sim::FaultStats{})) {
      names.push_back(name);
    }
    return names;
  }();

  util::CsvWriter csv("abl_fault_sweep.csv");
  std::vector<std::string> header{"loss", "final_correct",
                                  "final_correct_stderr", "bootstrap",
                                  "bootstrap_stderr", "h_to_95pct_bootstrap"};
  for (const auto& name : counter_names) header.push_back(name);
  csv.write_row(header);

  std::printf("\n%6s  %14s  %10s  %12s  %12s  %10s\n", "loss", "final_correct",
              "bootstrap", "h_to_95%", "drops(rq+rp)", "rejected");
  for (const double loss : kLossLevels) {
    const auto results = core::run_replicas(
        traces, [loss](const trace::Trace& tr, std::size_t index) {
          return run_replica(tr, index, loss);
        });
    const auto correct = core::aggregate_named(results, "correct");
    const auto bootstrap = core::aggregate_named(results, "bootstrap");

    csv.field(util::format_double(loss, 3));
    csv.field(final_mean(correct));
    csv.field(correct.mean.empty() ? 0.0 : correct.stderr_mean.back());
    csv.field(final_mean(bootstrap));
    csv.field(bootstrap.mean.empty() ? 0.0 : bootstrap.stderr_mean.back());
    csv.field(util::format_double(hours_to_reach(bootstrap, 0.95), 1));
    double drops = 0.0, rejected = 0.0;
    for (const auto& name : counter_names) {
      const double mean = final_mean(core::aggregate_named(results, name));
      csv.field(mean);
      if (name == "dropped_requests" || name == "dropped_replies") {
        drops += mean;
      }
      if (name == "rejected") rejected = mean;
    }
    csv.end_row();
    std::printf("%6g  %14.3f  %10.3f  %12.1f  %12.0f  %10.0f\n", loss,
                final_mean(correct), final_mean(bootstrap),
                hours_to_reach(bootstrap, 0.95), drops, rejected);
  }
  std::printf("\n(-1 = level not reached within the 7-day trace; counters "
              "are per-replica means)\ncsv written: abl_fault_sweep.csv\n");
  return 0;
}
