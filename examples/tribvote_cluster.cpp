// tribvote_cluster — N-node round-barrier equivalence harness for the
// multi-peer runtime (PROTOCOL.md §8, DESIGN.md §14). One schedule, two
// executions:
//
//   --mode oracle   N in-process agents, each sampling counterparts through
//                   its own pss::OraclePss over a fully-online
//                   OnlineDirectory; encounters run through sim::ShardKernel
//                   (--shards) — the simulator's own path
//   --mode tcp      N NodeServices on one EventLoop: every node's Newscast
//                   PeerDirectory is bootstrapped from node 0 with real
//                   PEER_EXCHANGE frames, then each round's encounters run
//                   serially over real sockets in sequence order
//
// Both modes apply the same scripted casts (id order, before each round),
// sample every node in id order through the shared pss::PeerSampler API,
// and execute the round's encounter list in the serial order ShardKernel
// reproduces at any shard count. PeerDirectory::sample replays the oracle
// draw sequence at full membership and keeps its signature nonces on a
// separate rng stream, so the per-node state digests of the two modes must
// match byte for byte — scripts/cluster_smoke.sh and CI diff the
// --state-out files (oracle shards 1 vs 4 vs tcp).
//
// --impair SPEC (tcp mode) threads every node's inbound byte stream
// through a net::Impairment keyed off the cluster seed and arms the
// encounter deadlines. Resets and stalls are then expected events: the
// bootstrap pump redials dead seed connections and each encounter retries
// through reconnects (vote merges are idempotent, so a half-finished
// exchange redone from scratch converges to the same state). The schedule
// — and therefore the byte streams and every verdict — stays a pure
// function of (--seed, --impair), which is why CI can diff two impaired
// runs against each other.
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "crypto/schnorr.hpp"
#include "net/event_loop.hpp"
#include "net/impairment.hpp"
#include "net/node_service.hpp"
#include "net/peer_directory.hpp"
#include "pss/oracle.hpp"
#include "pss/online_directory.hpp"
#include "pss/peer_sampler.hpp"
#include "sim/options.hpp"
#include "sim/shard_kernel.hpp"
#include "util/rng.hpp"
#include "vote/agent.hpp"
#include "vote/encounter.hpp"

namespace {

using namespace tribvote;

struct Options {
  std::string mode = "oracle";
  std::size_t nodes = 8;
  int rounds = 8;
  int casts = 2;
  std::uint64_t seed = 42;
  std::size_t shards = 1;
  std::string state_out;
  std::string impair_spec;  // tcp mode only; empty = pristine transport
};

constexpr Time kRoundPeriod = 1000;

Time round_time(int round) { return kRoundPeriod * (round + 1); }

// Per-node seed, derived so the cluster is a pure function of --seed.
std::uint64_t node_seed(const Options& opt, PeerId id) {
  return opt.seed * 1000003ULL + id;
}

// The agent (and later the NodeService/PeerDirectory) hold the KeyPair by
// reference, so it must stay put while Node values move through the vector
// — hence the unique_ptr.
struct Node {
  std::unique_ptr<crypto::KeyPair> keys;
  std::unique_ptr<vote::VoteAgent> vote;
};

Node make_node(PeerId id, std::uint64_t seed) {
  Node n;
  util::Rng krng(seed);
  n.keys = std::make_unique<crypto::KeyPair>(crypto::generate_keypair(krng));
  n.vote = std::make_unique<vote::VoteAgent>(
      id, *n.keys, vote::VoteConfig{}, [](PeerId) { return true; },
      util::Rng(seed * 7919 + 1));
  return n;
}

// The scripted casts node `id` applies before round `round` — same
// derivation tribvote_node's scripted modes use.
void apply_casts(vote::VoteAgent& agent, std::uint64_t seed, int round,
                 int casts) {
  constexpr std::uint64_t kMix = 0x9e3779b97f4a7c15ULL;
  util::Rng rng(seed ^ (kMix * static_cast<std::uint64_t>(round + 1)));
  const Time base = round_time(round) - kRoundPeriod;
  for (int i = 0; i < casts; ++i) {
    const auto mod = static_cast<ModeratorId>(1 + rng.next_below(24));
    const Opinion op =
        rng.next_bool(0.5) ? Opinion::kPositive : Opinion::kNegative;
    agent.cast_vote(mod, op, base + i + 1);
  }
}

// The mode-invariant state report CI diffs between oracle and tcp runs.
void report_state(std::FILE* f, const std::vector<Node>& nodes) {
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    std::fprintf(f, "node %zu digest 0x%016llx ballots %zu unique_voters %zu\n",
                 i,
                 static_cast<unsigned long long>(nodes[i].vote->state_digest()),
                 nodes[i].vote->ballot_box().size(),
                 nodes[i].vote->ballot_box().unique_voters());
  }
}

int write_reports(const Options& opt, const std::vector<Node>& nodes) {
  report_state(stdout, nodes);
  if (!opt.state_out.empty()) {
    std::FILE* f = std::fopen(opt.state_out.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "tribvote_cluster: cannot write %s\n",
                   opt.state_out.c_str());
      return 1;
    }
    report_state(f, nodes);
    std::fclose(f);
  }
  return 0;
}

/// Runs the shared schedule: per round, casts in id order, then one sample
/// per node in id order through the PeerSampler API, then `execute` applies
/// the encounter list. Returns encounters executed, or -1 on failure.
template <typename ExecuteRound>
long run_schedule(const Options& opt, std::vector<Node>& nodes,
                  const std::vector<pss::PeerSampler*>& samplers,
                  const ExecuteRound& execute) {
  long executed = 0;
  for (int r = 0; r < opt.rounds; ++r) {
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      apply_casts(*nodes[i].vote, node_seed(opt, static_cast<PeerId>(i)), r,
                  opt.casts);
    }
    std::vector<sim::Encounter> encounters;
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      const auto self = static_cast<PeerId>(i);
      const PeerId target = samplers[i]->sample(self);
      if (target == kInvalidPeer) continue;
      sim::Encounter e;
      e.seq = static_cast<std::uint32_t>(encounters.size());
      e.initiator = self;
      e.responder = target;
      encounters.push_back(e);
    }
    if (!execute(encounters, round_time(r))) return -1;
    executed += static_cast<long>(encounters.size());
  }
  return executed;
}

int run_oracle(const Options& opt) {
  std::vector<Node> nodes;
  for (std::size_t i = 0; i < opt.nodes; ++i) {
    const auto id = static_cast<PeerId>(i);
    nodes.push_back(make_node(id, node_seed(opt, id)));
  }
  pss::OnlineDirectory directory(opt.nodes);
  for (std::size_t i = 0; i < opt.nodes; ++i) {
    directory.set_online(static_cast<PeerId>(i), true);
  }
  // Each node's sampler draws from the same derived stream its
  // PeerDirectory would use in tcp mode — the identity's hinge.
  std::vector<std::unique_ptr<pss::OraclePss>> oracles;
  std::vector<pss::PeerSampler*> samplers;
  for (std::size_t i = 0; i < opt.nodes; ++i) {
    util::Rng base(node_seed(opt, static_cast<PeerId>(i)) * 7919 + 3);
    oracles.push_back(std::make_unique<pss::OraclePss>(
        directory, base.derive(net::PeerDirectory::kSampleStream)));
    samplers.push_back(oracles.back().get());
  }

  sim::ShardKernel kernel(opt.nodes, opt.shards, nullptr);
  const long executed = run_schedule(
      opt, nodes, samplers,
      [&](const std::vector<sim::Encounter>& encounters, Time now) {
        kernel.run_round(encounters,
                         [&](const sim::Encounter& e, std::size_t) {
                           vote::vote_encounter(*nodes[e.initiator].vote,
                                                *nodes[e.responder].vote, now);
                         });
        return true;
      });
  if (executed < 0) return 1;
  std::fprintf(stderr, "tribvote_cluster: oracle executed %ld encounters "
                       "(%llu levels, shards %zu)\n",
               executed,
               static_cast<unsigned long long>(kernel.stats().levels),
               opt.shards);
  return write_reports(opt, nodes);
}

constexpr int kStepMs = 10000;  ///< per-condition wait budget

// "a.b.c.d" from a descriptor's host-order ip word.
std::string ip_string(std::uint32_t ip) {
  char buf[16];
  std::snprintf(buf, sizeof buf, "%u.%u.%u.%u", (ip >> 24) & 0xff,
                (ip >> 16) & 0xff, (ip >> 8) & 0xff, ip & 0xff);
  return buf;
}

int run_tcp(const Options& opt) {
  std::vector<Node> nodes;
  for (std::size_t i = 0; i < opt.nodes; ++i) {
    const auto id = static_cast<PeerId>(i);
    nodes.push_back(make_node(id, node_seed(opt, id)));
  }

  net::ImpairConfig icfg;
  std::string ierr;
  if (!opt.impair_spec.empty() &&
      !net::parse_impair_spec(opt.impair_spec, icfg, &ierr)) {
    std::fprintf(stderr, "tribvote_cluster: bad --impair spec: %s\n",
                 ierr.c_str());
    return 2;
  }
  const bool impaired = icfg.enabled();

  net::EventLoop loop;
  // Every node's shim shares the *cluster* seed, so the partition
  // schedule — keyed (seed, window, node) — is agreed on by all of them.
  // Declared before the services: ~NodeService detaches its streams from
  // the shim, so the shim must outlive it.
  std::vector<std::unique_ptr<net::Impairment>> impairs;
  std::vector<std::unique_ptr<net::NodeService>> svcs;
  std::vector<std::unique_ptr<net::PeerDirectory>> dirs;
  net::PeerDirectoryConfig dcfg;
  // Full membership must fit: the digest identity needs every node in every
  // view, and one bootstrap reply from node 0 must carry them all.
  dcfg.view_size = std::max<std::size_t>(dcfg.view_size, opt.nodes);
  dcfg.shuffle_size =
      std::min<std::size_t>(net::kMaxPeerDescriptors,
                            std::max(dcfg.shuffle_size, opt.nodes));
  for (std::size_t i = 0; i < opt.nodes; ++i) {
    const auto id = static_cast<PeerId>(i);
    svcs.push_back(std::make_unique<net::NodeService>(
        loop, id, *nodes[i].keys, *nodes[i].vote, nullptr));
    std::string err;
    if (!svcs[i]->listen(0, &err)) {
      std::fprintf(stderr, "tribvote_cluster: node %zu listen failed: %s\n",
                   i, err.c_str());
      return 1;
    }
    dirs.push_back(std::make_unique<net::PeerDirectory>(
        id, *nodes[i].keys, 0x7f000001u, svcs[i]->listen_port(), dcfg,
        util::Rng(node_seed(opt, id) * 7919 + 3)));
    // Bootstrap happens before round 0; protocol time starts at 0.
    svcs[i]->set_directory(dirs[i].get(), [] { return Time{0}; });
    if (impaired) {
      // Deadlines arm only alongside impairment: the pristine path must
      // stay byte-identical to the pre-chaos harness.
      impairs.push_back(std::make_unique<net::Impairment>(icfg, opt.seed, id));
      svcs[i]->set_impairment(impairs[i].get());
      svcs[i]->set_deadlines(2000, 2000);
    }
  }

  // Bootstrap: everyone dials node 0 and pumps reply-requested shuffles at
  // it until every directory holds full membership. Two pumps suffice on a
  // pristine transport (first registers every node with 0, second pulls 0's
  // complete view); under impairment a seed connection can be reset at any
  // point, so each pump redials dead connections and only shuffles over
  // ready ones — the loop bound covers the retries.
  std::vector<int> seed_conns(opt.nodes, -1);
  for (std::size_t i = 1; i < opt.nodes; ++i) {
    std::string err;
    seed_conns[i] = svcs[i]->connect("127.0.0.1", svcs[0]->listen_port(),
                                     &err);
    if (seed_conns[i] < 0) {
      std::fprintf(stderr, "tribvote_cluster: node %zu dial failed: %s\n", i,
                   err.c_str());
      return 1;
    }
  }
  const auto full_membership = [&] {
    for (const auto& d : dirs) {
      if (d->view_count() != opt.nodes - 1) return false;
    }
    return true;
  };
  const int max_pumps = impaired ? 400 : 40;
  for (int pump = 0; pump < max_pumps && !full_membership(); ++pump) {
    for (std::size_t i = 1; i < opt.nodes; ++i) {
      if (seed_conns[i] < 0 || !svcs[i]->open(seed_conns[i])) {
        seed_conns[i] = svcs[i]->connect("127.0.0.1", svcs[0]->listen_port());
        continue;  // HELLO settles on a later pump
      }
      if (svcs[i]->ready(seed_conns[i])) {
        (void)svcs[i]->send_peer_exchange(seed_conns[i], true);
      }
    }
    (void)loop.run_until(full_membership, 100);
  }
  if (!full_membership()) {
    std::fprintf(stderr,
                 "tribvote_cluster: views never reached full membership\n");
    return 1;
  }

  // One encounter over real sockets, driven to completion — the serial
  // execution order ShardKernel's level schedule is provably equivalent to.
  // Under impairment the exchange can die mid-flight (reset, stall +
  // deadline); each attempt redials and re-runs the encounter from scratch,
  // which is safe because vote merges are idempotent.
  const auto run_encounter = [&](PeerId initiator, PeerId responder,
                                 Time now) {
    net::NodeService& svc = *svcs[initiator];
    const int max_attempts = impaired ? 16 : 1;
    for (int attempt = 0; attempt < max_attempts; ++attempt) {
      int conn = svc.conn_for_peer(responder);
      if (conn < 0) {
        net::PeerDescriptor d;
        if (!dirs[initiator]->lookup(responder, d)) return false;
        conn = svc.connect(ip_string(d.ip), d.port);
        if (conn < 0) continue;
        if (!loop.run_until(
                [&] { return svc.ready(conn) || !svc.open(conn); },
                kStepMs)) {
          return false;
        }
        if (!svc.open(conn)) continue;  // impaired away mid-HELLO; redial
      }
      const std::uint64_t want =
          svc.engine_counters(conn)->encounters_completed + 1;
      if (!svc.initiate_vote_encounter(conn, now)) {
        svc.close(conn);  // wedged remnant of an earlier attempt
        continue;
      }
      const auto settled = [&] {
        if (!svc.open(conn)) return true;  // reset / deadline close
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

  std::vector<pss::PeerSampler*> samplers;
  for (const auto& d : dirs) samplers.push_back(d.get());
  long partition_skips = 0;
  const long executed = run_schedule(
      opt, nodes, samplers,
      [&](const std::vector<sim::Encounter>& encounters, Time now) {
        // Advance every shim's partition clock to this round; an encounter
        // with either endpoint inside a window is skipped, not failed —
        // exactly what the sim's fault plane does with offline peers.
        const auto round =
            static_cast<std::uint64_t>(now / kRoundPeriod) - 1;
        for (const auto& im : impairs) im->set_round(round);
        for (const sim::Encounter& e : encounters) {
          if (impaired && (impairs[e.initiator]->self_offline() ||
                           impairs[e.initiator]->offline(e.responder))) {
            ++partition_skips;
            continue;
          }
          if (!run_encounter(e.initiator, e.responder, now)) {
            std::fprintf(stderr,
                         "tribvote_cluster: encounter %u -> %u failed\n",
                         e.initiator, e.responder);
            return false;
          }
        }
        return true;
      });
  if (executed < 0) return 1;

  for (const auto& svc : svcs) {
    for (const int c : svc->connections()) svc->send_bye(c);
  }
  loop.poll_once(0);  // best-effort flush of the BYEs

  std::uint64_t frames = 0, px_in = 0;
  for (const auto& svc : svcs) {
    frames += svc->stats().frames_in;
    px_in += svc->stats().peer_exchanges_in;
  }
  std::fprintf(stderr, "tribvote_cluster: tcp executed %ld encounters "
                       "(%llu frames_in, %llu peer_exchanges_in)\n",
               executed, static_cast<unsigned long long>(frames),
               static_cast<unsigned long long>(px_in));
  if (impaired) {
    std::uint64_t resets = 0, hello_to = 0, enc_to = 0;
    net::ImpairStats is;
    for (const auto& svc : svcs) {
      resets += svc->stats().impair_resets;
      hello_to += svc->stats().hello_timeouts;
      enc_to += svc->stats().encounter_timeouts;
    }
    for (const auto& im : impairs) {
      const net::ImpairStats& s = im->stats();
      is.chunks += s.chunks;
      is.dropped += s.dropped;
      is.delayed += s.delayed;
      is.corrupted += s.corrupted;
      is.truncated += s.truncated;
      is.stalled += s.stalled;
    }
    std::fprintf(
        stderr,
        "tribvote_cluster: impair chunks %llu dropped %llu delayed %llu "
        "corrupted %llu truncated %llu stalled %llu resets %llu "
        "timeouts %llu/%llu partition_skips %ld\n",
        static_cast<unsigned long long>(is.chunks),
        static_cast<unsigned long long>(is.dropped),
        static_cast<unsigned long long>(is.delayed),
        static_cast<unsigned long long>(is.corrupted),
        static_cast<unsigned long long>(is.truncated),
        static_cast<unsigned long long>(is.stalled),
        static_cast<unsigned long long>(resets),
        static_cast<unsigned long long>(hello_to),
        static_cast<unsigned long long>(enc_to), partition_skips);
  }
  return write_reports(opt, nodes);
}

int usage() {
  std::fprintf(stderr,
               "usage: tribvote_cluster --mode oracle|tcp [--nodes N]"
               " [--rounds R] [--casts K] [--seed S] [--shards M]"
               " [--state-out F] [--impair SPEC]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  sim::options::CliFlags cli(argc, argv);
  while (cli.next()) {
    if (cli.value("--mode", opt.mode)) {
    } else if (cli.size("--nodes", opt.nodes)) {
    } else if (cli.i32("--rounds", opt.rounds)) {
    } else if (cli.i32("--casts", opt.casts)) {
    } else if (cli.u64("--seed", opt.seed)) {
    } else if (cli.size("--shards", opt.shards)) {
    } else if (cli.value("--state-out", opt.state_out)) {
    } else if (cli.value("--impair", opt.impair_spec)) {
    } else {
      return usage();
    }
  }
  if (cli.error() || opt.nodes < 2 || opt.rounds < 0 || opt.shards < 1 ||
      (opt.mode != "oracle" && opt.mode != "tcp")) {
    return usage();
  }
  sim::options::banner("tribvote_cluster",
                       {{"mode", opt.mode},
                        {"nodes", std::to_string(opt.nodes)},
                        {"rounds", std::to_string(opt.rounds)},
                        {"casts", std::to_string(opt.casts)},
                        {"seed", std::to_string(opt.seed)},
                        {"shards", std::to_string(opt.shards)},
                        {"impair", opt.impair_spec.empty() ? "off"
                                                           : opt.impair_spec}});
  return opt.mode == "oracle" ? run_oracle(opt) : run_tcp(opt);
}
