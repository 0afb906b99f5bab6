// tribvote_node — a real TCP peer speaking PROTOCOL.md, plus the in-process
// sim oracle for the same schedule. Four modes:
//
//   --listen PORT    responder: serve encounters until the peer says BYE,
//                    then report final agent state and exit
//   --connect H:P    initiator: run `--rounds` vote encounters (plus one
//                    moderation encounter when --mods > 0), BYE, report
//   --oracle         run the identical schedule through vote::vote_encounter /
//                    moderation::exchange — the bodies the simulator runs —
//                    in one process and report both endpoints' state, the
//                    golden the TCP run must match
//   --swarm          free-running cluster member: listen, bootstrap the
//                    Newscast directory from --bootstrap H:P, and let the
//                    EncounterScheduler discover peers and run encounters
//                    unattended for --rounds scheduler rounds
//                    (scripts/cluster_smoke.sh)
//
// The scripted modes' schedule is a pure function of (--id, --seed,
// --rounds, --casts, --mods): before encounter r each side casts `--casts`
// pseudo-random votes derived from its seed and r. Over TCP the responder
// applies its casts from the ENC_BEGIN hook — the only point ordered before
// the encounter's merges — so a two-process run is bit-identical to the
// oracle (PROTOCOL.md §6), which scripts/net_smoke.sh asserts by diffing
// the reports.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "crypto/schnorr.hpp"
#include "moderation/moderationcast.hpp"
#include "net/encounter_scheduler.hpp"
#include "net/event_loop.hpp"
#include "net/impairment.hpp"
#include "net/node_service.hpp"
#include "net/peer_directory.hpp"
#include "sim/options.hpp"
#include "telemetry/registry.hpp"
#include "util/rng.hpp"
#include "vote/agent.hpp"
#include "vote/encounter.hpp"

namespace {

using namespace tribvote;

struct Options {
  PeerId id = 1;
  std::uint64_t seed = 1;
  PeerId peer_id = 2;        // oracle mode: the other endpoint
  std::uint64_t peer_seed = 2;
  int listen_port = -1;      // >= 0 → responder (or the swarm endpoint)
  std::string connect_host;  // non-empty → initiator (or swarm bootstrap)
  std::uint16_t connect_port = 0;
  bool oracle = false;
  bool swarm = false;
  std::string advertise_ip = "127.0.0.1";  // swarm: dial-back address
  int max_ms = 0;            // swarm wall-clock budget (0 = auto)
  int rounds = 3;
  int casts = 2;
  int mods = 0;
  std::string state_out;
  std::string port_file;
  bool telemetry = false;
  std::string impair_spec;  // --impair overrides TRIBVOTE_NET_IMPAIR
};

constexpr Time kRoundPeriod = 1000;
/// Swarm mode's HELLO and mid-encounter progress deadlines, in wall ms
/// (NodeService leaves both off by default).
constexpr int kDeadlineMs = 2000;

Time round_time(int round) { return kRoundPeriod * (round + 1); }

struct ScheduledCast {
  ModeratorId moderator;
  Opinion opinion;
  Time at;
};

// The scripted casts one node applies immediately before encounter `round`.
// Derived only from (seed, round, casts) so every mode regenerates the same
// schedule without any cross-process coordination.
std::vector<ScheduledCast> casts_for(std::uint64_t seed, int round,
                                     int casts) {
  std::vector<ScheduledCast> out;
  const std::uint64_t stream = static_cast<std::uint64_t>(round) + 1;
  util::Rng rng(seed ^ (0x9e3779b97f4a7c15ULL * stream));
  const Time base = round_time(round) - kRoundPeriod;
  for (int i = 0; i < casts; ++i) {
    out.push_back({static_cast<ModeratorId>(1 + rng.next_below(24)),
                   rng.next_bool(0.5) ? Opinion::kPositive
                                      : Opinion::kNegative,
                   base + i + 1});
  }
  return out;
}

struct Endpoint {
  crypto::KeyPair keys;
  std::unique_ptr<vote::VoteAgent> vote;
  std::unique_ptr<moderation::ModerationCastAgent> mod;
};

Endpoint make_endpoint(PeerId id, std::uint64_t seed) {
  Endpoint e;
  util::Rng krng(seed);
  e.keys = crypto::generate_keypair(krng);
  e.vote = std::make_unique<vote::VoteAgent>(
      id, e.keys, vote::VoteConfig{}, [](PeerId) { return true; },
      util::Rng(seed * 7919 + 1));
  e.mod = std::make_unique<moderation::ModerationCastAgent>(
      id, e.keys, moderation::ModerationCastConfig{},
      [](ModeratorId) { return Opinion::kPositive; },
      util::Rng(seed * 7919 + 2));
  return e;
}

void apply_casts(vote::VoteAgent& agent, std::uint64_t seed, int round,
                 int casts) {
  for (const ScheduledCast& c : casts_for(seed, round, casts)) {
    agent.cast_vote(c.moderator, c.opinion, c.at);
  }
}

// Each side authors its --mods moderations right before the moderation
// encounter; contents derive from (id, seed) only.
void apply_publishes(moderation::ModerationCastAgent& mod, PeerId id,
                     int mods, Time now) {
  for (int j = 0; j < mods; ++j) {
    mod.publish(static_cast<std::uint64_t>(id) * 1000 +
                    static_cast<std::uint64_t>(j),
                "mod-" + std::to_string(id) + "-" + std::to_string(j), now);
  }
}

void report(std::FILE* f, const Endpoint& e, PeerId id) {
  std::fprintf(f, "node %u digest 0x%016llx\n", id,
               static_cast<unsigned long long>(e.vote->state_digest()));
  std::fprintf(f, "node %u ballots %zu\n", id, e.vote->ballot_box().size());
  std::fprintf(f, "node %u mods %zu\n", id, e.mod->db().size());
}

void write_report(const Options& opt, const Endpoint& self,
                  const Endpoint* peer) {
  report(stdout, self, opt.id);
  if (peer != nullptr) report(stdout, *peer, opt.peer_id);
  if (!opt.state_out.empty()) {
    std::FILE* f = std::fopen(opt.state_out.c_str(), "w");
    if (f != nullptr) {
      report(f, self, opt.id);
      if (peer != nullptr) report(f, *peer, opt.peer_id);
      std::fclose(f);
    }
  }
}

void report_telemetry(const net::NodeService& svc,
                      const telemetry::Registry& registry) {
  const net::NetStats& s = svc.stats();
  std::printf("net frames_in %llu frames_out %llu\n",
              static_cast<unsigned long long>(s.frames_in),
              static_cast<unsigned long long>(s.frames_out));
  std::printf("net bytes_in %llu bytes_out %llu\n",
              static_cast<unsigned long long>(s.bytes_in),
              static_cast<unsigned long long>(s.bytes_out));
  std::printf("net sends %llu recvs %llu\n",
              static_cast<unsigned long long>(s.sends),
              static_cast<unsigned long long>(s.recvs));
  std::printf(
      "net checksum_rejects %llu malformed %llu truncated %llu "
      "protocol_errors %llu reconnects %llu\n",
      static_cast<unsigned long long>(s.checksum_rejects),
      static_cast<unsigned long long>(s.malformed),
      static_cast<unsigned long long>(s.truncated),
      static_cast<unsigned long long>(s.protocol_errors),
      static_cast<unsigned long long>(s.reconnects));
  std::printf("telemetry net.frames_in %llu net.bytes_in %llu\n",
              static_cast<unsigned long long>(
                  registry.total_by_name("net.frames_in")),
              static_cast<unsigned long long>(
                  registry.total_by_name("net.bytes_in")));
}

int run_oracle(const Options& opt) {
  Endpoint self = make_endpoint(opt.id, opt.seed);       // initiator
  Endpoint peer = make_endpoint(opt.peer_id, opt.peer_seed);
  for (int r = 0; r < opt.rounds; ++r) {
    apply_casts(*self.vote, opt.seed, r, opt.casts);
    apply_casts(*peer.vote, opt.peer_seed, r, opt.casts);
    vote::vote_encounter(*self.vote, *peer.vote, round_time(r));
  }
  if (opt.mods > 0) {
    const Time t = round_time(opt.rounds);
    apply_publishes(*self.mod, opt.id, opt.mods, t - 1);
    apply_publishes(*peer.mod, opt.peer_id, opt.mods, t - 1);
    moderation::exchange(*self.mod, *peer.mod, t);
  }
  write_report(opt, self, &peer);
  return 0;
}

constexpr int kStepMs = 10000;  ///< per-condition wait budget

bool drive(net::EventLoop& loop, const std::function<bool()>& done,
           const char* what) {
  if (loop.run_until(done, kStepMs)) return true;
  std::fprintf(stderr, "tribvote_node: timed out waiting for %s\n", what);
  return false;
}

int run_responder(const Options& opt) {
  Endpoint self = make_endpoint(opt.id, opt.seed);
  net::EventLoop loop;
  telemetry::Registry registry(1);
  net::NodeService svc(loop, opt.id, self.keys, *self.vote, self.mod.get(),
                       &registry);
  // Scripted casts ride the ENC_BEGIN hook: ordered before anything of the
  // incoming encounter merges, which is what keeps a two-process run
  // bit-identical to the oracle.
  svc.set_encounter_begin_hook([&](std::uint8_t kind, Time now) {
    if (kind == net::kEncounterVote) {
      apply_casts(*self.vote,
                  opt.seed, static_cast<int>(now / kRoundPeriod) - 1,
                  opt.casts);
    } else {
      apply_publishes(*self.mod, opt.id, opt.mods, now - 1);
    }
  });
  std::string err;
  if (!svc.listen(static_cast<std::uint16_t>(opt.listen_port), &err)) {
    std::fprintf(stderr, "tribvote_node: listen failed: %s\n", err.c_str());
    return 1;
  }
  std::printf("listening %u\n", svc.listen_port());
  std::fflush(stdout);
  if (!opt.port_file.empty()) {
    std::ofstream pf(opt.port_file);
    pf << svc.listen_port() << "\n";
  }

  const auto peer_conn = [&]() -> int {
    for (const int c : svc.connections()) {
      if (svc.bye_received(c)) return c;
    }
    return -1;
  };
  if (!drive(loop, [&] { return peer_conn() >= 0; }, "peer BYE")) return 1;
  const int c = peer_conn();
  svc.send_bye(c);
  if (!drive(loop, [&] { return svc.connection_count() == 0; },
             "peer close")) {
    return 1;
  }
  write_report(opt, self, nullptr);
  if (opt.telemetry) report_telemetry(svc, registry);
  return 0;
}

int run_initiator(const Options& opt) {
  Endpoint self = make_endpoint(opt.id, opt.seed);
  net::EventLoop loop;
  telemetry::Registry registry(1);
  net::NodeService svc(loop, opt.id, self.keys, *self.vote, self.mod.get(),
                       &registry);
  std::string err;
  const int c = svc.connect(opt.connect_host, opt.connect_port, &err);
  if (c < 0) {
    std::fprintf(stderr, "tribvote_node: connect failed: %s\n", err.c_str());
    return 1;
  }
  if (!drive(loop, [&] { return svc.ready(c); }, "HELLO")) return 1;

  for (int r = 0; r < opt.rounds; ++r) {
    apply_casts(*self.vote, opt.seed, r, opt.casts);
    if (!svc.initiate_vote_encounter(c, round_time(r))) {
      std::fprintf(stderr, "tribvote_node: initiate failed\n");
      return 1;
    }
    const std::uint64_t want = static_cast<std::uint64_t>(r) + 1;
    if (!drive(loop,
               [&] {
                 return svc.initiator_idle(c) &&
                        svc.engine_counters(c)->encounters_completed == want;
               },
               "encounter")) {
      return 1;
    }
  }
  if (opt.mods > 0) {
    const Time t = round_time(opt.rounds);
    apply_publishes(*self.mod, opt.id, opt.mods, t - 1);
    if (!svc.initiate_moderation_encounter(c, t)) {
      std::fprintf(stderr, "tribvote_node: moderation initiate failed\n");
      return 1;
    }
    if (!drive(loop,
               [&] {
                 return svc.initiator_idle(c) &&
                        svc.engine_counters(c)->mod_completed == 1;
               },
               "moderation encounter")) {
      return 1;
    }
  }

  svc.send_bye(c);
  if (!drive(loop, [&] { return svc.bye_received(c); }, "BYE")) return 1;
  svc.close(c);
  write_report(opt, self, nullptr);
  if (opt.telemetry) report_telemetry(svc, registry);
  return 0;
}

// "a.b.c.d" -> host-order u32; 0 on malformed input.
std::uint32_t parse_ipv4(const std::string& s) {
  unsigned a = 0, b = 0, c = 0, d = 0;
  char tail = 0;
  if (std::sscanf(s.c_str(), "%u.%u.%u.%u%c", &a, &b, &c, &d, &tail) != 4 ||
      a > 255 || b > 255 || c > 255 || d > 255) {
    return 0;
  }
  return (a << 24) | (b << 16) | (c << 8) | d;
}

int run_swarm(const Options& opt) {
  if (opt.listen_port < 0) return 2;
  Endpoint self = make_endpoint(opt.id, opt.seed);
  net::EventLoop loop;
  telemetry::Registry registry(1);

  // The chaos plane: --impair wins over TRIBVOTE_NET_IMPAIR; an empty spec
  // leaves the shim detached (the inert path — byte-identical to a build
  // without it). Constructed before the NodeService because ~NodeService
  // detaches its streams from the shim.
  const std::string spec = !opt.impair_spec.empty()
                               ? opt.impair_spec
                               : sim::options::net_impair_spec();
  net::ImpairConfig icfg;
  std::string ierr;
  if (!spec.empty() && !net::parse_impair_spec(spec, icfg, &ierr)) {
    std::fprintf(stderr, "tribvote_node: bad --impair spec: %s\n",
                 ierr.c_str());
    return 2;
  }
  std::unique_ptr<net::Impairment> impair;
  if (icfg.enabled()) {
    impair = std::make_unique<net::Impairment>(icfg, opt.seed, opt.id);
  }

  net::NodeService svc(loop, opt.id, self.keys, *self.vote, self.mod.get(),
                       &registry);
  std::string err;
  if (!svc.listen(static_cast<std::uint16_t>(opt.listen_port), &err)) {
    std::fprintf(stderr, "tribvote_node: listen failed: %s\n", err.c_str());
    return 1;
  }
  if (!opt.port_file.empty()) {
    std::ofstream pf(opt.port_file);
    pf << svc.listen_port() << "\n";
  }
  std::printf("listening %u\n", svc.listen_port());
  std::fflush(stdout);

  net::PeerDirectory dir(opt.id, self.keys, parse_ipv4(opt.advertise_ip),
                         svc.listen_port(), net::PeerDirectoryConfig{},
                         util::Rng(opt.seed * 7919 + 3));
  dir.set_exchange_probe(
      telemetry::Counter(&registry, registry.counter("pss.exchanges")));

  // Encounter deadlines are on by default in swarm mode: a free-running
  // harness must survive half-open peers unattended.
  if (impair != nullptr) svc.set_impairment(impair.get());
  svc.set_deadlines(kDeadlineMs, kDeadlineMs);

  net::EncounterSchedulerConfig scfg;
  scfg.mod_every = opt.mods > 0 ? 4 : 0;
  net::EncounterScheduler sched(loop, svc, dir, scfg);
  if (impair != nullptr) sched.set_impairment(impair.get());
  if (!opt.connect_host.empty()) {
    sched.add_seed(opt.connect_host, opt.connect_port);
  }
  sched.start();

  // Free-running vote activity: `--casts` pseudo-random casts per scheduler
  // round, applied as rounds complete. Not a bit-identity schedule — the
  // swarm rung asserts convergence and coverage, not digests (§7).
  util::Rng cast_rng(opt.seed ^ 0x5eedca575ULL);
  std::uint64_t casts_applied = 0;
  const auto start = std::chrono::steady_clock::now();
  const int budget_ms =
      opt.max_ms > 0 ? opt.max_ms : opt.rounds * scfg.round_ms * 10 + 10000;
  const auto deadline = start + std::chrono::milliseconds(budget_ms);
  while (sched.stats().rounds < static_cast<std::uint64_t>(opt.rounds) &&
         std::chrono::steady_clock::now() < deadline) {
    loop.poll_once(20);
    while (casts_applied < sched.stats().rounds) {
      for (int k = 0; k < opt.casts; ++k) {
        self.vote->cast_vote(
            static_cast<ModeratorId>(1 + cast_rng.next_below(24)),
            cast_rng.next_bool(0.5) ? Opinion::kPositive
                                    : Opinion::kNegative,
            static_cast<Time>(casts_applied));
      }
      ++casts_applied;
    }
  }
  const bool timed_out =
      sched.stats().rounds < static_cast<std::uint64_t>(opt.rounds);
  sched.stop();
  for (const int c : svc.connections()) svc.send_bye(c);
  loop.poll_once(0);  // best-effort flush of the BYEs

  const net::ExchangeEngine::Counters totals = svc.engine_totals();
  const std::uint64_t completed = totals.encounters_completed;
  const std::uint64_t served = totals.encounters_served;
  const net::EncounterScheduler::Stats& ss = sched.stats();
  const auto emit = [&](std::FILE* f) {
    std::fprintf(f, "node %u view %zu\n", opt.id, dir.view_count());
    std::fprintf(f, "node %u ballots %zu\n", opt.id,
                 self.vote->ballot_box().size());
    std::fprintf(f, "node %u unique_voters %zu\n", opt.id,
                 self.vote->ballot_box().unique_voters());
    std::fprintf(f, "node %u digest 0x%016llx\n", opt.id,
                 static_cast<unsigned long long>(self.vote->state_digest()));
    std::fprintf(
        f,
        "node %u rounds %llu encounters_initiated %llu completed %llu "
        "served %llu shuffles %llu dials %llu dial_failures %llu "
        "empty_samples %llu\n",
        opt.id, static_cast<unsigned long long>(ss.rounds),
        static_cast<unsigned long long>(ss.vote_encounters),
        static_cast<unsigned long long>(completed),
        static_cast<unsigned long long>(served),
        static_cast<unsigned long long>(ss.shuffles),
        static_cast<unsigned long long>(ss.dials),
        static_cast<unsigned long long>(ss.dial_failures),
        static_cast<unsigned long long>(ss.empty_samples));
    std::fprintf(
        f, "node %u net.peer_exchanges_in %llu pss.exchanges %llu\n", opt.id,
        static_cast<unsigned long long>(svc.stats().peer_exchanges_in),
        static_cast<unsigned long long>(
            registry.total_by_name("pss.exchanges")));
    std::fprintf(
        f,
        "node %u timeouts hello %llu encounter %llu impair_resets %llu "
        "sched_timeouts %llu partition_skips %llu quarantined %zu\n",
        opt.id, static_cast<unsigned long long>(svc.stats().hello_timeouts),
        static_cast<unsigned long long>(svc.stats().encounter_timeouts),
        static_cast<unsigned long long>(svc.stats().impair_resets),
        static_cast<unsigned long long>(ss.encounter_timeouts),
        static_cast<unsigned long long>(ss.partition_skips),
        dir.quarantined_count());
    if (impair != nullptr) {
      const net::ImpairStats& is = impair->stats();
      std::fprintf(
          f,
          "node %u impair chunks %llu dropped %llu delayed %llu "
          "corrupted %llu truncated %llu stalled %llu ge_bad %llu "
          "part %llu\n",
          opt.id, static_cast<unsigned long long>(is.chunks),
          static_cast<unsigned long long>(is.dropped),
          static_cast<unsigned long long>(is.delayed),
          static_cast<unsigned long long>(is.corrupted),
          static_cast<unsigned long long>(is.truncated),
          static_cast<unsigned long long>(is.stalled),
          static_cast<unsigned long long>(is.ge_bad_chunks),
          static_cast<unsigned long long>(is.partition_drops));
    }
  };
  emit(stdout);
  if (!opt.state_out.empty()) {
    std::FILE* f = std::fopen(opt.state_out.c_str(), "w");
    if (f != nullptr) {
      emit(f);
      std::fclose(f);
    }
  }
  if (opt.telemetry) report_telemetry(svc, registry);
  if (timed_out) {
    std::fprintf(stderr, "tribvote_node: swarm hit wall-clock budget at "
                         "round %llu/%d\n",
                 static_cast<unsigned long long>(ss.rounds), opt.rounds);
    return 1;
  }
  return 0;
}

int usage() {
  std::fprintf(
      stderr,
      "usage:\n"
      "  tribvote_node --id N --seed S --listen PORT [--port-file F]\n"
      "                [--casts K] [--mods M] [--state-out F] [--telemetry]\n"
      "  tribvote_node --id N --seed S --connect HOST:PORT --rounds R\n"
      "                [--casts K] [--mods M] [--state-out F] [--telemetry]\n"
      "  tribvote_node --oracle --id N --seed S --peer-id N2 --peer-seed S2\n"
      "                --rounds R [--casts K] [--mods M] [--state-out F]\n"
      "  tribvote_node --swarm --id N --seed S --listen PORT --rounds R\n"
      "                [--bootstrap HOST:PORT] [--advertise-ip A.B.C.D]\n"
      "                [--max-ms T] [--casts K] [--mods M] [--state-out F]\n"
      "                [--port-file F] [--telemetry] [--impair SPEC]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  sim::options::CliFlags cli(argc, argv);
  while (cli.next()) {
    std::uint32_t id = 0;
    std::uint16_t port = 0;
    if (cli.is_switch("--oracle")) {
      opt.oracle = true;
    } else if (cli.is_switch("--swarm")) {
      opt.swarm = true;
    } else if (cli.is_switch("--telemetry")) {
      opt.telemetry = true;
    } else if (cli.u32("--id", id)) {
      opt.id = static_cast<PeerId>(id);
    } else if (cli.u64("--seed", opt.seed)) {
    } else if (cli.u32("--peer-id", id)) {
      opt.peer_id = static_cast<PeerId>(id);
    } else if (cli.u64("--peer-seed", opt.peer_seed)) {
    } else if (cli.u16("--listen", port)) {
      opt.listen_port = port;
    } else if (cli.host_port("--connect", opt.connect_host,
                             opt.connect_port) ||
               cli.host_port("--bootstrap", opt.connect_host,
                             opt.connect_port)) {
    } else if (cli.i32("--rounds", opt.rounds)) {
    } else if (cli.i32("--casts", opt.casts)) {
    } else if (cli.i32("--mods", opt.mods)) {
    } else if (cli.i32("--max-ms", opt.max_ms)) {
    } else if (cli.value("--advertise-ip", opt.advertise_ip)) {
    } else if (cli.value("--impair", opt.impair_spec)) {
    } else if (cli.value("--state-out", opt.state_out)) {
    } else if (cli.value("--port-file", opt.port_file)) {
    } else {
      return usage();
    }
  }
  if (cli.error()) return usage();

  const std::string env_impair = sim::options::net_impair_spec();
  sim::options::banner(
      "tribvote_node",
      {{"mode", opt.swarm ? "swarm"
                          : opt.oracle ? "oracle"
                                       : opt.listen_port >= 0 ? "listen"
                                                              : "connect"},
       {"id", std::to_string(opt.id)},
       {"seed", std::to_string(opt.seed)},
       {"rounds", std::to_string(opt.rounds)},
       {"casts", std::to_string(opt.casts)},
       {"mods", std::to_string(opt.mods)},
       {"impair", !opt.impair_spec.empty() ? opt.impair_spec
                  : !env_impair.empty()       ? env_impair
                                              : "off"}});

  if (opt.swarm) return run_swarm(opt);
  if (opt.oracle) return run_oracle(opt);
  if (opt.listen_port >= 0) return run_responder(opt);
  if (!opt.connect_host.empty()) return run_initiator(opt);
  return usage();
}
