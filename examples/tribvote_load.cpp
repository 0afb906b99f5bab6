// tribvote_load — drive a listening tribvote_node with back-to-back vote
// encounters and report throughput: encounters/sec, bytes/sec and the
// send/recv calls that moved bytes, as seen from this side's NetStats.
// Pair with:
//
//   ./tribvote_node --id 1 --seed 1 --listen 0 --casts 2 &
//   ./tribvote_load --connect 127.0.0.1:<port> --id 2 --seed 2 --seconds 5
//
// Each round casts `--casts` scheduled votes before initiating, so after the
// first (full) exchange every encounter exercises the digest/delta path —
// the steady-state hot path whose wire cost PROTOCOL.md §4 fixes.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>

#include "crypto/schnorr.hpp"
#include "net/event_loop.hpp"
#include "net/node_service.hpp"
#include "sim/options.hpp"
#include "util/rng.hpp"
#include "vote/agent.hpp"

namespace {

using namespace tribvote;
using Clock = std::chrono::steady_clock;

constexpr Time kRoundPeriod = 1000;

int usage() {
  std::fprintf(stderr,
               "usage: tribvote_load --connect HOST:PORT [--id N] [--seed S]"
               " [--seconds X] [--casts K]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  PeerId id = 99;
  std::uint64_t seed = 99;
  std::string host;
  std::uint16_t port = 0;
  double seconds = 5.0;
  int casts = 2;

  sim::options::CliFlags cli(argc, argv);
  while (cli.next()) {
    std::uint32_t raw_id = 0;
    if (cli.host_port("--connect", host, port)) {
    } else if (cli.u32("--id", raw_id)) {
      id = static_cast<PeerId>(raw_id);
    } else if (cli.u64("--seed", seed)) {
    } else if (cli.f64("--seconds", seconds)) {
    } else if (cli.i32("--casts", casts)) {
    } else {
      return usage();
    }
  }
  if (cli.error() || host.empty() || port == 0) return usage();
  sim::options::banner("tribvote_load", {{"id", std::to_string(id)},
                                         {"seed", std::to_string(seed)},
                                         {"seconds", std::to_string(seconds)},
                                         {"casts", std::to_string(casts)}});

  util::Rng krng(seed);
  const crypto::KeyPair keys = crypto::generate_keypair(krng);
  vote::VoteAgent agent(id, keys, vote::VoteConfig{},
                        [](PeerId) { return true; },
                        util::Rng(seed * 7919 + 1));

  net::EventLoop loop;
  net::NodeService svc(loop, id, keys, agent, nullptr);
  std::string err;
  const int c = svc.connect(host, port, &err);
  if (c < 0) {
    std::fprintf(stderr, "tribvote_load: connect failed: %s\n", err.c_str());
    return 1;
  }
  if (!loop.run_until([&] { return svc.ready(c); }, 10000)) {
    std::fprintf(stderr, "tribvote_load: handshake timed out\n");
    return 1;
  }

  util::Rng cast_rng(seed ^ 0x10adbeefULL);
  const auto start = Clock::now();
  const auto deadline =
      start + std::chrono::milliseconds(static_cast<long>(seconds * 1000));
  std::uint64_t rounds = 0;
  while (Clock::now() < deadline) {
    const Time now = kRoundPeriod * static_cast<Time>(rounds + 1);
    for (int k = 0; k < casts; ++k) {
      agent.cast_vote(static_cast<ModeratorId>(1 + cast_rng.next_below(24)),
                      cast_rng.next_bool(0.5) ? Opinion::kPositive
                                              : Opinion::kNegative,
                      now - kRoundPeriod + k + 1);
    }
    if (!svc.initiate_vote_encounter(c, now)) break;
    const std::uint64_t want = rounds + 1;
    if (!loop.run_until(
            [&] {
              return svc.initiator_idle(c) &&
                     svc.engine_counters(c)->encounters_completed == want;
            },
            10000)) {
      std::fprintf(stderr, "tribvote_load: encounter %llu timed out\n",
                   static_cast<unsigned long long>(want));
      break;
    }
    ++rounds;
  }
  const double elapsed =
      std::chrono::duration<double>(Clock::now() - start).count();

  svc.send_bye(c);
  (void)loop.run_until([&] { return svc.bye_received(c); }, 5000);
  svc.close(c);

  const net::NetStats& s = svc.stats();
  const net::ExchangeEngine::Counters* ec = svc.engine_counters(c);
  std::printf("load encounters %llu\n",
              static_cast<unsigned long long>(rounds));
  std::printf("load seconds %.3f\n", elapsed);
  std::printf("load encounters_per_sec %.1f\n",
              elapsed > 0 ? static_cast<double>(rounds) / elapsed : 0.0);
  std::printf("load bytes_out %llu bytes_in %llu\n",
              static_cast<unsigned long long>(s.bytes_out),
              static_cast<unsigned long long>(s.bytes_in));
  std::printf("load bytes_per_sec %.0f\n",
              elapsed > 0
                  ? static_cast<double>(s.bytes_in + s.bytes_out) / elapsed
                  : 0.0);
  std::printf("load frames_out %llu frames_in %llu\n",
              static_cast<unsigned long long>(s.frames_out),
              static_cast<unsigned long long>(s.frames_in));
  std::printf("load sends %llu recvs %llu\n",
              static_cast<unsigned long long>(s.sends),
              static_cast<unsigned long long>(s.recvs));
  if (ec != nullptr) {
    std::printf("load open_digest %llu open_full %llu\n",
                static_cast<unsigned long long>(ec->open_digest),
                static_cast<unsigned long long>(ec->open_full));
  }
  return 0;
}
