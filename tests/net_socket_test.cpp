// End-to-end socket plane: EventLoop + NodeService over real loopback TCP.
//
// Two NodeServices share one event loop in-process; everything an
// encounter produces crosses an actual kernel socket. The final agent
// states must match the sim oracle exactly (the top rung of the DESIGN.md
// §13 equivalence ladder), and the transport error paths — malformed
// headers, CRC rejects, truncated streams, reconnects — must land in the
// right NetStats / net.* telemetry counters.
#include <gtest/gtest.h>

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstring>
#include <memory>
#include <string>
#include <utility>

#include "crypto/schnorr.hpp"
#include "net/codec.hpp"
#include "net/event_loop.hpp"
#include "net/frame.hpp"
#include "net/node_service.hpp"
#include "telemetry/registry.hpp"
#include "vote/agent.hpp"
#include "vote/encounter.hpp"

namespace tribvote::net {
namespace {

constexpr int kStepMs = 2000;  ///< generous per-condition loop budget

struct Twin {
  crypto::KeyPair keys;
  std::unique_ptr<vote::VoteAgent> sim;
  std::unique_ptr<vote::VoteAgent> wire;

  void cast(ModeratorId m, Opinion op, Time t) {
    sim->cast_vote(m, op, t);
    wire->cast_vote(m, op, t);
  }
};

Twin make_twin(PeerId id, std::uint64_t seed) {
  Twin t;
  util::Rng krng(seed);
  t.keys = crypto::generate_keypair(krng);
  const auto exp = [](PeerId) { return true; };
  t.sim = std::make_unique<vote::VoteAgent>(id, t.keys, vote::VoteConfig{},
                                            exp, util::Rng(seed * 7919 + 1));
  t.wire = std::make_unique<vote::VoteAgent>(id, t.keys, vote::VoteConfig{},
                                             exp, util::Rng(seed * 7919 + 1));
  return t;
}

/// Both services on one loop: poll until `done` or fail the test.
void drive(EventLoop& loop, const std::function<bool()>& done) {
  ASSERT_TRUE(loop.run_until(done, kStepMs)) << "loop condition timed out";
}

/// A raw blocking client socket for hostile-bytes tests.
int raw_client(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  return fd;
}

void send_all(int fd, const std::vector<std::uint8_t>& bytes) {
  std::size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n = ::send(fd, bytes.data() + sent, bytes.size() - sent, 0);
    ASSERT_GT(n, 0);
    sent += static_cast<std::size_t>(n);
  }
}

// ---- the tentpole equivalence: TCP session == sim oracle -------------------

TEST(NetSocket, TcpSessionStateMatchesSimOracle) {
  Twin a = make_twin(1, 1001);  // listener
  Twin b = make_twin(2, 1002);  // dialer / initiator
  a.cast(10, Opinion::kPositive, 50);
  a.cast(11, Opinion::kNegative, 60);
  b.cast(10, Opinion::kPositive, 55);

  EventLoop loop;
  telemetry::Registry registry(1);
  NodeService svc_a(loop, 1, a.keys, *a.wire, nullptr, &registry);
  NodeService svc_b(loop, 2, b.keys, *b.wire, nullptr, nullptr);
  std::string err;
  ASSERT_TRUE(svc_a.listen(0, &err)) << err;
  ASSERT_GT(svc_a.listen_port(), 0);
  const int cb = svc_b.connect("127.0.0.1", svc_a.listen_port(), &err);
  ASSERT_GE(cb, 0) << err;

  drive(loop, [&] {
    return svc_b.ready(cb) && svc_a.connection_count() == 1 &&
           svc_a.ready(svc_a.connections().front());
  });
  const int ca = svc_a.connections().front();
  EXPECT_EQ(svc_a.peer_of(ca), 2u);
  EXPECT_EQ(svc_b.peer_of(cb), 1u);

  // Three encounters with casts in between — cold full, warm delta,
  // digest-only steady state, all over the real socket.
  const Time times[] = {100, 200, 300};
  for (int round = 0; round < 3; ++round) {
    if (round == 1) {
      b.cast(12, Opinion::kPositive, 150);
      a.cast(13, Opinion::kNegative, 160);
    }
    vote::vote_encounter(*b.sim, *a.sim, times[round]);
    ASSERT_TRUE(svc_b.initiate_vote_encounter(cb, times[round]));
    const std::uint64_t want = static_cast<std::uint64_t>(round) + 1;
    drive(loop, [&] {
      return svc_b.initiator_idle(cb) &&
             svc_b.engine_counters(cb)->encounters_completed == want &&
             svc_a.engine_counters(ca)->encounters_served == want;
    });
  }

  // The tentpole claim: byte-identical protocol state on both paths.
  EXPECT_EQ(a.sim->state_digest(), a.wire->state_digest());
  EXPECT_EQ(b.sim->state_digest(), b.wire->state_digest());
  EXPECT_GT(svc_b.engine_counters(cb)->open_digest, 0u);

  // Quiescence: BYE both ways, then close.
  svc_b.send_bye(cb);
  svc_a.send_bye(ca);
  drive(loop, [&] { return svc_b.bye_received(cb) && svc_a.bye_received(ca); });
  svc_b.close(cb);
  drive(loop, [&] { return svc_a.connection_count() == 0; });

  // Transport accounting flowed into NetStats and the telemetry plane.
  EXPECT_GT(svc_a.stats().frames_in, 0u);
  EXPECT_GT(svc_a.stats().bytes_in, 0u);
  EXPECT_EQ(svc_a.stats().connections_in, 1u);
  EXPECT_EQ(svc_b.stats().connections_out, 1u);
  EXPECT_EQ(registry.total_by_name("net.frames_in"), svc_a.stats().frames_in);
  EXPECT_EQ(registry.total_by_name("net.bytes_out"), svc_a.stats().bytes_out);
}

TEST(NetSocket, SimultaneousInitiationOnBothChannels) {
  // Channels make simultaneous initiation conflict-free: each side opens
  // its own encounter on its own channel over the same connection.
  Twin a = make_twin(1, 2001);
  Twin b = make_twin(2, 2002);
  a.cast(10, Opinion::kPositive, 50);
  b.cast(11, Opinion::kNegative, 55);

  EventLoop loop;
  NodeService svc_a(loop, 1, a.keys, *a.wire, nullptr, nullptr);
  NodeService svc_b(loop, 2, b.keys, *b.wire, nullptr, nullptr);
  ASSERT_TRUE(svc_a.listen(0));
  const int cb = svc_b.connect("127.0.0.1", svc_a.listen_port());
  ASSERT_GE(cb, 0);
  drive(loop, [&] {
    return svc_b.ready(cb) && svc_a.connection_count() == 1 &&
           svc_a.ready(svc_a.connections().front());
  });
  const int ca = svc_a.connections().front();

  ASSERT_TRUE(svc_b.initiate_vote_encounter(cb, 100));
  ASSERT_TRUE(svc_a.initiate_vote_encounter(ca, 100));
  drive(loop, [&] {
    return svc_b.engine_counters(cb)->encounters_completed == 1 &&
           svc_a.engine_counters(ca)->encounters_completed == 1 &&
           svc_b.engine_counters(cb)->encounters_served == 1 &&
           svc_a.engine_counters(ca)->encounters_served == 1;
  });
  // Both boxes merged something; cross-channel interleaving is not
  // oracle-deterministic, so this test asserts liveness and accounting,
  // not digests (the smoke script uses a single-initiator schedule).
  EXPECT_GT(a.wire->ballot_box().size(), 0u);
  EXPECT_GT(b.wire->ballot_box().size(), 0u);
}

TEST(NetSocket, ReconnectRestartsSessionAndCounts) {
  Twin a = make_twin(1, 3001);
  Twin b = make_twin(2, 3002);
  b.cast(10, Opinion::kPositive, 50);

  EventLoop loop;
  NodeService svc_a(loop, 1, a.keys, *a.wire, nullptr, nullptr);
  NodeService svc_b(loop, 2, b.keys, *b.wire, nullptr, nullptr);
  ASSERT_TRUE(svc_a.listen(0));
  const int cb = svc_b.connect("127.0.0.1", svc_a.listen_port());
  ASSERT_GE(cb, 0);
  drive(loop, [&] { return svc_b.ready(cb) && svc_a.connection_count() == 1; });

  svc_b.close(cb);
  EXPECT_FALSE(svc_b.open(cb));
  drive(loop, [&] { return svc_a.connection_count() == 0; });

  ASSERT_TRUE(svc_b.reconnect(cb));
  drive(loop, [&] { return svc_b.ready(cb) && svc_a.connection_count() == 1; });
  EXPECT_EQ(svc_b.stats().reconnects, 1u);

  // The fresh session works: one encounter end to end.
  ASSERT_TRUE(svc_b.initiate_vote_encounter(cb, 100));
  drive(loop,
        [&] { return svc_b.engine_counters(cb)->encounters_completed == 1; });
  EXPECT_GT(a.wire->ballot_box().size(), 0u);
}

// ---- write batching --------------------------------------------------------

/// A ready pair of services on one loop: `a` listens, `b` dials.
std::pair<int, int> handshake(EventLoop& loop, NodeService& a, NodeService& b) {
  EXPECT_TRUE(a.listen(0));
  const int cb = b.connect("127.0.0.1", a.listen_port());
  EXPECT_GE(cb, 0);
  EXPECT_TRUE(loop.run_until(
      [&] {
        return b.ready(cb) && a.connection_count() == 1 &&
               a.ready(a.connections().front());
      },
      kStepMs));
  const std::vector<int> accepted = a.connections();
  return {accepted.empty() ? -1 : accepted.front(), cb};
}

TEST(NetSocket, OneSendPerFlightOnWarmDigestEncounters) {
  // The steady state net_loopback times: the responder cast its list once,
  // the initiator casts two votes before every encounter. Each flight —
  // every frame one engine step emits — leaves in one send, and the
  // initiator's ENC_END rides with the next encounter's opening frames.
  Twin a = make_twin(1, 5001);  // responder
  Twin b = make_twin(2, 5002);  // initiator
  for (ModeratorId m = 1; m <= 24; ++m) {
    a.wire->cast_vote(m, m % 2 == 0 ? Opinion::kPositive : Opinion::kNegative,
                      0);
  }
  EventLoop loop;
  telemetry::Registry registry(1);
  NodeService svc_a(loop, 1, a.keys, *a.wire, nullptr, &registry);
  NodeService svc_b(loop, 2, b.keys, *b.wire, nullptr, nullptr);
  const auto [ca, cb] = handshake(loop, svc_a, svc_b);

  util::Rng rng(5003);
  std::uint64_t done = 0;
  const auto encounter = [&] {
    const Time now = static_cast<Time>(done + 1) * 1000;
    for (Time k = 0; k < 2; ++k) {
      b.wire->cast_vote(static_cast<ModeratorId>(1 + rng.next_below(24)),
                        rng.next_bool(0.5) ? Opinion::kPositive
                                           : Opinion::kNegative,
                        now - 1000 + k + 1);
    }
    ASSERT_TRUE(svc_b.initiate_vote_encounter(cb, now));
    ++done;
    drive(loop, [&] {
      return svc_b.initiator_idle(cb) &&
             svc_b.engine_counters(cb)->encounters_completed == done;
    });
  };
  for (int i = 0; i < 5; ++i) encounter();  // cold full legs, then warm

  constexpr std::uint64_t kWarm = 50;
  const NetStats a0 = svc_a.stats();
  const std::uint64_t digest0 = svc_b.engine_counters(cb)->open_digest;
  for (std::uint64_t i = 0; i < kWarm; ++i) encounter();
  EXPECT_EQ(svc_b.engine_counters(cb)->open_digest - digest0, kWarm);
  EXPECT_EQ(svc_a.stats().sends - a0.sends, 3 * kWarm);
  EXPECT_GE(svc_a.stats().recvs - a0.recvs, 3 * kWarm);

  svc_b.send_bye(cb);
  drive(loop, [&] { return svc_a.bye_received(ca); });
  // Over its whole life, HELLO and BYE included: at most 4 per encounter.
  EXPECT_LE(svc_b.stats().sends, 4 * done + 2);
  EXPECT_EQ(registry.total_by_name("net.sends"), svc_a.stats().sends);
  EXPECT_EQ(registry.total_by_name("net.recvs"), svc_a.stats().recvs);
}

TEST(NetSocket, QueuedByeReachesPeerWhenClosedAtOnce) {
  // No loop pass between the BYE and the close: the close itself must
  // write what is queued, or the peer sees a bare EOF.
  Twin a = make_twin(1, 5101);
  Twin b = make_twin(2, 5102);
  EventLoop loop;
  NodeService svc_a(loop, 1, a.keys, *a.wire, nullptr, nullptr);
  NodeService svc_b(loop, 2, b.keys, *b.wire, nullptr, nullptr);
  const auto [ca, cb] = handshake(loop, svc_a, svc_b);

  svc_b.send_bye(cb);
  svc_b.close(cb);
  drive(loop, [&] { return svc_a.connection_count() == 0; });
  EXPECT_TRUE(svc_a.bye_received(ca));
  EXPECT_EQ(svc_a.stats().protocol_errors, 0u);
}

// ---- hostile byte streams --------------------------------------------------

TEST(NetSocket, MalformedHeaderDropsConnection) {
  Twin a = make_twin(1, 4001);
  EventLoop loop;
  NodeService svc(loop, 1, a.keys, *a.wire, nullptr, nullptr);
  ASSERT_TRUE(svc.listen(0));

  const int fd = raw_client(svc.listen_port());
  std::vector<std::uint8_t> junk(kHeaderSize, 0xAA);  // bad magic
  send_all(fd, junk);
  drive(loop, [&] { return svc.stats().malformed == 1; });
  EXPECT_EQ(svc.connection_count(), 0u);  // connection-fatal (§5)
  EXPECT_EQ(svc.stats().checksum_rejects, 0u);
  ::close(fd);
}

TEST(NetSocket, CrcMismatchDropsConnection) {
  Twin a = make_twin(1, 4002);
  EventLoop loop;
  NodeService svc(loop, 1, a.keys, *a.wire, nullptr, nullptr);
  ASSERT_TRUE(svc.listen(0));

  util::Rng krng(4);
  const crypto::KeyPair peer_keys = crypto::generate_keypair(krng);
  Frame hello;
  hello.type = FrameType::kHello;
  hello.payload = encode_hello({7, peer_keys.pub});
  std::vector<std::uint8_t> wire;
  encode_frame(hello, wire);
  wire.back() ^= 0x40;  // flip a payload bit after the CRC was computed
  const int fd = raw_client(svc.listen_port());
  send_all(fd, wire);
  drive(loop, [&] { return svc.stats().checksum_rejects == 1; });
  EXPECT_EQ(svc.connection_count(), 0u);
  EXPECT_EQ(svc.stats().malformed, 0u);
  ::close(fd);
}

TEST(NetSocket, TruncatedStreamCounts) {
  Twin a = make_twin(1, 4003);
  EventLoop loop;
  NodeService svc(loop, 1, a.keys, *a.wire, nullptr, nullptr);
  ASSERT_TRUE(svc.listen(0));

  util::Rng krng(5);
  const crypto::KeyPair peer_keys = crypto::generate_keypair(krng);
  Frame hello;
  hello.type = FrameType::kHello;
  hello.payload = encode_hello({7, peer_keys.pub});
  std::vector<std::uint8_t> wire;
  encode_frame(hello, wire);
  wire.resize(wire.size() - 4);  // cut mid-frame, then hang up
  const int fd = raw_client(svc.listen_port());
  send_all(fd, wire);
  ::close(fd);
  drive(loop, [&] { return svc.stats().truncated == 1; });
  EXPECT_EQ(svc.connection_count(), 0u);
}

TEST(NetSocket, ProtocolErrorBeforeHelloDropsConnection) {
  Twin a = make_twin(1, 4004);
  EventLoop loop;
  NodeService svc(loop, 1, a.keys, *a.wire, nullptr, nullptr);
  ASSERT_TRUE(svc.listen(0));

  Frame f;  // well-formed frame, but BYE before HELLO is out of state
  f.type = FrameType::kBye;
  std::vector<std::uint8_t> wire;
  encode_frame(f, wire);
  const int fd = raw_client(svc.listen_port());
  send_all(fd, wire);
  drive(loop, [&] { return svc.stats().protocol_errors == 1; });
  EXPECT_EQ(svc.connection_count(), 0u);
  ::close(fd);
}

}  // namespace
}  // namespace tribvote::net
