// EventLoop timers and the EncounterScheduler's failure paths: expiry
// order, cancellation, the no-fd sleep path, same-pass cascade fencing,
// exponential-backoff redial, and connection-table behaviour under
// simultaneous dial/accept. Everything runs single-threaded on one loop —
// the TSan shard exercises these alongside the sharded-runner tests.
#include <gtest/gtest.h>

#include <netinet/in.h>
#include <pthread.h>
#include <signal.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include "crypto/schnorr.hpp"
#include "net/codec.hpp"
#include "net/encounter_scheduler.hpp"
#include "net/event_loop.hpp"
#include "net/frame.hpp"
#include "net/impairment.hpp"
#include "net/node_service.hpp"
#include "net/peer_directory.hpp"
#include "util/rng.hpp"
#include "vote/agent.hpp"

namespace tribvote::net {
namespace {

constexpr int kStepMs = 5000;

// ---- EventLoop timers ------------------------------------------------------

TEST(EventLoopTimers, FireInDueThenIdOrderWithoutAnyFds) {
  EventLoop loop;
  std::vector<int> fired;
  loop.schedule_after(30, [&] { fired.push_back(3); });
  loop.schedule_after(0, [&] { fired.push_back(1); });
  loop.schedule_after(0, [&] { fired.push_back(2); });
  ASSERT_TRUE(loop.run_until([&] { return fired.size() == 3; }, kStepMs));
  // Same due time resolves by schedule order (id); a later due fires last
  // — and all of it works with no descriptor registered at all.
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(loop.pending_timers(), 0u);
}

TEST(EventLoopTimers, CancelPreventsFiring) {
  EventLoop loop;
  bool fired = false;
  const EventLoop::TimerId id = loop.schedule_after(0, [&] { fired = true; });
  EXPECT_EQ(loop.pending_timers(), 1u);
  loop.cancel_timer(id);
  EXPECT_EQ(loop.pending_timers(), 0u);
  loop.poll_once(20);
  EXPECT_FALSE(fired);
}

TEST(EventLoopTimers, CallbackMayCancelAPendingSibling) {
  EventLoop loop;
  bool sibling_fired = false;
  EventLoop::TimerId sibling = 0;
  loop.schedule_after(0, [&] { loop.cancel_timer(sibling); });
  sibling = loop.schedule_after(0, [&] { sibling_fired = true; });
  loop.poll_once(20);
  loop.poll_once(20);
  EXPECT_FALSE(sibling_fired);
  EXPECT_EQ(loop.pending_timers(), 0u);
}

TEST(EventLoopTimers, TimerScheduledFromCallbackWaitsForNextPass) {
  EventLoop loop;
  int cascade = 0;
  loop.schedule_after(0, [&] {
    ++cascade;
    loop.schedule_after(0, [&] { ++cascade; });
  });
  loop.poll_once(20);
  // The fence: a due-immediately timer armed inside a callback must not
  // run in the same dispatch pass (no unbounded same-pass cascades).
  EXPECT_EQ(cascade, 1);
  loop.poll_once(20);
  EXPECT_EQ(cascade, 2);
}

TEST(EventLoopTimers, SignalDuringWaitIsAPassNotAnError) {
  // poll(2) is never restarted after a signal handler, SA_RESTART or not:
  // EINTR must read as an empty pass, not as a failed wait.
  struct sigaction act {};
  struct sigaction old {};
  act.sa_handler = [](int) {};
  sigemptyset(&act.sa_mask);
  act.sa_flags = 0;  // no SA_RESTART
  ASSERT_EQ(::sigaction(SIGUSR1, &act, &old), 0);

  int pipe_fds[2];
  ASSERT_EQ(::pipe(pipe_fds), 0);
  EventLoop loop;  // one quiet fd, so the wait is a real poll over fds
  loop.add(pipe_fds[0], {.on_readable = [] {}, .on_writable = nullptr});
  bool fired = false;
  loop.schedule_after(30, [&] { fired = true; });

  const pthread_t waiter = ::pthread_self();
  std::thread signaller([waiter] {
    for (int i = 0; i < 3; ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
      ::pthread_kill(waiter, SIGUSR1);
    }
  });
  const bool ok = loop.run_until([&] { return fired; }, kStepMs);
  signaller.join();
  loop.remove(pipe_fds[0]);
  ::close(pipe_fds[0]);
  ::close(pipe_fds[1]);
  ::sigaction(SIGUSR1, &old, nullptr);
  EXPECT_TRUE(ok);
  EXPECT_TRUE(fired);
}

// ---- scheduler fixtures ----------------------------------------------------

struct SchedNode {
  std::unique_ptr<crypto::KeyPair> keys;
  std::unique_ptr<vote::VoteAgent> vote;
  std::unique_ptr<NodeService> svc;
  std::unique_ptr<PeerDirectory> dir;
};

SchedNode make_sched_node(EventLoop& loop, PeerId id, std::uint64_t seed,
                          PeerDirectoryConfig dconfig = {}) {
  SchedNode n;
  util::Rng krng(seed);
  n.keys = std::make_unique<crypto::KeyPair>(crypto::generate_keypair(krng));
  n.vote = std::make_unique<vote::VoteAgent>(
      id, *n.keys, vote::VoteConfig{}, [](PeerId) { return true; },
      util::Rng(seed * 7919 + 1));
  n.svc = std::make_unique<NodeService>(loop, id, *n.keys, *n.vote, nullptr);
  EXPECT_TRUE(n.svc->listen(0));
  n.dir = std::make_unique<PeerDirectory>(id, *n.keys, 0x7f000001u,
                                          n.svc->listen_port(), dconfig,
                                          util::Rng(seed * 7919 + 3));
  return n;
}

// A loopback port with nothing behind it: bind, read the port, close.
std::uint16_t dead_port() {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  EXPECT_EQ(::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  socklen_t len = sizeof(addr);
  EXPECT_EQ(::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len), 0);
  ::close(fd);
  return ntohs(addr.sin_port);
}

TEST(EncounterSchedulerTest, BackoffRedialsThenDirectoryEvictsDeadPeer) {
  EventLoop loop;
  PeerDirectoryConfig dconfig;
  dconfig.max_dial_failures = 3;
  SchedNode a = make_sched_node(loop, 1, 51, dconfig);

  // A descriptor whose address answers with a RST on every dial.
  const std::uint16_t dead = dead_port();
  util::Rng drng(52);
  const crypto::KeyPair dead_keys = crypto::generate_keypair(drng);
  util::Rng srng(53);
  ASSERT_TRUE(a.dir->merge(
      make_descriptor(7, dead_keys, 0x7f000001u, dead, 10, srng), 10));

  EncounterSchedulerConfig sconfig;
  sconfig.round_ms = 2;
  sconfig.backoff_base_ms = 1;
  sconfig.backoff_max_ms = 4;
  EncounterScheduler sched(loop, *a.svc, *a.dir, sconfig);
  sched.start();
  ASSERT_TRUE(loop.run_until([&] { return a.dir->view_count() == 0; },
                             kStepMs));
  sched.stop();

  // Three failed dials evicted the descriptor; each armed a backoff timer.
  EXPECT_GE(sched.stats().dials, 3u);
  EXPECT_EQ(sched.stats().dial_failures, 3u);
  EXPECT_GE(sched.stats().redials_scheduled, 3u);
  EXPECT_GE(sched.stats().empty_samples, 1u);  // view emptied, rounds go on
}

TEST(EncounterSchedulerTest, SeedBootstrapShufflesAndRunsEncounters) {
  EventLoop loop;
  SchedNode a = make_sched_node(loop, 1, 61);
  SchedNode b = make_sched_node(loop, 2, 62);
  b.svc->set_directory(b.dir.get(), [] { return Time{0}; });

  EncounterSchedulerConfig sconfig;
  sconfig.round_ms = 2;
  EncounterScheduler sched(loop, *a.svc, *a.dir, sconfig);
  sched.add_seed("127.0.0.1", b.svc->listen_port());
  sched.start();
  ASSERT_TRUE(loop.run_until(
      [&] {
        return a.dir->view_count() == 1 && b.dir->view_count() == 1 &&
               a.svc->engine_totals().encounters_completed >= 2;
      },
      kStepMs));
  sched.stop();

  EXPECT_GE(sched.stats().shuffles, 1u);
  EXPECT_GE(sched.stats().vote_encounters, 2u);
  EXPECT_EQ(sched.stats().dial_failures, 0u);
  PeerDescriptor d;
  ASSERT_TRUE(a.dir->lookup(2, d));
  EXPECT_EQ(d.port, b.svc->listen_port());
}

TEST(EncounterSchedulerTest, SimultaneousDialAndAcceptKeepBothTablesSane) {
  EventLoop loop;
  SchedNode a = make_sched_node(loop, 1, 71);
  SchedNode b = make_sched_node(loop, 2, 72);

  // Each node schedules against a view that already names the other, so
  // both dial in the same rounds — crossing dials race with the accepts
  // they trigger on the other side.
  util::Rng sa(73), sb(74);
  ASSERT_TRUE(a.dir->merge(make_descriptor(2, *b.keys, 0x7f000001u,
                                           b.svc->listen_port(), 10, sb),
                           10));
  ASSERT_TRUE(b.dir->merge(make_descriptor(1, *a.keys, 0x7f000001u,
                                           a.svc->listen_port(), 10, sa),
                           10));

  EncounterSchedulerConfig sconfig;
  sconfig.round_ms = 2;
  EncounterScheduler sched_a(loop, *a.svc, *a.dir, sconfig);
  EncounterScheduler sched_b(loop, *b.svc, *b.dir, sconfig);
  sched_a.start();
  sched_b.start();
  ASSERT_TRUE(loop.run_until(
      [&] {
        return a.svc->engine_totals().encounters_completed >= 3 &&
               b.svc->engine_totals().encounters_completed >= 3;
      },
      kStepMs));
  sched_a.stop();
  sched_b.stop();

  // The race must never surface as failures: no dial counted against the
  // directory, no protocol errors, and every open connection is bound to
  // the right peer.
  EXPECT_EQ(sched_a.stats().dial_failures, 0u);
  EXPECT_EQ(sched_b.stats().dial_failures, 0u);
  EXPECT_EQ(a.svc->stats().protocol_errors, 0u);
  EXPECT_EQ(b.svc->stats().protocol_errors, 0u);
  EXPECT_EQ(a.dir->view_count(), 1u);
  EXPECT_EQ(b.dir->view_count(), 1u);
  for (const int c : a.svc->connections()) {
    if (a.svc->ready(c)) {
      EXPECT_EQ(a.svc->peer_of(c), 2u);
    }
  }
  for (const int c : b.svc->connections()) {
    if (b.svc->ready(c)) {
      EXPECT_EQ(b.svc->peer_of(c), 1u);
    }
  }
}

TEST(EncounterSchedulerTest, PeerExitEvictsConnectionButNotDescriptor) {
  EventLoop loop;
  SchedNode a = make_sched_node(loop, 1, 81);
  SchedNode b = make_sched_node(loop, 2, 82);
  util::Rng sb(83);
  ASSERT_TRUE(a.dir->merge(make_descriptor(2, *b.keys, 0x7f000001u,
                                           b.svc->listen_port(), 10, sb),
                           10));

  EncounterSchedulerConfig sconfig;
  sconfig.round_ms = 2;
  EncounterScheduler sched(loop, *a.svc, *a.dir, sconfig);
  sched.start();
  ASSERT_TRUE(loop.run_until(
      [&] { return a.svc->engine_totals().encounters_completed >= 1; },
      kStepMs));

  // b slams every connection shut. The established connection's close is
  // not a *dial* failure — the descriptor survives and a redials.
  for (const int c : b.svc->connections()) b.svc->close(c);
  ASSERT_TRUE(loop.run_until(
      [&] { return a.svc->stats().closes >= 1; }, kStepMs));
  EXPECT_EQ(a.dir->view_count(), 1u);
  const std::uint64_t dials_before = sched.stats().dials;
  ASSERT_TRUE(loop.run_until(
      [&] { return sched.stats().dials > dials_before; }, kStepMs));
  sched.stop();
  EXPECT_EQ(sched.stats().dial_failures, 0u);
}

// ---- encounter deadlines: half-open peers must not wedge a slot ------------

/// A listening socket the test drives by hand — the half-open peer.
struct RawServer {
  int listen_fd = -1;
  int peer_fd = -1;

  RawServer() {
    listen_fd = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(listen_fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    EXPECT_EQ(
        ::bind(listen_fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
        0);
    EXPECT_EQ(::listen(listen_fd, 4), 0);
  }
  ~RawServer() {
    if (peer_fd >= 0) ::close(peer_fd);
    if (listen_fd >= 0) ::close(listen_fd);
  }

  std::uint16_t port() const {
    sockaddr_in addr{};
    socklen_t len = sizeof(addr);
    EXPECT_EQ(::getsockname(listen_fd,
                            reinterpret_cast<sockaddr*>(
                                const_cast<sockaddr_in*>(&addr)),
                            &len),
              0);
    return ntohs(addr.sin_port);
  }

  void accept_one() {
    peer_fd = ::accept(listen_fd, nullptr, nullptr);
    EXPECT_GE(peer_fd, 0);
  }

  void send_frame(const Frame& f) {
    std::vector<std::uint8_t> wire;
    encode_frame(f, wire);
    std::size_t sent = 0;
    while (sent < wire.size()) {
      const ssize_t n =
          ::send(peer_fd, wire.data() + sent, wire.size() - sent, 0);
      ASSERT_GT(n, 0);
      sent += static_cast<std::size_t>(n);
    }
  }
};

// The PR 9 regression: a peer that completes HELLO and then goes silent
// mid-encounter used to hold its channel slot forever — only the
// progress-deadline watchdog can evict a half-open TCP peer.
TEST(NetDeadlines, SilentMidEncounterPeerIsEvictedNotWedged) {
  EventLoop loop;
  SchedNode a = make_sched_node(loop, 1, 91);
  a.svc->set_deadlines(/*hello_ms=*/2000, /*encounter_ms=*/50);

  RawServer server;
  const int c = a.svc->connect("127.0.0.1", server.port());
  ASSERT_GE(c, 0);
  ASSERT_TRUE(loop.run_until([&] { return a.svc->open(c); }, kStepMs));
  server.accept_one();

  // The half-open peer answers the HELLO like a healthy node would...
  util::Rng krng(92);
  const crypto::KeyPair peer_keys = crypto::generate_keypair(krng);
  Frame hello;
  hello.type = FrameType::kHello;
  hello.payload = encode_hello({9, peer_keys.pub});
  server.send_frame(hello);
  ASSERT_TRUE(loop.run_until([&] { return a.svc->ready(c); }, kStepMs));

  // ...then never speaks again. The initiated encounter makes no progress,
  // so the deadline must close the connection and free the slot.
  ASSERT_TRUE(a.svc->initiate_vote_encounter(c, 100));
  ASSERT_TRUE(loop.run_until([&] { return !a.svc->open(c); }, kStepMs))
      << "half-open peer wedged the connection slot";
  EXPECT_EQ(a.svc->stats().encounter_timeouts, 1u);
  EXPECT_EQ(a.svc->stats().hello_timeouts, 0u);
  EXPECT_EQ(a.svc->connection_count(), 0u);
}

TEST(NetDeadlines, MissingHelloTimesOutSeparately) {
  EventLoop loop;
  SchedNode a = make_sched_node(loop, 1, 93);
  a.svc->set_deadlines(/*hello_ms=*/50, /*encounter_ms=*/0);

  RawServer server;  // accepts, never sends a byte
  const int c = a.svc->connect("127.0.0.1", server.port());
  ASSERT_GE(c, 0);
  ASSERT_TRUE(loop.run_until([&] { return !a.svc->open(c); }, kStepMs));
  EXPECT_EQ(a.svc->stats().hello_timeouts, 1u);
  EXPECT_EQ(a.svc->stats().encounter_timeouts, 0u);
  EXPECT_EQ(a.svc->connection_count(), 0u);
}

// ---- scheduler accounting under sustained impairment -----------------------

TEST(EncounterSchedulerTest, ImpairedStallsFeedBackoffAndMatchTimeoutStats) {
  EventLoop loop;
  // Only a's inbound side is impaired: streams stall at random chunks, so
  // some HELLOs die (dial failures) and some established encounters hang
  // until the deadline evicts them (encounter timeouts). The shim is
  // declared before the nodes: ~NodeService detaches its streams from it.
  ImpairConfig icfg;
  icfg.stall_rate = 0.3;
  Impairment impair(icfg, 4242, 1);

  PeerDirectoryConfig dconfig;
  dconfig.max_dial_failures = 1000;  // keep the descriptor; test backoff
  SchedNode a = make_sched_node(loop, 1, 95, dconfig);
  SchedNode b = make_sched_node(loop, 2, 96);
  b.svc->set_directory(b.dir.get(), [] { return Time{0}; });
  a.svc->set_impairment(&impair);
  a.svc->set_deadlines(/*hello_ms=*/100, /*encounter_ms=*/60);

  util::Rng sb(97);
  ASSERT_TRUE(a.dir->merge(make_descriptor(2, *b.keys, 0x7f000001u,
                                           b.svc->listen_port(), 10, sb),
                           10));

  EncounterSchedulerConfig sconfig;
  sconfig.round_ms = 2;
  sconfig.backoff_base_ms = 1;
  sconfig.backoff_max_ms = 8;
  EncounterScheduler sched(loop, *a.svc, *a.dir, sconfig);
  sched.set_impairment(&impair);
  sched.start();
  ASSERT_TRUE(loop.run_until(
      [&] {
        return a.svc->engine_totals().encounters_completed >= 3 &&
               sched.stats().encounter_timeouts >= 1;
      },
      kStepMs))
      << "scheduler never recovered encounters through the stalls";
  sched.stop();

  // The accounting must line up across the layers with nothing counted
  // twice: every established-timeout close the service saw is exactly one
  // scheduler encounter_timeout, every HELLO-phase death exactly one dial
  // failure — and a live-but-sick peer is backed off, never demoted.
  EXPECT_EQ(sched.stats().encounter_timeouts,
            a.svc->stats().encounter_timeouts);
  EXPECT_EQ(sched.stats().dial_failures, a.svc->stats().hello_timeouts);
  EXPECT_GE(sched.stats().redials_scheduled, 1u);
  EXPECT_EQ(a.dir->view_count(), 1u);  // descriptor survived every stall
  EXPECT_EQ(a.dir->quarantined_count(), 0u);
}

}  // namespace
}  // namespace tribvote::net
