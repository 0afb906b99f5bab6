// Peer discovery and the multi-peer runtime (PROTOCOL.md §8, DESIGN.md §14):
// signed descriptors, PeerDirectory view maintenance, PEER_EXCHANGE frame
// handling in NodeService, and the round-barrier digest identity between an
// in-process TCP cluster and the simulator's oracle-sampled agents.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "crypto/schnorr.hpp"
#include "net/codec.hpp"
#include "net/event_loop.hpp"
#include "net/node_service.hpp"
#include "net/peer_directory.hpp"
#include "pss/online_directory.hpp"
#include "pss/oracle.hpp"
#include "telemetry/registry.hpp"
#include "util/rng.hpp"
#include "vote/agent.hpp"
#include "vote/encounter.hpp"

namespace tribvote::net {
namespace {

constexpr int kStepMs = 5000;

crypto::KeyPair keys_for(std::uint64_t seed) {
  util::Rng rng(seed);
  return crypto::generate_keypair(rng);
}

PeerDescriptor descriptor_for(PeerId peer, const crypto::KeyPair& keys,
                              Time heartbeat,
                              std::uint16_t port = 7000) {
  util::Rng rng(peer * 31 + 7);
  return make_descriptor(peer, keys, 0x7f000001u, port, heartbeat, rng);
}

// ---- descriptor signatures -------------------------------------------------

TEST(PeerDescriptor, SignedDescriptorVerifies) {
  const crypto::KeyPair keys = keys_for(11);
  const PeerDescriptor d = descriptor_for(3, keys, 42);
  EXPECT_EQ(d.peer, 3u);
  EXPECT_EQ(d.heartbeat, 42);
  EXPECT_TRUE(verify_descriptor(d));
}

TEST(PeerDescriptor, TamperedFieldsFailVerification) {
  const crypto::KeyPair keys = keys_for(12);
  const PeerDescriptor good = descriptor_for(3, keys, 42);

  PeerDescriptor retargeted = good;
  retargeted.port = good.port + 1;  // relay redirects the dial address
  EXPECT_FALSE(verify_descriptor(retargeted));

  PeerDescriptor aged = good;
  aged.heartbeat += 100;  // relay forges freshness
  EXPECT_FALSE(verify_descriptor(aged));

  PeerDescriptor stolen = good;
  stolen.peer = 4;  // relay reassigns the identity
  EXPECT_FALSE(verify_descriptor(stolen));
}

// ---- PeerDirectory view maintenance ----------------------------------------

PeerDirectory make_directory(PeerId self, const crypto::KeyPair& keys,
                             PeerDirectoryConfig config = {},
                             std::uint64_t seed = 99) {
  return PeerDirectory(self, keys, 0x7f000001u, 9999, config,
                       util::Rng(seed));
}

TEST(PeerDirectory, FresherHeartbeatWinsStaleRejected) {
  const crypto::KeyPair self_keys = keys_for(1);
  const crypto::KeyPair peer_keys = keys_for(2);
  PeerDirectory dir = make_directory(1, self_keys);

  EXPECT_TRUE(dir.merge(descriptor_for(2, peer_keys, 10), 10));
  EXPECT_EQ(dir.view_count(), 1u);

  // Stale and equal heartbeats keep ours; fresher replaces.
  EXPECT_FALSE(dir.merge(descriptor_for(2, peer_keys, 5), 10));
  EXPECT_FALSE(dir.merge(descriptor_for(2, peer_keys, 10), 10));
  EXPECT_TRUE(dir.merge(descriptor_for(2, peer_keys, 20), 20));

  PeerDescriptor held;
  ASSERT_TRUE(dir.lookup(2, held));
  EXPECT_EQ(held.heartbeat, 20);
}

TEST(PeerDirectory, OwnEntryNeverOverridden) {
  const crypto::KeyPair self_keys = keys_for(1);
  PeerDirectory dir = make_directory(1, self_keys);
  const crypto::KeyPair mallory = keys_for(66);
  EXPECT_FALSE(dir.merge(descriptor_for(1, mallory, 1000), 1000));
  PeerDescriptor held;
  ASSERT_TRUE(dir.lookup(1, held));
  EXPECT_EQ(held.key.y, self_keys.pub.y);
}

TEST(PeerDirectory, KeepsItsOwnCopyOfATemporaryKeyPair) {
  // The key pair is a temporary that dies with the constructor's full
  // expression; every later self-signature must still verify.
  PeerDirectory dir(1, keys_for(1), 0x7f000001u, 9999, PeerDirectoryConfig{},
                    util::Rng(99));
  const PeerDescriptor& self = dir.refresh_self(50);
  EXPECT_TRUE(verify_descriptor(self));
  EXPECT_EQ(self.key.y, keys_for(1).pub.y);
  const PeerExchangeMessage shuffle = dir.build_shuffle(60, false);
  ASSERT_FALSE(shuffle.descriptors.empty());
  for (const PeerDescriptor& d : shuffle.descriptors) {
    EXPECT_TRUE(verify_descriptor(d));
  }
}

TEST(PeerDirectory, CapEvictsStalest) {
  PeerDirectoryConfig config;
  config.view_size = 2;
  const crypto::KeyPair self_keys = keys_for(1);
  PeerDirectory dir = make_directory(1, self_keys, config);
  dir.merge(descriptor_for(2, keys_for(2), 30), 30);
  dir.merge(descriptor_for(3, keys_for(3), 10), 30);  // stalest
  dir.merge(descriptor_for(4, keys_for(4), 20), 30);
  EXPECT_EQ(dir.view_count(), 2u);
  PeerDescriptor out;
  EXPECT_FALSE(dir.lookup(3, out));
  EXPECT_TRUE(dir.lookup(2, out));
  EXPECT_TRUE(dir.lookup(4, out));
}

TEST(PeerDirectory, TtlEvictsDeadEntriesButNeverSelf) {
  PeerDirectoryConfig config;
  config.entry_ttl = 100;
  const crypto::KeyPair self_keys = keys_for(1);
  PeerDirectory dir = make_directory(1, self_keys, config);
  dir.merge(descriptor_for(2, keys_for(2), 0), 0);
  dir.merge(descriptor_for(3, keys_for(3), 80), 80);
  EXPECT_EQ(dir.evict_expired(150), 1u);  // only peer 2 aged out
  EXPECT_EQ(dir.view_count(), 1u);
  PeerDescriptor out;
  EXPECT_TRUE(dir.lookup(1, out));  // self entry is permanent
  EXPECT_TRUE(dir.lookup(3, out));
}

TEST(PeerDirectory, DialFailuresEvictAndSuccessResets) {
  PeerDirectoryConfig config;
  config.max_dial_failures = 3;
  const crypto::KeyPair self_keys = keys_for(1);
  PeerDirectory dir = make_directory(1, self_keys, config);
  dir.merge(descriptor_for(2, keys_for(2), 10), 10);

  EXPECT_FALSE(dir.note_dial_failure(2));
  EXPECT_FALSE(dir.note_dial_failure(2));
  dir.note_dial_success(2);  // resets the streak
  EXPECT_FALSE(dir.note_dial_failure(2));
  EXPECT_FALSE(dir.note_dial_failure(2));
  EXPECT_TRUE(dir.note_dial_failure(2));  // third consecutive: evicted
  EXPECT_EQ(dir.view_count(), 0u);

  // A fresher descriptor resurrects the peer with a clean slate.
  EXPECT_TRUE(dir.merge(descriptor_for(2, keys_for(2), 20), 20));
  EXPECT_FALSE(dir.note_dial_failure(2));
}

// ---- quarantine invariants (DESIGN.md §16) ---------------------------------

TEST(PeerDirectory, QuarantineHidesPeerFromEveryReadPath) {
  PeerDirectoryConfig config;
  config.max_dial_failures = 2;
  const crypto::KeyPair self_keys = keys_for(1);
  PeerDirectory dir = make_directory(1, self_keys, config);
  dir.merge(descriptor_for(2, keys_for(2), 10), 10);
  dir.merge(descriptor_for(3, keys_for(3), 10), 10);

  EXPECT_FALSE(dir.note_dial_failure(2, 50));
  EXPECT_TRUE(dir.note_dial_failure(2, 60));  // second strike: quarantined

  // The tombstone is invisible on every read path the runtime uses to pick
  // peers — a black-holed address must not keep soaking up dial slots.
  EXPECT_EQ(dir.view_count(), 1u);
  EXPECT_EQ(dir.quarantined_count(), 1u);
  PeerDescriptor out;
  EXPECT_FALSE(dir.lookup(2, out));
  EXPECT_EQ(dir.known_peers(), (std::vector<PeerId>{3}));
  const PeerExchangeMessage m = dir.build_shuffle(70, false);
  for (const PeerDescriptor& d : m.descriptors) EXPECT_NE(d.peer, 2u);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(dir.sample(1), 3u);
}

TEST(PeerDirectory, QuarantineLiftsOnlyForStrictlyFresherDescriptor) {
  PeerDirectoryConfig config;
  config.max_dial_failures = 1;
  const crypto::KeyPair self_keys = keys_for(1);
  PeerDirectory dir = make_directory(1, self_keys, config);
  dir.merge(descriptor_for(2, keys_for(2), 10), 10);
  EXPECT_TRUE(dir.note_dial_failure(2, 20));

  // Re-gossiped copies of the descriptor we already failed to dial must
  // not resurrect the peer — that replay loop is what quarantine exists
  // to break. Only the peer itself can mint a fresher heartbeat.
  EXPECT_FALSE(dir.merge(descriptor_for(2, keys_for(2), 5), 20));
  EXPECT_FALSE(dir.merge(descriptor_for(2, keys_for(2), 10), 20));
  EXPECT_EQ(dir.view_count(), 0u);
  EXPECT_EQ(dir.quarantined_count(), 1u);

  EXPECT_TRUE(dir.merge(descriptor_for(2, keys_for(2), 30), 30));
  EXPECT_EQ(dir.view_count(), 1u);
  EXPECT_EQ(dir.quarantined_count(), 0u);
  PeerDescriptor out;
  EXPECT_TRUE(dir.lookup(2, out));
  EXPECT_EQ(out.heartbeat, 30);
  // Resurrection wipes the failure streak: the next miss is judged as a
  // brand-new peer's first (which, at max_dial_failures = 1, quarantines
  // again — but from a streak of zero, not the old one carried over).
  EXPECT_TRUE(dir.note_dial_failure(2, 40));
}

TEST(PeerDirectory, QuarantineTtlExpiresTheTombstone) {
  PeerDirectoryConfig config;
  config.max_dial_failures = 1;
  config.quarantine_ttl = 100;
  config.entry_ttl = 1000000;
  const crypto::KeyPair self_keys = keys_for(1);
  PeerDirectory dir = make_directory(1, self_keys, config);
  dir.merge(descriptor_for(2, keys_for(2), 10), 10);
  EXPECT_TRUE(dir.note_dial_failure(2, 50));
  EXPECT_EQ(dir.quarantined_count(), 1u);

  EXPECT_EQ(dir.evict_expired(149), 0u);  // still inside quarantine_ttl
  EXPECT_EQ(dir.quarantined_count(), 1u);
  EXPECT_EQ(dir.evict_expired(151), 1u);
  EXPECT_EQ(dir.quarantined_count(), 0u);

  // Once the tombstone ages out, its replay memory goes with it: the same
  // stale descriptor is admissible again (and gets probed again).
  EXPECT_TRUE(dir.merge(descriptor_for(2, keys_for(2), 10), 151));
  EXPECT_EQ(dir.view_count(), 1u);
}

TEST(PeerDirectory, CapEvictionSkipsQuarantinedTombstones) {
  PeerDirectoryConfig config;
  config.view_size = 2;
  config.max_dial_failures = 1;
  const crypto::KeyPair self_keys = keys_for(1);
  PeerDirectory dir = make_directory(1, self_keys, config);
  dir.merge(descriptor_for(2, keys_for(2), 10), 10);
  dir.merge(descriptor_for(3, keys_for(3), 30), 30);
  EXPECT_TRUE(dir.note_dial_failure(2, 40));

  // Overflowing the view must evict the stalest *active* entry, never the
  // tombstone (evicting it would forget the replay protection) — and must
  // terminate even though the tombstone is unevictable.
  dir.merge(descriptor_for(4, keys_for(4), 20), 40);
  dir.merge(descriptor_for(5, keys_for(5), 40), 40);
  EXPECT_EQ(dir.view_count(), 2u);
  EXPECT_EQ(dir.quarantined_count(), 1u);
  PeerDescriptor out;
  EXPECT_FALSE(dir.lookup(4, out));  // stalest active went
  EXPECT_TRUE(dir.lookup(3, out));
  EXPECT_TRUE(dir.lookup(5, out));
  EXPECT_FALSE(dir.merge(descriptor_for(2, keys_for(2), 10), 40));
}

TEST(PeerDirectory, ShuffleLeadsWithFreshSelfThenFreshestRemotes) {
  PeerDirectoryConfig config;
  config.shuffle_size = 3;
  const crypto::KeyPair self_keys = keys_for(1);
  PeerDirectory dir = make_directory(1, self_keys, config);
  dir.merge(descriptor_for(2, keys_for(2), 5), 5);
  dir.merge(descriptor_for(3, keys_for(3), 50), 50);
  dir.merge(descriptor_for(4, keys_for(4), 20), 50);

  const PeerExchangeMessage m = dir.build_shuffle(77, true);
  EXPECT_TRUE(m.reply_requested);
  ASSERT_EQ(m.descriptors.size(), 3u);
  EXPECT_EQ(m.descriptors[0].peer, 1u);
  EXPECT_EQ(m.descriptors[0].heartbeat, 77);  // re-signed at send time
  EXPECT_TRUE(verify_descriptor(m.descriptors[0]));
  EXPECT_EQ(m.descriptors[1].peer, 3u);  // freshest remote first
  EXPECT_EQ(m.descriptors[2].peer, 4u);
}

TEST(PeerDirectory, MergeExchangeDropsForgedItemWiseAndCountsProbe) {
  telemetry::Registry registry(1);
  const crypto::KeyPair self_keys = keys_for(1);
  PeerDirectory dir = make_directory(1, self_keys);
  dir.set_exchange_probe(
      telemetry::Counter(&registry, registry.counter("pss.exchanges")));

  PeerExchangeMessage m;
  m.descriptors.push_back(descriptor_for(2, keys_for(2), 10));
  PeerDescriptor forged = descriptor_for(3, keys_for(3), 10);
  forged.heartbeat = 99;  // breaks the signature
  m.descriptors.push_back(forged);
  m.descriptors.push_back(descriptor_for(4, keys_for(4), 10));

  const PeerDirectory::MergeStats stats = dir.merge_exchange(m, 10);
  EXPECT_EQ(stats.accepted, 2u);
  EXPECT_EQ(stats.forged, 1u);
  EXPECT_EQ(stats.stale, 0u);
  EXPECT_EQ(dir.view_count(), 2u);
  PeerDescriptor out;
  EXPECT_FALSE(dir.lookup(3, out));
  EXPECT_EQ(registry.total_by_name("pss.exchanges"), 1u);
}

// ---- sample(): the oracle draw-sequence contract ---------------------------

TEST(PeerDirectory, SampleMatchesOracleAtFullMembership) {
  constexpr std::size_t kN = 8;
  constexpr PeerId kSelf = 3;
  constexpr std::uint64_t kSeed = 4242;

  pss::OnlineDirectory online(kN);
  for (PeerId p = 0; p < kN; ++p) online.set_online(p, true);
  pss::OraclePss oracle(online,
                        util::Rng(kSeed).derive(PeerDirectory::kSampleStream));

  const crypto::KeyPair self_keys = keys_for(kSelf);
  PeerDirectory dir(kSelf, self_keys, 0x7f000001u, 9999,
                    PeerDirectoryConfig{}, util::Rng(kSeed));
  for (PeerId p = 0; p < kN; ++p) {
    if (p == kSelf) continue;
    ASSERT_TRUE(dir.merge(descriptor_for(p, keys_for(p), 10), 10));
  }

  for (int i = 0; i < 1000; ++i) {
    // Interleave shuffle builds: self re-signing draws from the signature
    // stream and must never perturb the sampling sequence.
    if (i % 7 == 0) (void)dir.build_shuffle(static_cast<Time>(i), false);
    ASSERT_EQ(dir.sample(kSelf), oracle.sample(kSelf)) << "draw " << i;
  }
}

TEST(PeerDirectory, SampleWithNobodyKnownReturnsInvalid) {
  const crypto::KeyPair self_keys = keys_for(1);
  PeerDirectory dir = make_directory(1, self_keys);
  EXPECT_EQ(dir.sample(1), kInvalidPeer);  // only the self entry
}

// ---- PEER_EXCHANGE over the wire -------------------------------------------

struct WireNode {
  std::unique_ptr<crypto::KeyPair> keys;
  std::unique_ptr<vote::VoteAgent> vote;
  std::unique_ptr<NodeService> svc;
  std::unique_ptr<PeerDirectory> dir;
};

WireNode make_wire_node(EventLoop& loop, PeerId id, std::uint64_t seed,
                        bool with_directory,
                        telemetry::Registry* registry = nullptr) {
  WireNode n;
  util::Rng krng(seed);
  n.keys = std::make_unique<crypto::KeyPair>(crypto::generate_keypair(krng));
  n.vote = std::make_unique<vote::VoteAgent>(
      id, *n.keys, vote::VoteConfig{}, [](PeerId) { return true; },
      util::Rng(seed * 7919 + 1));
  n.svc = std::make_unique<NodeService>(loop, id, *n.keys, *n.vote, nullptr,
                                        registry);
  EXPECT_TRUE(n.svc->listen(0));
  if (with_directory) {
    n.dir = std::make_unique<PeerDirectory>(id, *n.keys, 0x7f000001u,
                                            n.svc->listen_port(),
                                            PeerDirectoryConfig{},
                                            util::Rng(seed * 7919 + 3));
    n.svc->set_directory(n.dir.get(), [] { return Time{7}; });
  }
  return n;
}

TEST(NetPeerExchange, ShuffleWithReplyMergesBothViews) {
  EventLoop loop;
  telemetry::Registry registry(1);
  WireNode a = make_wire_node(loop, 1, 21, true, &registry);
  WireNode b = make_wire_node(loop, 2, 22, true);

  const int c = a.svc->connect("127.0.0.1", b.svc->listen_port());
  ASSERT_GE(c, 0);
  ASSERT_TRUE(loop.run_until([&] { return a.svc->ready(c); }, kStepMs));

  ASSERT_TRUE(a.svc->send_peer_exchange(c, true));
  ASSERT_TRUE(loop.run_until(
      [&] { return a.dir->view_count() == 1 && b.dir->view_count() == 1; },
      kStepMs));

  PeerDescriptor d;
  ASSERT_TRUE(b.dir->lookup(1, d));
  EXPECT_EQ(d.port, a.svc->listen_port());
  ASSERT_TRUE(a.dir->lookup(2, d));
  EXPECT_EQ(d.port, b.svc->listen_port());

  EXPECT_EQ(a.svc->stats().peer_exchanges_out, 1u);
  EXPECT_EQ(a.svc->stats().peer_exchanges_in, 1u);   // the reply
  EXPECT_EQ(b.svc->stats().peer_exchanges_in, 1u);
  EXPECT_EQ(b.svc->stats().peer_exchanges_out, 1u);  // the auto-reply
  EXPECT_EQ(a.svc->stats().descriptors_accepted, 1u);
  EXPECT_EQ(registry.total_by_name("net.peer_exchanges_in"), 1u);
}

TEST(NetPeerExchange, NodeWithoutDirectoryIgnoresFrame) {
  EventLoop loop;
  WireNode a = make_wire_node(loop, 1, 31, true);
  WireNode b = make_wire_node(loop, 2, 32, false);  // vote-only endpoint

  const int c = a.svc->connect("127.0.0.1", b.svc->listen_port());
  ASSERT_GE(c, 0);
  ASSERT_TRUE(loop.run_until([&] { return a.svc->ready(c); }, kStepMs));

  ASSERT_TRUE(a.svc->send_peer_exchange(c, true));
  // A directory-less endpoint decodes the frame but never counts it as an
  // exchange (peer_exchanges_in stays 0) — wait for the bytes instead.
  const std::uint64_t frames_before = b.svc->stats().frames_in;
  ASSERT_TRUE(loop.run_until(
      [&] { return b.svc->stats().frames_in > frames_before; }, kStepMs));

  // Tolerated, not fatal: the connection stays up, no reply comes back,
  // and b can still run a vote encounter on it.
  EXPECT_TRUE(a.svc->open(c));
  EXPECT_EQ(b.svc->stats().protocol_errors, 0u);
  EXPECT_EQ(b.svc->stats().peer_exchanges_in, 0u);
  EXPECT_EQ(b.svc->stats().peer_exchanges_out, 0u);
  EXPECT_EQ(a.dir->view_count(), 0u);

  ASSERT_TRUE(a.svc->initiate_vote_encounter(c, 1000));
  ASSERT_TRUE(loop.run_until(
      [&] {
        return a.svc->initiator_idle(c) &&
               a.svc->engine_counters(c)->encounters_completed == 1;
      },
      kStepMs));
}

TEST(NetPeerExchange, ForgedDescriptorDropsItemNotConnection) {
  EventLoop loop;
  WireNode a = make_wire_node(loop, 1, 41, true);
  WireNode b = make_wire_node(loop, 2, 42, true);

  // Poison a's directory with a forged entry; the forgery travels inside
  // a's shuffle and b must drop exactly that item.
  PeerDescriptor forged = descriptor_for(9, keys_for(9), 10);
  forged.port = static_cast<std::uint16_t>(forged.port + 1);
  PeerExchangeMessage poisoned;
  poisoned.descriptors.push_back(forged);
  poisoned.descriptors.push_back(descriptor_for(8, keys_for(8), 10));
  // merge_exchange itself already filters, so inject via merge() to mimic
  // a directory that accepted the entry before the key rotated.
  (void)a.dir->merge(forged, 10);
  (void)a.dir->merge(poisoned.descriptors[1], 10);

  const int c = a.svc->connect("127.0.0.1", b.svc->listen_port());
  ASSERT_GE(c, 0);
  ASSERT_TRUE(loop.run_until([&] { return a.svc->ready(c); }, kStepMs));
  ASSERT_TRUE(a.svc->send_peer_exchange(c, false));
  ASSERT_TRUE(loop.run_until(
      [&] { return b.svc->stats().peer_exchanges_in >= 1; }, kStepMs));

  EXPECT_TRUE(a.svc->open(c));  // never connection-fatal
  EXPECT_EQ(b.svc->stats().descriptors_forged, 1u);
  PeerDescriptor out;
  EXPECT_FALSE(b.dir->lookup(9, out));
  EXPECT_TRUE(b.dir->lookup(8, out));
  EXPECT_TRUE(b.dir->lookup(1, out));  // a's self entry was genuine
}

// ---- the tentpole: cluster digest identity ---------------------------------

// Shared schedule pieces (mirrors examples/tribvote_cluster.cpp at test
// scale): scripted casts and one sample per node per round, id order.
void apply_scripted_casts(vote::VoteAgent& agent, std::uint64_t seed,
                          int round) {
  constexpr std::uint64_t kMix = 0x9e3779b97f4a7c15ULL;
  util::Rng rng(seed ^ (kMix * static_cast<std::uint64_t>(round + 1)));
  const Time base = static_cast<Time>(round) * 1000;
  for (int i = 0; i < 2; ++i) {
    const auto mod = static_cast<ModeratorId>(1 + rng.next_below(24));
    const Opinion op =
        rng.next_bool(0.5) ? Opinion::kPositive : Opinion::kNegative;
    agent.cast_vote(mod, op, base + i + 1);
  }
}

std::uint64_t node_seed(PeerId id) { return 5000 + id; }

TEST(NetCluster, TcpClusterDigestsMatchOracleSimulation) {
  constexpr std::size_t kN = 4;
  constexpr int kRounds = 4;

  // Oracle side: plain agents, per-node oracle samplers on the directory's
  // sampling stream.
  std::vector<std::unique_ptr<crypto::KeyPair>> okeys;
  std::vector<std::unique_ptr<vote::VoteAgent>> oracle_agents;
  pss::OnlineDirectory online(kN);
  std::vector<std::unique_ptr<pss::OraclePss>> oracles;
  for (PeerId p = 0; p < kN; ++p) {
    util::Rng krng(node_seed(p));
    okeys.push_back(
        std::make_unique<crypto::KeyPair>(crypto::generate_keypair(krng)));
    oracle_agents.push_back(std::make_unique<vote::VoteAgent>(
        p, *okeys[p], vote::VoteConfig{}, [](PeerId) { return true; },
        util::Rng(node_seed(p) * 7919 + 1)));
    online.set_online(p, true);
    oracles.push_back(std::make_unique<pss::OraclePss>(
        online, util::Rng(node_seed(p) * 7919 + 3)
                    .derive(PeerDirectory::kSampleStream)));
  }

  // TCP side: one loop, kN services + directories, bootstrapped with real
  // PEER_EXCHANGE frames through node 0.
  EventLoop loop;
  std::vector<WireNode> wire;
  for (PeerId p = 0; p < kN; ++p) {
    wire.push_back(make_wire_node(loop, p, node_seed(p), true));
  }
  std::vector<int> seed_conns(kN, -1);
  for (PeerId p = 1; p < kN; ++p) {
    seed_conns[p] =
        wire[p].svc->connect("127.0.0.1", wire[0].svc->listen_port());
    ASSERT_GE(seed_conns[p], 0);
  }
  ASSERT_TRUE(loop.run_until(
      [&] {
        for (PeerId p = 1; p < kN; ++p) {
          if (!wire[p].svc->ready(seed_conns[p])) return false;
        }
        return true;
      },
      kStepMs));
  const auto full_membership = [&] {
    for (const WireNode& n : wire) {
      if (n.dir->view_count() != kN - 1) return false;
    }
    return true;
  };
  for (int pump = 0; pump < 20 && !full_membership(); ++pump) {
    for (PeerId p = 1; p < kN; ++p) {
      (void)wire[p].svc->send_peer_exchange(seed_conns[p], true);
    }
    (void)loop.run_until(full_membership, 250);
  }
  ASSERT_TRUE(full_membership());

  // Round barrier: casts, then samples, then encounters — id order on both
  // sides; the tcp side executes serially over real sockets.
  for (int r = 0; r < kRounds; ++r) {
    for (PeerId p = 0; p < kN; ++p) {
      apply_scripted_casts(*oracle_agents[p], node_seed(p), r);
      apply_scripted_casts(*wire[p].vote, node_seed(p), r);
    }
    const Time now = static_cast<Time>(r + 1) * 1000;
    for (PeerId p = 0; p < kN; ++p) {
      const PeerId oracle_target = oracles[p]->sample(p);
      const PeerId wire_target = wire[p].dir->sample(p);
      ASSERT_EQ(oracle_target, wire_target) << "round " << r << " node " << p;
      if (oracle_target == kInvalidPeer) continue;
      vote::vote_encounter(*oracle_agents[p], *oracle_agents[oracle_target],
                           now);

      NodeService& svc = *wire[p].svc;
      int conn = svc.conn_for_peer(wire_target);
      if (conn < 0) {
        PeerDescriptor d;
        ASSERT_TRUE(wire[p].dir->lookup(wire_target, d));
        conn = svc.connect("127.0.0.1", d.port);
        ASSERT_GE(conn, 0);
        ASSERT_TRUE(loop.run_until([&] { return svc.ready(conn); }, kStepMs));
      }
      const std::uint64_t want =
          svc.engine_counters(conn)->encounters_completed + 1;
      ASSERT_TRUE(svc.initiate_vote_encounter(conn, now));
      ASSERT_TRUE(loop.run_until(
          [&] {
            return svc.initiator_idle(conn) &&
                   svc.engine_counters(conn)->encounters_completed >= want;
          },
          kStepMs));
    }
  }

  for (PeerId p = 0; p < kN; ++p) {
    EXPECT_EQ(wire[p].vote->state_digest(), oracle_agents[p]->state_digest())
        << "node " << p;
    EXPECT_GT(wire[p].vote->ballot_box().size(), 0u) << "node " << p;
  }
}

}  // namespace
}  // namespace tribvote::net
