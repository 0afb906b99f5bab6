// The socket plane's peer sampling service: a Newscast view maintained
// from Schnorr-signed descriptor exchanges over TCP (PROTOCOL.md §8).
//
// Where the simulator's NewscastPss merges views in shared memory, this
// directory is fed verified PeerDescriptors decoded from PEER_EXCHANGE
// frames and answers the same pss::PeerSampler interface — so the
// EncounterScheduler and the scenario runner sample counterparts through
// one API regardless of transport (the PR 8 redesign's point).
//
// Determinism contract: the view is kept sorted by peer id and sample()
// replays OnlineDirectory::sample_online's exact draw sequence (uniform
// index draw with self-rejection retry) over that sorted id set, self
// entry included. At full membership — every cluster node in view — a
// directory-backed node therefore consumes RNG draws bit-identically to
// an oracle-sampled node over [0, N), which is what lets the round-barrier
// TCP cluster reproduce the simulator's state digests byte-for-byte
// (tests/net_cluster_test.cpp).
#pragma once

#include <cstdint>
#include <vector>

#include "crypto/schnorr.hpp"
#include "net/codec.hpp"
#include "pss/peer_sampler.hpp"
#include "util/rng.hpp"

namespace tribvote::net {

/// Build `self`'s signed descriptor stamped `now`. `rng` supplies the
/// signature nonce.
[[nodiscard]] PeerDescriptor make_descriptor(PeerId self,
                                             const crypto::KeyPair& keys,
                                             std::uint32_t ip,
                                             std::uint16_t port, Time now,
                                             util::Rng& rng);

/// Check a descriptor's signature against its embedded public key.
[[nodiscard]] bool verify_descriptor(const PeerDescriptor& d);

struct PeerDirectoryConfig {
  /// Max *remote* descriptors kept (the self entry rides on top).
  std::size_t view_size = 20;
  /// Descriptors whose heartbeat is older than this are dead (same
  /// role as NewscastConfig::entry_ttl).
  Duration entry_ttl = 30 * kMinute;
  /// Consecutive failed dials after which a descriptor is quarantined —
  /// the wire replacement for the sim's "offline entry" staleness, and
  /// the fast demotion path for NAT-shaped unreachable dial-back
  /// addresses (an address that refuses K dials in a row is presumed
  /// unreachable, not merely busy).
  std::size_t max_dial_failures = 3;
  /// How long a quarantined descriptor lingers (invisible to sampling,
  /// shuffles and lookup) before it is dropped outright. While it
  /// lingers, only a strictly fresher heartbeat — proof the peer is back
  /// and re-announcing — lifts the quarantine. That memory is the point:
  /// a plain eviction lets the next gossiped copy of the same dead
  /// descriptor start a fresh K-dial probation at full price.
  Duration quarantine_ttl = 10 * kMinute;
  /// Descriptors per outgoing PEER_EXCHANGE (<= kMaxPeerDescriptors).
  std::size_t shuffle_size = 16;
};

class PeerDirectory final : public pss::PeerSampler {
 public:
  /// The directory derives two independent child streams from its seed
  /// rng: signature nonces and sample() draws. Keeping them apart is what
  /// makes the draw sequence of sample() a pure function of the sampling
  /// history — shuffle traffic (self re-signing) never perturbs it, so an
  /// oracle sampler seeded Rng(seed).derive(kSampleStream) stays draw-for-
  /// draw identical to a directory at full membership.
  static constexpr std::uint64_t kSampleStream = 0x73616d706c65ULL;  // "sample"
  static constexpr std::uint64_t kSignStream = 0x7369676eULL;        // "sign"

  /// The directory keeps its own copy of `keys`. `ip`/`port` are this
  /// node's advertised dial address.
  PeerDirectory(PeerId self, const crypto::KeyPair& keys,
                std::uint32_t ip, std::uint16_t port,
                PeerDirectoryConfig config, util::Rng rng);

  /// Re-sign our descriptor with heartbeat `now` and return it. Called
  /// whenever the self entry goes out (shuffles), so peers always see the
  /// freshest stamp.
  const PeerDescriptor& refresh_self(Time now);

  /// Item-wise outcome of merging one PEER_EXCHANGE payload.
  struct MergeStats {
    std::size_t accepted = 0;  ///< inserted or refreshed an entry
    std::size_t stale = 0;     ///< older than what we hold (incl. self)
    std::size_t forged = 0;    ///< signature failed; item dropped
  };

  /// Verify and merge every descriptor of a decoded PEER_EXCHANGE.
  /// Forged items are dropped alone (like mod-batch items) — never
  /// connection-fatal. Freshest entry per peer wins; ties keep ours.
  MergeStats merge_exchange(const PeerExchangeMessage& m, Time now);

  /// Merge one already-verified descriptor (bootstrap seeds, HELLO-learned
  /// peers). Returns true when it changed the view.
  bool merge(const PeerDescriptor& d, Time now);

  /// Our current shuffle slice: refreshed self entry plus the freshest
  /// remotes, capped at shuffle_size.
  [[nodiscard]] PeerExchangeMessage build_shuffle(Time now,
                                                  bool reply_requested);

  /// Drop every remote entry whose heartbeat aged past entry_ttl, and
  /// every quarantined entry whose quarantine aged past quarantine_ttl.
  /// Returns the number evicted.
  std::size_t evict_expired(Time now);

  /// Dial feedback from the scheduler: max_dial_failures consecutive
  /// failures quarantine the descriptor (returns true when it did) —
  /// it vanishes from sampling, shuffles, lookup and view_count, but the
  /// tombstone remembers the heartbeat so re-gossiped copies of the same
  /// stale descriptor cannot resurrect it; only a strictly fresher one
  /// can. `now` stamps the quarantine for quarantine_ttl expiry.
  bool note_dial_failure(PeerId peer, Time now = 0);
  void note_dial_success(PeerId peer);

  /// Find an *active* peer's descriptor (dial address lookup). False if
  /// unknown or quarantined — the scheduler must not redial quarantine.
  [[nodiscard]] bool lookup(PeerId peer, PeerDescriptor& out) const;

  /// Active remote entries currently held (self and quarantined excluded).
  [[nodiscard]] std::size_t view_count() const noexcept;
  /// Quarantined tombstones currently held, for reports and tests.
  [[nodiscard]] std::size_t quarantined_count() const noexcept;
  /// Sorted active remote peer ids, for reports and tests.
  [[nodiscard]] std::vector<PeerId> known_peers() const;

  // pss::PeerSampler ---------------------------------------------------------
  /// Uniform draw over the sorted known-id set (self entry included) with
  /// self-rejection retry — OnlineDirectory::sample_online's sequence.
  [[nodiscard]] PeerId sample(PeerId self) override;
  void set_exchange_probe(telemetry::Counter probe) noexcept override {
    exchange_probe_ = probe;
  }

 private:
  struct Record {
    PeerDescriptor d;
    std::size_t dial_failures = 0;
    bool quarantined = false;
    Time quarantined_at = 0;
  };

  /// Index of `peer` in the sorted records_, or records_.size().
  [[nodiscard]] std::size_t index_of(PeerId peer) const;
  void enforce_cap();
  void erase(PeerId peer);

  PeerId self_;
  crypto::KeyPair keys_;
  std::uint32_t ip_;
  std::uint16_t port_;
  PeerDirectoryConfig config_;
  util::Rng sample_rng_;
  util::Rng sign_rng_;
  PeerDescriptor self_desc_;
  std::vector<Record> records_;  ///< sorted by peer id, self included
  telemetry::Counter exchange_probe_;
};

}  // namespace tribvote::net
