// Deterministic transport chaos plane (DESIGN.md §16).
//
// The PR 4 fault plane draws per-encounter verdicts inside the simulator;
// this shim maps the same idea onto the real socket plane. It sits between
// NodeService's recv() loop and the FrameReader and carves each inbound
// byte stream into fixed-size chunks; every chunk gets one verdict — pass,
// drop (connection reset), bounded delay, truncation, single-bit
// corruption, or a stall that silences the stream for good (a half-open
// peer) — drawn from an RNG stream keyed
//
//     (seed, connection key, direction, chunk index).
//
// Because the key is the *byte offset* of the stream (offset / kChunkBytes)
// and never the recv() segmentation, the verdict table of a connection is a
// pure function of the key tuple: independent of poll timing, of how TCP
// split the stream, and of every other connection's traffic. Two runs with
// the same seed and the same connection-establishment order therefore see
// byte-identical impairment — the property CI's chaos-smoke job asserts by
// diffing state digests across two impaired tribvote_cluster runs.
//
// The shared chaos model (util/chaos.hpp) adds correlated faults: bursty
// Gilbert–Elliott loss and partition windows in which whole subsets of
// peers vanish and return together.
//
// With every rate at zero the shim is inert: NodeService never attaches it
// (enabled() is false), no RNG is drawn, and runs are byte-identical to a
// build without the plane — the same contract sim::FaultPlane honours.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "util/chaos.hpp"
#include "util/ids.hpp"
#include "util/rng.hpp"
#include "util/time.hpp"

namespace tribvote::net {

/// Chaos knobs (TRIBVOTE_NET_IMPAIR / --impair). The shared chaos model
/// (util/chaos.hpp) is drawn per chunk: a lost chunk resets the connection
/// (the consumer redials), a delayed one and everything behind it lands up
/// to max_delay_ms later, a corrupt one carries a bit flip the frame CRC
/// catches, and partition rounds are the scheduler's rounds.
struct ImpairConfig : util::ChaosModel {
  int max_delay_ms = 40;
  /// Per-chunk truncation: a prefix is delivered, then the stream resets
  /// mid-frame (net.truncated on the receiver).
  double truncate_rate = 0.0;
  /// Per-chunk probability the stream goes silent for good while the
  /// socket stays open — a half-open peer only a deadline can evict.
  double stall_rate = 0.0;

  [[nodiscard]] bool enabled() const noexcept {
    return ChaosModel::enabled() || truncate_rate > 0.0 || stall_rate > 0.0;
  }
};

/// Parse a spec such as "ge=0.3,delay=0.2,max_delay_ms=40,truncate=0.01,
/// stall=0.005,part_period=8,part_frac=0.25" over `out` with
/// util::parse_chaos_spec: the shared keys plus truncate, stall and
/// max_delay_ms.
[[nodiscard]] bool parse_impair_spec(const std::string& spec,
                                     ImpairConfig& out,
                                     std::string* error = nullptr);

/// One-line human-readable form for banners ("off" when disabled).
[[nodiscard]] std::string describe(const ImpairConfig& config);

/// Monotone verdict counters, mirrored into telemetry as net.impair.*.
struct ImpairStats {
  std::uint64_t chunks = 0;        ///< chunks that received a verdict
  std::uint64_t dropped = 0;       ///< loss verdicts (connection reset)
  std::uint64_t delayed = 0;       ///< chunks routed via a delay timer
  std::uint64_t corrupted = 0;     ///< single-bit flips applied
  std::uint64_t truncated = 0;     ///< prefix-then-reset verdicts
  std::uint64_t stalled = 0;       ///< streams silenced half-open
  std::uint64_t ge_bad_chunks = 0; ///< chunks spent in the GE bad state
  std::uint64_t partition_drops = 0;  ///< chunks voided by a partition
};

class Impairment {
 public:
  /// Verdict granularity: one verdict per kChunkBytes of stream offset.
  /// recv() segmentation never shifts chunk boundaries.
  static constexpr std::size_t kChunkBytes = 512;

  enum class Op : std::uint8_t {
    kDeliver,  ///< feed `bytes` to the FrameReader now (in order)
    kDelay,    ///< feed `bytes` after delay_ms, behind everything queued
    kReset,    ///< close the connection (terminal for the stream)
    kStall,    ///< silence the stream for good; socket stays open
  };
  struct Action {
    Op op = Op::kDeliver;
    std::vector<std::uint8_t> bytes;  ///< kDeliver / kDelay payload
    int delay_ms = 0;                 ///< kDelay only
  };

  /// `self` is the owning node (partition membership); `seed` roots every
  /// verdict stream. One instance per node endpoint.
  Impairment(ImpairConfig config, std::uint64_t seed, PeerId self);

  [[nodiscard]] bool enabled() const noexcept { return config_.enabled(); }
  [[nodiscard]] const ImpairConfig& config() const noexcept {
    return config_;
  }
  [[nodiscard]] const ImpairStats& stats() const noexcept { return stats_; }

  /// Allocate the connection key of a fresh inbound byte stream (one
  /// socket life; a reconnect opens a new stream). Keys are handed out
  /// monotonically, so a deterministic connection-establishment order
  /// replays the same verdict streams run over run.
  std::uint64_t open_stream();
  void close_stream(std::uint64_t key);

  /// Push `n` received bytes of stream `key` through the verdict engine;
  /// the ordered actions to apply land in `out` (appended). A kReset or
  /// kStall action is terminal — later ingests of the stream produce
  /// nothing. Unknown keys pass bytes through untouched.
  void ingest(std::uint64_t key, const std::uint8_t* data, std::size_t n,
              std::vector<Action>& out);

  /// Advance the partition clock (the scheduler's round counter).
  void set_round(std::uint64_t round) noexcept { round_ = round; }
  [[nodiscard]] std::uint64_t round() const noexcept { return round_; }
  /// Is `peer` inside an active partition window right now? Pure function
  /// of (seed, window index, peer), keyed like the sim's partitions —
  /// every node computes the same answer.
  [[nodiscard]] bool offline(PeerId peer) const;
  [[nodiscard]] bool self_offline() const { return offline(self_); }

 private:
  /// One verdict, fully drawn when the stream offset crosses into a new
  /// chunk — before any of the chunk's bytes move, so a chunk split across
  /// several recv() calls sees exactly one verdict.
  struct Verdict {
    bool drop = false;
    bool stall = false;
    bool corrupt = false;
    bool truncate = false;
    std::size_t truncate_at = 0;  ///< prefix length within the chunk
    std::size_t corrupt_bit = 0;  ///< bit index within the chunk
    int delay_ms = 0;             ///< 0 = immediate
  };

  struct Stream {
    std::uint64_t offset = 0;  ///< bytes ingested so far
    bool dead = false;         ///< reset delivered; swallow the rest
    bool stalled = false;      ///< half-open; swallow silently
    bool ge_bad = false;       ///< Gilbert–Elliott chain state
    Verdict cur;               ///< verdict of the chunk offset_ is inside
  };

  [[nodiscard]] Verdict draw(std::uint64_t key, Stream& s,
                             std::uint64_t chunk);

  ImpairConfig config_;
  util::Rng root_;    ///< util::Rng(seed): the partition schedule's root
  util::Rng master_;  ///< root_.derive(kChaosStream): the verdict streams
  PeerId self_;
  std::uint64_t round_ = 0;
  std::uint64_t next_key_ = 1;
  std::map<std::uint64_t, Stream> streams_;
  ImpairStats stats_;
};

}  // namespace tribvote::net
