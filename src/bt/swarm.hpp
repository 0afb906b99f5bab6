// Piece-level swarm engine.
//
// Simulates one BitTorrent swarm at the granularity the paper describes:
// "every action that a BitTorrent client would need to take, down to the
// exchange of file chunks, peer choking and piece selection". The engine
// advances in unchoke rounds (default 10 s, the real protocol's rechoke
// period): each round every active member runs its choker over the peers
// interested in its pieces, divides its upload budget across the unchoked
// set, and byte progress accumulates into rarest-first-selected pieces.
//
// Churn: members deactivate (session end, state kept) and reactivate;
// free-riders leave permanently on completion. Firewalled peers can only
// exchange data when at least one endpoint is connectable.
//
// Members live in a dense store: slots in a vector, found by id through a
// sorted id index, with an ascending-id roster of the active members that
// every per-tick pass walks. Nothing is sized by the peer population.
//
// Every transferred byte lands in the shared ledger — the sole signal
// BarterCast (and hence the experience function) consumes.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "bt/bandwidth.hpp"
#include "bt/bitfield.hpp"
#include "bt/choker.hpp"
#include "bt/ledger.hpp"
#include "bt/piece_picker.hpp"
#include "bt/streaming.hpp"
#include "telemetry/registry.hpp"
#include "trace/trace.hpp"
#include "util/rng.hpp"

namespace tribvote::bt {

/// Default rechoke period (seconds), per the BitTorrent spec.
inline constexpr double kUnchokeRoundSeconds = 10.0;

/// Telemetry probes a swarm reports into. Null (default) handles are
/// inert; the runner shares one probe set across every swarm so the
/// counters aggregate system-wide.
struct SwarmProbes {
  telemetry::Counter ticks;
  telemetry::Counter pieces_completed;
  telemetry::Histogram active_members;  ///< observed once per tick
  telemetry::Counter pieces_on_time;    ///< streaming: met deadlines
  telemetry::Counter deadline_misses;   ///< streaming: skipped pieces
};

class Swarm {
 public:
  /// `peers` must outlive the swarm (owned by the scenario runner).
  /// `streaming` defaults to off, which preserves the download workload
  /// byte-for-byte.
  Swarm(const trace::SwarmSpec& spec,
        std::span<const trace::PeerProfile> peers, Ledger& ledger,
        BandwidthAllocator& bandwidth, util::Rng rng,
        StreamingConfig streaming = {});

  Swarm(const Swarm&) = delete;
  Swarm& operator=(const Swarm&) = delete;

  /// Fired when a member completes its download (before any free-rider
  /// departure logic the caller applies). It runs inside tick(), so it must
  /// not add, (de)activate or remove members of this swarm; defer those.
  std::function<void(PeerId peer)> on_complete;

  /// Telemetry probes (assign after construction, like on_complete).
  SwarmProbes probes;

  /// A peer joins for the first time. `as_seed` marks the initial seeder.
  /// The member starts active.
  void add_member(PeerId peer, bool as_seed);

  /// Session ended: the member goes offline but keeps its pieces.
  void deactivate(PeerId peer);

  /// Session resumed for an existing member.
  void reactivate(PeerId peer);

  /// Permanent departure (free-rider after completion, or user abandon).
  void leave(PeerId peer);

  /// One unchoke + transfer round covering `dt` seconds.
  void tick(double dt);

  [[nodiscard]] bool is_member(PeerId peer) const;
  [[nodiscard]] bool is_active(PeerId peer) const;
  [[nodiscard]] bool has_completed(PeerId peer) const;
  [[nodiscard]] std::size_t active_count() const noexcept {
    return roster_.size();
  }
  [[nodiscard]] std::size_t member_count() const noexcept {
    return index_.size();
  }
  /// Download progress in [0, 1].
  [[nodiscard]] double progress(PeerId peer) const;
  [[nodiscard]] const trace::SwarmSpec& spec() const noexcept { return spec_; }

  [[nodiscard]] const StreamingConfig& streaming() const noexcept {
    return streaming_;
  }
  [[nodiscard]] const StreamingTotals& streaming_totals() const noexcept {
    return streaming_totals_;
  }
  /// Next piece the member's player needs (== piece_count() when playback
  /// finished or the member was a seed). Only meaningful when streaming.
  [[nodiscard]] std::size_t playback_pos(PeerId peer) const;

 private:
  struct Link {
    std::size_t piece = kNoPiece;
    double bytes = 0;
  };

  // Links exist only on active, uncompleted members: deactivate() and a
  // completed download clear a member's own links, and tick() opens links
  // only on leechers. drop_links_to() relies on it.
  struct Member {
    Bitfield have;
    bool active = false;
    bool completed = false;
    Bitfield in_flight;                         // pieces on some link
    std::unordered_map<PeerId, Link> links;     // uploader -> progress
    std::unordered_map<PeerId, double> rx_window;  // recent bytes from peer
    std::unordered_map<PeerId, double> tx_window;  // recent bytes to peer
    Choker choker;
    double down_budget = 0.0;  // bytes left to receive this round
    // Streaming playback state (inert unless streaming_.enabled).
    std::size_t play_pos = 0;   // next piece the player consumes
    bool playing = false;       // startup buffer filled, clock running
    double play_carry = 0.0;    // seconds accumulated toward the next piece
  };

  /// One member's slot in `members_`, keyed by its id.
  struct Entry {
    PeerId id;
    std::uint32_t slot;
  };

  /// First entry of an ascending-id list whose id is not below `peer`.
  [[nodiscard]] static std::vector<Entry>::const_iterator locate(
      const std::vector<Entry>& entries, PeerId peer);
  [[nodiscard]] Member* find(PeerId peer);
  [[nodiscard]] const Member* find(PeerId peer) const;
  void roster_insert(PeerId peer, std::uint32_t slot);
  void roster_erase(PeerId peer);
  [[nodiscard]] bool links_only_on_leechers() const;

  [[nodiscard]] bool link_allowed(PeerId a, PeerId b) const;
  void drop_links_to(PeerId uploader);
  void clear_own_links(Member& m);
  void complete_piece(PeerId peer, Member& m, std::size_t piece);
  /// Streaming-aware piece selection for a (downloader <- uploader) link.
  [[nodiscard]] std::size_t pick_piece(const Member& uploader,
                                       const Member& downloader);
  /// Advance one member's playback clock by dt seconds.
  void advance_playback(Member& m, double dt);

  trace::SwarmSpec spec_;
  std::span<const trace::PeerProfile> peers_;
  Ledger* ledger_;
  BandwidthAllocator* bandwidth_;
  util::Rng rng_;
  double piece_bytes_;
  std::size_t n_pieces_;
  StreamingConfig streaming_;
  double piece_seconds_ = 0.0;  // playback time one piece covers
  StreamingTotals streaming_totals_;
  PiecePicker picker_;
  // Dense member store. A slot freed by leave() is reset and reused by the
  // next add_member(). `index_` names every member's slot and `roster_`
  // every active member's, both in ascending id order, which is the order
  // every pass of tick() visits them in.
  std::vector<Member> members_;
  std::vector<std::uint32_t> free_slots_;
  std::vector<Entry> index_;
  std::vector<Entry> roster_;
  // Per-tick scratch, reused across ticks: the leecher roster (slots do
  // not move, and nothing joins or leaves during a tick) and one
  // uploader's interested candidates.
  std::vector<std::pair<PeerId, Member*>> leechers_;
  std::vector<ChokeCandidate> candidates_;

  friend struct SwarmInspector;  // read-only access for invariant tests
};

}  // namespace tribvote::bt
