// Digest-first delta gossip for BallotBox exchanges (perf layer over §V-A).
//
// A full vote-list message re-ships (and re-signs) up to max_votes entries
// every encounter even when the counterpart already holds almost all of
// them. After a first full exchange with a counterpart, a sender instead
// opens with a compact digest — one (moderator, 64-bit check) pair per
// selected vote — and ships only the entries the receiver reports missing,
// under a single Schnorr signature covering the whole batch.
//
// The delta path is *semantically transparent*: the receiver reconstructs
// the exact full vote vector (covered entries from its own verified stores,
// missing entries from the signed delta) and merges it through the same
// path a full message takes, so ballot-box state, eviction order and every
// metric are bit-identical to a full exchange. Only selection, signing and
// wire bytes are saved.
//
// Wire-fault semantics mirror the full-message ones: one signature (or the
// digest checksum) covers the frame, so any in-transit damage is rejected
// wholesale. A damaged digest falls back to a full (equally damaged)
// exchange; a damaged delta rejects like a damaged full message — a leg
// with a payload fault never merges anything, with cache on or off.
//
// Transit damage is util::PayloadFault, the one fault enum the fault
// plane draws and every protocol body applies.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "crypto/schnorr.hpp"
#include "util/ids.hpp"
#include "util/transit.hpp"
#include "vote/vote_list.hpp"

namespace tribvote::vote {

struct VoteListMessage;  // agent.hpp; gossip frames ride the same exchange

/// One digest line: "I would send you my vote on `moderator`, whose content
/// hashes to `check`." The check covers (opinion, cast_at), so a receiver
/// holding the identical vote can prove coverage without the payload.
struct DigestEntry {
  ModeratorId moderator = kInvalidModerator;
  std::uint64_t check = 0;
};

/// The digest frame that opens a delta exchange. `checksum` binds the whole
/// frame (transport integrity, not authenticity — see DESIGN.md).
struct VoteDigestMessage {
  PeerId voter = kInvalidPeer;
  crypto::PublicKey key;
  std::vector<DigestEntry> entries;
  std::uint64_t checksum = 0;
};

/// The delta frame answering a digest scan: only the entries the receiver
/// was missing, bound to the digest it answers and covered by one Schnorr
/// signature.
struct VoteDeltaMessage {
  PeerId voter = kInvalidPeer;
  crypto::PublicKey key;
  std::uint64_t bound_checksum = 0;  ///< checksum of the digest answered
  std::vector<VoteEntry> votes;
  crypto::Signature signature;

  [[nodiscard]] std::uint64_t digest() const;
};

/// Content check for one vote entry (opinion + cast time; the moderator is
/// carried explicitly alongside, so collisions require a stale vote on the
/// *same* (voter, moderator) pair hashing identically — 2^-64).
[[nodiscard]] std::uint64_t entry_check(const VoteEntry& v);

/// Build the digest frame for a selected-and-signed full message.
[[nodiscard]] VoteDigestMessage make_digest(const VoteListMessage& full);

/// Transport-integrity check: does the stored checksum match the entries?
[[nodiscard]] bool digest_intact(const VoteDigestMessage& digest);

// ---- wire-size model (bytes) ----------------------------------------------
// Simulation-grade accounting mirroring the ledger's size model: fixed
// per-frame header plus fixed-size records. A full vote entry carries
// (moderator:8, opinion:1, cast_at:7→8) = 16 B; a digest entry
// (moderator:8, check:8) would be 16 B too, but the check can ride at 32
// bits of useful transport entropy on the wire (the full 64 bits are only
// needed against adversarial stale collisions, covered by the signature on
// the delta), so it is modelled at 12 B.

inline constexpr std::size_t kFrameHeaderBytes = 32;   ///< ids + key + kind
inline constexpr std::size_t kSignatureBytes = 16;     ///< Schnorr (e, s)
inline constexpr std::size_t kVoteEntryBytes = 16;
inline constexpr std::size_t kDigestEntryBytes = 12;
inline constexpr std::size_t kChecksumBytes = 8;
inline constexpr std::size_t kRequestBytes = 4;  ///< one missing index

[[nodiscard]] std::size_t wire_size(const VoteListMessage& msg);
[[nodiscard]] std::size_t wire_size(const VoteDigestMessage& digest);
[[nodiscard]] std::size_t wire_size(const VoteDeltaMessage& delta);

// ---- transit damage --------------------------------------------------------
// Deterministic fault application, salt-driven. Damage guarantees rejection:
// a truncated/corrupted full or delta frame fails its signature; a damaged
// digest fails its checksum and falls back to a full exchange.

void damage_message(VoteListMessage& msg, util::PayloadFault fault,
                    std::uint64_t salt);
void damage_digest(VoteDigestMessage& digest, util::PayloadFault fault,
                   std::uint64_t salt);
void damage_delta(VoteDeltaMessage& delta, util::PayloadFault fault,
                  std::uint64_t salt);

/// Bounded memory of counterparts a node has completed an exchange with —
/// the precondition for opening with a digest instead of a full message.
/// Eviction is deterministic: stamps are unique and strictly increasing, so
/// "least recently exchanged" has a single well-defined victim.
///
/// Each remembered peer owns a slot; the slots are linked oldest to newest
/// by index, so the victim is the oldest slot and a refresh relinks one slot
/// — eviction needs no scan. Membership is a binary search in an index
/// sorted by peer id. Two flat arrays, no per-peer allocation.
class CounterpartMemory {
 public:
  explicit CounterpartMemory(std::size_t capacity) : capacity_(capacity) {}

  /// Record a completed exchange with `peer` (refreshes recency).
  void note(PeerId peer);

  /// True if `peer` is in memory — the sender may open with a digest.
  [[nodiscard]] bool known(PeerId peer) const {
    const auto it = find(peer);
    return it != index_.end() && it->first == peer;
  }

  [[nodiscard]] std::size_t size() const noexcept { return index_.size(); }
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }

  /// Fingerprint of the full memory (peers + recency stamps), in ascending
  /// peer order (transport-equivalence tests).
  [[nodiscard]] std::uint64_t digest() const;

 private:
  static constexpr std::uint32_t kNone = ~std::uint32_t{0};
  struct Slot {
    PeerId peer;
    std::uint32_t older;  ///< next older slot, or kNone
    std::uint32_t newer;  ///< next newer slot, or kNone
    std::uint64_t stamp;  ///< last exchange
  };
  using IndexEntry = std::pair<PeerId, std::uint32_t>;  // (peer, slot)

  /// First index entry with peer id >= `peer`.
  [[nodiscard]] std::vector<IndexEntry>::const_iterator find(
      PeerId peer) const;
  void unlink(std::uint32_t slot);
  void link_newest(std::uint32_t slot);

  std::size_t capacity_;
  std::uint64_t next_stamp_ = 0;
  std::vector<Slot> slots_;
  std::uint32_t oldest_ = kNone;  // the eviction victim
  std::uint32_t newest_ = kNone;
  std::vector<IndexEntry> index_;  // ascending peer
};

}  // namespace tribvote::vote
