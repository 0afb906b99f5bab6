// The local ballot box (paper §V-A): each node's private sample of the
// population's votes, accumulated one PSS encounter at a time.
//
// One vote per (voter, moderator) pair — the one-node-one-vote-per-moderator
// policy; a fresher vote from the same voter replaces the older one. The box
// holds at most B_max entries; beyond that, new votes replace the oldest by
// (receive time, sequence number). Contents are never forwarded to other
// peers (precludes vote-relay lies).
//
// Storage (DESIGN §19): a dense row vector plus a flat key index sorted by
// (voter, moderator) — packed keys beside the row each names. The index
// fixes the order of find(), digest() and purge_voters(). An intrusive
// doubly linked list threads the rows in (received, seq) order, so the
// eviction victim is its head, and a new vote into a full box takes over the
// victim's row. Rows never move on insert or evict, so no link is ever
// renumbered; only the index shifts. Receive times need not be monotone per
// box — a net-plane responder merges at the initiator's wire time — so an
// out-of-order stamp walks back from the tail to its place. Distinct voters
// are counted from the sorted keys: a key is its voter's only one when
// neither neighbour shares the voter.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <vector>

#include "util/ids.hpp"
#include "util/opinion.hpp"
#include "util/time.hpp"
#include "vote/vote_list.hpp"

namespace tribvote::vote {

/// Per-moderator positive/negative totals over the current sample.
struct Tally {
  std::uint32_t positive = 0;
  std::uint32_t negative = 0;
  [[nodiscard]] std::uint32_t total() const noexcept {
    return positive + negative;
  }
};

class BallotBox {
 public:
  explicit BallotBox(std::size_t b_max);

  /// Merge a voter's vote-list message received at `now`. Caller has
  /// already applied the experience function; the box itself is
  /// policy-free storage.
  void merge(PeerId voter, const std::vector<VoteEntry>& votes, Time now);

  /// Number of distinct voters represented in the box — the quantity the
  /// B_min bootstrap threshold tests (Fig. 3).
  [[nodiscard]] std::size_t unique_voters() const noexcept {
    return distinct_voters_;
  }

  [[nodiscard]] std::size_t size() const noexcept { return rows_.size(); }
  [[nodiscard]] std::size_t capacity() const noexcept { return b_max_; }

  /// Aggregate votes per moderator (one vote per voter per moderator).
  /// Computed from the rows on the first read after a merge or purge that
  /// changed a vote, then memoized until the next such change. Not safe to
  /// call concurrently on one box: the first read writes the memo. The
  /// kernel runs each node on one lane at a time, so a box is never read
  /// from two lanes at once.
  [[nodiscard]] const std::map<ModeratorId, Tally>& tally() const;

  /// O(n) tally rebuild from the raw entries, bypassing the memo — the
  /// reference tally() is tested against.
  [[nodiscard]] std::map<ModeratorId, Tally> recompute_tally() const;

  /// The vote this box currently holds for (voter, moderator), if any —
  /// lets the gossip digest scan ask "do I already have this exact vote?"
  /// without exposing the rows.
  [[nodiscard]] std::optional<VoteEntry> find(PeerId voter,
                                              ModeratorId moderator) const;

  /// Drop every entry whose voter fails `keep` — used by the adaptive
  /// threshold (§VII): when a node raises T it re-filters its sample so
  /// votes absorbed under the old, laxer threshold no longer count.
  /// `keep` is called once per entry, in (voter, moderator) order.
  /// Returns the number of entries removed.
  std::size_t purge_voters(const std::function<bool(PeerId)>& keep);

  /// Dispersion of opinion in [0, 1]: mean over moderators with >= 2 votes
  /// of 1 - |pos - neg| / (pos + neg). 0 = full consensus.
  [[nodiscard]] double dispersion() const;

  /// Maximum per-moderator dispersion over moderators with >= `min_votes`
  /// sampled votes. This is the adaptive-threshold trigger signal (§VII):
  /// a coordinated vote-promotion attack splits opinion on *some* moderator
  /// even while others stay unanimous, so the max — unlike the mean — is
  /// not diluted by uncontested moderators.
  [[nodiscard]] double max_dispersion(std::uint32_t min_votes = 3) const;

  /// Order-sensitive fingerprint of the complete box state — every entry
  /// including receive timestamps and eviction sequence numbers. Two boxes
  /// with equal digests went through merge histories with identical
  /// observable effect; the transport-equivalence tests (sim vs socket)
  /// compare these.
  [[nodiscard]] std::uint64_t digest() const;

  /// O(n log n) audit of the storage: keys strictly ascending by
  /// (voter, moderator), each naming its own row, within capacity; the
  /// recency list holding every row once in (received, seq) order; the
  /// distinct-voter count matching the keys; and a memoized tally equal to
  /// recompute_tally().
  [[nodiscard]] bool invariants_hold() const;

 private:
  using Slot = std::uint32_t;  ///< row index; kNil ends the recency list
  static constexpr Slot kNil = 0xFFFFFFFFu;

  struct Row {
    PeerId voter;
    ModeratorId moderator;
    Time received;
    std::uint64_t seq;  ///< insertion order, breaks receive-time ties
    Time cast_at;       ///< the voter's own timestamp, as carried on the wire
    Slot older;         ///< recency neighbours: (received, seq) order
    Slot newer;
    Opinion opinion;
  };

  [[nodiscard]] std::size_t lower_bound(std::uint64_t key) const;
  [[nodiscard]] bool sole_key_of_voter(std::size_t i) const;
  void move_key(std::size_t from, std::size_t to);
  void unlink(Slot s);
  void link_by_recency(Slot s);

  std::size_t b_max_;
  std::uint64_t next_seq_ = 0;
  std::vector<Row> rows_;            // dense, in no particular order
  std::vector<std::uint64_t> keys_;  // (voter, moderator) packed, ascending
  std::vector<Slot> slots_;          // slots_[i] is the row of keys_[i]
  Slot oldest_ = kNil;  // recency list head: the next eviction victim
  Slot newest_ = kNil;
  std::size_t distinct_voters_ = 0;
  mutable std::map<ModeratorId, Tally> tally_;  // memo of recompute_tally()
  mutable bool tally_stale_ = false;
};

}  // namespace tribvote::vote
