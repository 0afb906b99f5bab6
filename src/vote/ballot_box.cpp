#include "vote/ballot_box.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <tuple>

#include "util/hash.hpp"

namespace tribvote::vote {

namespace {

[[nodiscard]] constexpr std::uint64_t row_key(PeerId voter,
                                              ModeratorId moderator) noexcept {
  return (static_cast<std::uint64_t>(voter) << 32) | moderator;
}

[[nodiscard]] constexpr PeerId key_voter(std::uint64_t key) noexcept {
  return static_cast<PeerId>(key >> 32);
}

}  // namespace

BallotBox::BallotBox(std::size_t b_max) : b_max_(b_max) {
  assert(b_max > 0);
  assert(b_max < kNil);
}

void BallotBox::merge(PeerId voter, const std::vector<VoteEntry>& votes,
                      Time now) {
  for (const VoteEntry& v : votes) {
    if (v.opinion == Opinion::kNone) continue;  // malformed
    const std::uint64_t key = row_key(voter, v.moderator);
    std::size_t pos = lower_bound(key);
    if (pos < keys_.size() && keys_[pos] == key) {
      // Same voter, same moderator: refresh opinion and timestamp.
      const Slot s = slots_[pos];
      Row& row = rows_[s];
      if (row.opinion != v.opinion) tally_stale_ = true;
      row.opinion = v.opinion;
      row.received = now;
      row.seq = next_seq_++;
      row.cast_at = v.cast_at;
      unlink(s);
      link_by_recency(s);
      continue;
    }
    // A new vote takes over the oldest row when the box is full, else a
    // fresh one; either way its key shifts into order at `pos`.
    Slot s = static_cast<Slot>(rows_.size());
    std::size_t from = keys_.size();
    if (rows_.size() >= b_max_) {
      s = oldest_;
      const Row& victim = rows_[s];
      from = lower_bound(row_key(victim.voter, victim.moderator));
      if (sole_key_of_voter(from)) --distinct_voters_;
      unlink(s);
      if (from < pos) --pos;
    } else {
      rows_.emplace_back();
      keys_.emplace_back();
      slots_.emplace_back();
    }
    move_key(from, pos);
    keys_[pos] = key;
    slots_[pos] = s;
    rows_[s] = Row{voter,     v.moderator, now,  next_seq_++,
                   v.cast_at, kNil,        kNil, v.opinion};
    link_by_recency(s);
    if (sole_key_of_voter(pos)) ++distinct_voters_;
    tally_stale_ = true;
  }
  assert(invariants_hold());
}

std::size_t BallotBox::lower_bound(std::uint64_t key) const {
  return static_cast<std::size_t>(
      std::lower_bound(keys_.begin(), keys_.end(), key) - keys_.begin());
}

bool BallotBox::sole_key_of_voter(std::size_t i) const {
  const PeerId voter = key_voter(keys_[i]);
  return (i == 0 || key_voter(keys_[i - 1]) != voter) &&
         (i + 1 == keys_.size() || key_voter(keys_[i + 1]) != voter);
}

void BallotBox::move_key(std::size_t from, std::size_t to) {
  // Index entry `from` is about to be overwritten; the entries between it
  // and `to` shift by one toward it.
  const auto shift = [from, to](auto& index) {
    const auto begin = index.begin();
    const auto f = static_cast<std::ptrdiff_t>(from);
    const auto t = static_cast<std::ptrdiff_t>(to);
    if (from < to) {
      std::move(begin + f + 1, begin + t + 1, begin + f);
    } else {
      std::move_backward(begin + t, begin + f, begin + f + 1);
    }
  };
  shift(keys_);
  shift(slots_);
}

void BallotBox::unlink(Slot s) {
  Row& r = rows_[s];
  if (r.older == kNil) {
    oldest_ = r.newer;
  } else {
    rows_[r.older].newer = r.newer;
  }
  if (r.newer == kNil) {
    newest_ = r.older;
  } else {
    rows_[r.newer].older = r.older;
  }
  r.older = kNil;
  r.newer = kNil;
}

void BallotBox::link_by_recency(Slot s) {
  // Row s carries the newest seq, so it goes after every row received at
  // or before it. Receive times are usually nondecreasing, which makes
  // this the tail; an out-of-order stamp walks back to its place.
  Row& r = rows_[s];
  Slot after = newest_;
  while (after != kNil && rows_[after].received > r.received) {
    after = rows_[after].older;
  }
  r.older = after;
  if (after == kNil) {
    r.newer = oldest_;
    oldest_ = s;
  } else {
    r.newer = rows_[after].newer;
    rows_[after].newer = s;
  }
  if (r.newer == kNil) {
    newest_ = s;
  } else {
    rows_[r.newer].older = s;
  }
}

std::size_t BallotBox::purge_voters(
    const std::function<bool(PeerId)>& keep) {
  std::vector<bool> dropped(rows_.size(), false);
  std::size_t removed = 0;
  for (const Slot s : slots_) {
    if (keep(rows_[s].voter)) continue;
    dropped[s] = true;
    ++removed;
  }
  if (removed == 0) return 0;
  tally_stale_ = true;
  // Survivors are renumbered in recency order, which relinks them as a
  // plain chain; the key index keeps its order and takes the new numbers.
  std::vector<Slot> renumbered(rows_.size(), kNil);
  std::vector<Row> rows;
  rows.reserve(rows_.size() - removed);
  for (Slot s = oldest_; s != kNil; s = rows_[s].newer) {
    if (dropped[s]) continue;
    renumbered[s] = static_cast<Slot>(rows.size());
    rows.push_back(rows_[s]);
  }
  const auto kept = static_cast<Slot>(rows.size());
  for (Slot s = 0; s < kept; ++s) {
    rows[s].older = s == 0 ? kNil : s - 1;
    rows[s].newer = s + 1 == kept ? kNil : s + 1;
  }
  rows_ = std::move(rows);
  oldest_ = kept == 0 ? kNil : 0;
  newest_ = kept == 0 ? kNil : kept - 1;
  std::size_t at = 0;
  distinct_voters_ = 0;
  for (std::size_t i = 0; i < keys_.size(); ++i) {
    if (dropped[slots_[i]]) continue;
    if (at == 0 || key_voter(keys_[at - 1]) != key_voter(keys_[i])) {
      ++distinct_voters_;
    }
    keys_[at] = keys_[i];
    slots_[at] = renumbered[slots_[i]];
    ++at;
  }
  keys_.resize(at);
  slots_.resize(at);
  assert(invariants_hold());
  return removed;
}

const std::map<ModeratorId, Tally>& BallotBox::tally() const {
  if (tally_stale_) {
    tally_ = recompute_tally();
    tally_stale_ = false;
  }
  return tally_;
}

std::map<ModeratorId, Tally> BallotBox::recompute_tally() const {
  std::map<ModeratorId, Tally> result;
  for (const Row& r : rows_) {
    Tally& t = result[r.moderator];
    if (r.opinion == Opinion::kPositive) {
      ++t.positive;
    } else {
      ++t.negative;
    }
  }
  return result;
}

bool BallotBox::invariants_hold() const {
  const std::size_t n = rows_.size();
  if (n > b_max_ || keys_.size() != n || slots_.size() != n) return false;
  // Unique ascending keys, each naming its own row, make slots_ a
  // permutation of the rows.
  std::size_t voters = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (i > 0 && keys_[i - 1] >= keys_[i]) return false;
    if (slots_[i] >= n) return false;
    const Row& r = rows_[slots_[i]];
    if (row_key(r.voter, r.moderator) != keys_[i]) return false;
    if (i == 0 || key_voter(keys_[i - 1]) != key_voter(keys_[i])) ++voters;
  }
  if (voters != distinct_voters_) return false;
  // Strictly ascending stamps over n steps visit n distinct rows.
  std::size_t visited = 0;
  Slot prev = kNil;
  for (Slot at = oldest_; at != kNil; at = rows_[at].newer) {
    if (at >= n || visited == n) return false;
    const Row& r = rows_[at];
    if (r.older != prev) return false;
    if (prev != kNil && std::tie(rows_[prev].received, rows_[prev].seq) >=
                            std::tie(r.received, r.seq)) {
      return false;
    }
    prev = at;
    ++visited;
  }
  if (visited != n || newest_ != prev) return false;
  if (tally_stale_) return true;
  const auto expected = recompute_tally();
  return std::equal(tally_.begin(), tally_.end(), expected.begin(),
                    expected.end(), [](const auto& a, const auto& b) {
                      return a.first == b.first &&
                             a.second.positive == b.second.positive &&
                             a.second.negative == b.second.negative;
                    });
}

std::optional<VoteEntry> BallotBox::find(PeerId voter,
                                         ModeratorId moderator) const {
  const std::uint64_t key = row_key(voter, moderator);
  const std::size_t i = lower_bound(key);
  if (i == keys_.size() || keys_[i] != key) return std::nullopt;
  const Row& r = rows_[slots_[i]];
  return VoteEntry{moderator, r.opinion, r.cast_at};
}

double BallotBox::max_dispersion(std::uint32_t min_votes) const {
  double worst = 0;
  for (const auto& [moderator, t] : tally()) {
    if (t.total() < min_votes) continue;
    const double diff = std::abs(static_cast<double>(t.positive) -
                                 static_cast<double>(t.negative));
    worst = std::max(worst, 1.0 - diff / static_cast<double>(t.total()));
  }
  return worst;
}

std::uint64_t BallotBox::digest() const {
  std::uint64_t h = util::digest_fields({b_max_, next_seq_, rows_.size()});
  for (const Slot s : slots_) {
    const Row& r = rows_[s];
    h = util::hash_combine(
        h, util::digest_fields(
               {r.voter, r.moderator,
                static_cast<std::uint64_t>(
                    static_cast<std::int64_t>(opinion_value(r.opinion))),
                static_cast<std::uint64_t>(r.received), r.seq,
                static_cast<std::uint64_t>(r.cast_at)}));
  }
  return h;
}

double BallotBox::dispersion() const {
  const auto& tallies = tally();
  double sum = 0;
  std::size_t counted = 0;
  for (const auto& [moderator, t] : tallies) {
    if (t.total() < 2) continue;
    const double diff =
        std::abs(static_cast<double>(t.positive) -
                 static_cast<double>(t.negative));
    sum += 1.0 - diff / static_cast<double>(t.total());
    ++counted;
  }
  return counted == 0 ? 0.0 : sum / static_cast<double>(counted);
}

}  // namespace tribvote::vote
