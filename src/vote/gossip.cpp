#include "vote/gossip.hpp"

#include <algorithm>
#include <cassert>
#include <utility>

#include "util/hash.hpp"
#include "vote/agent.hpp"

namespace tribvote::vote {

std::uint64_t entry_check(const VoteEntry& v) {
  return util::digest_fields(
      {static_cast<std::uint64_t>(
           static_cast<std::int64_t>(opinion_value(v.opinion))),
       static_cast<std::uint64_t>(v.cast_at)});
}

namespace {

std::uint64_t digest_checksum(const VoteDigestMessage& digest) {
  std::uint64_t h =
      util::digest_fields({digest.voter, digest.key.y, digest.entries.size()});
  for (const DigestEntry& e : digest.entries) {
    h = util::hash_combine(h, util::digest_fields({e.moderator, e.check}));
  }
  return h;
}

}  // namespace

std::uint64_t VoteDeltaMessage::digest() const {
  std::uint64_t h =
      util::digest_fields({voter, key.y, bound_checksum, votes.size()});
  for (const VoteEntry& v : votes) {
    h = util::hash_combine(
        h, util::digest_fields({v.moderator, entry_check(v)}));
  }
  return h;
}

VoteDigestMessage make_digest(const VoteListMessage& full) {
  VoteDigestMessage digest;
  digest.voter = full.voter;
  digest.key = full.key;
  digest.entries.reserve(full.votes.size());
  for (const VoteEntry& v : full.votes) {
    digest.entries.push_back(DigestEntry{v.moderator, entry_check(v)});
  }
  digest.checksum = digest_checksum(digest);
  return digest;
}

bool digest_intact(const VoteDigestMessage& digest) {
  return digest.checksum == digest_checksum(digest);
}

std::size_t wire_size(const VoteListMessage& msg) {
  return kFrameHeaderBytes + kSignatureBytes +
         msg.votes.size() * kVoteEntryBytes;
}

std::size_t wire_size(const VoteDigestMessage& digest) {
  return kFrameHeaderBytes + kChecksumBytes +
         digest.entries.size() * kDigestEntryBytes;
}

std::size_t wire_size(const VoteDeltaMessage& delta) {
  return kFrameHeaderBytes + kChecksumBytes + kSignatureBytes +
         delta.votes.size() * kVoteEntryBytes;
}

void damage_message(VoteListMessage& msg, util::PayloadFault fault,
                    std::uint64_t salt) {
  switch (fault) {
    case util::PayloadFault::kNone:
      return;
    case util::PayloadFault::kTruncated:
      if (msg.votes.empty()) {
        msg.signature.s ^= 1;  // nothing to cut — clip the trailer instead
      } else {
        msg.votes.resize(msg.votes.size() / 2);
      }
      return;
    case util::PayloadFault::kCorrupted:
      msg.signature.s ^= std::uint64_t{1} << (salt & 63);
      return;
  }
}

void damage_digest(VoteDigestMessage& digest, util::PayloadFault fault,
                   std::uint64_t salt) {
  switch (fault) {
    case util::PayloadFault::kNone:
      return;
    case util::PayloadFault::kTruncated:
      // The stored checksum now covers entries that were cut off.
      digest.entries.resize(digest.entries.size() / 2);
      return;
    case util::PayloadFault::kCorrupted:
      digest.checksum ^= std::uint64_t{1} << (salt & 63);
      return;
  }
}

void damage_delta(VoteDeltaMessage& delta, util::PayloadFault fault,
                  std::uint64_t salt) {
  switch (fault) {
    case util::PayloadFault::kNone:
      return;
    case util::PayloadFault::kTruncated:
      if (delta.votes.empty()) {
        delta.signature.s ^= 1;
      } else {
        delta.votes.resize(delta.votes.size() / 2);
      }
      return;
    case util::PayloadFault::kCorrupted:
      delta.signature.s ^= std::uint64_t{1} << (salt & 63);
      return;
  }
}

std::vector<CounterpartMemory::IndexEntry>::const_iterator
CounterpartMemory::find(PeerId peer) const {
  return std::ranges::lower_bound(index_, peer, {}, &IndexEntry::first);
}

void CounterpartMemory::unlink(std::uint32_t slot) {
  const Slot& s = slots_[slot];
  (s.older == kNone ? oldest_ : slots_[s.older].newer) = s.newer;
  (s.newer == kNone ? newest_ : slots_[s.newer].older) = s.older;
}

void CounterpartMemory::link_newest(std::uint32_t slot) {
  slots_[slot].older = newest_;
  slots_[slot].newer = kNone;
  (newest_ == kNone ? oldest_ : slots_[newest_].newer) = slot;
  newest_ = slot;
}

void CounterpartMemory::note(PeerId peer) {
  if (capacity_ == 0) return;
  const auto it = find(peer);
  std::uint32_t slot;
  if (it != index_.end() && it->first == peer) {
    slot = it->second;
    unlink(slot);
  } else if (index_.size() < capacity_) {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.push_back(Slot{peer, kNone, kNone, 0});
    index_.insert(it, IndexEntry{peer, slot});
  } else {
    // Evict the least recently exchanged counterpart; the newcomer takes
    // over its slot.
    slot = oldest_;
    unlink(slot);
    index_.erase(find(slots_[slot].peer));
    index_.insert(find(peer), IndexEntry{peer, slot});
    slots_[slot].peer = peer;
  }
  slots_[slot].stamp = next_stamp_++;
  link_newest(slot);
}

std::uint64_t CounterpartMemory::digest() const {
  std::uint64_t h = util::digest_fields({capacity_, next_stamp_, index_.size()});
  for (const auto& [peer, slot] : index_) {
    h = util::hash_combine(h, util::digest_fields({peer, slots_[slot].stamp}));
  }
  return h;
}

}  // namespace tribvote::vote
