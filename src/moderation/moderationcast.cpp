#include "moderation/moderationcast.hpp"

#include <algorithm>
#include <cassert>
#include <utility>

namespace tribvote::moderation {

ModerationCastAgent::ModerationCastAgent(
    PeerId self, const crypto::KeyPair& keys, ModerationCastConfig config,
    std::function<Opinion(ModeratorId)> opinion_of, util::Rng rng)
    : self_(self),
      keys_(&keys),
      config_(config),
      db_(self, config.db, std::move(opinion_of)),
      rng_(rng) {}

const Moderation& ModerationCastAgent::publish(std::uint64_t infohash,
                                               std::string description,
                                               Time now) {
  own_.push_back(make_moderation(self_, *keys_, infohash,
                                 std::move(description), now, rng_));
  const auto result = db_.merge(own_.back(), now);
  assert(result != ModerationDb::MergeResult::kBadSignature);
  (void)result;
  return own_.back();
}

std::vector<Moderation> ModerationCastAgent::outgoing() {
  if (pending_reoffer_.empty()) {
    return db_.extract(config_.max_items_per_message, rng_);
  }
  // Undelivered items first (skipping any evicted/purged since), then the
  // regular extraction fills the remaining budget, deduplicated by id.
  std::vector<Moderation> out;
  std::vector<ModerationId> out_ids;
  for (Moderation& m : pending_reoffer_) {
    if (out.size() >= config_.max_items_per_message) break;
    const ModerationId id = m.digest();
    if (!db_.contains(id)) continue;
    out.push_back(std::move(m));
    out_ids.push_back(id);
  }
  pending_reoffer_.clear();
  if (out.size() < config_.max_items_per_message) {
    for (Moderation& m :
         db_.extract(config_.max_items_per_message - out.size(), rng_)) {
      if (std::find(out_ids.begin(), out_ids.end(), m.digest()) !=
          out_ids.end()) {
        continue;
      }
      out.push_back(std::move(m));
    }
  }
  return out;
}

ModerationCastAgent::ReceiveStats ModerationCastAgent::receive(
    const std::vector<Moderation>& items, Time now) {
  ReceiveStats stats;
  for (const Moderation& m : items) {
    const auto result = db_.merge(m, now);
    switch (result) {
      case ModerationDb::MergeResult::kInserted:
      case ModerationDb::MergeResult::kEvictedOthers:
        ++stats.inserted;
        if (on_new_moderation) on_new_moderation(m);
        break;
      case ModerationDb::MergeResult::kDuplicate:
        ++stats.duplicates;
        break;
      case ModerationDb::MergeResult::kBadSignature:
        ++stats.bad_signature;
        break;
      case ModerationDb::MergeResult::kDisapprovedModerator:
        ++stats.disapproved;
        break;
    }
  }
  return stats;
}

std::size_t ModerationCastAgent::note_undelivered(
    const std::vector<Moderation>& items) {
  // Bounded at one message's worth; overflow is dropped (those items keep
  // circulating via regular extraction anyway — re-offering is an
  // acceleration, not a delivery guarantee).
  std::size_t queued = 0;
  for (const Moderation& m : items) {
    if (pending_reoffer_.size() >= config_.max_items_per_message) break;
    pending_reoffer_.push_back(m);
    ++queued;
  }
  return queued;
}

void ModerationCastAgent::handle_disapproval(ModeratorId moderator) {
  db_.purge_moderator(moderator);
}

void damage_batch(std::vector<Moderation>& items, util::PayloadFault fault,
                  std::uint64_t salt) {
  if (items.empty()) return;
  switch (fault) {
    case util::PayloadFault::kNone:
      return;
    case util::PayloadFault::kTruncated:
      items.resize((items.size() + 1) / 2);
      return;
    case util::PayloadFault::kCorrupted:
      items[salt % items.size()].signature.s ^= std::uint64_t{1} << (salt & 63);
      return;
  }
}

std::vector<Moderation> respond_exchange(
    ModerationCastAgent& responder, const std::vector<Moderation>& incoming,
    Time now, ModerationCastAgent::ReceiveStats* stats) {
  // Fig. 1 order: the responder extracts its own batch *before* merging
  // the initiator's, so the exchange is symmetric within this encounter.
  std::vector<Moderation> reply = responder.outgoing();
  const ModerationCastAgent::ReceiveStats merged =
      responder.receive(incoming, now);
  if (stats != nullptr) *stats = merged;
  return reply;
}

ExchangeStats exchange(ModerationCastAgent& initiator,
                       ModerationCastAgent& responder, Time now,
                       const util::EncounterFaults& verdict) {
  ExchangeStats stats;
  std::vector<Moderation> from_initiator = initiator.outgoing();
  stats.sent_initiator = from_initiator.size();
  if (verdict.drop_request) {
    stats.reoffered += initiator.note_undelivered(from_initiator);
    return stats;
  }
  damage_batch(from_initiator, verdict.request_payload, verdict.payload_salt);
  ModerationCastAgent::ReceiveStats responder_merge;
  std::vector<Moderation> from_responder =
      respond_exchange(responder, from_initiator, now, &responder_merge);
  stats.sent_responder = from_responder.size();
  stats.inserted += responder_merge.inserted;
  stats.rejected += responder_merge.bad_signature;
  if (verdict.reply_lost()) {
    // Re-offer from the batch as built, before any in-flight damage.
    stats.reoffered += responder.note_undelivered(from_responder);
    return stats;
  }
  damage_batch(from_responder, verdict.reply_payload, verdict.payload_salt + 1);
  if (verdict.delay_reply > 0) {
    stats.held_reply = std::move(from_responder);
    return stats;
  }
  const ModerationCastAgent::ReceiveStats initiator_merge =
      initiator.receive(from_responder, now);
  stats.inserted += initiator_merge.inserted;
  stats.rejected += initiator_merge.bad_signature;
  return stats;
}

}  // namespace tribvote::moderation
