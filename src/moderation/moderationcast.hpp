// ModerationCast: push/pull gossip dissemination of moderations (Fig. 1).
//
// On each active-thread tick a node pairs with a PSS-sampled peer and both
// sides exchange Extract()ed moderation lists and Merge() them into their
// local_db. Spreading is approval-gated: a node forwards only moderations
// of moderators its user approved (plus its own), so well-approved
// moderators spread fast while unapproved ones spread only by direct
// contact — the paper's core dissemination asymmetry.
#pragma once

#include <functional>
#include <optional>
#include <vector>

#include "moderation/db.hpp"
#include "util/rng.hpp"
#include "util/transit.hpp"

namespace tribvote::moderation {

struct ModerationCastConfig {
  std::size_t max_items_per_message = 25;
  DbConfig db;
};

class ModerationCastAgent {
 public:
  /// `keys` must outlive the agent (owned by the node).
  ModerationCastAgent(PeerId self, const crypto::KeyPair& keys,
                      ModerationCastConfig config,
                      std::function<Opinion(ModeratorId)> opinion_of,
                      util::Rng rng);

  /// Fired for every moderation newly inserted into the local_db — the UI /
  /// voting behaviours react to this (e.g. a scripted voter votes when the
  /// target moderator's metadata first arrives).
  std::function<void(const Moderation&)> on_new_moderation;

  /// Author, sign and store a new moderation (the node acts as moderator).
  const Moderation& publish(std::uint64_t infohash, std::string description,
                            Time now);

  /// Per-batch receive outcome (item-wise: one damaged item in a batch is
  /// rejected alone — every other item still merges).
  struct ReceiveStats {
    std::size_t inserted = 0;       ///< new items merged (incl. evicting)
    std::size_t duplicates = 0;     ///< already stored
    std::size_t bad_signature = 0;  ///< corrupted/forged, rejected item-wise
    std::size_t disapproved = 0;    ///< refused per §IV
  };

  /// Build the moderation list for an outgoing push/pull message. Items
  /// queued by note_undelivered go first (capped at the message limit);
  /// the remainder is the regular Extract(). Without pending re-offers
  /// this is exactly the legacy Extract() path, RNG draws included.
  [[nodiscard]] std::vector<Moderation> outgoing();

  /// Merge a received moderation list; fires on_new_moderation per insert.
  ReceiveStats receive(const std::vector<Moderation>& items, Time now);

  /// Transport feedback: the items of our last push never reached the
  /// counterpart (lost encounter, no reply). They are queued and re-offered
  /// ahead of the regular extraction on the next outgoing() — at-least-once
  /// dissemination; duplicates dedup on merge. Items evicted or purged in
  /// the meantime are silently skipped at re-offer time. Returns the
  /// number of items queued.
  std::size_t note_undelivered(const std::vector<Moderation>& items);

  [[nodiscard]] std::size_t pending_reoffers() const noexcept {
    return pending_reoffer_.size();
  }

  /// The user disapproved a moderator: purge and block its items (§IV).
  void handle_disapproval(ModeratorId moderator);

  [[nodiscard]] ModerationDb& db() noexcept { return db_; }
  [[nodiscard]] const ModerationDb& db() const noexcept { return db_; }
  [[nodiscard]] PeerId self() const noexcept { return self_; }

 private:
  PeerId self_;
  const crypto::KeyPair* keys_;
  ModerationCastConfig config_;
  ModerationDb db_;
  util::Rng rng_;
  std::vector<Moderation> own_;  ///< stable storage for publish() returns
  std::vector<Moderation> pending_reoffer_;  ///< undelivered, retry next push
};

/// Aggregate outcome of one push/pull exchange, for telemetry. Callers
/// that only want the side effects may ignore it.
struct ExchangeStats {
  std::size_t sent_initiator = 0;  ///< items in the initiator's push
  std::size_t sent_responder = 0;  ///< items in the responder's reply
  std::size_t inserted = 0;        ///< new items merged, both sides
  std::size_t rejected = 0;   ///< damaged items rejected on merge, both sides
  std::size_t reoffered = 0;  ///< items queued for re-offer after a loss
  /// The responder's reply a deferring verdict holds in flight, already
  /// damaged; the caller merges it into the initiator later.
  std::optional<std::vector<Moderation>> held_reply;
};

/// In-flight damage to a moderation batch. Items are individually signed,
/// so truncation loses the tail and corruption damages exactly one item —
/// the receiver's per-item verification drops it and merges the rest.
void damage_batch(std::vector<Moderation>& items, util::PayloadFault fault,
                  std::uint64_t salt);

/// Responder half of one push/pull exchange, in Fig. 1 order: the reply
/// batch is extracted *before* the initiator's items merge (ml_j is built
/// before merging ml_i). exchange() below composes it; the socket plane's
/// ExchangeEngine calls it when serving a MOD_BATCH, so a wire moderation
/// encounter leaves the responder bit-identical to the sim. `stats`, when
/// given, receives the merge outcome of the initiator's batch.
[[nodiscard]] std::vector<Moderation> respond_exchange(
    ModerationCastAgent& responder, const std::vector<Moderation>& incoming,
    Time now, ModerationCastAgent::ReceiveStats* stats = nullptr);

/// One full push/pull exchange between two online agents (both
/// directions), as performed by the active/passive thread pair in Fig. 1,
/// under `verdict` (default all-clear; `unreachable` is the caller's). The
/// simulator's moderation round runs it under each encounter's verdict:
///   * lost request — the initiator hears no ack and queues its batch for
///     re-offer; the responder never learns of the encounter;
///   * damaged request or reply — damage_batch in flight, item-wise
///     rejection on merge;
///   * lost reply — the responder queues its (undamaged) batch for
///     re-offer;
///   * deferred reply — the damaged reply is returned in `held_reply`.
ExchangeStats exchange(ModerationCastAgent& initiator,
                       ModerationCastAgent& responder, Time now,
                       const util::EncounterFaults& verdict = {});

}  // namespace tribvote::moderation
