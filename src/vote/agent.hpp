// The per-node vote-sampling agent: Fig. 3's active and passive threads.
//
// Composes the local vote list, the local ballot box (with the experience
// function guarding merges), and the VoxPopuli bootstrap cache. Vote-list
// messages are signed with the node's identity key — Tribler's PKI makes
// votes non-spoofable, so a voter can neither be impersonated nor can its
// message be altered in transit.
//
// Methods that attackers subvert (what a node *sends*) are virtual; the
// attack module derives colluder agents that lie. What a node *accepts* is
// fixed — honest logic is not overridable by remote peers.
#pragma once

#include <functional>
#include <optional>

#include "crypto/schnorr.hpp"
#include "util/ids.hpp"
#include "util/rng.hpp"
#include "vote/ballot_box.hpp"
#include "vote/gossip.hpp"
#include "vote/ranking.hpp"
#include "vote/vote_list.hpp"
#include "vote/voxpopuli.hpp"

namespace tribvote::vote {

struct VoteConfig {
  std::size_t b_min = 5;    ///< unique voters needed before box stats used
  std::size_t b_max = 100;  ///< ballot box capacity
  std::size_t v_max = 10;   ///< VoxPopuli cache size
  std::size_t k = 3;        ///< top-K list length
  std::size_t max_votes_per_message = 50;
  SelectionPolicy selection = SelectionPolicy::kRecencyRandom;
  RankMethod method = RankMethod::kSum;
  /// Vote-history cache + digest-first delta gossip (semantically
  /// transparent; TRIBVOTE_GOSSIP_CACHE=off disables for A/B runs).
  bool gossip_cache = true;
  /// Capacity of the per-node counterpart memory gating delta exchanges.
  std::size_t gossip_memory = 64;
};

/// Cumulative gossip-side work counters for one agent (monotone; sample
/// before/after a call to attribute cost to a single leg).
struct GossipStats {
  std::uint64_t builds = 0;      ///< outgoing_votes calls
  std::uint64_t cache_hits = 0;  ///< served from the vote-history cache
  std::uint64_t signatures = 0;  ///< Schnorr signing operations performed
};

/// A signed vote-list message (the BallotBox exchange payload).
struct VoteListMessage {
  PeerId voter = kInvalidPeer;
  crypto::PublicKey key;
  std::vector<VoteEntry> votes;
  crypto::Signature signature;

  [[nodiscard]] std::uint64_t digest() const;
};

/// Why a vote-list message was (not) merged. Callers that only care about
/// success test for kAccepted; the fault-degradation counters need the
/// reason (a corrupted message rejects as kBadSignature, an inexperienced
/// sender as kInexperienced — only the latter is a protocol-level verdict).
enum class ReceiveResult : std::uint8_t {
  kAccepted,        ///< verified and merged into the ballot box
  kSelfMessage,     ///< own message bounced back — ignored
  kBadSignature,    ///< forged or corrupted in transit — ignored wholesale
  kEmpty,           ///< authentic but carries no votes
  kInexperienced,   ///< authentic but E_self(voter) = false — not merged
};

class VoteAgent {
 public:
  /// `experienced(j)` is the node's experience function E_self(j).
  /// `keys` must outlive the agent.
  using ExperienceCb = std::function<bool(PeerId)>;

  VoteAgent(PeerId self, const crypto::KeyPair& keys, VoteConfig config,
            ExperienceCb experienced, util::Rng rng);
  virtual ~VoteAgent() = default;

  /// Optional: moderators the node knows about from its local_db. When set,
  /// rankings include vote-less known moderators at a neutral score — a
  /// node can order a moderator it has metadata from even if its sample
  /// holds no votes on it yet.
  std::function<std::vector<ModeratorId>()> known_moderators;

  // ---- user actions -------------------------------------------------------

  /// The local user approves/disapproves a moderator.
  void cast_vote(ModeratorId moderator, Opinion opinion, Time now);

  // ---- protocol: BallotBox ------------------------------------------------

  /// Build this node's signed vote-list message (recency + random selection,
  /// at most max_votes_per_message entries). Virtual: colluders fabricate.
  [[nodiscard]] virtual VoteListMessage outgoing_votes(Time now);

  /// Handle a counterpart's vote-list message: verify the signature, apply
  /// the experience function, and merge into the local ballot box.
  /// A message that fails verification is rejected wholesale (one signature
  /// covers the list, so a truncated or bit-damaged list cannot poison the
  /// box); the result says why.
  ReceiveResult receive_votes(const VoteListMessage& message, Time now);

  // ---- protocol: digest-first delta gossip (see gossip.hpp) ---------------

  /// Which digest positions this node cannot cover from its own verified
  /// stores (ballot box, then observed box) — the entries it would request.
  [[nodiscard]] std::vector<std::size_t> scan_digest(
      const VoteDigestMessage& digest) const;

  /// Only the digest entries at `missing` positions of `full`, bound to the
  /// digest's checksum under one signature. Counts one signing operation.
  [[nodiscard]] VoteDeltaMessage build_delta(
      const VoteListMessage& full, const std::vector<std::size_t>& missing);

  /// Complete a delta exchange: validate the delta against the digest
  /// (binding, sizes, per-entry checks, one signature), reconstruct the
  /// exact full vote vector — covered entries from local stores, missing
  /// ones from the delta — and merge it through the same path a full
  /// message takes. `delta` may be null when the scan covers everything.
  /// Any mismatch rejects wholesale as kBadSignature; nothing is merged.
  ReceiveResult receive_delta(const VoteDigestMessage& digest,
                              const VoteDeltaMessage* delta, Time now);

  [[nodiscard]] const GossipStats& gossip_stats() const noexcept {
    return gossip_stats_;
  }
  [[nodiscard]] const CounterpartMemory& counterparts() const noexcept {
    return counterparts_;
  }
  /// Record a completed exchange with `peer` (enables delta next time); a
  /// no-op with the gossip cache off.
  void note_counterpart(PeerId peer) {
    if (config_.gossip_cache) counterparts_.note(peer);
  }

  /// Whether a leg carrying `full` toward `receiver` opens with a digest
  /// (cache on, something to send, a known counterpart) rather than the
  /// full message. Every transport opens its legs by this one predicate.
  [[nodiscard]] bool opens_with_digest(const VoteListMessage& full,
                                       PeerId receiver) const {
    return config_.gossip_cache && !full.votes.empty() &&
           counterparts_.known(receiver);
  }

  // ---- protocol: VoxPopuli ------------------------------------------------

  /// True while the node lacks B_min unique voters — the condition under
  /// which the active thread issues VP requests (Fig. 3a).
  [[nodiscard]] bool bootstrapping() const {
    return box_.unique_voters() < config_.b_min;
  }

  /// Answer a VP request: the top-K from the local ballot box, or an empty
  /// list ("null") when this node is itself bootstrapping (Fig. 3c — nodes
  /// never relay second-hand top-K lists). Virtual: colluders always answer,
  /// with a fabricated list.
  [[nodiscard]] virtual RankedList answer_topk();

  /// Merge a non-null VP response into the bootstrap cache.
  void receive_topk(RankedList list);

  /// Re-apply the experience function to the stored sample, dropping votes
  /// from voters that no longer pass (adaptive-threshold support, §VII).
  /// Returns the number of votes dropped.
  std::size_t refilter_ballot() {
    return box_.purge_voters(experienced_);
  }

  /// Dispersion of *incoming* votes — measured over every authentic vote
  /// list received lately, whether or not the experience function accepted
  /// it. This is the signal §VII reacts to: a node under a vote-promotion
  /// attack keeps observing conflicting opinions even while rejecting them.
  [[nodiscard]] double observed_dispersion() const {
    return observed_.max_dispersion();
  }

  /// Scenario bootstrap: pre-load the ballot box with a sample obtained
  /// before the simulated window (e.g. Fig. 8's pre-converged experienced
  /// core). Bypasses signatures and the experience function by design —
  /// it models state, not a protocol message.
  void preload_sample(PeerId voter, const std::vector<VoteEntry>& votes,
                      Time now) {
    box_.merge(voter, votes, now);
  }

  // ---- ranking ------------------------------------------------------------

  /// The node's current best moderator ranking: ballot-box statistics once
  /// B_min unique voters are sampled, otherwise the merged VoxPopuli cache
  /// (possibly empty when neither source has data).
  [[nodiscard]] RankedList current_ranking() const;

  /// Convenience: the node's current #1 moderator, if it has any ranking.
  [[nodiscard]] std::optional<ModeratorId> top_moderator() const;

  // ---- accessors ------------------------------------------------------------

  [[nodiscard]] PeerId self() const noexcept { return self_; }
  [[nodiscard]] const VoteConfig& config() const noexcept { return config_; }
  [[nodiscard]] LocalVoteList& vote_list() noexcept { return votes_; }
  [[nodiscard]] const LocalVoteList& vote_list() const noexcept {
    return votes_;
  }
  [[nodiscard]] const BallotBox& ballot_box() const noexcept { return box_; }
  [[nodiscard]] const VoxPopuliCache& vox_cache() const noexcept {
    return vox_;
  }

  /// Fingerprint of the agent's complete protocol state: vote list (with
  /// version), ballot box, observed box, VoxPopuli cache and counterpart
  /// memory. Two agents with equal digests are indistinguishable to every
  /// future protocol step. The transport-equivalence tests (DESIGN.md §13)
  /// compare this across the sim and socket paths; work counters
  /// (gossip_stats) are deliberately excluded — they are effort, not state.
  [[nodiscard]] std::uint64_t state_digest() const;

 protected:
  /// Ballot-box tally augmented with known vote-less moderators at zero.
  [[nodiscard]] std::map<ModeratorId, Tally> augmented_tally() const;

  PeerId self_;
  const crypto::KeyPair* keys_;
  VoteConfig config_;
  ExperienceCb experienced_;
  util::Rng rng_;
  LocalVoteList votes_;
  BallotBox box_;
  /// Sliding sample of all authentic incoming votes (accepted or not),
  /// used only for the adaptive-threshold dispersion signal.
  BallotBox observed_;
  VoxPopuliCache vox_;

 private:
  /// Shared tail of receive_votes/receive_delta: observed merge, experience
  /// gate, ballot-box merge — identical state transitions on both paths.
  ReceiveResult absorb_votes(PeerId voter, const std::vector<VoteEntry>& votes,
                             Time now);

  /// A locally held vote on (voter, entry.moderator) whose content matches
  /// the digest check, if any (ballot box first, then observed box).
  [[nodiscard]] std::optional<VoteEntry> covered_by(
      PeerId voter, const DigestEntry& entry) const;

  /// True when select_for_message for the current config draws no
  /// randomness, i.e. its output is a pure function of the vote list.
  [[nodiscard]] bool selection_deterministic() const;

  /// Dedicated nonce stream for Schnorr signing, derived from the agent
  /// RNG at construction. Keeps signing-count changes (one signature per
  /// version instead of per encounter) from perturbing rng_, whose draws
  /// the selection policy consumes.
  util::Rng nonce_rng_;
  GossipStats gossip_stats_;
  CounterpartMemory counterparts_;

  // Vote-history cache: the selected-and-signed message for the current
  // (vote-list version, policy, max_votes), valid only while selection is
  // deterministic. An unchanged ballot paper is signed once, not once per
  // encounter.
  bool cache_valid_ = false;
  std::uint64_t cache_version_ = 0;
  SelectionPolicy cache_policy_ = SelectionPolicy::kRecencyRandom;
  std::size_t cache_max_votes_ = 0;
  VoteListMessage cache_msg_;
};

/// Outcome of one directed gossip leg (sender → receiver), for telemetry.
struct GossipLegOutcome {
  ReceiveResult result = ReceiveResult::kBadSignature;
  std::size_t bytes = 0;       ///< wire bytes this leg (all frames)
  std::size_t list_size = 0;   ///< selected entries in the sender's message
  bool delta = false;          ///< completed via the digest/delta protocol
  bool fallback_full = false;  ///< damaged digest forced a full retransmit
  bool cache_hit = false;      ///< sender served from the vote-history cache
  std::uint32_t signatures = 0;  ///< signing ops the sender performed
};

/// One directed vote transfer from `sender` to `receiver`, choosing the
/// full-message or digest-first delta path and applying the transit fault
/// (if any) to whichever frame the salt routes it to. With the gossip
/// cache off this degrades to exactly the legacy full exchange.
GossipLegOutcome gossip_send(
    VoteAgent& sender, VoteAgent& receiver, Time now,
    util::PayloadFault fault = util::PayloadFault::kNone,
    std::uint64_t salt = 0);

}  // namespace tribvote::vote
