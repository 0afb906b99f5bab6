#include "sim/fault_plane.hpp"

#include <algorithm>
#include <cassert>

#include "util/hash.hpp"

namespace tribvote::sim {

using util::PayloadFault;

// ---- config ----------------------------------------------------------------

bool parse_fault_spec(const std::string& spec, FaultConfig& out,
                      std::string* error) {
  return util::parse_chaos_spec(spec, "fault", out, error, [](FaultConfig& c) {
    // Retry n waits vp_retry_base << (n - 1); the bounds keep that in range.
    return std::vector<util::SpecKey>{
        util::rate_key("crash", c.crash_rate),
        util::rate_key("crash_rate", c.crash_rate),
        util::rate_key("delay_rate", c.delay_rate),
        util::rate_key("corrupt_rate", c.corrupt_rate),
        util::integer_key("max_delay", c.max_delay, 1),
        util::integer_key("retries", c.vp_retry_budget, 0, 32),
        util::integer_key("retry_base", c.vp_retry_base, 1, 1u << 31)};
  });
}

std::string describe(const FaultConfig& config) {
  if (!config.enabled()) return "off";
  std::string out = util::describe_chaos(config);
  if (config.delay_rate > 0.0) {
    util::append_token(out, "max_delay=%llds",
                       static_cast<long long>(config.max_delay));
  }
  if (config.crash_rate > 0.0) {
    util::append_token(out, "crash=%g", config.crash_rate);
  }
  util::append_token(out, "retry=%zux%llds", config.vp_retry_budget,
                     static_cast<long long>(config.vp_retry_base));
  return out;
}

// ---- counters --------------------------------------------------------------

FaultCounters& FaultCounters::operator+=(const FaultCounters& o) noexcept {
  encounters_hit += o.encounters_hit;
  dropped_requests += o.dropped_requests;
  dropped_replies += o.dropped_replies;
  delayed += o.delayed;
  late_drops += o.late_drops;
  crashes += o.crashes;
  unreachable += o.unreachable;
  corrupted += o.corrupted;
  rejected += o.rejected;
  one_sided += o.one_sided;
  timeouts += o.timeouts;
  retries += o.retries;
  retry_successes += o.retry_successes;
  reoffers += o.reoffers;
  partitioned += o.partitioned;
  ge_bad_encounters += o.ge_bad_encounters;
  return *this;
}

FaultCounters& FaultStats::of(Protocol p) noexcept {
  switch (p) {
    case Protocol::kVote: return vote;
    case Protocol::kVoxPopuli: return vox;
    case Protocol::kModeration: return moderation;
    case Protocol::kBarter: return barter;
    case Protocol::kNewscast: return newscast;
  }
  return vote;  // unreachable
}

const FaultCounters& FaultStats::of(Protocol p) const noexcept {
  return const_cast<FaultStats*>(this)->of(p);
}

FaultCounters FaultStats::total() const noexcept {
  FaultCounters sum;
  sum += vote;
  sum += vox;
  sum += moderation;
  sum += barter;
  sum += newscast;
  return sum;
}

FaultStats& FaultStats::operator+=(const FaultStats& o) noexcept {
  vote += o.vote;
  vox += o.vox;
  moderation += o.moderation;
  barter += o.barter;
  newscast += o.newscast;
  return *this;
}

// ---- plane -----------------------------------------------------------------

FaultPlane::FaultPlane(FaultConfig config, util::Rng stream,
                       std::size_t lanes)
    : config_(config), stream_(stream) {
  const std::size_t n = std::max<std::size_t>(1, lanes);
  lane_stats_.resize(n);
  lane_deferred_.resize(n);
  lane_vp_failures_.resize(n);
}

bool FaultPlane::partitioned(std::uint64_t round, PeerId node) const {
  return config_.partitioned(stream_, round, node);
}

util::Rng FaultPlane::encounter_stream(Protocol proto, std::uint64_t round,
                                       std::uint32_t seq) const {
  // Pure function of (plane seed, protocol, round, seq): the same triple
  // yields the same stream whatever the shard count or wall-clock
  // interleaving — the whole determinism argument rests on this line.
  return stream_.derive(util::digest_fields(
      {static_cast<std::uint64_t>(proto), round,
       static_cast<std::uint64_t>(seq)}));
}

const std::vector<util::EncounterFaults>& FaultPlane::draw_round(
    Protocol proto, const std::vector<Encounter>& encounters) {
  table_.assign(encounters.size(), util::EncounterFaults{});
  // A disabled plane hands out this all-clear table: no stream derived, no
  // counter moved, so it stays byte-inert behind the one encounter body.
  if (!enabled()) return table_;
  current_proto_ = proto;
  current_round_ = round_counter_[static_cast<std::size_t>(proto)]++;
  crashed_round_.clear();
  crashed_set_.clear();
  FaultCounters& c = stats_.of(proto);

  auto is_crashed = [this](PeerId id) {
    return std::binary_search(crashed_set_.begin(), crashed_set_.end(), id);
  };

  const bool partitions_on = config_.partitions_on();
  const bool ge_on = config_.ge_on();
  bool& ge_bad = ge_bad_[static_cast<std::size_t>(proto)];

  for (const Encounter& e : encounters) {
    assert(e.seq < table_.size());
    util::EncounterFaults& f = table_[e.seq];
    // A dark endpoint voids the encounter like a crash does: the dial
    // fails outright and the downstream unreachable handling applies.
    if (partitions_on && (partitioned(current_round_, e.initiator) ||
                          partitioned(current_round_, e.responder))) {
      f.unreachable = true;
      ++c.partitioned;
      ++c.unreachable;
      ++c.encounters_hit;
      continue;
    }
    if (!crashed_set_.empty() &&
        (is_crashed(e.initiator) || is_crashed(e.responder))) {
      f.unreachable = true;
      ++c.unreachable;
      ++c.encounters_hit;
      continue;
    }
    util::Rng r = encounter_stream(proto, current_round_, e.seq);
    double loss_p = config_.loss;
    if (ge_on) {
      // Advance the chain once per encounter, in seq order — this loop is
      // serial, so the chain trajectory is shard-invariant.
      loss_p = config_.ge_step(ge_bad, r);
      if (ge_bad) ++c.ge_bad_encounters;
    }
    f.drop_request = r.next_bool(loss_p);
    f.drop_reply = r.next_bool(loss_p);
    f.crash_responder = r.next_bool(config_.crash_rate);
    const bool delay_drawn = r.next_bool(config_.delay_rate);
    f.request_payload = r.next_bool(config_.corrupt_rate)
                            ? (r.next_bool(0.5) ? PayloadFault::kCorrupted
                                                : PayloadFault::kTruncated)
                            : PayloadFault::kNone;
    f.reply_payload = r.next_bool(config_.corrupt_rate)
                          ? (r.next_bool(0.5) ? PayloadFault::kCorrupted
                                              : PayloadFault::kTruncated)
                          : PayloadFault::kNone;
    f.payload_salt = r();

    // Normalize to a consistent story. A lost request voids everything
    // downstream of it: the responder never saw the dial, so it neither
    // replies nor crashes because of it. A crash voids the reply.
    if (f.drop_request) {
      f.drop_reply = false;
      f.crash_responder = false;
      f.request_payload = PayloadFault::kNone;
      f.reply_payload = PayloadFault::kNone;
    } else if (f.crash_responder) {
      f.drop_reply = false;
      f.reply_payload = PayloadFault::kNone;
    }
    if (f.reply_lost()) {
      f.delay_reply = 0;
    } else if (delay_drawn && !f.drop_request) {
      f.delay_reply = 1 + static_cast<Duration>(r.next_below(
                              static_cast<std::uint64_t>(config_.max_delay)));
    }

    if (f.crash_responder) {
      crashed_round_.push_back(e.responder);
      const auto pos = std::lower_bound(crashed_set_.begin(),
                                        crashed_set_.end(), e.responder);
      crashed_set_.insert(pos, e.responder);
      ++c.crashes;
    }
    if (f.drop_request) ++c.dropped_requests;
    if (f.drop_reply) ++c.dropped_replies;
    if (f.delay_reply != 0) ++c.delayed;
    c.corrupted +=
        static_cast<std::uint64_t>(f.request_payload != PayloadFault::kNone) +
        static_cast<std::uint64_t>(f.reply_payload != PayloadFault::kNone);
    if (f.reply_lost()) ++c.one_sided;
    if (f.any()) ++c.encounters_hit;
  }
  return table_;
}

void FaultPlane::defer(std::size_t lane, std::uint32_t seq, Duration delay,
                       std::function<void()> deliver) {
  lane_deferred_[lane].push_back(
      DeferredDelivery{seq, delay, std::move(deliver)});
}

void FaultPlane::record_vp_failure(std::size_t lane, std::uint32_t seq,
                                   PeerId initiator) {
  // The retry chain's stream is keyed like the encounter's own stream but
  // tagged as a retry, so a retry never replays the draws that failed the
  // original encounter.
  constexpr std::uint64_t kRetryTag = 0x7265747279;  // "retry"
  util::Rng rng = stream_.derive(util::digest_fields(
      {kRetryTag, static_cast<std::uint64_t>(current_proto_), current_round_,
       static_cast<std::uint64_t>(seq)}));
  lane_vp_failures_[lane].push_back(VpFailure{seq, initiator, rng});
}

RoundOutcome FaultPlane::finish_round() {
  RoundOutcome out;
  for (std::size_t lane = 0; lane < lane_stats_.size(); ++lane) {
    stats_ += lane_stats_[lane];
    lane_stats_[lane] = FaultStats{};
    auto& deferred = lane_deferred_[lane];
    out.deferred.insert(out.deferred.end(),
                        std::make_move_iterator(deferred.begin()),
                        std::make_move_iterator(deferred.end()));
    deferred.clear();
    auto& failures = lane_vp_failures_[lane];
    out.vp_failures.insert(out.vp_failures.end(), failures.begin(),
                           failures.end());
    failures.clear();
  }
  // Seq order. Stable: a single encounter can defer two messages (ballot
  // reply + top-K answer) and they must land in the order it sent them;
  // both live in the same lane buffer, so stable_sort preserves it.
  std::stable_sort(out.deferred.begin(), out.deferred.end(),
                   [](const DeferredDelivery& a, const DeferredDelivery& b) {
                     return a.seq < b.seq;
                   });
  std::stable_sort(out.vp_failures.begin(), out.vp_failures.end(),
                   [](const VpFailure& a, const VpFailure& b) {
                     return a.seq < b.seq;
                   });
  out.crashed = std::move(crashed_round_);
  crashed_round_.clear();
  return out;
}

}  // namespace tribvote::sim
