#include "sim/fault_plane.hpp"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <sstream>

#include "util/hash.hpp"

namespace tribvote::sim {

// ---- config ----------------------------------------------------------------

namespace {

bool set_error(std::string* error, const std::string& what) {
  if (error != nullptr) *error = what;
  return false;
}

}  // namespace

bool parse_fault_spec(const std::string& spec, FaultConfig& out,
                      std::string* error) {
  std::istringstream in(spec);
  std::string field;
  while (std::getline(in, field, ',')) {
    if (field.empty()) continue;
    const std::size_t eq = field.find('=');
    if (eq == std::string::npos) {
      return set_error(error, "expected key=value, got '" + field + "'");
    }
    const std::string key = field.substr(0, eq);
    const std::string value = field.substr(eq + 1);
    char* end = nullptr;
    const double v = std::strtod(value.c_str(), &end);
    if (end == value.c_str() || *end != '\0') {
      return set_error(error, "bad value for " + key + ": '" + value + "'");
    }
    auto probability = [&](double& slot) {
      if (v < 0.0 || v > 1.0) {
        return set_error(error, key + " must be in [0, 1]");
      }
      slot = v;
      return true;
    };
    if (key == "loss") {
      if (!probability(out.loss)) return false;
    } else if (key == "delay" || key == "delay_rate") {
      if (!probability(out.delay_rate)) return false;
    } else if (key == "crash" || key == "crash_rate") {
      if (!probability(out.crash_rate)) return false;
    } else if (key == "corrupt" || key == "corrupt_rate") {
      if (!probability(out.corrupt_rate)) return false;
    } else if (key == "max_delay") {
      if (v < 1.0) return set_error(error, "max_delay must be >= 1");
      out.max_delay = static_cast<Duration>(v);
    } else if (key == "retries") {
      if (v < 0.0) return set_error(error, "retries must be >= 0");
      out.vp_retry_budget = static_cast<std::size_t>(v);
    } else if (key == "retry_base") {
      if (v < 1.0) return set_error(error, "retry_base must be >= 1");
      out.vp_retry_base = static_cast<Duration>(v);
    } else if (key == "ge") {
      // Shorthand: tune the chain for a stationary loss rate of v, the
      // same solver as net::parse_impair_spec so A11/A12 sweep one axis.
      if (v < 0.0 || v >= 0.8) {
        return set_error(error, "ge must be in [0, 0.8)");
      }
      out.ge_loss_bad = 0.8;
      out.ge_loss_good = v / 10.0;
      out.ge_bad_to_good = 0.25;
      const double pi = 0.9 * v / (0.8 - 0.1 * v);
      out.ge_good_to_bad = out.ge_bad_to_good * pi / (1.0 - pi);
    } else if (key == "ge_p") {
      if (!probability(out.ge_good_to_bad)) return false;
    } else if (key == "ge_r") {
      if (!probability(out.ge_bad_to_good)) return false;
    } else if (key == "ge_loss_good") {
      if (!probability(out.ge_loss_good)) return false;
    } else if (key == "ge_loss_bad") {
      if (!probability(out.ge_loss_bad)) return false;
    } else if (key == "part_period") {
      if (v < 0.0) return set_error(error, "part_period must be >= 0");
      out.partition_period = static_cast<std::uint64_t>(v);
    } else if (key == "part_width") {
      if (v < 1.0) return set_error(error, "part_width must be >= 1");
      out.partition_width = static_cast<std::uint64_t>(v);
    } else if (key == "part_frac") {
      if (!probability(out.partition_frac)) return false;
    } else {
      return set_error(error, "unknown fault key '" + key + "'");
    }
  }
  return true;
}

std::string describe(const FaultConfig& config) {
  if (!config.enabled()) return "off";
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "loss=%g delay=%g/%llds crash=%g corrupt=%g retry=%zux%llds",
                config.loss, config.delay_rate,
                static_cast<long long>(config.max_delay), config.crash_rate,
                config.corrupt_rate, config.vp_retry_budget,
                static_cast<long long>(config.vp_retry_base));
  std::string out = buf;
  if (config.ge_good_to_bad > 0.0) {
    std::snprintf(buf, sizeof(buf), " ge=%g/%g(%g,%g)", config.ge_good_to_bad,
                  config.ge_bad_to_good, config.ge_loss_good,
                  config.ge_loss_bad);
    out += buf;
  }
  if (config.partition_period > 0 && config.partition_frac > 0.0) {
    std::snprintf(buf, sizeof(buf), " part=%llu/%llux%g",
                  static_cast<unsigned long long>(config.partition_period),
                  static_cast<unsigned long long>(config.partition_width),
                  config.partition_frac);
    out += buf;
  }
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
  if (config_.partition_period == 0 || config_.partition_frac <= 0.0) {
    return false;
  }
  // The first window opens one full period in, so cold-start rounds are
  // never dark (mirrors net::Impairment::offline).
  if (round < config_.partition_period) return false;
  if (round % config_.partition_period >= config_.partition_width) {
    return false;
  }
  const std::uint64_t window = round / config_.partition_period;
  constexpr std::uint64_t kPartitionStream = 0x70617274;  // "part"
  util::Rng r = stream_.derive(util::digest_fields(
      {kPartitionStream, window, static_cast<std::uint64_t>(node)}));
  return r.next_bool(config_.partition_frac);
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

const std::vector<EncounterFaults>& FaultPlane::draw_round(
    Protocol proto, const std::vector<Encounter>& encounters) {
  table_.assign(encounters.size(), EncounterFaults{});
  // A disabled plane hands out this all-clear table: no stream derived, no
  // counter moved, so it stays byte-inert behind the one faulted round body.
  if (!enabled()) return table_;
  current_proto_ = proto;
  current_round_ = round_counter_[static_cast<std::size_t>(proto)]++;
  crashed_round_.clear();
  crashed_set_.clear();
  FaultCounters& c = stats_.of(proto);

  auto is_crashed = [this](PeerId id) {
    return std::binary_search(crashed_set_.begin(), crashed_set_.end(), id);
  };

  const bool partitions_on =
      config_.partition_period > 0 && config_.partition_frac > 0.0;
  const bool ge_on = config_.ge_good_to_bad > 0.0;
  bool& ge_bad = ge_bad_[static_cast<std::size_t>(proto)];

  for (const Encounter& e : encounters) {
    assert(e.seq < table_.size());
    EncounterFaults& f = table_[e.seq];
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
      // Advance the two-state chain once per encounter, in seq order —
      // this loop is serial, so the chain trajectory is shard-invariant.
      if (ge_bad) {
        if (r.next_bool(config_.ge_bad_to_good)) ge_bad = false;
      } else {
        if (r.next_bool(config_.ge_good_to_bad)) ge_bad = true;
      }
      if (ge_bad) ++c.ge_bad_encounters;
      loss_p = ge_bad ? config_.ge_loss_bad : config_.ge_loss_good;
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
