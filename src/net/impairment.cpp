#include "net/impairment.hpp"

#include <algorithm>

namespace tribvote::net {
namespace {

// Stream-key constant, same idiom as PeerDirectory's sample/sign split.
constexpr std::uint64_t kChaosStream = 0x63686173ULL;  // "chas"

}  // namespace

bool parse_impair_spec(const std::string& spec, ImpairConfig& out,
                       std::string* error) {
  return util::parse_chaos_spec(
      spec, "impair", out, error, [](ImpairConfig& c) {
        return std::vector<util::SpecKey>{
            util::rate_key("truncate", c.truncate_rate),
            util::rate_key("stall", c.stall_rate),
            util::integer_key("max_delay_ms", c.max_delay_ms, 0, 60'000)};
      });
}

std::string describe(const ImpairConfig& config) {
  if (!config.enabled()) return "off";
  std::string out = util::describe_chaos(config);
  if (config.delay_rate > 0.0) {
    util::append_token(out, "max_delay_ms=%d", config.max_delay_ms);
  }
  if (config.truncate_rate > 0.0) {
    util::append_token(out, "truncate=%g", config.truncate_rate);
  }
  if (config.stall_rate > 0.0) {
    util::append_token(out, "stall=%g", config.stall_rate);
  }
  return out;
}

Impairment::Impairment(ImpairConfig config, std::uint64_t seed, PeerId self)
    : config_(config),
      root_(seed),
      master_(root_.derive(kChaosStream)),
      self_(self) {}

std::uint64_t Impairment::open_stream() {
  const std::uint64_t key = next_key_++;
  streams_.emplace(key, Stream{});
  return key;
}

void Impairment::close_stream(std::uint64_t key) { streams_.erase(key); }

Impairment::Verdict Impairment::draw(std::uint64_t key, Stream& s,
                                     std::uint64_t chunk) {
  // One independent generator per (stream, chunk): the verdict depends on
  // nothing but the key tuple, so recv() segmentation and poll timing
  // cannot shift it. Only the GE chain state threads between chunks, and
  // it advances exactly once per chunk, in offset order.
  util::Rng r = master_.derive(key).derive(chunk);
  Verdict v;
  double loss_p = config_.loss;
  if (config_.ge_on()) {
    loss_p = config_.ge_step(s.ge_bad, r);
    if (s.ge_bad) ++stats_.ge_bad_chunks;
  }
  v.drop = r.next_bool(loss_p);
  v.stall = r.next_bool(config_.stall_rate);
  v.truncate = r.next_bool(config_.truncate_rate);
  v.truncate_at = static_cast<std::size_t>(r.next_below(kChunkBytes));
  v.corrupt = r.next_bool(config_.corrupt_rate);
  v.corrupt_bit = static_cast<std::size_t>(r.next_below(kChunkBytes * 8));
  if (config_.delay_rate > 0.0 && config_.max_delay_ms > 0 &&
      r.next_bool(config_.delay_rate)) {
    v.delay_ms = 1 + static_cast<int>(r.next_below(
                         static_cast<std::uint64_t>(config_.max_delay_ms)));
  }
  ++stats_.chunks;
  if (v.drop) ++stats_.dropped;
  if (v.stall && !v.drop) ++stats_.stalled;
  if (v.truncate && !v.drop && !v.stall) ++stats_.truncated;
  if (v.delay_ms > 0 && !v.drop && !v.stall) ++stats_.delayed;
  return v;
}

void Impairment::ingest(std::uint64_t key, const std::uint8_t* data,
                        std::size_t n, std::vector<Action>& out) {
  const auto it = streams_.find(key);
  if (it == streams_.end()) {
    // Unknown stream: pass through untouched (defensive; NodeService only
    // ingests keys it opened).
    Action a;
    a.bytes.assign(data, data + n);
    out.push_back(std::move(a));
    return;
  }
  Stream& s = it->second;
  if (s.dead || s.stalled) return;  // terminal: swallow everything
  if (self_offline()) {
    // Our side of a partition window: the node is unreachable, so every
    // live stream resets. The scheduler sees the closes and backs off.
    ++stats_.partition_drops;
    s.dead = true;
    out.push_back(Action{Op::kReset, {}, 0});
    return;
  }
  std::size_t pos = 0;
  while (pos < n) {
    const std::uint64_t chunk = s.offset / kChunkBytes;
    const std::size_t chunk_off =
        static_cast<std::size_t>(s.offset % kChunkBytes);
    if (chunk_off == 0) s.cur = draw(key, s, chunk);
    const Verdict& v = s.cur;
    if (v.drop) {
      s.dead = true;
      out.push_back(Action{Op::kReset, {}, 0});
      return;
    }
    if (v.stall) {
      s.stalled = true;
      out.push_back(Action{Op::kStall, {}, 0});
      return;
    }
    std::size_t take = std::min(n - pos, kChunkBytes - chunk_off);
    bool reset_after = false;
    if (v.truncate) {
      if (chunk_off >= v.truncate_at) {
        s.dead = true;
        out.push_back(Action{Op::kReset, {}, 0});
        return;
      }
      if (chunk_off + take >= v.truncate_at) {
        take = v.truncate_at - chunk_off;
        reset_after = true;
      }
    }
    Action a;
    a.op = v.delay_ms > 0 ? Op::kDelay : Op::kDeliver;
    a.delay_ms = v.delay_ms;
    a.bytes.assign(data + pos, data + pos + take);
    if (v.corrupt) {
      const std::size_t byte = v.corrupt_bit / 8;
      if (byte >= chunk_off && byte < chunk_off + take) {
        a.bytes[byte - chunk_off] ^=
            static_cast<std::uint8_t>(1u << (v.corrupt_bit % 8));
        ++stats_.corrupted;
      }
    }
    out.push_back(std::move(a));
    s.offset += take;
    pos += take;
    if (reset_after) {
      s.dead = true;
      out.push_back(Action{Op::kReset, {}, 0});
      return;
    }
  }
}

bool Impairment::offline(PeerId peer) const {
  return config_.partitioned(root_, round_, peer);
}

}  // namespace tribvote::net
