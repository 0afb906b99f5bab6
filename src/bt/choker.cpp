#include "bt/choker.hpp"

#include <algorithm>

namespace tribvote::bt {

std::span<const PeerId> Choker::select(
    std::span<const ChokeCandidate> candidates, util::Rng& rng) {
  unchoked_.clear();
  if (candidates.empty()) {
    optimistic_target_ = kInvalidPeer;
    return unchoked_;
  }

  // Regular slots: best reciprocators first; deterministic tie-break by id.
  // The ranking buffer is per thread, so uploaders on one lane share it.
  static thread_local std::vector<ChokeCandidate> ranked;
  ranked.assign(candidates.begin(), candidates.end());
  std::sort(ranked.begin(), ranked.end(),
            [](const ChokeCandidate& a, const ChokeCandidate& b) {
              if (a.score != b.score) return a.score > b.score;
              return a.peer < b.peer;
            });
  const std::size_t regular =
      std::min<std::size_t>(config_.regular_slots, ranked.size());
  for (std::size_t i = 0; i < regular; ++i) {
    unchoked_.push_back(ranked[i].peer);
  }

  if (config_.optimistic_slots == 0) return unchoked_;

  // Optimistic slot: keep the current target while it is still a candidate
  // outside the regular set; rotate every `optimistic_period` rounds.
  const std::span<const ChokeCandidate> rest =
      std::span<const ChokeCandidate>(ranked).subspan(regular);
  const bool target_valid =
      optimistic_target_ != kInvalidPeer &&
      std::ranges::find(rest, optimistic_target_, &ChokeCandidate::peer) !=
          rest.end();
  if (!target_valid || ++rounds_since_rotation_ >= config_.optimistic_period) {
    optimistic_target_ =
        rest.empty() ? kInvalidPeer : rest[rng.next_below(rest.size())].peer;
    rounds_since_rotation_ = 0;
  }
  if (optimistic_target_ != kInvalidPeer) {
    unchoked_.push_back(optimistic_target_);
  }
  return unchoked_;
}

}  // namespace tribvote::bt
