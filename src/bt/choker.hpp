// BitTorrent choking: tit-for-tat regular unchoke slots plus a periodically
// rotated optimistic unchoke (Cohen 2003).
//
// Stateless policy function plus a small per-member rotation state. The
// swarm engine supplies, per candidate downloader, the bytes the uploader
// received from that candidate over the recent window (the reciprocation
// signal); seeds, which receive nothing, rank candidates by bytes *sent*
// instead, approximating the upload-to-fastest seed policy.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "util/ids.hpp"
#include "util/rng.hpp"

namespace tribvote::bt {

struct ChokerConfig {
  std::uint32_t regular_slots = 3;    ///< tit-for-tat unchoke slots
  std::uint32_t optimistic_slots = 1; ///< rotated unchoke slots
  std::uint32_t optimistic_period = 3;///< rounds between optimistic rotations
};

/// One interested candidate presented to the choker.
struct ChokeCandidate {
  PeerId peer = kInvalidPeer;
  double score = 0;  ///< reciprocation bytes (leecher) or service bytes (seed)
};

/// Per-uploader rotation state for the optimistic slot.
class Choker {
 public:
  explicit Choker(ChokerConfig config = {}) : config_(config) {}

  /// Select the unchoke set for this round from `candidates` (order
  /// irrelevant). Returns peer ids; size ≤ regular_slots + optimistic_slots.
  /// The span views this choker's own buffer and stays valid until the next
  /// call. Call exactly once per unchoke round.
  [[nodiscard]] std::span<const PeerId> select(
      std::span<const ChokeCandidate> candidates, util::Rng& rng);

  [[nodiscard]] const ChokerConfig& config() const noexcept { return config_; }

 private:
  ChokerConfig config_;
  PeerId optimistic_target_ = kInvalidPeer;
  std::uint32_t rounds_since_rotation_ = 0;
  std::vector<PeerId> unchoked_;
};

}  // namespace tribvote::bt
