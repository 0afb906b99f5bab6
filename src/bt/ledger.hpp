// Contribution ledger (DESIGN.md §9).
//
// Every byte moved by the swarm engine is accounted here; it is the sole
// signal BarterCast (and hence the experience function E) consumes. The
// read/write seam is the `const` qualifier:
//
//   * writers hold `Ledger*` / `Ledger&` — the swarm engine, the adversary
//     plane's credit drips and scenario preseeding append transfers;
//   * readers hold `const Ledger&` — BarterCast (and the attack variants)
//     read per-peer direct views and versions; evaluation metrics read pair
//     counters (allowed global knowledge per the paper's footnote 8).
//
// Sparse row storage: per peer, a vector of (counterpart, bytes) pairs
// sorted by counterpart for uploads, mirrored by one for downloads, so a
// pair lookup is a binary search and a peer's direct view is O(degree),
// emitted in ascending counterpart order. Right-sized for the paper's
// 100–1000-peer populations with tens of counterparts each.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "util/ids.hpp"

namespace tribvote::bt {

/// One direct-transfer record as a peer would report it: "a uploaded
/// `mb` megabytes to b".
struct TransferRecord {
  PeerId from = kInvalidPeer;
  PeerId to = kInvalidPeer;
  double mb = 0;
};

class Ledger {
 public:
  explicit Ledger(std::size_t n_peers);

  /// Record `bytes` uploaded by `from` to `to`.
  void add_transfer(PeerId from, PeerId to, double bytes);

  /// Megabytes uploaded by `from` to `to` so far.
  [[nodiscard]] double uploaded_mb(PeerId from, PeerId to) const;

  /// Total megabytes uploaded by a peer to everyone.
  [[nodiscard]] double total_uploaded_mb(PeerId peer) const;

  /// Total megabytes downloaded by a peer from everyone.
  [[nodiscard]] double total_downloaded_mb(PeerId peer) const;

  /// The direct records peer `p` can truthfully report: every counterpart
  /// it exchanged data with, both directions. This is the local view
  /// BarterCast gossips, in row order: uploads by ascending target, then
  /// downloads by ascending source.
  [[nodiscard]] std::vector<TransferRecord> direct_view(PeerId p) const;

  [[nodiscard]] std::size_t peer_count() const noexcept { return n_; }

  /// Monotone counter bumped whenever a transfer touches `peer` (either
  /// direction). Lets BarterCast agents skip re-syncing an unchanged
  /// direct view — the dominant cost in long runs.
  [[nodiscard]] std::uint64_t version(PeerId peer) const {
    return version_[peer];
  }

 private:
  /// (counterpart, bytes) pairs, ascending counterpart.
  using Row = std::vector<std::pair<PeerId, double>>;

  std::size_t n_;
  std::vector<Row> up_bytes_;
  std::vector<Row> down_bytes_;
  std::vector<double> total_up_;
  std::vector<double> total_down_;
  std::vector<std::uint64_t> version_;
};

}  // namespace tribvote::bt
