// Dense pair-map ledger backend (the default; see bt/ledger.hpp for the API).
//
// Sparse row storage: per peer, a vector of (counterpart, bytes) pairs sorted
// by counterpart for uploads, mirrored by one for downloads, so a pair lookup
// is a binary search and a peer's direct view is O(degree), emitted in
// ascending counterpart order. Right-sized for the paper's 100–1000-peer
// populations with tens of counterparts each; at millions of peers prefer
// ShardedLogLedger (sharded_log_ledger.hpp).
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "bt/ledger.hpp"
#include "util/ids.hpp"

namespace tribvote::bt {

class MapLedger final : public Ledger {
 public:
  explicit MapLedger(std::size_t n_peers);

  void add_transfer(PeerId from, PeerId to, double bytes) override;

  [[nodiscard]] double uploaded_mb(PeerId from, PeerId to) const override;
  [[nodiscard]] double total_uploaded_mb(PeerId peer) const override;
  [[nodiscard]] double total_downloaded_mb(PeerId peer) const override;
  [[nodiscard]] std::vector<TransferRecord> direct_view(
      PeerId p) const override;

  [[nodiscard]] std::size_t peer_count() const noexcept override {
    return n_;
  }
  [[nodiscard]] std::uint64_t version(PeerId peer) const override {
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

/// Historical name of the pair-map backend, kept for call sites that want
/// "the concrete default ledger" without caring about the API split.
using TransferLedger = MapLedger;

}  // namespace tribvote::bt
