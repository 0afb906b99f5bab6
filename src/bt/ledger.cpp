#include "bt/ledger.hpp"

#include <algorithm>
#include <cassert>

namespace tribvote::bt {

namespace {

constexpr double kBytesPerMb = 1024.0 * 1024.0;

/// Bytes slot of `peer` in a sorted row, inserted as 0 when absent.
double& slot(std::vector<std::pair<PeerId, double>>& row, PeerId peer) {
  auto it = std::ranges::lower_bound(
      row, peer, {}, &std::pair<PeerId, double>::first);
  if (it == row.end() || it->first != peer) it = row.emplace(it, peer, 0.0);
  return it->second;
}

}  // namespace

Ledger::Ledger(std::size_t n_peers)
    : n_(n_peers),
      up_bytes_(n_peers),
      down_bytes_(n_peers),
      total_up_(n_peers, 0.0),
      total_down_(n_peers, 0.0),
      version_(n_peers, 0) {}

void Ledger::add_transfer(PeerId from, PeerId to, double bytes) {
  assert(from < n_ && to < n_ && from != to);
  assert(bytes >= 0);
  slot(up_bytes_[from], to) += bytes;
  slot(down_bytes_[to], from) += bytes;
  total_up_[from] += bytes;
  total_down_[to] += bytes;
  ++version_[from];
  ++version_[to];
}

double Ledger::uploaded_mb(PeerId from, PeerId to) const {
  assert(from < n_ && to < n_);
  const Row& row = up_bytes_[from];
  const auto it =
      std::ranges::lower_bound(row, to, {}, &Row::value_type::first);
  return it == row.end() || it->first != to ? 0.0 : it->second / kBytesPerMb;
}

double Ledger::total_uploaded_mb(PeerId peer) const {
  assert(peer < n_);
  return total_up_[peer] / kBytesPerMb;
}

double Ledger::total_downloaded_mb(PeerId peer) const {
  assert(peer < n_);
  return total_down_[peer] / kBytesPerMb;
}

std::vector<TransferRecord> Ledger::direct_view(PeerId p) const {
  assert(p < n_);
  std::vector<TransferRecord> records;
  records.reserve(up_bytes_[p].size() + down_bytes_[p].size());
  for (const auto& [to, bytes] : up_bytes_[p]) {
    records.push_back(TransferRecord{p, to, bytes / kBytesPerMb});
  }
  for (const auto& [from, bytes] : down_bytes_[p]) {
    records.push_back(TransferRecord{from, p, bytes / kBytesPerMb});
  }
  return records;
}

}  // namespace tribvote::bt
