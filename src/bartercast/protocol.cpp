#include "bartercast/protocol.hpp"

#include <algorithm>

namespace tribvote::bartercast {

const std::vector<bt::TransferRecord>& BarterAgent::direct_view(
    const bt::Ledger& ledger, std::uint64_t version) const {
  if (version != view_version_) {
    view_cache_ = ledger.direct_view(self_);
    view_version_ = version;
  }
  return view_cache_;
}

void BarterAgent::outgoing_records(const bt::Ledger& ledger, Time now,
                                   std::vector<BarterRecord>& out) const {
  const std::uint64_t version = ledger.version(self_);
  if (version != reported_version_) {
    reported_version_ = version;
    const std::vector<bt::TransferRecord>& view = direct_view(ledger, version);
    // Largest transfers first — they carry the most flow information. The
    // order is total (a view names each pair once), so the kept top records
    // are exactly those of a full sort.
    static thread_local std::vector<bt::TransferRecord> top;
    top.resize(std::min(view.size(), config_.max_records_per_message));
    std::partial_sort_copy(
        view.begin(), view.end(), top.begin(), top.end(),
        [](const bt::TransferRecord& a, const bt::TransferRecord& b) {
          if (a.mb != b.mb) return a.mb > b.mb;
          if (a.from != b.from) return a.from < b.from;
          return a.to < b.to;
        });
    report_cache_.clear();
    report_cache_.reserve(top.size());
    for (const auto& r : top) {
      report_cache_.push_back(BarterRecord{r.from, r.to, r.mb, now});
    }
  }
  out.assign(report_cache_.begin(), report_cache_.end());
}

void BarterAgent::sync_direct(const bt::Ledger& ledger, Time now) {
  const std::uint64_t version = ledger.version(self_);
  if (version == synced_version_) return;
  // Direct edges change only here, so every record of the last synced view
  // is still pinned in the graph with its volume: re-applying one is a
  // no-op. A record equal to the one at the same position of that view is
  // therefore skipped; any other goes through update_direct as before.
  std::vector<bt::TransferRecord> synced;
  if (view_version_ == synced_version_) synced = std::move(view_cache_);
  synced_version_ = version;
  const std::vector<bt::TransferRecord>& view = direct_view(ledger, version);
  for (std::size_t k = 0; k < view.size(); ++k) {
    const bt::TransferRecord& r = view[k];
    if (k < synced.size() && synced[k].from == r.from &&
        synced[k].to == r.to && synced[k].mb == r.mb) {
      continue;
    }
    graph_.update_direct(r.from, r.to, r.mb, now);
  }
}

std::size_t BarterAgent::receive(PeerId sender,
                                 const std::vector<BarterRecord>& records) {
  std::size_t merged = 0;
  for (const auto& r : records) {
    // A peer may only report transfers it participated in; anything else
    // would not verify against its signature and is discarded.
    if (r.from != sender && r.to != sender) continue;
    // Claims about transfers involving *this* node are ignored: the node
    // has authoritative local knowledge of its own transfers (its direct
    // edges), so a fabricated "I uploaded X MB to you" carries no weight.
    if (r.from == self_ || r.to == self_) continue;
    graph_.merge_gossip(r);
    ++merged;
  }
  return merged;
}

double BarterAgent::contribution_of(PeerId j) const {
  if (j == self_) return 0.0;
  const std::uint64_t v = graph_.version();
  const auto it = contribution_cache_.find(j);
  if (it != contribution_cache_.end()) {
    if (it->second.version == v) {
      ++cache_stats_.hits;
      return it->second.mb;
    }
    // Fine-grained revalidation via the delta log — only sound for the
    // closed-form hop bound, where relevance of a mutated edge is exactly
    // "touches (j, *) or (*, self)". Longer bounds invalidate wholesale.
    if (config_.max_path_edges <= 2 &&
        graph_.deltas_since(it->second.version, j, self_) ==
            SubjectiveGraph::DeltaCheck::kUnaffected) {
      it->second.version = v;
      ++cache_stats_.revalidations;
      return it->second.mb;
    }
  }
  ++cache_stats_.misses;
  const double f = max_flow(graph_, j, self_, config_.max_path_edges);
  contribution_cache_.insert_or_assign(j, CachedContribution{f, v});
  return f;
}

const std::vector<double>& BarterAgent::contribution_column(
    std::size_t population) const {
  const std::uint64_t v = graph_.version();
  if (column_version_ == v && column_cache_.size() == population) {
    return column_cache_;
  }
  // Fine-grained revalidation: when every delta since the cached version
  // misses (*, self), only the delta tails' own rows can have moved —
  // recompute exactly those entries and keep the rest. This is what makes
  // per-round CEV sampling cheap under steady gossip: a wave of records
  // about a handful of peers touches a handful of entries, not O(n).
  if (config_.max_path_edges <= 2 && column_version_ != kNoColumn &&
      column_cache_.size() == population) {
    static thread_local std::vector<PeerId> stale;
    if (graph_.affected_sources_since(column_version_, self_, stale) ==
        SubjectiveGraph::DeltaCheck::kUnaffected) {
      for (const PeerId j : stale) {
        if (j < population && j != self_) {
          column_cache_[j] =
              graph_.two_hop_flow(j, self_, config_.max_path_edges);
        }
      }
      column_version_ = v;
      return column_cache_;
    }
  }
  column_cache_.assign(population, 0.0);
  if (config_.max_path_edges > 2) {
    for (PeerId j = 0; j < population; ++j) {
      column_cache_[j] = contribution_of(j);
    }
  } else {
    graph_.two_hop_flow_column(self_, config_.max_path_edges, column_cache_);
  }
  column_version_ = v;
  return column_cache_;
}

}  // namespace tribvote::bartercast
