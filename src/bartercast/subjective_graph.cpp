#include "bartercast/subjective_graph.hpp"

#include <algorithm>
#include <cassert>

namespace tribvote::bartercast {

std::uint32_t CsrSnapshot::index_of(PeerId peer) const {
  const auto it = std::ranges::lower_bound(peer_of, peer);
  if (it == peer_of.end() || *it != peer) return kNoNode;
  return static_cast<std::uint32_t>(it - peer_of.begin());
}

double CsrSnapshot::cap(std::uint32_t u, std::uint32_t v) const {
  const auto first = out_target.begin() + out_begin[u];
  const auto last = out_target.begin() + out_begin[u + 1];
  const auto it = std::lower_bound(first, last, v);
  if (it == last || *it != v) return 0.0;
  return out_cap[static_cast<std::size_t>(it - out_target.begin())];
}

std::vector<PeerId>::const_iterator SubjectiveGraph::find_id(
    PeerId peer) const {
  // Ids are distinct, so a peer's row is at most its id; once every smaller
  // id has a row (the steady state of a dense population) it is exactly it.
  if (peer < ids_.size() && ids_[peer] == peer) return ids_.begin() + peer;
  const auto last =
      peer < ids_.size() ? ids_.begin() + peer + 1 : ids_.end();
  return std::lower_bound(ids_.begin(), last, peer);
}

std::uint32_t SubjectiveGraph::row_of(PeerId peer) const {
  const auto it = find_id(peer);
  if (it == ids_.end() || *it != peer) return kNoRow;
  return static_cast<std::uint32_t>(it - ids_.begin());
}

std::uint32_t SubjectiveGraph::ensure_row(PeerId peer) {
  const auto it = find_id(peer);
  const auto r = static_cast<std::uint32_t>(it - ids_.begin());
  if (it == ids_.end() || *it != peer) {
    ids_.insert(it, peer);
    rows_.insert(rows_.begin() + r, Row{});
  }
  return r;
}

const SubjectiveGraph::OutEdge* SubjectiveGraph::find_edge(PeerId from,
                                                           PeerId to) const {
  const std::uint32_t r = row_of(from);
  if (r == kNoRow) return nullptr;
  const auto& out = rows_[r].out;
  const auto it = std::ranges::lower_bound(out, to, {}, &OutEdge::to);
  return it == out.end() || it->to != to ? nullptr : &*it;
}

void SubjectiveGraph::record_delta(PeerId from, PeerId to) {
  ++version_;
  if (delta_log_.size() >= 2 * kDeltaLogCapacity) {
    // Amortized O(1) trim: drop the oldest half in one move.
    delta_log_.erase(delta_log_.begin(),
                     delta_log_.begin() + kDeltaLogCapacity);
    delta_base_version_ += kDeltaLogCapacity;
  }
  delta_log_.push_back(EdgeDelta{from, to});
}

void SubjectiveGraph::put(PeerId from, PeerId to, double mb,
                          Time reported_at, bool direct) {
  // Both rows exist before either is looked up for use: inserting a row
  // shifts the indices of the rows above it.
  ensure_row(from);
  const std::uint32_t rt = ensure_row(to);
  const std::uint32_t rf = row_of(from);
  std::vector<OutEdge>& out = rows_[rf].out;
  std::vector<InEdge>& in = rows_[rt].in;
  const auto it = std::ranges::lower_bound(out, to, {}, &OutEdge::to);
  bool mb_changed = true;
  if (it != out.end() && it->to == to) {
    mb_changed = it->mb != mb;
    *it = OutEdge{to, direct, mb, reported_at};
    std::ranges::lower_bound(in, from, {}, &InEdge::from)->mb = mb;
  } else {
    if (out.empty()) ++n_sources_;
    out.insert(it, OutEdge{to, direct, mb, reported_at});
    in.insert(std::ranges::lower_bound(in, from, {}, &InEdge::from),
              InEdge{from, mb});
    ++n_edges_;
  }
  // Version tracks flow-relevant changes only: a re-pin or timestamp update
  // that leaves mb intact cannot change any max-flow answer.
  if (mb_changed) record_delta(from, to);
}

void SubjectiveGraph::update_direct(PeerId from, PeerId to, double mb,
                                    Time now) {
  assert(from != to);
  assert(mb >= 0);
  const OutEdge* e = find_edge(from, to);
  if (e != nullptr && e->direct && e->mb == mb) {
    return;  // unchanged — skip the mirrored write entirely
  }
  put(from, to, mb, now, true);
}

void SubjectiveGraph::merge_gossip(const BarterRecord& record) {
  if (record.from == record.to || record.mb < 0) return;  // malformed
  if (const OutEdge* e = find_edge(record.from, record.to)) {
    if (e->direct) return;  // own observation is authoritative
    if (e->reported_at >= record.reported_at) return;  // stale
    if (e->mb == record.mb) {
      // Same value, fresher report: refresh the timestamp in place (the
      // mirrored in-edge carries no timestamp, and the flow value is
      // untouched so the version stays put).
      const_cast<OutEdge*>(e)->reported_at = record.reported_at;
      return;
    }
  }
  put(record.from, record.to, record.mb, record.reported_at, false);
}

double SubjectiveGraph::edge_mb(PeerId from, PeerId to) const {
  const OutEdge* e = find_edge(from, to);
  return e == nullptr ? 0.0 : e->mb;
}

std::vector<std::pair<PeerId, double>> SubjectiveGraph::out_edges(
    PeerId from) const {
  std::vector<std::pair<PeerId, double>> edges;
  const std::uint32_t r = row_of(from);
  if (r == kNoRow) return edges;
  edges.reserve(rows_[r].out.size());
  for (const OutEdge& e : rows_[r].out) {
    if (e.mb > 0) edges.emplace_back(e.to, e.mb);
  }
  return edges;
}

std::vector<std::pair<PeerId, double>> SubjectiveGraph::in_edges(
    PeerId to) const {
  std::vector<std::pair<PeerId, double>> edges;
  const std::uint32_t r = row_of(to);
  if (r == kNoRow) return edges;
  edges.reserve(rows_[r].in.size());
  for (const InEdge& e : rows_[r].in) {
    if (e.mb > 0) edges.emplace_back(e.from, e.mb);
  }
  return edges;
}

double SubjectiveGraph::claimed_upload_mb(PeerId peer) const {
  const std::uint32_t r = row_of(peer);
  if (r == kNoRow) return 0.0;
  double total = 0;
  for (const OutEdge& e : rows_[r].out) total += e.mb;
  return total;
}

SubjectiveGraph::DeltaCheck SubjectiveGraph::deltas_since(
    std::uint64_t since_version, PeerId source, PeerId sink) const {
  if (since_version >= version_) return DeltaCheck::kUnaffected;
  if (since_version < delta_base_version_) return DeltaCheck::kUnknown;
  const std::size_t first =
      static_cast<std::size_t>(since_version - delta_base_version_);
  for (std::size_t k = first; k < delta_log_.size(); ++k) {
    if (delta_log_[k].from == source || delta_log_[k].to == sink) {
      return DeltaCheck::kAffected;
    }
  }
  return DeltaCheck::kUnaffected;
}

double SubjectiveGraph::two_hop_flow(PeerId source, PeerId sink,
                                     int max_path_edges) const {
  if (source == sink || max_path_edges <= 0) return 0.0;
  double flow = edge_mb(source, sink);
  if (max_path_edges < 2) return flow;
  const std::uint32_t rs = row_of(source);
  const std::uint32_t rt = row_of(sink);
  if (rs == kNoRow || rt == kNoRow) return flow;
  // Both rows are sorted by the mid-hop id k, so one merge visits every
  // common k in ascending order — the order the column pass sums in.
  const std::vector<OutEdge>& out = rows_[rs].out;
  const std::vector<InEdge>& in = rows_[rt].in;
  auto a = out.begin();
  auto b = in.begin();
  while (a != out.end() && b != in.end()) {
    if (a->to < b->from) {
      ++a;
    } else if (b->from < a->to) {
      ++b;
    } else {
      const PeerId k = a->to;
      if (k != sink && k != source && a->mb > 0 && b->mb > 0) {
        flow += std::min(a->mb, b->mb);
      }
      ++a;
      ++b;
    }
  }
  return flow;
}

void SubjectiveGraph::two_hop_flow_column(PeerId sink, int max_path_edges,
                                          std::vector<double>& column) const {
  if (max_path_edges <= 0) return;
  const std::uint32_t rt = row_of(sink);
  if (rt == kNoRow) return;
  const std::size_t population = column.size();
  const std::vector<InEdge>& into_sink = rows_[rt].in;
  // Direct terms: each source receives exactly one, and it is the first
  // addition to its zeroed entry.
  for (const InEdge& e : into_sink) {
    if (e.mb > 0 && e.from < population) column[e.from] += e.mb;
  }
  if (max_path_edges >= 2) {
    // The in-row is sorted by the mid-hop id k, so every source's terms
    // accumulate in the same ascending-k order two_hop_flow sums them.
    // Within one mid-hop row each source appears at most once.
    for (const InEdge& mid : into_sink) {
      const PeerId k = mid.from;
      if (mid.mb <= 0 || k == sink) continue;
      for (const InEdge& e : rows_[row_of(k)].in) {
        if (e.from == sink || e.mb <= 0 || e.from >= population) continue;
        column[e.from] += std::min(e.mb, mid.mb);
      }
    }
  }
  if (sink < population) column[sink] = 0.0;
}

SubjectiveGraph::DeltaCheck SubjectiveGraph::affected_sources_since(
    std::uint64_t since_version, PeerId sink,
    std::vector<PeerId>& sources) const {
  sources.clear();
  if (since_version >= version_) return DeltaCheck::kUnaffected;
  if (since_version < delta_base_version_) return DeltaCheck::kUnknown;
  const std::size_t first =
      static_cast<std::size_t>(since_version - delta_base_version_);
  for (std::size_t k = first; k < delta_log_.size(); ++k) {
    if (delta_log_[k].to == sink) return DeltaCheck::kAffected;
    sources.push_back(delta_log_[k].from);
  }
  std::sort(sources.begin(), sources.end());
  sources.erase(std::unique(sources.begin(), sources.end()), sources.end());
  return DeltaCheck::kUnaffected;
}

const CsrSnapshot& SubjectiveGraph::csr() const {
  if (csr_.built_version != version_) build_csr();
  return csr_;
}

void SubjectiveGraph::build_csr() const {
  // Rows are already in PeerId order, so a row's index is its dense index,
  // and each row's edges come out sorted by neighbour index: the arrays
  // fill in order with no sort pass.
  CsrSnapshot& snap = csr_;
  snap.peer_of = ids_;
  const auto n = static_cast<std::uint32_t>(ids_.size());
  snap.out_begin.assign(n + 1, 0);
  snap.in_begin.assign(n + 1, 0);
  snap.out_target.clear();
  snap.out_cap.clear();
  snap.in_source.clear();
  snap.in_cap.clear();
  for (std::uint32_t u = 0; u < n; ++u) {
    for (const OutEdge& e : rows_[u].out) {
      if (e.mb <= 0) continue;
      snap.out_target.push_back(row_of(e.to));
      snap.out_cap.push_back(e.mb);
    }
    for (const InEdge& e : rows_[u].in) {
      if (e.mb <= 0) continue;
      snap.in_source.push_back(row_of(e.from));
      snap.in_cap.push_back(e.mb);
    }
    snap.out_begin[u + 1] = static_cast<std::uint32_t>(snap.out_target.size());
    snap.in_begin[u + 1] = static_cast<std::uint32_t>(snap.in_source.size());
  }
  snap.built_version = version_;
}

}  // namespace tribvote::bartercast
