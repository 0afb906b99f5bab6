// A node's subjective view of who uploaded how much to whom.
//
// Built from (a) the node's own direct transfer observations, which are
// authoritative and can never be overwritten by gossip, and (b) records
// received through BarterCast gossip, where the freshest report per directed
// pair wins. Edge weights are megabytes uploaded; the experience function
// computes hop-bounded max-flow over this graph (maxflow.hpp).
//
// The graph carries a monotone `version()` counter, bumped exactly when a
// mutation changes some edge's flow capacity (new edge, or an mb change).
// Timestamp refreshes and re-pins that leave mb intact do NOT bump it, so
// the version doubles as a "could any max-flow answer have changed?" token.
// Consumers key caches on it (BarterAgent's contribution cache, the CSR
// snapshot below) and use the bounded delta log to revalidate stale entries
// without recomputing (`deltas_since`).
//
// Storage is flat: one row per peer that appears in any edge, rows sorted by
// peer id, and within a row the out-edges sorted by target and the mirrored
// in-edges sorted by source. Every lookup is a binary search, every
// iteration runs in ascending id order (so summation order is fixed without
// a sort), and memory is O(nodes + edges) whatever ids a record names.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "util/ids.hpp"
#include "util/time.hpp"

namespace tribvote::bartercast {

/// One gossiped claim: "`from` uploaded `mb` megabytes to `to`",
/// as reported at `reported_at`.
struct BarterRecord {
  PeerId from = kInvalidPeer;
  PeerId to = kInvalidPeer;
  double mb = 0;
  Time reported_at = 0;
};

/// Flat, read-only adjacency snapshot of a SubjectiveGraph at one version.
///
/// Nodes get dense indices (sorted by PeerId); each row's arcs are sorted by
/// neighbor index, so iteration order — and therefore every floating-point
/// summation order downstream — is deterministic, and single-arc lookup is a
/// binary search. Only positive-capacity edges are materialized. Rebuilt
/// lazily whenever the graph version moves (SubjectiveGraph::csr()).
struct CsrSnapshot {
  static constexpr std::uint32_t kNoNode = ~std::uint32_t{0};

  std::uint64_t built_version = ~std::uint64_t{0};
  std::vector<PeerId> peer_of;  ///< dense index -> PeerId (ascending)
  // Out-adjacency: arcs of node u live in [out_begin[u], out_begin[u+1]).
  std::vector<std::uint32_t> out_begin;
  std::vector<std::uint32_t> out_target;
  std::vector<double> out_cap;
  // Mirrored in-adjacency (sources of arcs into u).
  std::vector<std::uint32_t> in_begin;
  std::vector<std::uint32_t> in_source;
  std::vector<double> in_cap;

  [[nodiscard]] std::size_t node_count() const noexcept {
    return peer_of.size();
  }
  /// Dense index of `peer`, or kNoNode when absent from the snapshot.
  /// O(log nodes).
  [[nodiscard]] std::uint32_t index_of(PeerId peer) const;
  /// Capacity of arc u -> v (dense indices); 0 when absent. O(log deg(u)).
  [[nodiscard]] double cap(std::uint32_t u, std::uint32_t v) const;
};

class SubjectiveGraph {
 public:
  /// Record a direct observation by the owning node. Direct edges are
  /// pinned: later gossip about the same pair is ignored.
  void update_direct(PeerId from, PeerId to, double mb, Time now);

  /// Merge one gossiped record; freshest report per pair wins, and never
  /// overrides a direct observation.
  void merge_gossip(const BarterRecord& record);

  /// Megabytes on the directed edge from → to (0 when absent).
  [[nodiscard]] double edge_mb(PeerId from, PeerId to) const;

  /// Successors of `from` with positive weight.
  [[nodiscard]] std::vector<std::pair<PeerId, double>> out_edges(
      PeerId from) const;

  /// Predecessors of `to` with positive weight.
  [[nodiscard]] std::vector<std::pair<PeerId, double>> in_edges(
      PeerId to) const;

  /// Sum of all outgoing edge weights of `peer` — the *naive* contribution
  /// metric (total claimed upload). Deliberately exposed so the
  /// fake-experience ablation can contrast it against max-flow.
  [[nodiscard]] double claimed_upload_mb(PeerId peer) const;

  [[nodiscard]] std::size_t edge_count() const noexcept { return n_edges_; }
  /// Peers with at least one out-edge (the sources of the graph).
  [[nodiscard]] std::size_t node_count() const noexcept {
    return n_sources_;
  }

  /// Monotone counter of flow-relevant mutations (see file comment).
  [[nodiscard]] std::uint64_t version() const noexcept { return version_; }

  /// Verdict on whether any mutation in (since_version, version()] could
  /// change a hop-≤2 max-flow from `source` to `sink`. With paths of at most
  /// two edges, every candidate path is source→sink or source→k→sink, so a
  /// mutated edge (u, v) is relevant iff u == source or v == sink.
  enum class DeltaCheck : std::uint8_t {
    kUnaffected,  ///< no logged delta touches (source, *) or (*, sink)
    kAffected,    ///< some delta does — the cached flow must be recomputed
    kUnknown,     ///< the delta log no longer reaches back to since_version
  };
  [[nodiscard]] DeltaCheck deltas_since(std::uint64_t since_version,
                                        PeerId source, PeerId sink) const;

  /// Closed-form hop-bounded max flow for `max_path_edges` ≤ 2, computed
  /// straight off the rows: cap(source→sink) plus, when two-hop paths are
  /// admitted, Σ_k min(cap(source→k), cap(k→sink)). Every admissible path
  /// is edge-disjoint from the others at this bound, so the sum IS the max
  /// flow. The two-hop terms come from one sorted merge of out(source) with
  /// in(sink), so they accumulate in ascending-k order — the same order the
  /// column pass uses — and the result is bit-identical across the
  /// per-query and batched code paths. Does NOT touch the CSR snapshot:
  /// single queries against a mutating graph stay O(deg) instead of paying
  /// an O(E) snapshot rebuild.
  [[nodiscard]] double two_hop_flow(PeerId source, PeerId sink,
                                    int max_path_edges) const;

  /// Batched form: accumulate two_hop_flow(j, sink) into column[j] for every
  /// source j < column.size() in one sweep of sink's two-hop in-neighborhood
  /// — O(Σ_{k∈in(sink)} indeg(k)) instead of column.size() separate queries.
  /// The caller supplies a zeroed column. Entries are bit-identical to
  /// two_hop_flow: per source the direct term lands first and the two-hop
  /// terms accumulate in ascending-k order (only the outer mid-hop order
  /// matters — each mid-hop node contributes at most one term per source),
  /// which is the in-row's own order.
  void two_hop_flow_column(PeerId sink, int max_path_edges,
                           std::vector<double>& column) const;

  /// Column-grade delta verdict: can mutations in (since_version, version()]
  /// change any hop-≤2 flow *into* `sink`? kAffected when some delta edge
  /// ends at the sink (every source's flow may have moved — rebuild the
  /// column); kUnaffected otherwise, with `sources` filled with the
  /// deduplicated tails of the logged deltas — exactly the sources whose
  /// cached column entries need recomputing.
  [[nodiscard]] DeltaCheck affected_sources_since(
      std::uint64_t since_version, PeerId sink,
      std::vector<PeerId>& sources) const;

  /// Flat adjacency snapshot of the current version, rebuilt lazily on
  /// version change. NOT thread-safe to call concurrently on one graph (it
  /// mutates the cached snapshot); distinct graphs are independent.
  [[nodiscard]] const CsrSnapshot& csr() const;

 private:
  /// Out-edge `owner → to` as stored in the owner's row.
  struct OutEdge {
    PeerId to;
    bool direct;  ///< pinned by the owner's own observation
    double mb;
    Time reported_at;
  };
  /// Mirror of an out-edge `from → owner`; only the weight is ever read.
  struct InEdge {
    PeerId from;
    double mb;
  };
  struct Row {
    std::vector<OutEdge> out;  ///< ascending `to`
    std::vector<InEdge> in;    ///< ascending `from`
  };
  static constexpr std::uint32_t kNoRow = ~std::uint32_t{0};

  /// One flow-relevant mutation, for cache revalidation.
  struct EdgeDelta {
    PeerId from;
    PeerId to;
  };
  /// Deltas retained before stale caches fall back to recompute. Bounds both
  /// memory and the revalidation scan; sized so a full BarterCast message
  /// (25 records) plus a direct-view sync fits several times over.
  static constexpr std::size_t kDeltaLogCapacity = 256;

  // rows_[r] belongs to peer ids_[r]; ids_ ascending. A peer gets a row the
  // first time an edge names it, so the row index doubles as the peer's
  // dense CSR index.
  std::vector<PeerId> ids_;
  std::vector<Row> rows_;
  std::size_t n_edges_ = 0;
  std::size_t n_sources_ = 0;

  std::uint64_t version_ = 0;
  // delta_log_[k] is the mutation that moved the graph from version
  // delta_base_version_ + k to delta_base_version_ + k + 1.
  std::vector<EdgeDelta> delta_log_;
  std::uint64_t delta_base_version_ = 0;

  mutable CsrSnapshot csr_;

  /// First id >= `peer` in ids_. O(1) on a dense prefix, else O(log nodes).
  [[nodiscard]] std::vector<PeerId>::const_iterator find_id(PeerId peer) const;
  /// Row of `peer`, or kNoRow.
  [[nodiscard]] std::uint32_t row_of(PeerId peer) const;
  /// Row of `peer`, inserted (empty) when absent. Invalidates references
  /// into rows_.
  std::uint32_t ensure_row(PeerId peer);
  /// The edge from → to in `from`'s out-row, or nullptr.
  [[nodiscard]] const OutEdge* find_edge(PeerId from, PeerId to) const;
  void put(PeerId from, PeerId to, double mb, Time reported_at, bool direct);
  void record_delta(PeerId from, PeerId to);
  void build_csr() const;
};

}  // namespace tribvote::bartercast
