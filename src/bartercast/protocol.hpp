// BarterCast gossip agent (Meulpolder et al., deployed in Tribler).
//
// Each node (a) records its own BitTorrent transfer statistics, (b) on every
// PSS encounter exchanges its *own direct* records — never relayed hearsay —
// with the counterpart, and (c) folds received records into its subjective
// graph. The contribution f_{j→i} that the experience function consumes is
// the hop-bounded max-flow from j to i in i's subjective graph.
//
// Contribution queries are memoized against the graph's version counter
// (subjective_graph.hpp): an unchanged graph answers repeat queries in O(1),
// and a stale entry is revalidated against the graph's delta log — only a
// mutation touching (source, *) or (*, self) can move a hop-≤2 flow, so
// gossip about unrelated pairs costs no recomputation. The cached value is
// the bit-identical result of the same max_flow() code path, never an
// approximation.
//
// Honest agents report truthfully from the shared ledger's per-peer direct
// view (through a `const bt::Ledger&`: BarterCast reads, never writes); the
// attack module subclasses the reporting hook to model front-peer
// collusion (fabricated records).
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "bartercast/maxflow.hpp"
#include "bartercast/subjective_graph.hpp"
#include "bt/ledger.hpp"
#include "util/ids.hpp"
#include "util/time.hpp"

namespace tribvote::bartercast {

struct BarterConfig {
  /// Max records per gossip message (deployed BarterCast sends its top
  /// entries by volume).
  std::size_t max_records_per_message = 25;
  /// Path bound for the max-flow contribution.
  int max_path_edges = kDefaultMaxPathEdges;
};

/// Observability counters for the contribution cache (tests and benches).
struct ContributionCacheStats {
  std::uint64_t hits = 0;           ///< exact version match
  std::uint64_t revalidations = 0;  ///< stale entry proven unaffected
  std::uint64_t misses = 0;         ///< recomputed from the graph
};

class BarterAgent {
 public:
  BarterAgent(PeerId self, BarterConfig config)
      : self_(self), config_(config) {}
  virtual ~BarterAgent() = default;

  /// The records this node sends on an encounter, written over `out`: its
  /// own direct transfers, largest volumes first, truncated to the message
  /// cap. The caller owns `out`, so a reused buffer sends without
  /// allocating. Virtual so attack models can append fabricated claims.
  virtual void outgoing_records(const bt::Ledger& ledger, Time now,
                                std::vector<BarterRecord>& out) const;

  /// Refresh the agent's own direct edges from its local statistics.
  /// Cheap no-op when the ledger reports no change since the last sync.
  void sync_direct(const bt::Ledger& ledger, Time now);

  /// Merge a counterpart's gossip message. Records not adjacent to the
  /// claimed sender are dropped record-wise (a node may only report about
  /// transfers it took part in — enforceable because messages are signed),
  /// so a damaged record in a batch never blocks its intact siblings.
  /// Returns the number of records actually merged; one-sided exchanges
  /// (only one direction delivered) are well-formed by construction, as
  /// each direction is an independent merge.
  std::size_t receive(PeerId sender, const std::vector<BarterRecord>& records);

  /// Contribution f_{j→self}: hop-bounded max-flow from j to self.
  /// Memoized on (j, graph version); see the file comment.
  [[nodiscard]] double contribution_of(PeerId j) const;

  /// The whole contribution column f_{j→self} for every j < population in
  /// one pass. For the deployed hop bound (≤ 2) the column costs one sweep
  /// of self's two-hop in-neighborhood — O(Σ_{k∈in(self)} indeg(k)) instead
  /// of `population` separate queries — and is itself cached per graph
  /// version, so repeat measurements on an unchanged graph are O(1).
  /// Per-entry summation order matches contribution_of exactly, so results
  /// are bit-identical to per-pair queries.
  [[nodiscard]] const std::vector<double>& contribution_column(
      std::size_t population) const;

  /// Naive alternative metric (Σ claimed upload of j) for the ablation.
  [[nodiscard]] double naive_contribution_of(PeerId j) const {
    return graph_.claimed_upload_mb(j);
  }

  [[nodiscard]] const SubjectiveGraph& graph() const noexcept {
    return graph_;
  }
  [[nodiscard]] PeerId self() const noexcept { return self_; }
  [[nodiscard]] const ContributionCacheStats& cache_stats() const noexcept {
    return cache_stats_;
  }

 protected:
  PeerId self_;
  BarterConfig config_;
  SubjectiveGraph graph_;

 private:
  // Ledger-version caches: sync/report work is skipped while the agent's
  // direct view is unchanged (the common case between transfers). The view
  // itself is fetched once per ledger version and shared by both.
  static constexpr std::uint64_t kNeverSynced = ~std::uint64_t{0};
  std::uint64_t synced_version_ = kNeverSynced;
  mutable std::uint64_t reported_version_ = kNeverSynced;
  mutable std::vector<BarterRecord> report_cache_;
  mutable std::uint64_t view_version_ = kNeverSynced;
  mutable std::vector<bt::TransferRecord> view_cache_;

  /// The ledger's direct view of self at `version` (= ledger.version(self)).
  const std::vector<bt::TransferRecord>& direct_view(
      const bt::Ledger& ledger, std::uint64_t version) const;

  // Contribution memoization, keyed on the subjective graph's version.
  struct CachedContribution {
    double mb;
    std::uint64_t version;
  };
  mutable std::unordered_map<PeerId, CachedContribution> contribution_cache_;
  mutable ContributionCacheStats cache_stats_;
  // Column cache: valid when column_version_ matches the graph and the
  // requested population size is unchanged.
  static constexpr std::uint64_t kNoColumn = ~std::uint64_t{0};
  mutable std::vector<double> column_cache_;
  mutable std::uint64_t column_version_ = kNoColumn;
};

}  // namespace tribvote::bartercast
