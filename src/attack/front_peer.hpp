// Fake-experience (front-peer / mole) collusion against BarterCast
// (paper §VII).
//
// A clique of colluders reports enormous fabricated transfers among its own
// members, attempting to make each other look "experienced". Against a
// naive contribution metric (sum of claimed upload) this works perfectly;
// against the hop-bounded max-flow metric the fabricated internal edges are
// throttled by the genuine capacity between the clique and the honest
// node's neighborhood — the property the abl_fake_experience bench
// quantifies.
#pragma once

#include <vector>

#include "bartercast/protocol.hpp"

namespace tribvote::attack {

class FrontPeerBarterAgent final : public bartercast::BarterAgent {
 public:
  /// `clique` are the colluding peer ids (including self); every gossip
  /// message claims `fake_mb` uploaded from self to each other clique
  /// member, alongside any genuine records.
  FrontPeerBarterAgent(PeerId self, bartercast::BarterConfig config,
                       std::vector<PeerId> clique, double fake_mb);

  void outgoing_records(
      const bt::Ledger& ledger, Time now,
      std::vector<bartercast::BarterRecord>& out) const override;

 private:
  std::vector<PeerId> clique_;
  double fake_mb_;
};

}  // namespace tribvote::attack
