#include "attack/front_peer.hpp"

namespace tribvote::attack {

FrontPeerBarterAgent::FrontPeerBarterAgent(PeerId self,
                                           bartercast::BarterConfig config,
                                           std::vector<PeerId> clique,
                                           double fake_mb)
    : bartercast::BarterAgent(self, config),
      clique_(std::move(clique)),
      fake_mb_(fake_mb) {}

void FrontPeerBarterAgent::outgoing_records(
    const bt::Ledger& ledger, Time now,
    std::vector<bartercast::BarterRecord>& out) const {
  // Genuine records first (a mole behaves normally toward honest peers to
  // carry the fake flow outward)...
  bartercast::BarterAgent::outgoing_records(ledger, now, out);
  // ...then the fabricated intra-clique uploads. They involve the sender,
  // so receivers cannot reject them on adjacency grounds.
  for (const PeerId other : clique_) {
    if (other == self_) continue;
    out.push_back(bartercast::BarterRecord{self_, other, fake_mb_, now});
    out.push_back(bartercast::BarterRecord{other, self_, fake_mb_, now});
  }
}

}  // namespace tribvote::attack
