#include "bt/swarm.hpp"

#include <algorithm>
#include <cassert>

namespace tribvote::bt {

namespace {
/// Reciprocation windows decay by half each round, approximating the
/// ~20 s rolling rate estimate real clients use.
constexpr double kWindowDecay = 0.5;
/// Drop window entries below this many bytes to keep the maps small.
constexpr double kWindowFloor = 1024.0;
}  // namespace

Swarm::Swarm(const trace::SwarmSpec& spec,
             std::span<const trace::PeerProfile> peers,
             LedgerSink& ledger, BandwidthAllocator& bandwidth,
             util::Rng rng, StreamingConfig streaming)
    : spec_(spec),
      peers_(peers),
      ledger_(&ledger),
      bandwidth_(&bandwidth),
      rng_(rng),
      piece_bytes_(static_cast<double>(spec.piece_kb) * 1024.0),
      n_pieces_(static_cast<std::size_t>(spec.piece_count())),
      streaming_(streaming),
      picker_(n_pieces_) {
  assert(n_pieces_ > 0);
  if (streaming_.enabled) {
    assert(streaming_.playback_kbps > 0.0);
    piece_seconds_ = piece_bytes_ * 8.0 / (streaming_.playback_kbps * 1000.0);
    if (streaming_.window == 0) streaming_.window = 1;
  }
}

void Swarm::add_member(PeerId peer, bool as_seed) {
  assert(peer < peers_.size());
  assert(!is_member(peer));
  Member m;
  m.have = Bitfield(n_pieces_);
  m.in_flight = Bitfield(n_pieces_);
  if (as_seed) {
    m.have.set_all();
    m.completed = true;
    // Seeds have nothing to play back; their clock never runs.
    m.play_pos = n_pieces_;
  }
  m.active = true;
  picker_.add_bitfield(m.have);
  bandwidth_->register_active(peer);
  ++active_count_;
  members_.emplace(peer, std::move(m));
}

void Swarm::deactivate(PeerId peer) {
  const auto it = members_.find(peer);
  if (it == members_.end() || !it->second.active) return;
  it->second.active = false;
  picker_.remove_bitfield(it->second.have);
  clear_own_links(it->second);
  drop_links_to(peer);
  bandwidth_->unregister_active(peer);
  --active_count_;
}

void Swarm::reactivate(PeerId peer) {
  const auto it = members_.find(peer);
  assert(it != members_.end());
  if (it->second.active) return;
  it->second.active = true;
  picker_.add_bitfield(it->second.have);
  bandwidth_->register_active(peer);
  ++active_count_;
}

void Swarm::leave(PeerId peer) {
  const auto it = members_.find(peer);
  if (it == members_.end()) return;
  if (it->second.active) {
    picker_.remove_bitfield(it->second.have);
    bandwidth_->unregister_active(peer);
    --active_count_;
  }
  members_.erase(it);
  drop_links_to(peer);
}

bool Swarm::is_member(PeerId peer) const {
  return members_.contains(peer);
}

bool Swarm::is_active(PeerId peer) const {
  const auto it = members_.find(peer);
  return it != members_.end() && it->second.active;
}

bool Swarm::has_completed(PeerId peer) const {
  const auto it = members_.find(peer);
  return it != members_.end() && it->second.completed;
}

std::size_t Swarm::playback_pos(PeerId peer) const {
  const auto it = members_.find(peer);
  return it == members_.end() ? n_pieces_ : it->second.play_pos;
}

double Swarm::progress(PeerId peer) const {
  const auto it = members_.find(peer);
  if (it == members_.end()) return 0.0;
  return static_cast<double>(it->second.have.count()) /
         static_cast<double>(n_pieces_);
}

bool Swarm::link_allowed(PeerId a, PeerId b) const {
  // A TCP connection needs at least one freely connectable endpoint.
  return peers_[a].connectable || peers_[b].connectable;
}

void Swarm::drop_links_to(PeerId uploader) {
  for (auto& [id, m] : members_) {
    const auto it = m.links.find(uploader);
    if (it != m.links.end()) {
      if (it->second.piece != kNoPiece) m.in_flight.reset(it->second.piece);
      m.links.erase(it);
    }
  }
}

void Swarm::clear_own_links(Member& m) {
  for (auto& [uploader, link] : m.links) {
    if (link.piece != kNoPiece) m.in_flight.reset(link.piece);
  }
  m.links.clear();
}

void Swarm::complete_piece(PeerId peer, Member& m, std::size_t piece) {
  m.have.set(piece);
  m.in_flight.reset(piece);
  picker_.add_have(piece);  // member is active by construction here
  probes.pieces_completed.add();
  if (m.have.all() && !m.completed) {
    m.completed = true;
    clear_own_links(m);
    if (on_complete) on_complete(peer);
  }
}

std::size_t Swarm::pick_piece(const Member& uploader,
                              const Member& downloader) {
  if (streaming_.enabled && downloader.play_pos < n_pieces_) {
    // Windowed pick just ahead of the player; fall back to global
    // rarest-first so tail pieces (already skipped or far ahead) still
    // get fetched and the download completes.
    const std::size_t lo = downloader.play_pos;
    const std::size_t p =
        picker_.pick_window(uploader.have, downloader.have,
                            downloader.in_flight, lo,
                            lo + streaming_.window, rng_);
    if (p != kNoPiece) return p;
  }
  return picker_.pick(uploader.have, downloader.have, downloader.in_flight,
                      rng_);
}

void Swarm::advance_playback(Member& m, double dt) {
  if (m.play_pos >= n_pieces_) return;
  if (!m.playing) {
    // Startup buffering: playback begins once the first startup_pieces
    // are contiguously present.
    const std::size_t need = std::min(streaming_.startup_pieces, n_pieces_);
    for (std::size_t p = 0; p < need; ++p) {
      if (!m.have.test(p)) return;
    }
    m.playing = true;
    m.play_carry = 0.0;
    ++streaming_totals_.started;
  }
  m.play_carry += dt;
  while (m.play_carry >= piece_seconds_ && m.play_pos < n_pieces_) {
    m.play_carry -= piece_seconds_;
    if (m.have.test(m.play_pos)) {
      ++streaming_totals_.pieces_on_time;
      probes.pieces_on_time.add();
    } else {
      // Stall-free skip model: the player drops the piece and keeps
      // going; the piece stays fetchable, it just can't be on time.
      ++streaming_totals_.deadline_misses;
      probes.deadline_misses.add();
    }
    ++m.play_pos;
  }
  if (m.play_pos >= n_pieces_) ++streaming_totals_.finished;
}

void Swarm::tick(double dt) {
  // Playback clocks run against the state left by the *previous* round:
  // a piece must be present before the deadline tick to count.
  if (streaming_.enabled) {
    for (auto& [id, m] : members_) {
      if (m.active) advance_playback(m, dt);
    }
  }
  if (active_count_ < 2) return;
  probes.ticks.add();
  probes.active_members.observe(static_cast<double>(active_count_));

  // Decay reciprocation windows once per round.
  for (auto& [id, m] : members_) {
    if (!m.active) continue;
    for (auto it = m.rx_window.begin(); it != m.rx_window.end();) {
      it->second *= kWindowDecay;
      it = it->second < kWindowFloor ? m.rx_window.erase(it) : std::next(it);
    }
    for (auto it = m.tx_window.begin(); it != m.tx_window.end();) {
      it->second *= kWindowDecay;
      it = it->second < kWindowFloor ? m.tx_window.erase(it) : std::next(it);
    }
  }

  // The round's leecher roster: the active members still downloading, in
  // ascending PeerId order, each with its download budget for the round
  // (shared across all its uploaders). Nothing joins, leaves or changes
  // activity during a tick, but a leecher can complete mid-tick, so every
  // scan below re-checks `completed`.
  leechers_.clear();
  for (auto& [id, m] : members_) {
    if (m.active && !m.completed) {
      m.down_budget = bandwidth_->download_share_bytes(id, dt);
      leechers_.emplace_back(id, &m);
    }
  }

  // Iterate uploaders in ascending PeerId order (deterministic).
  for (auto& [uploader_id, uploader] : members_) {
    if (!uploader.active || uploader.have.none()) continue;

    // Interested candidates: active downloaders this uploader can serve.
    // Leechers reciprocate (tit-for-tat): rank by bytes recently received
    // from the candidate. Seeds serve their fastest recent downloaders.
    const auto& window =
        uploader.completed ? uploader.tx_window : uploader.rx_window;
    candidates_.clear();
    for (const auto& [cand_id, cand] : leechers_) {
      if (cand_id == uploader_id || cand->completed) continue;
      if (!link_allowed(uploader_id, cand_id)) continue;
      if (!uploader.have.has_piece_not_in(cand->have)) continue;
      const auto wit = window.find(cand_id);
      candidates_.push_back(ChokeCandidate{
          cand_id, wit == window.end() ? 0.0 : wit->second});
    }
    if (candidates_.empty()) continue;

    const std::span<const PeerId> unchoked =
        uploader.choker.select(candidates_, rng_);
    if (unchoked.empty()) continue;

    const double budget = bandwidth_->upload_share_bytes(uploader_id, dt);
    const double share = budget / static_cast<double>(unchoked.size());
    if (share <= 0.0) continue;

    for (PeerId down_id : unchoked) {
      Member& down = members_.at(down_id);
      double& remaining = down.down_budget;
      double amount = std::min(share, remaining);
      if (amount <= 0.0) continue;

      Link& link = down.links[uploader_id];
      if (link.piece == kNoPiece) {
        link.piece = pick_piece(uploader, down);
        if (link.piece == kNoPiece) {
          down.links.erase(uploader_id);
          continue;  // nothing useful on this link right now
        }
        down.in_flight.set(link.piece);
        link.bytes = 0;
      }

      // Account the transfer.
      ledger_->add_transfer(uploader_id, down_id, amount);
      remaining -= amount;
      down.rx_window[uploader_id] += amount;
      uploader.tx_window[down_id] += amount;
      // Complete as many pieces as the accumulated bytes cover. Work on
      // locals: complete_piece may clear the whole links map on full
      // download completion, invalidating `link`.
      double bytes = link.bytes + amount;
      std::size_t piece = link.piece;
      bool link_gone = false;
      while (bytes >= piece_bytes_) {
        bytes -= piece_bytes_;
        complete_piece(down_id, down, piece);
        if (down.completed) {
          link_gone = true;  // links cleared by complete_piece
          break;
        }
        piece = pick_piece(uploader, down);
        if (piece == kNoPiece) {
          down.links.erase(uploader_id);
          link_gone = true;
          break;
        }
        down.in_flight.set(piece);
      }
      if (!link_gone) {
        Link& lk = down.links.at(uploader_id);
        lk.piece = piece;
        lk.bytes = bytes;
      }
    }
  }
}

}  // namespace tribvote::bt
