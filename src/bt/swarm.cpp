#include "bt/swarm.hpp"

#include <algorithm>
#include <cassert>
#include <utility>

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
             Ledger& ledger, BandwidthAllocator& bandwidth,
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

std::vector<Swarm::Entry>::const_iterator Swarm::locate(
    const std::vector<Entry>& entries, PeerId peer) {
  return std::ranges::lower_bound(entries, peer, {}, &Entry::id);
}

const Swarm::Member* Swarm::find(PeerId peer) const {
  const auto it = locate(index_, peer);
  return it != index_.end() && it->id == peer ? &members_[it->slot] : nullptr;
}

Swarm::Member* Swarm::find(PeerId peer) {
  return const_cast<Member*>(std::as_const(*this).find(peer));
}

void Swarm::roster_insert(PeerId peer, std::uint32_t slot) {
  roster_.insert(locate(roster_, peer), Entry{peer, slot});
}

void Swarm::roster_erase(PeerId peer) {
  const auto it = locate(roster_, peer);
  assert(it != roster_.end() && it->id == peer);
  roster_.erase(it);
}

bool Swarm::links_only_on_leechers() const {
  return std::ranges::all_of(index_, [this](const Entry& e) {
    const Member& m = members_[e.slot];
    return m.links.empty() || (m.active && !m.completed);
  });
}

void Swarm::add_member(PeerId peer, bool as_seed) {
  assert(peer < peers_.size());
  const auto at = locate(index_, peer);
  assert(at == index_.end() || at->id != peer);
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
  // A reused slot takes the whole fresh member: a rejoining peer starts
  // empty, with no links, windows or playback state from its last stay.
  std::uint32_t slot = 0;
  if (free_slots_.empty()) {
    slot = static_cast<std::uint32_t>(members_.size());
    members_.push_back(std::move(m));
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
    members_[slot] = std::move(m);
  }
  index_.insert(at, Entry{peer, slot});
  roster_insert(peer, slot);
}

void Swarm::deactivate(PeerId peer) {
  Member* m = find(peer);
  if (m == nullptr || !m->active) return;
  m->active = false;
  picker_.remove_bitfield(m->have);
  clear_own_links(*m);
  roster_erase(peer);
  drop_links_to(peer);
  bandwidth_->unregister_active(peer);
}

void Swarm::reactivate(PeerId peer) {
  const auto it = locate(index_, peer);
  assert(it != index_.end() && it->id == peer);
  Member& m = members_[it->slot];
  if (m.active) return;
  m.active = true;
  picker_.add_bitfield(m.have);
  bandwidth_->register_active(peer);
  roster_insert(peer, it->slot);
}

void Swarm::leave(PeerId peer) {
  const auto it = locate(index_, peer);
  if (it == index_.end() || it->id != peer) return;
  Member& m = members_[it->slot];
  if (m.active) {
    picker_.remove_bitfield(m.have);
    bandwidth_->unregister_active(peer);
    roster_erase(peer);
  }
  m = Member();  // release the slot's buffers until add_member reuses it
  free_slots_.push_back(it->slot);
  index_.erase(it);
  drop_links_to(peer);
}

bool Swarm::is_member(PeerId peer) const { return find(peer) != nullptr; }

bool Swarm::is_active(PeerId peer) const {
  const Member* m = find(peer);
  return m != nullptr && m->active;
}

bool Swarm::has_completed(PeerId peer) const {
  const Member* m = find(peer);
  return m != nullptr && m->completed;
}

std::size_t Swarm::playback_pos(PeerId peer) const {
  const Member* m = find(peer);
  return m == nullptr ? n_pieces_ : m->play_pos;
}

double Swarm::progress(PeerId peer) const {
  const Member* m = find(peer);
  if (m == nullptr) return 0.0;
  return static_cast<double>(m->have.count()) /
         static_cast<double>(n_pieces_);
}

bool Swarm::link_allowed(PeerId a, PeerId b) const {
  // A TCP connection needs at least one freely connectable endpoint.
  return peers_[a].connectable || peers_[b].connectable;
}

void Swarm::drop_links_to(PeerId uploader) {
  // Only active members can hold links (see Member), so the roster covers
  // every one; a completed member's map is empty.
  assert(links_only_on_leechers());
  for (const Entry& e : roster_) {
    Member& m = members_[e.slot];
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
    for (const Entry& e : roster_) advance_playback(members_[e.slot], dt);
  }
  if (roster_.size() < 2) return;
  probes.ticks.add();
  probes.active_members.observe(static_cast<double>(roster_.size()));

  // Decay reciprocation windows once per round.
  for (const Entry& e : roster_) {
    Member& m = members_[e.slot];
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
  for (const Entry& e : roster_) {
    Member& m = members_[e.slot];
    if (!m.completed) {
      m.down_budget = bandwidth_->download_share_bytes(e.id, dt);
      leechers_.emplace_back(e.id, &m);
    }
  }

  // Iterate uploaders in ascending PeerId order (deterministic).
  for (const Entry& e : roster_) {
    const PeerId uploader_id = e.id;
    Member& uploader = members_[e.slot];
    if (uploader.have.none()) continue;

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
      // Every unchoked peer is a candidate, so a leecher.
      const auto lit = std::ranges::lower_bound(
          leechers_, down_id, {}, &std::pair<PeerId, Member*>::first);
      assert(lit != leechers_.end() && lit->first == down_id);
      Member& down = *lit->second;
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
