#include "net/peer_directory.hpp"

#include <algorithm>
#include <cassert>

namespace tribvote::net {

PeerDescriptor make_descriptor(PeerId self, const crypto::KeyPair& keys,
                               std::uint32_t ip, std::uint16_t port, Time now,
                               util::Rng& rng) {
  PeerDescriptor d;
  d.peer = self;
  d.key = keys.pub;
  d.ip = ip;
  d.port = port;
  d.heartbeat = now;
  d.signature = crypto::sign(keys, descriptor_digest(d), rng);
  return d;
}

bool verify_descriptor(const PeerDescriptor& d) {
  return crypto::verify(d.key, descriptor_digest(d), d.signature);
}

PeerDirectory::PeerDirectory(PeerId self, const crypto::KeyPair& keys,
                             std::uint32_t ip, std::uint16_t port,
                             PeerDirectoryConfig config, util::Rng rng)
    : self_(self),
      keys_(keys),
      ip_(ip),
      port_(port),
      config_(config),
      sample_rng_(rng.derive(kSampleStream)),
      sign_rng_(rng.derive(kSignStream)) {
  assert(config_.shuffle_size <= kMaxPeerDescriptors);
  refresh_self(0);
  Record r;
  r.d = self_desc_;
  records_.push_back(std::move(r));  // self entry; first, and id-sorted stays
}

const PeerDescriptor& PeerDirectory::refresh_self(Time now) {
  self_desc_ = make_descriptor(self_, keys_, ip_, port_, now, sign_rng_);
  const std::size_t i = index_of(self_);
  if (i < records_.size()) records_[i].d = self_desc_;
  return self_desc_;
}

std::size_t PeerDirectory::index_of(PeerId peer) const {
  const auto it = std::lower_bound(
      records_.begin(), records_.end(), peer,
      [](const Record& r, PeerId p) { return r.d.peer < p; });
  if (it == records_.end() || it->d.peer != peer) return records_.size();
  return static_cast<std::size_t>(it - records_.begin());
}

void PeerDirectory::erase(PeerId peer) {
  const std::size_t i = index_of(peer);
  if (i < records_.size()) {
    records_.erase(records_.begin() + static_cast<std::ptrdiff_t>(i));
  }
}

void PeerDirectory::enforce_cap() {
  // Evict the stalest active remote (oldest heartbeat; ties drop the
  // larger id) until the active count fits the view — Newscast's
  // keep-the-freshest rule, made deterministic for the equivalence tests.
  // Quarantined tombstones live outside the view cap (their population is
  // bounded by quarantine_ttl instead).
  while (view_count() > config_.view_size) {
    const Record* victim = nullptr;
    for (const Record& r : records_) {
      if (r.d.peer == self_ || r.quarantined) continue;
      if (victim == nullptr || r.d.heartbeat < victim->d.heartbeat ||
          (r.d.heartbeat == victim->d.heartbeat &&
           r.d.peer > victim->d.peer)) {
        victim = &r;
      }
    }
    assert(victim != nullptr);
    erase(victim->d.peer);
  }
}

bool PeerDirectory::merge(const PeerDescriptor& d, Time now) {
  (void)now;
  if (d.peer == self_) return false;  // nobody overrides our own entry
  const std::size_t i = index_of(d.peer);
  if (i < records_.size()) {
    if (d.heartbeat <= records_[i].d.heartbeat) return false;  // stale
    // A quarantined entry rejects everything above, so only a *strictly
    // fresher* heartbeat — the peer re-announcing itself — reaches here
    // and lifts the quarantine with a clean dial slate.
    records_[i].d = d;
    records_[i].dial_failures = 0;
    records_[i].quarantined = false;
    records_[i].quarantined_at = 0;
    return true;
  }
  Record r;
  r.d = d;
  const auto it = std::lower_bound(
      records_.begin(), records_.end(), d.peer,
      [](const Record& rec, PeerId p) { return rec.d.peer < p; });
  records_.insert(it, std::move(r));
  enforce_cap();
  return true;
}

PeerDirectory::MergeStats PeerDirectory::merge_exchange(
    const PeerExchangeMessage& m, Time now) {
  MergeStats stats;
  for (const PeerDescriptor& d : m.descriptors) {
    if (!verify_descriptor(d)) {
      ++stats.forged;  // item-wise reject, like mod-batch items
      continue;
    }
    if (merge(d, now)) {
      ++stats.accepted;
    } else {
      ++stats.stale;
    }
  }
  exchange_probe_.add();
  return stats;
}

PeerExchangeMessage PeerDirectory::build_shuffle(Time now,
                                                 bool reply_requested) {
  PeerExchangeMessage m;
  m.reply_requested = reply_requested;
  m.descriptors.push_back(refresh_self(now));
  // Freshest active remotes first (ties: smaller id), capped at
  // shuffle_size. Quarantined descriptors are never re-gossiped — we will
  // not advertise an address we could not reach.
  std::vector<const Record*> remotes;
  for (const Record& r : records_) {
    if (r.d.peer != self_ && !r.quarantined) remotes.push_back(&r);
  }
  std::sort(remotes.begin(), remotes.end(),
            [](const Record* a, const Record* b) {
              if (a->d.heartbeat != b->d.heartbeat) {
                return a->d.heartbeat > b->d.heartbeat;
              }
              return a->d.peer < b->d.peer;
            });
  for (const Record* r : remotes) {
    if (m.descriptors.size() >= config_.shuffle_size) break;
    m.descriptors.push_back(r->d);
  }
  return m;
}

std::size_t PeerDirectory::evict_expired(Time now) {
  const std::size_t before = records_.size();
  std::erase_if(records_, [&](const Record& r) {
    if (r.d.peer == self_) return false;
    if (r.quarantined) {
      return r.quarantined_at + config_.quarantine_ttl < now;
    }
    return r.d.heartbeat + config_.entry_ttl < now;
  });
  return before - records_.size();
}

bool PeerDirectory::note_dial_failure(PeerId peer, Time now) {
  const std::size_t i = index_of(peer);
  if (i >= records_.size() || peer == self_) return false;
  if (records_[i].quarantined) return false;  // already demoted
  if (++records_[i].dial_failures >= config_.max_dial_failures) {
    records_[i].quarantined = true;
    records_[i].quarantined_at = now;
    return true;
  }
  return false;
}

void PeerDirectory::note_dial_success(PeerId peer) {
  const std::size_t i = index_of(peer);
  if (i < records_.size()) records_[i].dial_failures = 0;
}

bool PeerDirectory::lookup(PeerId peer, PeerDescriptor& out) const {
  const std::size_t i = index_of(peer);
  if (i >= records_.size() || records_[i].quarantined) return false;
  out = records_[i].d;
  return true;
}

std::size_t PeerDirectory::view_count() const noexcept {
  std::size_t n = 0;
  for (const Record& r : records_) {
    if (r.d.peer != self_ && !r.quarantined) ++n;
  }
  return n;
}

std::size_t PeerDirectory::quarantined_count() const noexcept {
  std::size_t n = 0;
  for (const Record& r : records_) {
    if (r.quarantined) ++n;
  }
  return n;
}

std::vector<PeerId> PeerDirectory::known_peers() const {
  std::vector<PeerId> ids;
  ids.reserve(records_.size());
  for (const Record& r : records_) {
    if (r.d.peer != self_ && !r.quarantined) ids.push_back(r.d.peer);
  }
  return ids;  // records_ is id-sorted
}

PeerId PeerDirectory::sample(PeerId self) {
  // OnlineDirectory::sample_online's draw sequence over the sorted id set:
  // uniform index draw, retry while the draw lands on self (or on a
  // quarantined tombstone — absent at full healthy membership, so the
  // oracle equivalence contract is untouched).
  const std::size_t n = records_.size();
  if (n == 0) return kInvalidPeer;
  bool sampleable = false;
  for (const Record& r : records_) {
    if (r.d.peer != self && !r.quarantined) {
      sampleable = true;
      break;
    }
  }
  if (!sampleable) return kInvalidPeer;
  for (;;) {
    const Record& pick = records_[sample_rng_.next_below(n)];
    if (pick.d.peer != self && !pick.quarantined) return pick.d.peer;
  }
}

}  // namespace tribvote::net
