#include "net/node_service.hpp"

#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <utility>

namespace tribvote::net {

NodeService::NodeService(EventLoop& loop, PeerId self,
                         const crypto::KeyPair& keys, vote::VoteAgent& vote,
                         moderation::ModerationCastAgent* mod,
                         telemetry::Registry* registry)
    : loop_(&loop),
      self_(self),
      keys_(&keys),
      vote_(&vote),
      mod_(mod),
      registry_(registry) {
  if (registry_ != nullptr) {
    t_frames_in_ = registry_->counter("net.frames_in");
    t_frames_out_ = registry_->counter("net.frames_out");
    t_bytes_in_ = registry_->counter("net.bytes_in");
    t_bytes_out_ = registry_->counter("net.bytes_out");
    t_checksum_ = registry_->counter("net.checksum_rejects");
    t_malformed_ = registry_->counter("net.malformed");
    t_truncated_ = registry_->counter("net.truncated");
    t_reconnects_ = registry_->counter("net.reconnects");
    t_closes_ = registry_->counter("net.closes");
    t_protocol_errors_ = registry_->counter("net.protocol_errors");
    t_px_in_ = registry_->counter("net.peer_exchanges_in");
    t_px_out_ = registry_->counter("net.peer_exchanges_out");
    t_desc_accepted_ = registry_->counter("net.descriptors_accepted");
    t_desc_forged_ = registry_->counter("net.descriptors_forged");
    t_hello_to_ = registry_->counter("net.timeout.hello");
    t_enc_to_ = registry_->counter("net.timeout.encounter");
    t_imp_chunks_ = registry_->counter("net.impair.chunks");
    t_imp_dropped_ = registry_->counter("net.impair.dropped");
    t_imp_delayed_ = registry_->counter("net.impair.delayed");
    t_imp_corrupted_ = registry_->counter("net.impair.corrupted");
    t_imp_truncated_ = registry_->counter("net.impair.truncated");
    t_imp_stalled_ = registry_->counter("net.impair.stalled");
    t_imp_ge_bad_ = registry_->counter("net.impair.ge_bad_chunks");
    t_imp_part_ = registry_->counter("net.impair.partition_drops");
    t_sends_ = registry_->counter("net.sends");
    t_recvs_ = registry_->counter("net.recvs");
  }
  flush_hook_ = loop_->add_before_poll([this] { flush_queued(); });
}

NodeService::~NodeService() {
  loop_->remove_before_poll(flush_hook_);
  for (auto& [id, c] : conns_) {
    if (!c.closed) close_internal(c, false);
  }
  if (listen_fd_ >= 0) {
    loop_->remove(listen_fd_);
    ::close(listen_fd_);
  }
}

void NodeService::mirror_telemetry() {
  // The NetStats struct stays the source of truth; the registry mirrors it
  // the way RunStats/FaultStats mirror into the simulator's plane.
  if (registry_ == nullptr) return;
  registry_->set_total(t_frames_in_, stats_.frames_in);
  registry_->set_total(t_frames_out_, stats_.frames_out);
  registry_->set_total(t_bytes_in_, stats_.bytes_in);
  registry_->set_total(t_bytes_out_, stats_.bytes_out);
  registry_->set_total(t_checksum_, stats_.checksum_rejects);
  registry_->set_total(t_malformed_, stats_.malformed);
  registry_->set_total(t_truncated_, stats_.truncated);
  registry_->set_total(t_reconnects_, stats_.reconnects);
  registry_->set_total(t_closes_, stats_.closes);
  registry_->set_total(t_protocol_errors_, stats_.protocol_errors);
  registry_->set_total(t_px_in_, stats_.peer_exchanges_in);
  registry_->set_total(t_px_out_, stats_.peer_exchanges_out);
  registry_->set_total(t_desc_accepted_, stats_.descriptors_accepted);
  registry_->set_total(t_desc_forged_, stats_.descriptors_forged);
  registry_->set_total(t_hello_to_, stats_.hello_timeouts);
  registry_->set_total(t_enc_to_, stats_.encounter_timeouts);
  registry_->set_total(t_sends_, stats_.sends);
  registry_->set_total(t_recvs_, stats_.recvs);
  if (impair_ != nullptr && impair_->enabled()) {
    const ImpairStats& s = impair_->stats();
    registry_->set_total(t_imp_chunks_, s.chunks);
    registry_->set_total(t_imp_dropped_, s.dropped);
    registry_->set_total(t_imp_delayed_, s.delayed);
    registry_->set_total(t_imp_corrupted_, s.corrupted);
    registry_->set_total(t_imp_truncated_, s.truncated);
    registry_->set_total(t_imp_stalled_, s.stalled);
    registry_->set_total(t_imp_ge_bad_, s.ge_bad_chunks);
    registry_->set_total(t_imp_part_, s.partition_drops);
  }
}

bool NodeService::listen(std::uint16_t port, std::string* err) {
  if (listen_fd_ >= 0) return false;
  listen_fd_ = tcp_listen(port, err);
  if (listen_fd_ < 0) return false;
  listen_port_ = local_port(listen_fd_);
  loop_->add(listen_fd_, {.on_readable =
                              [this] {
                                int fd;
                                while ((fd = tcp_accept(listen_fd_)) >= 0) {
                                  ++stats_.connections_in;
                                  adopt(fd, false, {}, 0);
                                }
                              },
                          .on_writable = nullptr});
  return true;
}

int NodeService::connect(const std::string& host, std::uint16_t port,
                         std::string* err) {
  const int fd = tcp_connect(host, port, err);
  if (fd < 0) return -1;
  ++stats_.connections_out;
  return adopt(fd, true, host, port);
}

int NodeService::adopt(int fd, bool outbound, const std::string& host,
                       std::uint16_t port) {
  const int id = next_id_++;
  Connection& c = conns_[id];
  c.id = id;
  c.fd = fd;
  c.outbound = outbound;
  c.host = host;
  c.port = port;
  // Dialer initiates on channel 0, acceptor on channel 1 (PROTOCOL.md §3).
  c.engine = std::make_unique<ExchangeEngine>(*vote_, mod_,
                                              outbound ? std::uint8_t{0}
                                                       : std::uint8_t{1});
  c.engine->set_begin_hook(begin_hook_);
  if (impair_ != nullptr && impair_->enabled()) {
    c.impair_key = impair_->open_stream();
  }
  attach(c);
  send_hello(c);
  arm_watchdog(c);
  return id;
}

void NodeService::attach(Connection& c) {
  const int id = c.id;
  loop_->add(c.fd, {.on_readable = [this, id] { on_readable(id); },
                    .on_writable = [this, id] { on_writable(id); }});
}

bool NodeService::reconnect(int conn, std::string* err) {
  Connection* c = get(conn);
  if (c == nullptr || !c->closed || !c->outbound) return false;
  const int fd = tcp_connect(c->host, c->port, err);
  if (fd < 0) return false;
  ++stats_.reconnects;
  c->fd = fd;
  c->closed = false;
  c->hello_sent = false;
  c->hello_received = false;
  c->bye_sent = false;
  c->bye_received = false;
  c->reader = FrameReader{};
  c->outbuf.clear();
  c->out_cursor = 0;
  c->engine = std::make_unique<ExchangeEngine>(*vote_, mod_, std::uint8_t{0});
  c->engine->set_begin_hook(begin_hook_);
  if (impair_ != nullptr && impair_->enabled()) {
    c->impair_key = impair_->open_stream();  // fresh verdict stream
  }
  attach(*c);
  send_hello(*c);
  arm_watchdog(*c);
  mirror_telemetry();
  return true;
}

NodeService::Connection* NodeService::get(int conn) {
  const auto it = conns_.find(conn);
  return it == conns_.end() ? nullptr : &it->second;
}

const NodeService::Connection* NodeService::get(int conn) const {
  const auto it = conns_.find(conn);
  return it == conns_.end() ? nullptr : &it->second;
}

bool NodeService::open(int conn) const {
  const Connection* c = get(conn);
  return c != nullptr && !c->closed;
}

bool NodeService::ready(int conn) const {
  const Connection* c = get(conn);
  return c != nullptr && !c->closed && c->hello_received;
}

PeerId NodeService::peer_of(int conn) const {
  const Connection* c = get(conn);
  return c != nullptr && c->engine->has_peer() ? c->engine->peer()
                                               : kInvalidPeer;
}

std::size_t NodeService::connection_count() const {
  std::size_t n = 0;
  for (const auto& [id, c] : conns_) {
    if (!c.closed) ++n;
  }
  return n;
}

std::vector<int> NodeService::connections() const {
  std::vector<int> ids;
  for (const auto& [id, c] : conns_) {
    if (!c.closed) ids.push_back(id);
  }
  return ids;
}

bool NodeService::initiator_idle(int conn) const {
  const Connection* c = get(conn);
  return c != nullptr && !c->closed && c->engine->idle();
}

bool NodeService::initiate_vote_encounter(int conn, Time now) {
  Connection* c = get(conn);
  if (c == nullptr || c->closed || !c->hello_received) return false;
  std::vector<Frame> out;
  if (!c->engine->begin_vote_encounter(now, out)) return false;
  for (const Frame& f : out) send_frame(*c, f);
  if (!c->closed) arm_watchdog(*c);
  mirror_telemetry();
  return true;
}

bool NodeService::initiate_moderation_encounter(int conn, Time now) {
  Connection* c = get(conn);
  if (c == nullptr || c->closed || !c->hello_received) return false;
  std::vector<Frame> out;
  if (!c->engine->begin_moderation_encounter(now, out)) return false;
  for (const Frame& f : out) send_frame(*c, f);
  if (!c->closed) arm_watchdog(*c);
  mirror_telemetry();
  return true;
}

void NodeService::send_bye(int conn) {
  Connection* c = get(conn);
  if (c == nullptr || c->closed || c->bye_sent) return;
  c->bye_sent = true;
  Frame f;
  f.type = FrameType::kBye;
  f.channel = c->outbound ? 0 : 1;
  send_frame(*c, f);
  mirror_telemetry();
}

bool NodeService::bye_received(int conn) const {
  const Connection* c = get(conn);
  return c != nullptr && c->bye_received;
}

void NodeService::close(int conn) {
  Connection* c = get(conn);
  if (c != nullptr && !c->closed) {
    close_internal(*c, true);
    mirror_telemetry();
  }
}

const ExchangeEngine::Counters* NodeService::engine_counters(int conn) const {
  const Connection* c = get(conn);
  return c == nullptr ? nullptr : &c->engine->counters();
}

ExchangeEngine::Counters NodeService::engine_totals() const {
  // Closed connections keep their engine until the service dies (conns_ is
  // never erased), so a straight sum is the lifetime total. Reconnects
  // replace the engine — counters of the pre-reconnect life are gone; the
  // smoke reports tolerate that.
  ExchangeEngine::Counters total;
  for (const auto& [id, c] : conns_) {
    const ExchangeEngine::Counters& e = c.engine->counters();
    total.encounters_completed += e.encounters_completed;
    total.encounters_served += e.encounters_served;
    total.mod_completed += e.mod_completed;
    total.mod_served += e.mod_served;
    total.open_full += e.open_full;
    total.open_digest += e.open_digest;
    total.votes_accepted += e.votes_accepted;
    total.votes_rejected += e.votes_rejected;
    total.votes_inexperienced += e.votes_inexperienced;
    total.fallbacks_requested += e.fallbacks_requested;
    total.fallbacks_served += e.fallbacks_served;
    total.vox_answered += e.vox_answered;
    total.vox_null += e.vox_null;
    total.mod_rejected += e.mod_rejected;
    total.protocol_errors += e.protocol_errors;
  }
  return total;
}

int NodeService::conn_for_peer(PeerId peer) const {
  if (peer == kInvalidPeer) return -1;
  for (const auto& [id, c] : conns_) {
    if (!c.closed && c.engine->has_peer() && c.engine->peer() == peer) {
      return id;
    }
  }
  return -1;
}

bool NodeService::send_peer_exchange(int conn, bool request_reply) {
  Connection* c = get(conn);
  if (c == nullptr || c->closed || !c->hello_received ||
      directory_ == nullptr) {
    return false;
  }
  const Time now = clock_ ? clock_() : 0;
  Frame f;
  f.type = FrameType::kPeerExchange;
  f.channel = c->outbound ? 0 : 1;
  f.payload = encode_peer_exchange(directory_->build_shuffle(now,
                                                             request_reply));
  ++stats_.peer_exchanges_out;
  send_frame(*c, f);
  mirror_telemetry();
  return true;
}

void NodeService::send_hello(Connection& c) {
  Frame f;
  f.type = FrameType::kHello;
  f.channel = c.outbound ? 0 : 1;
  f.payload = encode_hello({self_, keys_->pub});
  send_frame(c, f);
  // At once, not at the next write pass: a dial that is refused must
  // surface (and close) inside connect()/reconnect(), where the
  // EncounterScheduler counts it.
  flush(c);
  c.hello_sent = true;
}

void NodeService::send_frame(Connection& c, const Frame& frame) {
  if (c.closed) return;
  const std::size_t before = c.outbuf.size();
  if (before == 0) queued_.push_back(c.id);
  encode_frame(frame, c.outbuf);
  ++stats_.frames_out;
  stats_.bytes_out += c.outbuf.size() - before;
}

void NodeService::flush_queued() {
  if (queued_.empty()) return;
  // By index: a flush that fails closes its connection, and the closed
  // hook may queue frames elsewhere, appending to queued_ mid-walk.
  for (std::size_t i = 0; i < queued_.size(); ++i) {
    Connection* c = get(queued_[i]);
    if (c != nullptr && !c->closed && c->out_cursor < c->outbuf.size()) {
      flush(*c);
    }
  }
  queued_.clear();
  mirror_telemetry();
}

void NodeService::flush(Connection& c) {
  while (c.out_cursor < c.outbuf.size()) {
    const ssize_t n =
        ::send(c.fd, c.outbuf.data() + c.out_cursor,
               c.outbuf.size() - c.out_cursor, MSG_NOSIGNAL);
    if (n > 0) {
      ++stats_.sends;
      c.out_cursor += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      loop_->set_want_write(c.fd, true);
      return;
    }
    close_internal(c, true, CloseReason::kReset);
    return;
  }
  c.outbuf.clear();
  c.out_cursor = 0;
  loop_->set_want_write(c.fd, false);
}

void NodeService::on_writable(int conn) {
  Connection* c = get(conn);
  if (c != nullptr && !c->closed) flush(*c);
}

void NodeService::on_readable(int conn) {
  Connection* c = get(conn);
  if (c == nullptr || c->closed) return;
  std::uint8_t buf[65536];
  for (;;) {
    const ssize_t n = ::recv(c->fd, buf, sizeof(buf), 0);
    if (n > 0) {
      ++stats_.recvs;
      stats_.bytes_in += static_cast<std::uint64_t>(n);
      ingest_bytes(*c, buf, static_cast<std::size_t>(n));
      if (c->closed) return;
      // A short read emptied the socket; whatever arrives next (or EOF)
      // fires the next pass, so no recv is spent on EAGAIN.
      if (static_cast<std::size_t>(n) < sizeof(buf)) break;
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    // Orderly close or hard error. An incomplete trailing frame means the
    // peer truncated mid-frame — the PR 4 truncation verdict on a real
    // stream; nothing partial was ever delivered upward.
    if (c->reader.pending_bytes() > 0) ++stats_.truncated;
    close_internal(*c, true, CloseReason::kReset);
    mirror_telemetry();
    return;
  }
  if (c->watchdog == 0) arm_watchdog(*c);
  mirror_telemetry();
}

void NodeService::ingest_bytes(Connection& c, const std::uint8_t* data,
                               std::size_t n) {
  if (impair_ == nullptr || c.impair_key == 0) {
    // The inert path: byte-identical to the pre-chaos-plane service.
    feed_reader(c, data, n);
    return;
  }
  std::vector<Impairment::Action> actions;
  impair_->ingest(c.impair_key, data, n, actions);
  const int id = c.id;
  for (Impairment::Action& a : actions) {
    Connection* cc = get(id);  // feed_reader may have closed us mid-list
    if (cc == nullptr || cc->closed) return;
    switch (a.op) {
      case Impairment::Op::kDeliver:
        if (!cc->delay_q.empty()) {
          // A delayed chunk is ahead of us; preserve stream order.
          cc->delay_q.emplace_back(std::move(a.bytes), 0);
        } else {
          feed_reader(*cc, a.bytes.data(), a.bytes.size());
        }
        break;
      case Impairment::Op::kDelay:
        cc->delay_q.emplace_back(std::move(a.bytes), a.delay_ms);
        if (cc->delay_timer == 0) arm_delay(*cc);
        break;
      case Impairment::Op::kReset:
        ++stats_.impair_resets;
        close_internal(*cc, true, CloseReason::kReset);
        return;
      case Impairment::Op::kStall:
        // Half-open from here on: the socket stays up, nothing more is
        // delivered. Only the progress watchdog can reclaim the slot.
        break;
    }
  }
}

void NodeService::feed_reader(Connection& c, const std::uint8_t* data,
                              std::size_t n) {
  c.rx_bytes += n;
  c.reader.feed(data, n);
  pump_frames(c);
}

void NodeService::arm_delay(Connection& c) {
  if (c.delay_q.empty()) {
    c.delay_timer = 0;
    return;
  }
  const int id = c.id;
  const std::uint64_t epoch = c.epoch;
  c.delay_timer = loop_->schedule_after(
      c.delay_q.front().second, [this, id, epoch] { on_delay(id, epoch); });
}

void NodeService::on_delay(int conn, std::uint64_t epoch) {
  Connection* c = get(conn);
  if (c == nullptr || c->closed || c->epoch != epoch) return;
  c->delay_timer = 0;
  if (c->delay_q.empty()) return;
  std::vector<std::uint8_t> bytes = std::move(c->delay_q.front().first);
  c->delay_q.pop_front();
  feed_reader(*c, bytes.data(), bytes.size());
  c = get(conn);  // the frames may have closed the connection
  if (c == nullptr || c->closed) return;
  arm_delay(*c);
  mirror_telemetry();
}

void NodeService::arm_watchdog(Connection& c) {
  // Pick the deadline for the connection's current phase: awaiting HELLO,
  // or mid-encounter on either side. An established idle connection has
  // no deadline — persistent connections are the PR 7 contract.
  int delay = 0;
  if (!c.hello_received) {
    delay = hello_timeout_ms_;
  } else if (!c.engine->idle() || !c.engine->responder_idle()) {
    delay = encounter_timeout_ms_;
  }
  if (delay <= 0) {
    if (c.watchdog != 0) {
      loop_->cancel_timer(c.watchdog);
      c.watchdog = 0;
    }
    return;
  }
  if (c.watchdog != 0) loop_->cancel_timer(c.watchdog);
  c.rx_marker = c.rx_bytes;
  const int id = c.id;
  const std::uint64_t epoch = c.epoch;
  c.watchdog =
      loop_->schedule_after(delay, [this, id, epoch] { on_watchdog(id, epoch); });
}

void NodeService::on_watchdog(int conn, std::uint64_t epoch) {
  Connection* c = get(conn);
  if (c == nullptr || c->closed || c->epoch != epoch) return;
  c->watchdog = 0;
  if (c->rx_bytes != c->rx_marker) {
    arm_watchdog(*c);  // progress since the arm: fresh deadline
    return;
  }
  if (!c->hello_received) {
    ++stats_.hello_timeouts;
  } else if (!c->engine->idle() || !c->engine->responder_idle()) {
    ++stats_.encounter_timeouts;
  } else {
    return;  // became idle: nothing to evict
  }
  close_internal(*c, true, CloseReason::kTimeout);
  mirror_telemetry();
}

void NodeService::pump_frames(Connection& c) {
  Frame f;
  while (c.reader.next(f)) {
    ++stats_.frames_in;
    if (!handle_frame(c, f)) {
      ++stats_.protocol_errors;
      close_internal(c, true, CloseReason::kProtocol);
      return;
    }
  }
  if (c.reader.corrupt()) {
    // Framing integrity lost: either an unframeable header (malformed) or
    // a payload whose CRC lied (checksum reject). Connection-fatal — the
    // wire analogue of the fault plane's corruption verdict (§5).
    stats_.checksum_rejects += c.reader.stats().checksum_rejects;
    stats_.malformed += c.reader.stats().malformed;
    close_internal(c, true, CloseReason::kProtocol);
  }
}

bool NodeService::handle_frame(Connection& c, const Frame& frame) {
  if (frame.type == FrameType::kHello) {
    if (c.hello_received) return false;  // HELLO must come exactly once
    HelloMessage hello;
    if (!decode_hello(frame.payload, hello) || hello.peer == self_) {
      return false;
    }
    c.hello_received = true;
    c.engine->set_peer(hello.peer);
    return true;
  }
  if (!c.hello_received) return false;  // everything else needs identity
  if (frame.type == FrameType::kBye) {
    if (!frame.payload.empty()) return false;
    c.bye_received = true;
    return true;
  }
  if (frame.type == FrameType::kPeerExchange) {
    PeerExchangeMessage m;
    if (!decode_peer_exchange(frame.payload, m)) return false;
    // An endpoint with no directory tolerates the frame (a vote-only node
    // is not obliged to gossip views) — decoded but dropped, §8.
    if (directory_ == nullptr) return true;
    ++stats_.peer_exchanges_in;
    const PeerDirectory::MergeStats merged =
        directory_->merge_exchange(m, clock_ ? clock_() : 0);
    stats_.descriptors_accepted += merged.accepted;
    stats_.descriptors_forged += merged.forged;
    if (m.reply_requested) {
      const Time now = clock_ ? clock_() : 0;
      Frame reply;
      reply.type = FrameType::kPeerExchange;
      reply.channel = c.outbound ? 0 : 1;
      reply.payload =
          encode_peer_exchange(directory_->build_shuffle(now, false));
      ++stats_.peer_exchanges_out;
      send_frame(c, reply);
    }
    return true;
  }
  std::vector<Frame> out;
  if (!c.engine->on_frame(frame, out)) return false;
  for (const Frame& f : out) send_frame(c, f);
  return true;
}

void NodeService::close_internal(Connection& c, bool count_close,
                                 CloseReason reason) {
  if (c.closed) return;
  if (c.out_cursor < c.outbuf.size()) {
    // One non-blocking write of whatever is still queued: frames emitted
    // before the close (a BYE, replies ahead of a protocol error) leave
    // as they would have had the write pass run first.
    if (::send(c.fd, c.outbuf.data() + c.out_cursor,
               c.outbuf.size() - c.out_cursor,
               MSG_NOSIGNAL) > 0) {
      ++stats_.sends;
    }
  }
  c.outbuf.clear();
  c.out_cursor = 0;
  loop_->remove(c.fd);
  ::close(c.fd);
  c.closed = true;
  ++c.epoch;  // strands every pending watchdog/delay callback
  if (c.watchdog != 0) {
    loop_->cancel_timer(c.watchdog);
    c.watchdog = 0;
  }
  if (c.delay_timer != 0) {
    loop_->cancel_timer(c.delay_timer);
    c.delay_timer = 0;
  }
  c.delay_q.clear();
  if (c.impair_key != 0) {
    if (impair_ != nullptr) impair_->close_stream(c.impair_key);
    c.impair_key = 0;
  }
  if (count_close) ++stats_.closes;
  if (closed_hook_) {
    closed_hook_(c.id,
                 c.engine->has_peer() ? c.engine->peer() : kInvalidPeer,
                 reason);
  }
}

}  // namespace tribvote::net
