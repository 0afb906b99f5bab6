// NodeService: one peer's socket endpoint — listener, connections, HELLO
// handshake, frame pump, and the glue between TCP byte streams and the
// transport-agnostic ExchangeEngine (PROTOCOL.md §3).
//
// Connection lifecycle: dial (or accept), both sides immediately send
// HELLO; once the peer's HELLO arrives the connection is bound to its
// PeerId and encounters may be initiated. The side that dialed initiates
// on channel 0, the side that accepted on channel 1 — the two in-flight
// encounters of a connection never share a channel, so simultaneous
// initiation needs no arbitration. BYE declares "I will initiate nothing
// further"; a node that has sent and received BYE on a connection may
// close it knowing no encounter is cut short.
//
// Writes: send_frame only encodes into the connection's output buffer.
// HELLO goes out at once; every other frame waits for the service's
// before-poll hook, which sends each connection's queued bytes in one
// write just before the event loop blocks — one write per flight, however
// many frames an engine step or a timer emitted. Reads drain the socket
// until a recv comes back short of the buffer; poll is level-triggered, so
// anything left (bytes or EOF) fires on the next pass.
//
// Every transport event lands in the PR 5 telemetry registry (when one is
// wired) under net.*: frames/bytes in/out, checksum rejects, malformed
// streams, truncated tails, reconnects — the socket path reports through
// the same plane the simulator does.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "crypto/schnorr.hpp"
#include "moderation/moderationcast.hpp"
#include "net/engine.hpp"
#include "net/event_loop.hpp"
#include "net/frame.hpp"
#include "net/impairment.hpp"
#include "net/peer_directory.hpp"
#include "telemetry/registry.hpp"
#include "vote/agent.hpp"

namespace tribvote::net {

/// Why a connection died — handed to the closed hook so the scheduler can
/// tell a dead address (dial-failure accounting, directory quarantine)
/// from a stalled-but-live peer (backoff only) and from our own choice
/// (PROTOCOL.md §5 error taxonomy).
enum class CloseReason : std::uint8_t {
  kLocal,     ///< we closed deliberately (BYE'd quiescence, shutdown)
  kReset,     ///< stream died under us: EOF, ECONNRESET, send failure
  kProtocol,  ///< framing/CRC/state-machine violation — connection-fatal
  kTimeout,   ///< deadline watchdog: HELLO or encounter made no progress
};

/// Monotone transport counters (engine-level protocol counters live in
/// ExchangeEngine::Counters). Mirrored into the telemetry registry.
struct NetStats {
  std::uint64_t connections_in = 0;
  std::uint64_t connections_out = 0;
  std::uint64_t reconnects = 0;
  std::uint64_t closes = 0;
  std::uint64_t frames_in = 0;
  std::uint64_t frames_out = 0;
  std::uint64_t bytes_in = 0;
  std::uint64_t bytes_out = 0;
  std::uint64_t checksum_rejects = 0;
  std::uint64_t malformed = 0;
  std::uint64_t truncated = 0;  ///< streams that ended mid-frame
  std::uint64_t protocol_errors = 0;
  std::uint64_t peer_exchanges_in = 0;   ///< PEER_EXCHANGE frames merged
  std::uint64_t peer_exchanges_out = 0;  ///< shuffles + replies sent
  std::uint64_t descriptors_accepted = 0;
  std::uint64_t descriptors_forged = 0;  ///< bad signature, dropped item-wise
  std::uint64_t hello_timeouts = 0;      ///< watchdog fired awaiting HELLO
  std::uint64_t encounter_timeouts = 0;  ///< watchdog fired mid-encounter
  std::uint64_t impair_resets = 0;       ///< closes forced by the chaos shim
  std::uint64_t sends = 0;  ///< ::send calls that moved bytes
  std::uint64_t recvs = 0;  ///< ::recv calls that returned bytes
};

class NodeService {
 public:
  /// `registry` may be null (no telemetry); `mod` may be null (vote-only).
  /// All referenced objects must outlive the service.
  NodeService(EventLoop& loop, PeerId self, const crypto::KeyPair& keys,
              vote::VoteAgent& vote, moderation::ModerationCastAgent* mod,
              telemetry::Registry* registry = nullptr);
  ~NodeService();

  NodeService(const NodeService&) = delete;
  NodeService& operator=(const NodeService&) = delete;

  /// Accept inbound connections on `port` (0 = ephemeral; listen_port()
  /// reports the bound one).
  bool listen(std::uint16_t port, std::string* err = nullptr);
  [[nodiscard]] std::uint16_t listen_port() const noexcept {
    return listen_port_;
  }

  /// Dial host:port. Returns a connection id (>= 0) or -1.
  int connect(const std::string& host, std::uint16_t port,
              std::string* err = nullptr);
  /// Re-dial a closed outbound connection (same host:port, fresh engine
  /// handshake). Counts net.reconnects.
  bool reconnect(int conn, std::string* err = nullptr);

  [[nodiscard]] bool open(int conn) const;       ///< socket alive
  [[nodiscard]] bool ready(int conn) const;      ///< HELLO exchanged
  [[nodiscard]] PeerId peer_of(int conn) const;  ///< kInvalidPeer if not ready
  [[nodiscard]] std::size_t connection_count() const;
  /// Ids of currently open connections (accepted ones appear once their
  /// HELLO arrives and binds them to a peer).
  [[nodiscard]] std::vector<int> connections() const;

  /// Open one encounter as initiator. Fails while the connection is not
  /// ready or our previous encounter on it is still in flight.
  bool initiate_vote_encounter(int conn, Time now);
  bool initiate_moderation_encounter(int conn, Time now);
  /// Our initiator side is idle (safe to initiate the next encounter).
  [[nodiscard]] bool initiator_idle(int conn) const;

  /// Declare we will initiate nothing more on this connection.
  void send_bye(int conn);
  [[nodiscard]] bool bye_received(int conn) const;
  /// Close the connection. Queued bytes get one non-blocking write first,
  /// so `send_bye(c); close(c);` delivers the BYE without a loop pass.
  void close(int conn);

  [[nodiscard]] const NetStats& stats() const noexcept { return stats_; }
  [[nodiscard]] const ExchangeEngine::Counters* engine_counters(
      int conn) const;
  /// Engine counters summed over every connection this service ever ran —
  /// open and closed alike (a lifetime view for end-of-run reports).
  [[nodiscard]] ExchangeEngine::Counters engine_totals() const;

  /// Install a hook fired on every peer-initiated ENC_BEGIN (kind, time),
  /// before anything of that encounter merges — the responder's only safe
  /// point to apply scheduled casts (see ExchangeEngine::set_begin_hook).
  /// Applies to connections adopted after the call.
  void set_encounter_begin_hook(std::function<void(std::uint8_t, Time)> hook) {
    begin_hook_ = std::move(hook);
  }

  // ---- peer discovery (PROTOCOL.md §8) -------------------------------------

  /// Wire the Newscast directory. While set, inbound PEER_EXCHANGE frames
  /// are decoded, item-wise signature-verified and merged (and answered
  /// when the sender requested the reply half). Without a directory the
  /// frame is ignored — a vote-only endpoint is not obliged to gossip
  /// views. `clock` supplies the protocol time stamped into outgoing
  /// self-descriptors.
  void set_directory(PeerDirectory* directory, std::function<Time()> clock) {
    directory_ = directory;
    clock_ = std::move(clock);
  }
  [[nodiscard]] PeerDirectory* directory() const noexcept {
    return directory_;
  }

  /// Send our shuffle slice on `conn` (Newscast push; `request_reply`
  /// asks for the symmetric pull half). Needs a wired directory and a
  /// ready connection.
  bool send_peer_exchange(int conn, bool request_reply);

  /// The open connection bound to `peer` (HELLO exchanged), or -1.
  [[nodiscard]] int conn_for_peer(PeerId peer) const;
  [[nodiscard]] PeerId self() const noexcept { return self_; }

  /// Hook fired after a connection closes for any reason (error, protocol
  /// violation, timeout, explicit close). `peer` is kInvalidPeer when the
  /// HELLO never completed. The EncounterScheduler uses this for
  /// dial-failure accounting; fired from inside the poll loop, so the hook
  /// must not re-enter the service for this connection.
  void set_closed_hook(std::function<void(int, PeerId, CloseReason)> hook) {
    closed_hook_ = std::move(hook);
  }

  // ---- transport chaos plane (DESIGN.md §16) -------------------------------

  /// Attach the deterministic impairment shim. Inbound bytes of every
  /// connection adopted after this call pass through it before the
  /// FrameReader; its verdict counters mirror into telemetry as
  /// net.impair.*. Null (the default) is the guaranteed-inert path: no
  /// extra branches beyond one pointer test, no RNG draws.
  void set_impairment(Impairment* impair) { impair_ = impair; }
  [[nodiscard]] Impairment* impairment() const noexcept { return impair_; }

  /// Arm per-connection progress watchdogs: a connection whose HELLO has
  /// not landed within `hello_ms`, or that sits mid-encounter (either
  /// side's engine busy) for `encounter_ms` without a single delivered
  /// byte, is closed with CloseReason::kTimeout — a stalled half-open
  /// peer frees its channel slot instead of wedging it. 0 disables the
  /// respective deadline (the default: established idle connections never
  /// expire, matching PR 7/8 behavior).
  void set_deadlines(int hello_ms, int encounter_ms) {
    hello_timeout_ms_ = hello_ms;
    encounter_timeout_ms_ = encounter_ms;
  }

 private:
  struct Connection {
    int id = -1;
    int fd = -1;
    bool outbound = false;
    std::string host;
    std::uint16_t port = 0;
    bool hello_sent = false;
    bool hello_received = false;
    bool bye_sent = false;
    bool bye_received = false;
    bool closed = false;
    FrameReader reader;
    std::vector<std::uint8_t> outbuf;
    std::size_t out_cursor = 0;
    std::unique_ptr<ExchangeEngine> engine;
    // Chaos-plane state. `epoch` invalidates watchdog/delay timer
    // callbacks that outlive a close or reconnect; `rx_bytes` counts
    // bytes actually delivered to the FrameReader (post-impairment) —
    // the watchdog's definition of progress.
    std::uint64_t epoch = 0;
    std::uint64_t impair_key = 0;
    std::uint64_t rx_bytes = 0;
    std::uint64_t rx_marker = 0;  ///< rx_bytes snapshot at watchdog arm
    EventLoop::TimerId watchdog = 0;
    std::deque<std::pair<std::vector<std::uint8_t>, int>> delay_q;
    EventLoop::TimerId delay_timer = 0;
  };

  Connection* get(int conn);
  const Connection* get(int conn) const;
  int adopt(int fd, bool outbound, const std::string& host,
            std::uint16_t port);
  void attach(Connection& c);
  void on_readable(int conn);
  void on_writable(int conn);
  void ingest_bytes(Connection& c, const std::uint8_t* data, std::size_t n);
  void feed_reader(Connection& c, const std::uint8_t* data, std::size_t n);
  void arm_delay(Connection& c);
  void on_delay(int conn, std::uint64_t epoch);
  void arm_watchdog(Connection& c);
  void on_watchdog(int conn, std::uint64_t epoch);
  void pump_frames(Connection& c);
  bool handle_frame(Connection& c, const Frame& frame);
  void send_frame(Connection& c, const Frame& frame);
  void send_hello(Connection& c);
  void flush(Connection& c);
  /// The before-poll hook: flush every connection with queued bytes.
  void flush_queued();
  void close_internal(Connection& c, bool count_close,
                      CloseReason reason = CloseReason::kLocal);
  void mirror_telemetry();

  EventLoop* loop_;
  PeerId self_;
  const crypto::KeyPair* keys_;
  vote::VoteAgent* vote_;
  moderation::ModerationCastAgent* mod_;
  telemetry::Registry* registry_ = nullptr;

  int listen_fd_ = -1;
  std::uint16_t listen_port_ = 0;
  int next_id_ = 0;
  std::map<int, Connection> conns_;
  NetStats stats_;
  std::function<void(std::uint8_t, Time)> begin_hook_;
  std::function<void(int, PeerId, CloseReason)> closed_hook_;
  PeerDirectory* directory_ = nullptr;
  std::function<Time()> clock_;
  Impairment* impair_ = nullptr;
  int hello_timeout_ms_ = 0;
  int encounter_timeout_ms_ = 0;
  EventLoop::HookId flush_hook_ = 0;
  // Ids of connections whose outbuf went from empty to queued since the
  // last write pass (back-pressured ones wait for on_writable instead).
  std::vector<int> queued_;

  telemetry::CounterId t_frames_in_{}, t_frames_out_{}, t_bytes_in_{},
      t_bytes_out_{}, t_checksum_{}, t_malformed_{}, t_truncated_{},
      t_reconnects_{}, t_closes_{}, t_protocol_errors_{}, t_px_in_{},
      t_px_out_{}, t_desc_accepted_{}, t_desc_forged_{}, t_hello_to_{},
      t_enc_to_{}, t_imp_chunks_{}, t_imp_dropped_{}, t_imp_delayed_{},
      t_imp_corrupted_{}, t_imp_truncated_{}, t_imp_stalled_{},
      t_imp_ge_bad_{}, t_imp_part_{}, t_sends_{}, t_recvs_{};
};

}  // namespace tribvote::net
