// Poll-based single-threaded event loop + nonblocking TCP helpers — the
// socket substrate under net::NodeService. Deliberately minimal: poll(2)
// over registered fds with per-fd readable/writable callbacks, level-
// triggered, plus one-shot wall-clock timers (the EncounterScheduler's
// round tick and backoff redials; the encounter protocol itself needs none
// — every encounter is request/response over TCP, and quiescence is
// explicit via BYE frames).
//
// Single ownership rule: callbacks run on the thread calling poll_once();
// a callback may add or remove fds (including its own), and schedule or
// cancel timers (including its own) — removals take effect before the next
// dispatch. poll_once is not re-entrant: no callback may call it.
//
// Before-poll hooks run at the top of every pass, before the loop blocks —
// the write pass of a NodeService, which queues frames while it handles
// events and sends each connection's queued bytes here in one write.
#pragma once

#include <poll.h>

#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace tribvote::net {

class EventLoop {
 public:
  struct Handler {
    std::function<void()> on_readable;
    std::function<void()> on_writable;
  };

  using TimerId = std::uint64_t;
  using HookId = std::uint64_t;

  /// Register `fd`. The loop never closes fds — owners do.
  void add(int fd, Handler handler);
  void remove(int fd);
  /// Interest in writability (set while an output buffer is non-empty).
  void set_want_write(int fd, bool want);

  /// One-shot timer: run `fn` once at least `delay_ms` from now, from a
  /// later poll_once() pass. Timers fire in (due time, id) order — ties
  /// break by scheduling order — so expiry is deterministic for a fixed
  /// call sequence. Returns an id for cancel_timer.
  TimerId schedule_after(int delay_ms, std::function<void()> fn);
  /// Cancel a pending timer; a no-op if it already fired or never existed.
  void cancel_timer(TimerId id);
  [[nodiscard]] std::size_t pending_timers() const noexcept;

  /// Run `fn` at the top of every poll_once() pass, before the wait, in
  /// registration order. A hook may do anything a callback may, except add
  /// or remove hooks. Returns an id for remove_before_poll.
  HookId add_before_poll(std::function<void()> fn);
  void remove_before_poll(HookId id);

  /// One hooks + poll + dispatch pass. Returns the number of fds that fired
  /// (fired timers count as one each), 0 on timeout or when a signal cut
  /// the wait short (EINTR), -1 on any other poll error.
  /// `timeout_ms` < 0 blocks until an fd or timer fires; the wait is
  /// always clipped to the earliest pending timer's due time.
  int poll_once(int timeout_ms);

  /// Drive poll_once until `done()` or `max_ms` elapses. Returns done().
  bool run_until(const std::function<bool()>& done, int max_ms);

  [[nodiscard]] std::size_t size() const noexcept;

 private:
  using Clock = std::chrono::steady_clock;

  struct Entry {
    int fd = -1;
    Handler handler;
    bool want_write = false;
    bool dead = false;
  };

  struct Timer {
    TimerId id = 0;
    Clock::time_point due;
    std::function<void()> fn;
  };

  Entry* find(int fd);
  void compact();
  /// Wait budget until the earliest timer, clipped into `timeout_ms`.
  int clip_to_timers(int timeout_ms) const;
  /// Fire every timer due at `now`; returns the count fired.
  int fire_due_timers(Clock::time_point now);

  struct Hook {
    HookId id = 0;
    std::function<void()> fn;
  };

  std::vector<Entry> entries_;
  std::vector<Timer> timers_;  // unordered; scanned on fire (small N)
  std::vector<Hook> hooks_;
  // poll(2) arguments, rebuilt in place each pass (no per-pass allocation).
  std::vector<pollfd> fds_;
  std::vector<int> owners_;  // fds_[i] was built from the entry for owners_[i]
  TimerId next_timer_id_ = 1;
  HookId next_hook_id_ = 1;
  bool dispatching_ = false;
};

// ---- nonblocking TCP helpers (IPv4 loopback/LAN grade) ---------------------

/// Listen on 127.0.0.1-any:`port` (0 = ephemeral). Returns the listening fd
/// or -1 (`err` gets the reason). SO_REUSEADDR set, nonblocking.
int tcp_listen(std::uint16_t port, std::string* err = nullptr);

/// Begin a nonblocking connect to host:port. Returns the fd (connection may
/// still be in progress — poll for writability) or -1.
int tcp_connect(const std::string& host, std::uint16_t port,
                std::string* err = nullptr);

/// Accept one pending connection (nonblocking, TCP_NODELAY). -1 when none.
int tcp_accept(int listen_fd);

/// The locally bound port of a socket (resolves port 0 after tcp_listen).
std::uint16_t local_port(int fd);

}  // namespace tribvote::net
