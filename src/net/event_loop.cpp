#include "net/event_loop.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>

namespace tribvote::net {

namespace {

bool set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  return flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

void set_nodelay(int fd) {
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

void fill_err(std::string* err, const char* what) {
  if (err != nullptr) *err = std::string(what) + ": " + std::strerror(errno);
}

}  // namespace

EventLoop::Entry* EventLoop::find(int fd) {
  for (Entry& e : entries_) {
    if (e.fd == fd && !e.dead) return &e;
  }
  return nullptr;
}

void EventLoop::add(int fd, Handler handler) {
  Entry e;
  e.fd = fd;
  e.handler = std::move(handler);
  entries_.push_back(std::move(e));
}

void EventLoop::remove(int fd) {
  for (Entry& e : entries_) {
    if (e.fd == fd) e.dead = true;
  }
  if (!dispatching_) compact();
}

void EventLoop::set_want_write(int fd, bool want) {
  if (Entry* e = find(fd); e != nullptr) e->want_write = want;
}

void EventLoop::compact() {
  std::erase_if(entries_, [](const Entry& e) { return e.dead; });
}

std::size_t EventLoop::size() const noexcept {
  std::size_t n = 0;
  for (const Entry& e : entries_) {
    if (!e.dead) ++n;
  }
  return n;
}

EventLoop::TimerId EventLoop::schedule_after(int delay_ms,
                                             std::function<void()> fn) {
  Timer t;
  t.id = next_timer_id_++;
  t.due = Clock::now() + std::chrono::milliseconds(std::max(delay_ms, 0));
  t.fn = std::move(fn);
  timers_.push_back(std::move(t));
  return timers_.back().id;
}

void EventLoop::cancel_timer(TimerId id) {
  std::erase_if(timers_, [id](const Timer& t) { return t.id == id; });
}

std::size_t EventLoop::pending_timers() const noexcept {
  return timers_.size();
}

EventLoop::HookId EventLoop::add_before_poll(std::function<void()> fn) {
  hooks_.push_back({next_hook_id_, std::move(fn)});
  return next_hook_id_++;
}

void EventLoop::remove_before_poll(HookId id) {
  std::erase_if(hooks_, [id](const Hook& h) { return h.id == id; });
}

int EventLoop::clip_to_timers(int timeout_ms) const {
  if (timers_.empty()) return timeout_ms;
  auto earliest = timers_.front().due;
  for (const Timer& t : timers_) earliest = std::min(earliest, t.due);
  const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
      earliest - Clock::now());
  const int until = static_cast<int>(
      std::clamp<long long>(left.count(), 0, 1'000'000'000));
  if (timeout_ms < 0) return until;
  return std::min(timeout_ms, until);
}

int EventLoop::fire_due_timers(Clock::time_point now) {
  int fired = 0;
  // Fire strictly in (due, id) order, re-scanning after each callback: the
  // callback may schedule or cancel timers, so indices/iterators into
  // timers_ must not be held across the call. Timers scheduled by a
  // callback for "now" still wait for the next pass (one-shot semantics,
  // no same-pass cascades).
  const TimerId fence = next_timer_id_;
  for (;;) {
    const Timer* best = nullptr;
    for (const Timer& t : timers_) {
      if (t.due > now || t.id >= fence) continue;
      if (best == nullptr || t.due < best->due ||
          (t.due == best->due && t.id < best->id)) {
        best = &t;
      }
    }
    if (best == nullptr) return fired;
    const TimerId id = best->id;
    const std::function<void()> cb = best->fn;  // copy: cb may mutate timers_
    std::erase_if(timers_, [id](const Timer& t) { return t.id == id; });
    if (cb) cb();
    ++fired;
  }
}

int EventLoop::poll_once(int timeout_ms) {
  for (const Hook& h : hooks_) h.fn();
  fds_.clear();
  owners_.clear();
  for (const Entry& e : entries_) {
    if (e.dead) continue;
    pollfd p{};
    p.fd = e.fd;
    p.events = POLLIN;
    if (e.want_write) p.events |= POLLOUT;
    fds_.push_back(p);
    owners_.push_back(e.fd);
  }
  const int wait_ms = clip_to_timers(timeout_ms);
  if (fds_.empty()) {
    // No fds: sleep out the wait budget (poll with no entries is a portable
    // millisecond sleep), then fire whatever came due.
    if (wait_ms != 0) ::poll(nullptr, 0, wait_ms);
    return fire_due_timers(Clock::now());
  }
  const int n = ::poll(fds_.data(), fds_.size(), wait_ms);
  // A signal that interrupts the wait is a pass with no events.
  if (n < 0 && errno != EINTR) return n;
  if (n <= 0) return fire_due_timers(Clock::now());

  dispatching_ = true;
  for (std::size_t i = 0; i < fds_.size(); ++i) {
    const short got = fds_[i].revents;
    if (got == 0) continue;
    // Re-find per dispatch (an earlier callback may have removed this fd)
    // and invoke through a COPY of the std::function: the callback may call
    // add(), reallocating entries_ and destroying the closure it is
    // executing from.
    Entry* e = find(owners_[i]);
    if (e == nullptr) continue;
    if ((got & (POLLIN | POLLERR | POLLHUP)) != 0 && e->handler.on_readable) {
      const std::function<void()> cb = e->handler.on_readable;
      cb();
    }
    e = find(owners_[i]);
    if (e == nullptr) continue;
    if ((got & POLLOUT) != 0 && e->handler.on_writable) {
      const std::function<void()> cb = e->handler.on_writable;
      cb();
    }
  }
  dispatching_ = false;
  compact();
  return n + fire_due_timers(Clock::now());
}

bool EventLoop::run_until(const std::function<bool()>& done, int max_ms) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(max_ms);
  while (!done()) {
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - std::chrono::steady_clock::now());
    if (left.count() <= 0) return false;
    const int step = static_cast<int>(std::min<long long>(left.count(), 50));
    if (poll_once(step) < 0) return false;
  }
  return true;
}

int tcp_listen(std::uint16_t port, std::string* err) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    fill_err(err, "socket");
    return -1;
  }
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_ANY);
  addr.sin_port = htons(port);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::listen(fd, 64) != 0 || !set_nonblocking(fd)) {
    fill_err(err, "bind/listen");
    ::close(fd);
    return -1;
  }
  return fd;
}

int tcp_connect(const std::string& host, std::uint16_t port,
                std::string* err) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    fill_err(err, "socket");
    return -1;
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    fill_err(err, "inet_pton");
    ::close(fd);
    return -1;
  }
  if (!set_nonblocking(fd)) {
    fill_err(err, "fcntl");
    ::close(fd);
    return -1;
  }
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 &&
      errno != EINPROGRESS) {
    fill_err(err, "connect");
    ::close(fd);
    return -1;
  }
  set_nodelay(fd);
  return fd;
}

int tcp_accept(int listen_fd) {
  const int fd = ::accept(listen_fd, nullptr, nullptr);
  if (fd < 0) return -1;
  if (!set_nonblocking(fd)) {
    ::close(fd);
    return -1;
  }
  set_nodelay(fd);
  return fd;
}

std::uint16_t local_port(int fd) {
  sockaddr_in addr{};
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    return 0;
  }
  return ntohs(addr.sin_port);
}

}  // namespace tribvote::net
