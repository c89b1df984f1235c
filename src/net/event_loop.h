// Minimal non-blocking epoll event loop.
//
// One loop per serving thread: fds register a handler for readiness events,
// PollOnce() waits (epoll_wait, level-triggered) and dispatches one batch,
// Run() loops until Stop(). Stop() is the only cross-thread entry point (it
// wakes a blocked wait via an eventfd); everything else — Add/Modify/Remove,
// the handlers — runs on the polling thread, which is what keeps the servers
// lock-free.
//
// Handlers may Add/Remove fds (including their own) during dispatch: the
// loop re-checks registration per event, so a handler that tears down a
// sibling fd mid-batch just causes the sibling's stale event to be skipped.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "util/result.h"

struct epoll_event;  // <sys/epoll.h> stays out of the header

namespace rootless::net {

class EventLoop {
 public:
  // `events` is the epoll event mask (EPOLLIN | EPOLLOUT | ...).
  using FdHandler = std::function<void(std::uint32_t events)>;

  EventLoop();
  ~EventLoop();
  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  // Heap-allocated loop, for owners that keep it behind a pointer.
  static std::unique_ptr<EventLoop> Create() {
    return std::make_unique<EventLoop>();
  }

  // False if the epoll or eventfd descriptor could not be created.
  bool ok() const { return epoll_fd_ >= 0 && wake_fd_ >= 0; }

  // Registers `fd` for `events`; the handler fires with the ready mask.
  // The caller keeps ownership of the fd.
  util::Status Add(int fd, std::uint32_t events, FdHandler handler);
  // Changes the interest mask of a registered fd.
  util::Status Modify(int fd, std::uint32_t events);
  // Unregisters; pending events for the fd in the current batch are skipped.
  void Remove(int fd);

  // Waits up to `timeout_ms` (-1 = forever) and dispatches one batch.
  // Returns the number of events dispatched (0 on timeout), -1 on error.
  int PollOnce(int timeout_ms);

  std::size_t fd_count() const { return handlers_.size(); }

  // Dispatches until Stop(). Equivalent to `while (!stopped) PollOnce(-1)`.
  void Run() {
    stop_.store(false, std::memory_order_relaxed);
    while (!stop_.load(std::memory_order_relaxed)) {
      if (PollOnce(-1) < 0) break;
    }
  }

  // Thread-safe: wakes a blocked PollOnce and makes Run() return. The next
  // Run() call serves again (the flag resets on entry).
  void Stop() {
    stop_.store(true, std::memory_order_relaxed);
    Wake();
  }

 private:
  void Wake();
  void DrainWake();

  std::atomic<bool> stop_{false};
  int epoll_fd_ = -1;
  int wake_fd_ = -1;
  std::unordered_map<int, FdHandler> handlers_;
  std::vector<struct ::epoll_event> events_;  // dispatch scratch
};

}  // namespace rootless::net
