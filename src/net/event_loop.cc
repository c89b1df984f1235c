#include "net/event_loop.h"

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace rootless::net {

namespace {
constexpr std::size_t kEventBatch = 64;
}  // namespace

EventLoop::EventLoop() {
  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  wake_fd_ = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  if (epoll_fd_ < 0 || wake_fd_ < 0) return;
  events_.resize(kEventBatch);
  struct epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = wake_fd_;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev);
}

EventLoop::~EventLoop() {
  if (wake_fd_ >= 0) ::close(wake_fd_);
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
}

util::Status EventLoop::Add(int fd, std::uint32_t events, FdHandler handler) {
  struct epoll_event ev{};
  ev.events = events;
  ev.data.fd = fd;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
    return util::Error(ErrorCode::kUnavailable,
                       std::string("epoll_ctl add: ") + std::strerror(errno));
  }
  handlers_[fd] = std::move(handler);
  return util::Status::Ok();
}

util::Status EventLoop::Modify(int fd, std::uint32_t events) {
  struct epoll_event ev{};
  ev.events = events;
  ev.data.fd = fd;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, fd, &ev) != 0) {
    return util::Error(ErrorCode::kUnavailable,
                       std::string("epoll_ctl mod: ") + std::strerror(errno));
  }
  return util::Status::Ok();
}

void EventLoop::Remove(int fd) {
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
  handlers_.erase(fd);
}

void EventLoop::DrainWake() {
  std::uint64_t value = 0;
  while (::read(wake_fd_, &value, sizeof(value)) > 0) {
  }
}

int EventLoop::PollOnce(int timeout_ms) {
  const int n = ::epoll_wait(epoll_fd_, events_.data(),
                             static_cast<int>(events_.size()), timeout_ms);
  if (n < 0) return errno == EINTR ? 0 : -1;
  int dispatched = 0;
  for (int i = 0; i < n; ++i) {
    const int fd = events_[i].data.fd;
    if (fd == wake_fd_) {
      DrainWake();
      continue;
    }
    // Look up per event: a handler earlier in the batch may have removed
    // this fd.
    auto it = handlers_.find(fd);
    if (it == handlers_.end()) continue;
    it->second(events_[i].events);
    ++dispatched;
  }
  return dispatched;
}

void EventLoop::Wake() {
  const std::uint64_t one = 1;
  [[maybe_unused]] ssize_t n = ::write(wake_fd_, &one, sizeof(one));
}

}  // namespace rootless::net
