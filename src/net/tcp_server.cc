#include "net/tcp_server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace rootless::net {

namespace {

util::Error Errno(const char* what) {
  return util::Error(ErrorCode::kUnavailable,
                     std::string(what) + ": " + std::strerror(errno));
}

// A frame may be at most 65535 bytes (2-byte length), so a connection's
// unparsed inbound buffer never legitimately exceeds prefix + max frame.
constexpr std::size_t kMaxRxBuffer = 2 + 0xFFFF;

}  // namespace

util::Result<std::unique_ptr<TcpServer>> TcpServer::Listen(EventLoop& loop,
                                                           Options options) {
  std::unique_ptr<TcpServer> server(new TcpServer(loop, options));

  const int fd =
      ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd < 0) return Errno("tcp socket");
  server->listen_fd_ = fd;

  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options.port);
  if (::inet_pton(AF_INET, options.bind_address.c_str(), &addr.sin_addr) !=
      1) {
    return util::Error(ErrorCode::kUnavailable,
                       "tcp bind: bad address " + options.bind_address);
  }
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    return Errno("tcp bind");
  }
  if (::listen(fd, options.backlog) != 0) return Errno("tcp listen");
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) != 0) {
    return Errno("tcp getsockname");
  }
  server->port_ = ntohs(bound.sin_port);

  auto status = loop.Add(fd, EPOLLIN, [s = server.get()](std::uint32_t) {
    s->OnAcceptable();
  });
  if (!status.ok()) return status.error();
  return server;
}

TcpServer::TcpServer(EventLoop& loop, Options options)
    : loop_(loop), options_(options) {
  c_.Register(options_.registry, "net.tcp");
}

TcpServer::~TcpServer() {
  for (std::size_t slot = 0; slot < conns_.size(); ++slot) {
    if (conns_[slot]) Close(slot);
  }
  if (listen_fd_ >= 0) {
    loop_.Remove(listen_fd_);
    ::close(listen_fd_);
  }
}

EndpointId TcpServer::AddNode(ReceiveHandler handler) {
  handler_ = std::move(handler);
  return 0;
}

void TcpServer::SetHandler(EndpointId endpoint, ReceiveHandler handler) {
  (void)endpoint;
  handler_ = std::move(handler);
}

void TcpServer::OnAcceptable() {
  for (;;) {
    const int fd = ::accept4(listen_fd_, nullptr, nullptr,
                             SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) break;  // EAGAIN: drained
    if (live_connections_ >= options_.max_connections) {
      ::close(fd);  // shed load
      continue;
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));

    std::size_t slot;
    if (!free_slots_.empty()) {
      slot = free_slots_.back();
      free_slots_.pop_back();
    } else {
      slot = conns_.size();
      conns_.push_back(nullptr);
    }
    auto conn = std::make_unique<Conn>();
    conn->fd = fd;
    conns_[slot] = std::move(conn);
    ++live_connections_;
    c_.accepted.Inc();
    auto status = loop_.Add(fd, EPOLLIN, [this, slot](std::uint32_t ev) {
      OnConnEvent(slot, ev);
    });
    if (!status.ok()) Close(slot);
  }
}

void TcpServer::OnConnEvent(std::size_t slot, std::uint32_t events) {
  if (!conns_[slot]) return;
  if (events & (EPOLLERR | EPOLLHUP)) {
    Close(slot);
    return;
  }
  if (events & EPOLLOUT) {
    if (!FlushConn(slot)) return;
  }
  if (events & EPOLLIN) OnConnReadable(slot);
}

void TcpServer::OnConnReadable(std::size_t slot) {
  Conn& conn = *conns_[slot];
  std::uint8_t chunk[16384];
  for (;;) {
    const ssize_t got = ::read(conn.fd, chunk, sizeof(chunk));
    if (got == 0) {  // orderly close
      Close(slot);
      return;
    }
    if (got < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      if (errno == EINTR) continue;
      Close(slot);
      return;
    }
    c_.bytes_in.Inc(static_cast<std::uint64_t>(got));
    conn.rx.insert(conn.rx.end(), chunk, chunk + got);
    if (conn.rx.size() > kMaxRxBuffer) {  // cannot happen with sane framing
      Close(slot);
      return;
    }
    if (static_cast<std::size_t>(got) < sizeof(chunk)) break;
  }

  // Deliver complete frames.
  std::size_t consumed = 0;
  while (conn.rx.size() - consumed >= 2) {
    const std::size_t frame_len = static_cast<std::size_t>(conn.rx[consumed])
                                      << 8 |
                                  conn.rx[consumed + 1];
    if (conn.rx.size() - consumed - 2 < frame_len) break;
    c_.messages_in.Inc();
    rx_packet_.src = kRemoteEndpointBit | static_cast<EndpointId>(slot);
    rx_packet_.dst = 0;
    const auto* base = conn.rx.data() + consumed + 2;
    rx_packet_.payload.assign(base, base + frame_len);
    consumed += 2 + frame_len;
    if (handler_) handler_(rx_packet_);
    // The handler may have closed this connection (e.g. a garbage frame).
    if (!conns_[slot] || conns_[slot]->fd < 0) return;
  }
  if (consumed > 0) conn.rx.erase(conn.rx.begin(), conn.rx.begin() + consumed);
}

void TcpServer::Send(EndpointId src, EndpointId dst, util::Bytes payload) {
  (void)src;
  Conn* conn = Lookup(dst);
  if (conn == nullptr || payload.size() > 0xFFFF) return;
  conn->tx.push_back(static_cast<std::uint8_t>(payload.size() >> 8));
  conn->tx.push_back(static_cast<std::uint8_t>(payload.size() & 0xFF));
  conn->tx.insert(conn->tx.end(), payload.begin(), payload.end());
  c_.messages_out.Inc();
  FlushConn((dst & ~kRemoteEndpointBit));
}

void TcpServer::CloseConnection(EndpointId id) {
  if (Lookup(id) != nullptr) Close(id & ~kRemoteEndpointBit);
}

bool TcpServer::FlushConn(std::size_t slot) {
  Conn& conn = *conns_[slot];
  while (conn.tx_head < conn.tx.size()) {
    const ssize_t sent = ::write(conn.fd, conn.tx.data() + conn.tx_head,
                                 conn.tx.size() - conn.tx_head);
    if (sent < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        if (!conn.want_writable) {
          conn.want_writable = true;
          loop_.Modify(conn.fd, EPOLLIN | EPOLLOUT);
        }
        return true;
      }
      if (errno == EINTR) continue;
      Close(slot);
      return false;
    }
    c_.bytes_out.Inc(static_cast<std::uint64_t>(sent));
    conn.tx_head += static_cast<std::size_t>(sent);
  }
  conn.tx.clear();
  conn.tx_head = 0;
  if (conn.want_writable) {
    conn.want_writable = false;
    loop_.Modify(conn.fd, EPOLLIN);
  }
  return true;
}

void TcpServer::Close(std::size_t slot) {
  Conn* conn = conns_[slot].get();
  if (conn == nullptr) return;
  loop_.Remove(conn->fd);
  ::close(conn->fd);
  conns_[slot].reset();
  free_slots_.push_back(slot);
  --live_connections_;
  c_.closed.Inc();
}

TcpServer::Conn* TcpServer::Lookup(EndpointId id) {
  if (!(id & kRemoteEndpointBit)) return nullptr;
  const std::size_t slot = id & ~kRemoteEndpointBit;
  if (slot >= conns_.size()) return nullptr;
  return conns_[slot].get();
}

}  // namespace rootless::net
