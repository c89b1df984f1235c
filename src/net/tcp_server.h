// TCP listener with RFC 1035 §4.2.2 framing: every DNS message on a
// connection is prefixed by a 2-byte big-endian length. Used for queries
// whose answers outgrow UDP (the client retries over TCP after a TC bit) and
// for AXFR zone transfer, where one query is answered by a *stream* of
// framed messages on the same connection.
//
// As a Transport: one local endpoint (id 0) receives every decoded frame;
// each accepted connection gets a remote endpoint id (kRemoteEndpointBit |
// slot) that stays valid until the connection closes. The handler may call
// Send() any number of times per received frame — each call frames one
// message onto the connection (this is what AXFR streaming rides on).
// Writes that outrun the socket buffer queue in a per-connection buffer and
// drain on EPOLLOUT.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "net/event_loop.h"
#include "net/transport.h"
#include "obs/counter_set.h"
#include "util/bytes.h"
#include "util/result.h"

namespace rootless::net {

class TcpServer final : public Transport {
 public:
  struct Options {
    std::string bind_address = "127.0.0.1";
    std::uint16_t port = 0;  // 0 = kernel-assigned ephemeral port
    int backlog = 64;
    std::size_t max_connections = 512;
    obs::Registry* registry = nullptr;  // nullptr = process default
  };

  static util::Result<std::unique_ptr<TcpServer>> Listen(EventLoop& loop,
                                                         Options options);
  ~TcpServer() override;

  std::uint16_t port() const { return port_; }
  std::size_t connection_count() const { return live_connections_; }

  // Transport: endpoint 0 is the message handler.
  EndpointId AddNode(ReceiveHandler handler) override;
  void SetHandler(EndpointId endpoint, ReceiveHandler handler) override;
  // `dst` must be a connection endpoint id; frames `payload` onto it.
  void Send(EndpointId src, EndpointId dst, util::Bytes payload) override;

  // Drops a connection (e.g. after an unparseable frame).
  void CloseConnection(EndpointId id);

 private:
  struct Conn {
    int fd = -1;
    util::Bytes rx;       // unparsed inbound bytes
    util::Bytes tx;       // unflushed framed outbound bytes
    std::size_t tx_head = 0;
    bool want_writable = false;
  };

  TcpServer(EventLoop& loop, Options options);

  void OnAcceptable();
  void OnConnEvent(std::size_t slot, std::uint32_t events);
  void OnConnReadable(std::size_t slot);
  // Writes what the socket accepts; arms EPOLLOUT on backpressure. Returns
  // false if the connection died.
  bool FlushConn(std::size_t slot);
  void Close(std::size_t slot);
  Conn* Lookup(EndpointId id);

  EventLoop& loop_;
  Options options_;
  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  ReceiveHandler handler_;
  std::vector<std::unique_ptr<Conn>> conns_;  // index = slot
  std::vector<std::size_t> free_slots_;
  std::size_t live_connections_ = 0;
  Packet rx_packet_;  // reused delivery packet

#define ROOTLESS_TCP_COUNTERS(X) \
  X(accepted)                    \
  X(closed)                      \
  X(messages_in)                 \
  X(messages_out)                \
  X(bytes_in)                    \
  X(bytes_out)
  ROOTLESS_COUNTER_SET(Stats, Counters, ROOTLESS_TCP_COUNTERS);
  Counters c_;  // module "net.tcp"
};

}  // namespace rootless::net
