// Batched UDP datagram server: one non-blocking IPv4 socket on an EventLoop,
// draining with recvmmsg and answering with sendmmsg.
//
// Buffer ownership: all receive storage (mmsghdr/iovec arrays, one
// contiguous datagram buffer block, the source-address array) is allocated
// once at Bind() and reused for every batch — the steady-state receive path
// performs no allocation beyond copying each datagram into the Packet handed
// to the endpoint handler. The two large rings (the receive block and the
// fast lane's transmit slots) are reserved at Bind() as private anonymous
// mappings, each ended by a PROT_NONE guard page: a page becomes resident
// when it is first written, so a socket holds only the ring pages its
// largest burst touched, and a write past a ring faults in every build.
// Responses queue in a transmit ring and leave in sendmmsg batches: at
// batch-size boundaries, at the end of each receive batch (so a request
// batch's responses depart as one syscall), and on EPOLLOUT once the socket
// signals backpressure. A response is released as soon as the kernel
// accepts it; the queue holds only unsent ones.
//
// As a Transport: the server hosts ONE local endpoint (id 0) — the DNS
// server object — and manufactures remote endpoint ids (kRemoteEndpointBit
// set) for datagram sources. A remote id names a slot in a rotating
// source-address ring and stays valid until the ring wraps (kPeerSlots
// further datagrams), which the synchronous request/response pattern never
// outlives. Several UdpServers may Bind() the same port with
// `reuse_port` — the kernel then spreads flows across them (multi-worker
// SO_REUSEPORT serving).
#pragma once

#include <netinet/in.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "net/event_loop.h"
#include "net/transport.h"
#include "obs/counter_set.h"
#include "util/bytes.h"
#include "util/result.h"

struct mmsghdr;  // <sys/socket.h>

namespace rootless::net {

class UdpServer final : public Transport {
 public:
  struct Options {
    std::string bind_address = "127.0.0.1";
    std::uint16_t port = 0;  // 0 = kernel-assigned ephemeral port
    // Allow multiple sockets on the port (SO_REUSEPORT worker fleets).
    bool reuse_port = false;
    std::size_t batch = 64;        // datagrams per recvmmsg/sendmmsg (max)
    std::size_t rx_buffer = 4096;  // per-datagram receive capacity
    // UDP GSO/GRO (Linux ≥4.18): receive coalesced same-size datagram
    // trains in one ring entry (UDP_GRO) and transmit same-destination,
    // same-size response runs as one segmented send (UDP_SEGMENT cmsg) —
    // one kernel traversal per train instead of per datagram, which is
    // where a single-core loopback serving path spends ~90% of its cycles.
    // Probed at Bind(); silently degrades to plain datagrams when the
    // kernel refuses the socket options. Wire-transparent either way: the
    // peer sees ordinary UDP datagrams.
    bool segmentation_offload = true;
    obs::Registry* registry = nullptr;  // nullptr = process default
  };

  // Fast-lane hook, tried on each raw datagram before the Packet handler:
  // the callee may write a response straight into `out` (a preallocated
  // transmit-ring slot of `capacity` bytes) and return kResponded, decide
  // on silence (kDropped), or return kMiss with no side effects — the
  // datagram then takes the normal copy-into-Packet handler path. See
  // rootsrv::AuthServer::TryFastLane for the serving implementation.
  using FastHandler = std::function<FastVerdict(
      std::span<const std::uint8_t> datagram, std::uint64_t client,
      std::uint8_t* out, std::size_t capacity, std::size_t& out_size)>;

  // Creates the socket, binds, reserves the rings, registers on the loop
  // (kUnavailable when any step fails). The loop must outlive the server.
  static util::Result<std::unique_ptr<UdpServer>> Bind(EventLoop& loop,
                                                       Options options);
  ~UdpServer() override;

  std::uint16_t port() const { return port_; }
  int fd() const { return fd_; }

  // Transport: the first AddNode registers the serving endpoint (id 0);
  // every received datagram is delivered to it.
  EndpointId AddNode(ReceiveHandler handler) override;
  void SetHandler(EndpointId endpoint, ReceiveHandler handler) override;
  // `dst` must be a remote endpoint id previously seen as a packet source.
  void Send(EndpointId src, EndpointId dst, util::Bytes payload) override;

  // Installs (or clears, with nullptr) the zero-copy fast lane. When set,
  // each datagram is offered to the handler first; only misses pay the
  // Packet copy + full handler. Skipped automatically while the transmit
  // ring is out of slots or the queue is at its backpressure bound — the
  // slow path then provides the (counted) drop behaviour.
  void SetFastLane(FastHandler handler) { fast_handler_ = std::move(handler); }

  // Force out any queued responses (normally automatic).
  void Flush();

  // Responses waiting for the kernel: every queued entry is unsent, since
  // each flush drops the prefix the kernel accepted before it returns.
  std::size_t tx_queued() const { return tx_queue_.size(); }

 private:
  // A ring's bytes: one private anonymous mapping whose last byte abuts a
  // PROT_NONE guard page. Unmapped on destruction.
  class Ring {
   public:
    Ring() = default;
    Ring(const Ring&) = delete;
    Ring& operator=(const Ring&) = delete;
    ~Ring();
    // Reserves `size` bytes; writes none of them.
    util::Status Map(std::size_t size);
    std::uint8_t* data() const { return data_; }

   private:
    void* base_ = nullptr;
    std::size_t mapped_ = 0;  // whole mapping, guard page included
    std::uint8_t* data_ = nullptr;
  };

  UdpServer(EventLoop& loop, Options options);

  // Sizes every ring; called from Bind() after the GSO/GRO socket-option
  // probe (GRO entries need 64KB buffers, plain ones only rx_buffer). The
  // two large rings are reserved here and become resident page by page as
  // they are first written; InitRings writes none of their bytes.
  util::Status InitRings();

  void OnReadable();
  void OnWritable();
  void HandleEvents(std::uint32_t events);
  // Sends as much of the tx queue as the socket accepts; arms/disarms
  // EPOLLOUT as needed.
  void FlushTx();
  void UpdateInterest(bool want_writable);

  // Hands out the next free transmit-ring slot (nullptr when the ring or
  // the tx queue is full); CommitTxSlot turns it into a queued response.
  std::uint8_t* AcquireTxSlot();
  void CommitTxSlot(const sockaddr_in& addr, std::size_t size);

  EventLoop& loop_;
  Options options_;
  int fd_ = -1;
  std::uint16_t port_ = 0;
  ReceiveHandler handler_;
  bool handler_set_ = false;
  FastHandler fast_handler_;

  // Feeds one wire datagram (either a whole ring entry or one GRO segment)
  // through the fast lane and, on a miss, the Packet handler.
  void DeliverDatagram(const std::uint8_t* data, std::size_t size,
                       const sockaddr_in& src);

  // Rotating source-address ring backing remote endpoint ids.
  static constexpr std::size_t kPeerSlots = 1024;  // power of two
  std::vector<sockaddr_in> peers_;
  std::size_t next_peer_ = 0;

  // Receive rings (sized options_.batch at Bind).
  std::vector<struct ::mmsghdr> rx_msgs_;
  std::vector<struct ::iovec> rx_iovs_;
  std::vector<sockaddr_in> rx_addrs_;
  Ring rx_buffers_;         // batch × rx_buffer contiguous block
  util::Bytes rx_ctrl_;     // batch × kCtrlBytes cmsg space (UDP_GRO size)
  Packet rx_packet_;        // reused delivery packet (payload reassigned)
  bool gro_on_ = false;     // UDP_GRO accepted at Bind
  bool gso_on_ = false;     // UDP_SEGMENT accepted at Bind
  static constexpr std::size_t kCtrlBytes = 64;
  // Adaptive receive batch: recvmmsg asks for this many (≤ options_.batch).
  // Doubles when a batch comes back full, halves when one comes back nearly
  // empty — light load keeps the per-batch bookkeeping proportional to the
  // traffic, floods get the full ring.
  std::size_t rx_batch_now_ = 0;
  static constexpr std::size_t kMinRxBatch = 8;

  // Transmit queue + scatter arrays for sendmmsg. An entry either owns its
  // payload (slow path) or borrows a transmit-ring slot the fast lane wrote
  // in place (slot != kNoTxSlot; the ring byte block is tx_slots_).
  struct TxEntry {
    sockaddr_in addr;
    util::Bytes payload;
    std::uint32_t slot = kNoTxSlot;
    std::uint32_t len = 0;
    const std::uint8_t* data(const std::uint8_t* ring,
                             std::size_t slot_bytes) const {
      return slot == kNoTxSlot ? payload.data() : ring + slot * slot_bytes;
    }
    std::size_t size() const { return slot == kNoTxSlot ? payload.size() : len; }
  };
  static constexpr std::uint32_t kNoTxSlot = 0xFFFFFFFFu;
  // Queued responses per sendmmsg flush. batch without GSO; deeper with it,
  // because the size sort inside FlushTx builds longer trains from a larger
  // pending window (the whole window still leaves in one syscall round).
  std::size_t flush_threshold_ = 0;
  std::vector<TxEntry> tx_queue_;  // unsent responses only
  std::vector<struct ::mmsghdr> tx_msgs_;
  std::vector<struct ::iovec> tx_iovs_;
  bool want_writable_ = false;
  // Per-train control space for the UDP_SEGMENT cmsg (batch trains max).
  util::Bytes tx_ctrl_;
  // Entry count of each train built by the current FlushTx round.
  std::vector<std::uint32_t> train_sizes_;
  // Fast-lane transmit ring: tx_slot_count_ preallocated response buffers of
  // rx_buffer bytes each, managed as a free-list stack — the GSO flush path
  // reorders entries within a batch, so release order is arbitrary. The
  // stack hands out the most recently freed slot first, so the slots ever
  // written are as many as were once in flight together.
  Ring tx_slots_;
  std::size_t tx_slot_count_ = 0;
  std::size_t tx_slot_bytes_ = 0;
  std::vector<std::uint32_t> tx_free_slots_;
  // Backpressure bound: beyond this many unsent responses, new ones drop
  // (counted) — a full socket buffer must not grow the heap without bound.
  static constexpr std::size_t kMaxTxQueue = 4096;

#define ROOTLESS_UDP_COUNTERS(X) \
  X(rx_datagrams)                \
  X(tx_datagrams)                \
  X(rx_batches)                  \
  X(tx_batches)                  \
  X(bytes_in)                    \
  X(bytes_out)                   \
  X(dropped)
  ROOTLESS_COUNTER_SET(Stats, Counters, ROOTLESS_UDP_COUNTERS);
  Counters c_;  // module "net.udp"
  obs::Histogram batch_size_;
};

}  // namespace rootless::net
