#include "net/udp_server.h"

#include <arpa/inet.h>
#include <netinet/udp.h>
#include <sys/epoll.h>
#include <sys/mman.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

// Older libcs may lack the UDP GSO/GRO socket options; the kernel probe at
// Bind() is what actually decides.
#ifndef UDP_SEGMENT
#define UDP_SEGMENT 103
#endif
#ifndef UDP_GRO
#define UDP_GRO 104
#endif

namespace rootless::net {

namespace {

util::Error Errno(const char* what) {
  return util::Error(ErrorCode::kUnavailable,
                     std::string(what) + ": " + std::strerror(errno));
}

// Kernel bound on segments per GSO send (UDP_MAX_SEGMENTS is 64 on the
// oldest kernels that support GSO at all; newer allow more, 64 is safe).
constexpr std::size_t kMaxGsoSegments = 64;
// A GSO send is one UDP payload pre-segmentation: keep under 16 bits with
// headroom.
constexpr std::size_t kMaxGsoBytes = 60000;

// The UDP_GRO cmsg carries the segment size of a coalesced receive.
int GroSegmentSize(msghdr* hdr) {
  for (cmsghdr* c = CMSG_FIRSTHDR(hdr); c != nullptr; c = CMSG_NXTHDR(hdr, c)) {
    if (c->cmsg_level == SOL_UDP && c->cmsg_type == UDP_GRO) {
      int size = 0;
      std::memcpy(&size, CMSG_DATA(c), sizeof(size));
      return size;
    }
  }
  return 0;
}

bool SameDest(const sockaddr_in& a, const sockaddr_in& b) {
  return a.sin_addr.s_addr == b.sin_addr.s_addr && a.sin_port == b.sin_port;
}

}  // namespace

util::Result<std::unique_ptr<UdpServer>> UdpServer::Bind(EventLoop& loop,
                                                         Options options) {
  if (options.batch == 0) options.batch = 1;
  std::unique_ptr<UdpServer> server(new UdpServer(loop, options));

  const int fd = ::socket(AF_INET, SOCK_DGRAM | SOCK_NONBLOCK | SOCK_CLOEXEC,
                          0);
  if (fd < 0) return Errno("udp socket");
  server->fd_ = fd;

  if (options.reuse_port) {
    const int one = 1;
    if (::setsockopt(fd, SOL_SOCKET, SO_REUSEPORT, &one, sizeof(one)) != 0) {
      return Errno("udp SO_REUSEPORT");
    }
  }
  // Bigger kernel buffers absorb bursts while the loop is in a batch; best
  // effort, the default is fine functionally.
  const int bufsize = 1 << 20;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &bufsize, sizeof(bufsize));
  ::setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &bufsize, sizeof(bufsize));
  if (options.segmentation_offload) {
    // Probe rather than assume: UDP_SEGMENT 0 is "no socket-wide GSO" and
    // only succeeds when the kernel knows the option at all; UDP_GRO opts
    // this socket into coalesced delivery. Either may fail independently.
    const int zero = 0;
    server->gso_on_ =
        ::setsockopt(fd, SOL_UDP, UDP_SEGMENT, &zero, sizeof(zero)) == 0;
    const int one = 1;
    server->gro_on_ =
        ::setsockopt(fd, SOL_UDP, UDP_GRO, &one, sizeof(one)) == 0;
  }

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options.port);
  if (::inet_pton(AF_INET, options.bind_address.c_str(), &addr.sin_addr) !=
      1) {
    return util::Error(ErrorCode::kUnavailable,
                       "udp bind: bad address " + options.bind_address);
  }
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    return Errno("udp bind");
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) != 0) {
    return Errno("udp getsockname");
  }
  server->port_ = ntohs(bound.sin_port);

  ROOTLESS_RETURN_IF_ERROR(server->InitRings());
  auto status = loop.Add(
      fd, EPOLLIN, [s = server.get()](std::uint32_t ev) { s->HandleEvents(ev); });
  if (!status.ok()) return status.error();
  return server;
}

UdpServer::UdpServer(EventLoop& loop, Options options)
    : loop_(loop), options_(options) {
  obs::Registry& reg = obs::RegistryOrDefault(options_.registry);
  const obs::Labels labels = c_.Register(&reg, "net.udp");
  batch_size_ = reg.histogram("net.udp.rx_batch_size", labels);
}

UdpServer::Ring::~Ring() {
  if (base_ != nullptr) ::munmap(base_, mapped_);
}

util::Status UdpServer::Ring::Map(std::size_t size) {
  const auto page = static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
  const std::size_t span = (size + page - 1) / page * page;
  void* base = ::mmap(nullptr, span + page, PROT_READ | PROT_WRITE,
                      MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (base == MAP_FAILED) return Errno("udp ring mmap");
  base_ = base;
  mapped_ = span + page;
  auto* bytes = static_cast<std::uint8_t*>(base);
  if (::mprotect(bytes + span, page, PROT_NONE) != 0) {
    return Errno("udp ring guard page");
  }
  // End-aligned, so even a one-byte overrun lands on the guard page.
  data_ = bytes + (span - size);
  return util::Status::Ok();
}

util::Status UdpServer::InitRings() {
  const std::size_t batch = options_.batch;
  // A transmit-ring slot holds one UDP response, which the answer path caps
  // well below the plain receive buffer — size slots off the configured
  // value BEFORE any GRO inflation below, or the slot pool balloons 16×.
  tx_slot_bytes_ = options_.rx_buffer;
  // A GRO ring entry carries a whole coalesced train, up to the 64KB UDP
  // payload bound — undersized buffers would silently truncate trains.
  if (gro_on_) options_.rx_buffer = std::max<std::size_t>(options_.rx_buffer,
                                                          65536);
  // With GSO, responses leave as same-size same-destination trains; a
  // deeper flush threshold lets the size sort build longer trains (fewer
  // kernel traversals). Without it, batch-sized flushes bound latency.
  flush_threshold_ = gso_on_ ? std::max<std::size_t>(batch, 1024) : batch;
  peers_.resize(kPeerSlots);
  rx_msgs_.resize(batch);
  rx_iovs_.resize(batch);
  rx_addrs_.resize(batch);
  ROOTLESS_RETURN_IF_ERROR(rx_buffers_.Map(batch * options_.rx_buffer));
  rx_ctrl_.resize(batch * kCtrlBytes);
  for (std::size_t i = 0; i < batch; ++i) {
    rx_iovs_[i].iov_base = rx_buffers_.data() + i * options_.rx_buffer;
    rx_iovs_[i].iov_len = options_.rx_buffer;
    auto& hdr = rx_msgs_[i].msg_hdr;
    std::memset(&rx_msgs_[i], 0, sizeof(rx_msgs_[i]));
    hdr.msg_iov = &rx_iovs_[i];
    hdr.msg_iovlen = 1;
    hdr.msg_name = &rx_addrs_[i];
    hdr.msg_namelen = sizeof(sockaddr_in);
    hdr.msg_control = rx_ctrl_.data() + i * kCtrlBytes;
    hdr.msg_controllen = kCtrlBytes;
  }
  tx_msgs_.resize(flush_threshold_);
  tx_iovs_.resize(flush_threshold_);
  tx_ctrl_.resize(flush_threshold_ * kCtrlBytes);
  train_sizes_.reserve(flush_threshold_);
  // The scatter arrays are shaped once; FlushTx rewrites the per-train iov
  // span, destination, and control block.
  for (std::size_t i = 0; i < flush_threshold_; ++i) {
    std::memset(&tx_msgs_[i], 0, sizeof(tx_msgs_[i]));
    tx_msgs_[i].msg_hdr.msg_namelen = sizeof(sockaddr_in);
  }
  tx_queue_.reserve(flush_threshold_ * 2);
  rx_batch_now_ = std::min(kMinRxBatch, batch);
  tx_slot_count_ = flush_threshold_ * 2;
  ROOTLESS_RETURN_IF_ERROR(tx_slots_.Map(tx_slot_count_ * tx_slot_bytes_));
  tx_free_slots_.reserve(tx_slot_count_);
  for (std::size_t i = tx_slot_count_; i > 0; --i) {
    tx_free_slots_.push_back(static_cast<std::uint32_t>(i - 1));
  }
  return util::Status::Ok();
}

UdpServer::~UdpServer() {
  if (fd_ >= 0) {
    loop_.Remove(fd_);
    ::close(fd_);
  }
}

EndpointId UdpServer::AddNode(ReceiveHandler handler) {
  // One serving endpoint per socket; all received datagrams address it.
  handler_ = std::move(handler);
  handler_set_ = true;
  return 0;
}

void UdpServer::SetHandler(EndpointId endpoint, ReceiveHandler handler) {
  (void)endpoint;
  handler_ = std::move(handler);
  handler_set_ = true;
}

void UdpServer::HandleEvents(std::uint32_t events) {
  if (events & EPOLLOUT) OnWritable();
  if (events & EPOLLIN) OnReadable();
}

void UdpServer::DeliverDatagram(const std::uint8_t* data, std::size_t size,
                                const sockaddr_in& src) {
  c_.bytes_in.Inc(size);
  // The rate limiter needs the actual peer identity (address + port, so
  // NATed resolvers stay distinct).
  const std::uint64_t client =
      (static_cast<std::uint64_t>(src.sin_addr.s_addr) << 16) | src.sin_port;
  if (fast_handler_) {
    std::uint8_t* out = AcquireTxSlot();
    if (out != nullptr) {
      std::size_t out_size = 0;
      const FastVerdict verdict =
          fast_handler_(std::span<const std::uint8_t>(data, size), client, out,
                        tx_slot_bytes_, out_size);
      if (verdict == FastVerdict::kDropped) return;
      if (verdict == FastVerdict::kResponded) {
        CommitTxSlot(src, out_size);
        return;
      }
      // kMiss: nothing committed, the slot stays free — fall through to the
      // copy-into-Packet handler path below.
    }
  }
  const std::size_t slot = next_peer_;
  next_peer_ = (next_peer_ + 1) & (kPeerSlots - 1);
  peers_[slot] = src;
  rx_packet_.src = kRemoteEndpointBit | static_cast<EndpointId>(slot);
  rx_packet_.dst = 0;
  rx_packet_.client = client;
  rx_packet_.payload.assign(data, data + size);
  if (handler_set_ && handler_) handler_(rx_packet_);
}

void UdpServer::OnReadable() {
  for (;;) {
    const std::size_t asked = rx_batch_now_;
    const int n = ::recvmmsg(fd_, rx_msgs_.data(),
                             static_cast<unsigned>(asked), 0, nullptr);
    if (n <= 0) break;  // EAGAIN (or error): level-triggered epoll re-arms
    c_.rx_batches.Inc();
    batch_size_.Record(static_cast<std::uint64_t>(n));
    std::uint64_t datagrams = 0;
    for (int i = 0; i < n; ++i) {
      const std::size_t got = rx_msgs_[i].msg_len;
      // A GRO entry may be a coalesced train of equal-size datagrams from
      // one source (last possibly shorter); the cmsg carries the segment
      // size. Plain entries have no cmsg and segment == whole payload.
      // Datagrams larger than the receive buffer arrive truncated and would
      // parse as garbage; that is the desired hostile-input behaviour.
      std::size_t segment = got;
      if (gro_on_) {
        const int gro = GroSegmentSize(&rx_msgs_[i].msg_hdr);
        if (gro > 0) segment = static_cast<std::size_t>(gro);
      }
      if (segment == 0) segment = 1;  // zero-length datagram: deliver once
      const auto* base = static_cast<const std::uint8_t*>(rx_iovs_[i].iov_base);
      std::size_t off = 0;
      do {
        const std::size_t len = std::min(segment, got - off);
        DeliverDatagram(base + off, len, rx_addrs_[i]);
        ++datagrams;
        off += segment;
      } while (off < got);
      // Reset what the kernel clobbered for the next batch.
      rx_msgs_[i].msg_hdr.msg_namelen = sizeof(sockaddr_in);
      rx_msgs_[i].msg_hdr.msg_control = rx_ctrl_.data() + i * kCtrlBytes;
      rx_msgs_[i].msg_hdr.msg_controllen = kCtrlBytes;
      rx_msgs_[i].msg_hdr.msg_flags = 0;
    }
    c_.rx_datagrams.Inc(datagrams);
    // One response batch per request batch.
    FlushTx();
    // Adapt: a full batch means the socket queue is deep — ask for more next
    // round; a nearly empty one means we are ahead of the arrival rate.
    if (static_cast<std::size_t>(n) == asked) {
      rx_batch_now_ = std::min(asked * 2, options_.batch);
    } else {
      if (static_cast<std::size_t>(n) <= asked / 4) {
        rx_batch_now_ = std::max(asked / 2, std::min(kMinRxBatch, options_.batch));
      }
      break;  // short batch: the queue is drained
    }
  }
}

std::uint8_t* UdpServer::AcquireTxSlot() {
  if (tx_free_slots_.empty()) return nullptr;
  if (tx_queue_.size() >= kMaxTxQueue) return nullptr;
  return tx_slots_.data() + tx_free_slots_.back() * tx_slot_bytes_;
}

void UdpServer::CommitTxSlot(const sockaddr_in& addr, std::size_t size) {
  const std::uint32_t slot = tx_free_slots_.back();
  tx_free_slots_.pop_back();
  tx_queue_.push_back(TxEntry{addr, {}, slot, static_cast<std::uint32_t>(size)});
  if (tx_queue_.size() >= flush_threshold_) FlushTx();
}

void UdpServer::Send(EndpointId src, EndpointId dst, util::Bytes payload) {
  (void)src;
  if (!(dst & kRemoteEndpointBit)) return;  // only remote peers are sendable
  if (tx_queue_.size() >= kMaxTxQueue) {
    c_.dropped.Inc();
    return;
  }
  const std::size_t slot = (dst & ~kRemoteEndpointBit) & (kPeerSlots - 1);
  tx_queue_.push_back(TxEntry{peers_[slot], std::move(payload), kNoTxSlot, 0});
  if (tx_queue_.size() >= flush_threshold_) FlushTx();
}

void UdpServer::Flush() { FlushTx(); }

void UdpServer::OnWritable() { FlushTx(); }

void UdpServer::FlushTx() {
  // Frees what an entry holds once the kernel has taken (or refused) it.
  const auto release = [this](TxEntry& e) {
    if (e.slot != kNoTxSlot) {
      tx_free_slots_.push_back(e.slot);
    } else {
      e.payload = util::Bytes();
    }
  };
  std::size_t head = 0;  // prefix of tx_queue_ already sent or dropped
  bool blocked = false;
  while (head < tx_queue_.size()) {
    const std::size_t pending =
        std::min(tx_queue_.size() - head, flush_threshold_);
    auto* entries = tx_queue_.data() + head;
    if (gso_on_ && pending > 1) {
      // Group the batch into GSO trains: runs of equal-size responses to
      // one destination leave as a single segmented send. UDP promises no
      // ordering, so sorting the batch to lengthen the runs is free — and
      // it is what turns a replay-shaped response stream (sizes interleaved
      // per query) into a handful of kernel traversals.
      std::stable_sort(entries, entries + pending,
                       [](const TxEntry& a, const TxEntry& b) {
                         if (a.addr.sin_addr.s_addr != b.addr.sin_addr.s_addr)
                           return a.addr.sin_addr.s_addr < b.addr.sin_addr.s_addr;
                         if (a.addr.sin_port != b.addr.sin_port)
                           return a.addr.sin_port < b.addr.sin_port;
                         return a.size() < b.size();
                       });
    }
    // Build one msghdr per train (a train of 1 is a plain datagram).
    train_sizes_.clear();
    std::size_t trains = 0;
    std::size_t i = 0;
    while (i < pending) {
      const std::size_t seg = entries[i].size();
      std::size_t run = 1;
      if (gso_on_ && seg > 0) {
        while (i + run < pending && run < kMaxGsoSegments &&
               (run + 1) * seg <= kMaxGsoBytes &&
               entries[i + run].size() == seg &&
               SameDest(entries[i + run].addr, entries[i].addr)) {
          ++run;
        }
      }
      for (std::size_t k = 0; k < run; ++k) {
        TxEntry& e = entries[i + k];
        tx_iovs_[i + k].iov_base =
            const_cast<std::uint8_t*>(e.data(tx_slots_.data(), tx_slot_bytes_));
        tx_iovs_[i + k].iov_len = e.size();
      }
      msghdr& hdr = tx_msgs_[trains].msg_hdr;
      hdr.msg_iov = &tx_iovs_[i];
      hdr.msg_iovlen = run;
      hdr.msg_name = &entries[i].addr;
      hdr.msg_namelen = sizeof(sockaddr_in);
      if (run > 1) {
        auto* ctrl = tx_ctrl_.data() + trains * kCtrlBytes;
        hdr.msg_control = ctrl;
        hdr.msg_controllen = CMSG_SPACE(sizeof(std::uint16_t));
        auto* cm = reinterpret_cast<cmsghdr*>(ctrl);
        cm->cmsg_level = SOL_UDP;
        cm->cmsg_type = UDP_SEGMENT;
        cm->cmsg_len = CMSG_LEN(sizeof(std::uint16_t));
        const auto seg16 = static_cast<std::uint16_t>(seg);
        std::memcpy(CMSG_DATA(cm), &seg16, sizeof(seg16));
      } else {
        hdr.msg_control = nullptr;
        hdr.msg_controllen = 0;
      }
      train_sizes_.push_back(static_cast<std::uint32_t>(run));
      ++trains;
      i += run;
    }

    const int sent = ::sendmmsg(fd_, tx_msgs_.data(),
                                static_cast<unsigned>(trains), 0);
    if (sent < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK || errno == ENOBUFS) {
        blocked = true;
        break;
      }
      // Hard error (e.g. ICMP-reported unreachable peer): drop the head
      // train and keep going.
      const std::size_t run = train_sizes_.empty() ? 1 : train_sizes_[0];
      for (std::size_t k = 0; k < run; ++k) {
        c_.dropped.Inc();
        release(tx_queue_[head + k]);
      }
      head += run;
      continue;
    }
    c_.tx_batches.Inc();
    for (int t = 0; t < sent; ++t) {
      const std::size_t run = train_sizes_[static_cast<std::size_t>(t)];
      for (std::size_t k = 0; k < run; ++k) {
        TxEntry& e = tx_queue_[head + k];
        c_.bytes_out.Inc(e.size());
        release(e);
      }
      c_.tx_datagrams.Inc(run);
      head += run;
    }
    if (sent < static_cast<int>(trains)) {
      blocked = true;
      break;
    }
  }
  // Keep only the unsent tail: a socket that stays backed up must not hold
  // on to the responses it already sent.
  tx_queue_.erase(tx_queue_.begin(),
                  tx_queue_.begin() + static_cast<std::ptrdiff_t>(head));
  UpdateInterest(blocked);
}

void UdpServer::UpdateInterest(bool want_writable) {
  if (want_writable == want_writable_) return;
  want_writable_ = want_writable;
  loop_.Modify(fd_, want_writable ? (EPOLLIN | EPOLLOUT) : EPOLLIN);
}

}  // namespace rootless::net
