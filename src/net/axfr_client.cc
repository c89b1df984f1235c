#include "net/axfr_client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <variant>

#include "distrib/axfr_stream.h"
#include "dns/message.h"
#include "util/bytes.h"

namespace rootless::net {

namespace {

using util::Error;

// Frames a transfer may take before the fetch gives up on it.
constexpr std::size_t kMaxFrames = std::size_t{1} << 20;

class Socket {
 public:
  explicit Socket(int fd) : fd_(fd) {}
  ~Socket() {
    if (fd_ >= 0) ::close(fd_);
  }
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;
  int get() const { return fd_; }

 private:
  int fd_;
};

util::Result<int> ConnectTcp(const std::string& host, std::uint16_t port,
                             int timeout_ms) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    return Error(ErrorCode::kUnavailable,
                 std::string("axfr socket: ") + std::strerror(errno));
  }
  timeval tv{};
  tv.tv_sec = timeout_ms / 1000;
  tv.tv_usec = (timeout_ms % 1000) * 1000;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return Error(ErrorCode::kUnavailable, "axfr: bad address " + host);
  }
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    const int err = errno;
    ::close(fd);
    return Error(err == EINPROGRESS || err == ETIMEDOUT
                     ? ErrorCode::kTimeout
                     : ErrorCode::kUnreachable,
                 std::string("axfr connect: ") + std::strerror(err));
  }
  return fd;
}

util::Status WriteAll(int fd, const std::uint8_t* data, std::size_t size) {
  std::size_t done = 0;
  while (done < size) {
    const ssize_t n = ::write(fd, data + done, size - done);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Error(errno == EAGAIN || errno == EWOULDBLOCK
                       ? ErrorCode::kTimeout
                       : ErrorCode::kUnreachable,
                   std::string("axfr write: ") + std::strerror(errno));
    }
    done += static_cast<std::size_t>(n);
  }
  return util::Status::Ok();
}

// Reads `size` bytes. A peer that closes first is a kProtocol error.
util::Status ReadAll(int fd, std::uint8_t* data, std::size_t size) {
  std::size_t done = 0;
  while (done < size) {
    const ssize_t n = ::read(fd, data + done, size - done);
    if (n == 0) {
      return Error(ErrorCode::kProtocol,
                   done == 0 ? "axfr: connection closed"
                             : "axfr: connection closed mid-frame");
    }
    if (n < 0) {
      if (errno == EINTR) continue;
      return Error(errno == EAGAIN || errno == EWOULDBLOCK
                       ? ErrorCode::kTimeout
                       : ErrorCode::kUnreachable,
                   std::string("axfr read: ") + std::strerror(errno));
    }
    done += static_cast<std::size_t>(n);
  }
  return util::Status::Ok();
}

util::Status SendFrame(int fd, const util::Bytes& payload) {
  std::uint8_t prefix[2] = {static_cast<std::uint8_t>(payload.size() >> 8),
                            static_cast<std::uint8_t>(payload.size() & 0xFF)};
  ROOTLESS_RETURN_IF_ERROR(WriteAll(fd, prefix, 2));
  return WriteAll(fd, payload.data(), payload.size());
}

// Reads one length-prefixed frame into `payload`, reusing its buffer.
util::Status RecvFrame(int fd, util::Bytes& payload) {
  std::uint8_t prefix[2];
  ROOTLESS_RETURN_IF_ERROR(ReadAll(fd, prefix, 2));
  payload.resize(static_cast<std::size_t>(prefix[0]) << 8 | prefix[1]);
  return ReadAll(fd, payload.data(), payload.size());
}

}  // namespace

util::Result<zone::SnapshotPtr> FetchZoneTcp(const std::string& host,
                                             std::uint16_t port,
                                             const AxfrFetchOptions& options) {
  auto fd = ConnectTcp(host, port, options.timeout_ms);
  if (!fd.ok()) return fd.error();
  Socket sock(*fd);
  util::Bytes frame;  // every frame of the fetch is read into this buffer

  // Serial probe: SOA query first; equal serial means nothing to move.
  if (options.have_serial != 0) {
    const dns::Message probe =
        dns::MakeQuery(0x50A, dns::Name(), dns::RRType::kSOA);
    ROOTLESS_RETURN_IF_ERROR(SendFrame(sock.get(), dns::EncodeMessage(probe)));
    ROOTLESS_RETURN_IF_ERROR(RecvFrame(sock.get(), frame));
    auto response = dns::DecodeMessage(frame);
    if (!response.ok()) return response.error();
    std::uint32_t serial = 0;
    bool found = false;
    for (const auto& rr : response->answers) {
      if (rr.type == dns::RRType::kSOA &&
          std::holds_alternative<dns::SoaData>(rr.rdata)) {
        serial = std::get<dns::SoaData>(rr.rdata).serial;
        found = true;
      }
    }
    if (!found) {
      return Error(ErrorCode::kProtocol, "axfr: SOA probe got no SOA");
    }
    if (serial == options.have_serial) return zone::SnapshotPtr{};
  }

  const dns::Message axfr =
      dns::MakeQuery(0xAFF, dns::Name(), dns::RRType::kAXFR);
  ROOTLESS_RETURN_IF_ERROR(SendFrame(sock.get(), dns::EncodeMessage(axfr)));

  // Feed each frame to the assembler as it arrives until the record stream
  // closes with the second SOA.
  distrib::AxfrStreamAssembler assembler;
  for (std::size_t frames = 0; !assembler.done(); ++frames) {
    if (frames == kMaxFrames) {
      return Error(ErrorCode::kProtocol, "axfr: unbounded stream");
    }
    ROOTLESS_RETURN_IF_ERROR(RecvFrame(sock.get(), frame));
    ROOTLESS_RETURN_IF_ERROR(assembler.Add(frame));
  }
  return assembler.Finish();
}

}  // namespace rootless::net
