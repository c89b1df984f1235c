// Socket front-end tests: the epoll event loop, and end-to-end parity — the
// byte streams served through real UDP/TCP sockets must be identical to what
// the same AuthServer configuration produces in the simulator, for the whole
// replay-shaped query corpus including malformed input and TC truncation —
// and the batched UDP server's own contracts: ring memory, the transmit
// queue under a stalled flush, and GRO train splitting.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/udp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "crypto/dnssec.h"
#include "distrib/axfr_stream.h"
#include "dns/message.h"
#include "net/axfr_client.h"
#include "net/event_loop.h"
#include "net/frontend.h"
#include "net/udp_server.h"
#include "obs/metrics.h"
#include "rootsrv/auth_server.h"
#include "sim/network.h"
#include "sim/simulator.h"
#include "util/rng.h"
#include "zone/evolution.h"
#include "zone/sign.h"
#include "zone/zone_snapshot.h"

namespace rootless::net {
namespace {

using dns::Name;
using dns::RRType;

Name N(std::string_view s) { return *Name::Parse(s); }

dns::Message WithOpt(dns::Message query, std::uint16_t payload) {
  query.additional.push_back({Name(), RRType::kOPT,
                              static_cast<dns::RRClass>(payload), 0,
                              dns::RawData{}});
  return query;
}

// A small signed root zone with one oversized delegation ("bigtld.", 30 NS +
// glue) whose referral is guaranteed past 512 bytes, so the corpus always
// exercises TC truncation.
zone::SnapshotPtr TestSnapshot(const util::CivilDate& date) {
  zone::EvolutionConfig config;
  config.legacy_tld_count = 80;
  config.peak_tld_count = 100;
  const zone::RootZoneModel model(config);
  zone::Zone root = model.Snapshot(date);
  for (int i = 0; i < 30; ++i) {
    const Name ns = N("ns" + std::to_string(i) + ".bigtld.");
    EXPECT_TRUE(root.AddRecord({N("bigtld."), RRType::kNS, dns::RRClass::kIN,
                                172800, dns::NsData{ns}})
                    .ok());
    EXPECT_TRUE(root.AddRecord({ns, RRType::kA, dns::RRClass::kIN, 172800,
                                dns::AData{*dns::Ipv4::Parse("198.51.100.9")}})
                    .ok());
  }
  util::Rng rng(0xD15EC);
  const crypto::SigningKey zsk = crypto::GenerateKey(crypto::kZskFlags, rng);
  return zone::ZoneSnapshot::Build(zone::SignZone(root, zsk, {0, 0xFFFFFFFF}));
}

// The exact AuthServer configuration the frontend gives its workers, with
// the answer cache off so parity also checks cached vs uncached serving.
rootsrv::AuthServer::Options ReferenceOptions(const FrontendOptions& fo) {
  rootsrv::AuthServer::Options options;
  options.include_dnssec = fo.include_dnssec;
  options.edns = fo.edns;
  options.respond_formerr_to_garbage = true;
  options.answer_cache_entries = 0;
  return options;
}

// Blocking loopback UDP client.
class UdpClient {
 public:
  explicit UdpClient(std::uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_DGRAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    ::connect(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr));
  }
  ~UdpClient() { ::close(fd_); }

  int fd() const { return fd_; }

  void Send(const util::Bytes& payload) {
    ::send(fd_, payload.data(), payload.size(), 0);
  }
  std::optional<util::Bytes> Recv(int timeout_ms) {
    timeval tv{timeout_ms / 1000, (timeout_ms % 1000) * 1000};
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    return Take(0);
  }
  // A datagram that has already arrived, without waiting.
  std::optional<util::Bytes> Poll() { return Take(MSG_DONTWAIT); }

 private:
  std::optional<util::Bytes> Take(int flags) {
    std::uint8_t buffer[8192];
    const ssize_t got = ::recv(fd_, buffer, sizeof(buffer), flags);
    if (got < 0) return std::nullopt;
    return util::Bytes(buffer, buffer + got);
  }

  int fd_ = -1;
};

// `message` with its 2-byte length prefix.
util::Bytes Frame(std::span<const std::uint8_t> message) {
  util::Bytes frame;
  frame.reserve(2 + message.size());
  frame.push_back(static_cast<std::uint8_t>(message.size() >> 8));
  frame.push_back(static_cast<std::uint8_t>(message.size() & 0xFF));
  frame.insert(frame.end(), message.begin(), message.end());
  return frame;
}

// Blocking stream-socket loops; false once the peer closes or errs.
bool SendAll(int fd, std::span<const std::uint8_t> bytes) {
  for (std::size_t off = 0; off < bytes.size();) {
    const ssize_t n =
        ::send(fd, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
    if (n <= 0) return false;
    off += static_cast<std::size_t>(n);
  }
  return true;
}

bool RecvAll(int fd, std::uint8_t* out, std::size_t len) {
  for (std::size_t off = 0; off < len;) {
    const ssize_t n = ::recv(fd, out + off, len - off, 0);
    if (n <= 0) return false;
    off += static_cast<std::size_t>(n);
  }
  return true;
}

// Blocking loopback TCP client speaking 2-byte length-prefixed DNS frames.
class TcpClient {
 public:
  explicit TcpClient(std::uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    timeval tv{5, 0};
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    connected_ =
        ::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) == 0;
  }
  ~TcpClient() { ::close(fd_); }

  bool connected() const { return connected_; }

  void SendFrame(const util::Bytes& payload) { SendAll(fd_, Frame(payload)); }

  std::optional<util::Bytes> RecvFrame() {
    std::uint8_t len_bytes[2];
    if (!RecvAll(fd_, len_bytes, 2)) return std::nullopt;
    const std::size_t len = static_cast<std::size_t>(len_bytes[0]) << 8 |
                            len_bytes[1];
    util::Bytes payload(len);
    if (len > 0 && !RecvAll(fd_, payload.data(), len)) return std::nullopt;
    return payload;
  }

 private:
  int fd_ = -1;
  bool connected_ = false;
};

TEST(EventLoop, DispatchesAndWakes) {
  EventLoop loop;
  ASSERT_TRUE(loop.ok());
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  int fired = 0;
  ASSERT_TRUE(loop.Add(fds[0], EPOLLIN, [&](std::uint32_t) { ++fired; }).ok());

  // Nothing readable: a zero-timeout poll dispatches nothing.
  loop.PollOnce(0);
  EXPECT_EQ(fired, 0);

  const char byte = 'x';
  ASSERT_EQ(::write(fds[1], &byte, 1), 1);
  loop.PollOnce(0);
  EXPECT_EQ(fired, 1);

  // Removal: further readiness is not dispatched.
  char drain;
  ASSERT_EQ(::read(fds[0], &drain, 1), 1);
  ASSERT_EQ(::write(fds[1], &byte, 1), 1);
  loop.Remove(fds[0]);
  loop.PollOnce(0);
  EXPECT_EQ(fired, 1);
  ::close(fds[0]);
  ::close(fds[1]);
}

TEST(EventLoop, StopWakesABlockedRun) {
  EventLoop loop;
  ASSERT_TRUE(loop.ok());
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  std::atomic<bool> entered{false};
  ASSERT_TRUE(loop.Add(fds[0], EPOLLIN,
                       [&](std::uint32_t) {
                         char c;
                         (void)::read(fds[0], &c, 1);
                         entered.store(true);
                       })
                  .ok());
  ASSERT_EQ(::write(fds[1], "x", 1), 1);
  std::thread runner([&] { loop.Run(); });
  // Wait until Run() is demonstrably inside its loop (it dispatched the
  // pipe), then Stop must wake the blocked epoll_wait via the eventfd.
  while (!entered.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  loop.Stop();
  runner.join();  // hangs (and times out the test) if the wake is broken
  ::close(fds[0]);
  ::close(fds[1]);
}

// The whole wire corpus, served over real sockets, must be byte-identical
// to the simulator path running the same AuthServer configuration.
TEST(NetParity, UdpMatchesSimulatorByteForByte) {
  const zone::SnapshotPtr snapshot = TestSnapshot({2019, 6, 7});
  FrontendOptions options;
  SnapshotSource source(snapshot);
  DnsFrontend frontend(source, options);
  ASSERT_TRUE(frontend.Start().ok());

  // Reference: same configuration, simulated transport, no answer cache.
  sim::Simulator sim;
  sim::Network simnet(sim, 9);
  rootsrv::AuthServer reference(&simnet, snapshot, ReferenceOptions(options));
  std::optional<util::Bytes> captured;
  const sim::NodeId sim_client = simnet.AddNode(
      [&](const sim::Datagram& d) { captured = d.payload; });
  auto reference_answer =
      [&](const util::Bytes& payload) -> std::optional<util::Bytes> {
    captured.reset();
    simnet.Send(sim_client, reference.node(), payload);
    sim.Run();
    return captured;
  };

  // Replay-shaped corpus: priming, apex DNSSEC material, delegations valid
  // and bogus at each EDNS tier, flag variants, the >512 referral without
  // EDNS (TC), protocol violations, and garbage.
  std::vector<util::Bytes> corpus;
  corpus.push_back(dns::EncodeMessage(WithOpt(
      dns::MakeQuery(0x100, Name(), RRType::kNS), 1232)));  // priming
  corpus.push_back(dns::EncodeMessage(WithOpt(
      dns::MakeQuery(0x101, Name(), RRType::kDNSKEY), 4096)));
  corpus.push_back(dns::EncodeMessage(dns::MakeQuery(0x102, Name(),
                                                     RRType::kSOA)));
  int id = 0x200;
  for (const char* tld : {"com.", "net.", "org."}) {
    for (const RRType type : {RRType::kNS, RRType::kDS, RRType::kA}) {
      corpus.push_back(dns::EncodeMessage(dns::MakeQuery(
          static_cast<std::uint16_t>(id++), N(std::string("www.") + tld),
          type)));
      for (const std::uint16_t payload : {512, 1232, 4096}) {
        corpus.push_back(dns::EncodeMessage(WithOpt(
            dns::MakeQuery(static_cast<std::uint16_t>(id++), N(tld), type),
            payload)));
      }
    }
  }
  corpus.push_back(dns::EncodeMessage(dns::MakeQuery(
      0x300, N("www.no-such-tld-zz."), RRType::kA)));  // NXDOMAIN
  corpus.push_back(dns::EncodeMessage(WithOpt(
      dns::MakeQuery(0x301, N("WWW.COM."), RRType::kA), 1232)));  // case echo
  auto rd_query = dns::MakeQuery(0x302, N("www.com."), RRType::kA);
  rd_query.header.rd = true;
  corpus.push_back(dns::EncodeMessage(rd_query));
  corpus.push_back(dns::EncodeMessage(dns::MakeQuery(
      0x303, N("www.bigtld."), RRType::kA)));  // >512, no EDNS: TC
  corpus.push_back(dns::EncodeMessage(dns::MakeQuery(
      0x304, Name(), RRType::kAXFR)));  // AXFR over UDP: REFUSED
  auto chaos = dns::MakeQuery(0x305, N("version.bind."), RRType::kTXT);
  chaos.questions.front().rrclass = dns::RRClass::kCH;
  corpus.push_back(dns::EncodeMessage(chaos));
  auto two_questions = dns::MakeQuery(0x306, N("a.com."), RRType::kA);
  two_questions.questions.push_back({N("b.com."), RRType::kA,
                                     dns::RRClass::kIN});
  corpus.push_back(dns::EncodeMessage(two_questions));
  // Undecodable garbage with a readable header: FORMERR comes back.
  util::Bytes garbage(24, 0x41);
  garbage[0] = 0x13;
  garbage[1] = 0x37;
  garbage[2] = 0x00;  // qr clear
  corpus.push_back(garbage);
  // Headerless runt and a response-flagged query: both silently dropped.
  corpus.push_back(util::Bytes{1, 2, 3});
  auto qr_set = dns::MakeQuery(0x307, N("www.com."), RRType::kA);
  qr_set.header.qr = true;
  corpus.push_back(dns::EncodeMessage(qr_set));

  UdpClient client(frontend.udp_port());
  std::size_t answered = 0;
  std::size_t silent = 0;
  bool saw_tc = false;
  for (std::size_t i = 0; i < corpus.size(); ++i) {
    const auto expected = reference_answer(corpus[i]);
    client.Send(corpus[i]);
    if (expected.has_value()) {
      const auto got = client.Recv(3000);
      ASSERT_TRUE(got.has_value()) << "corpus item " << i;
      EXPECT_EQ(*got, *expected) << "corpus item " << i;
      if (got->size() > 2 && ((*got)[2] & 0x02)) saw_tc = true;
      ++answered;
    } else {
      EXPECT_FALSE(client.Recv(150).has_value()) << "corpus item " << i;
      ++silent;
    }
  }
  EXPECT_EQ(silent, 2u);
  EXPECT_GT(answered, 30u);
  EXPECT_TRUE(saw_tc);  // the no-EDNS bigtld referral must have truncated
  frontend.Stop();
}

TEST(NetParity, TcpMatchesDirectAnswerWire) {
  const zone::SnapshotPtr snapshot = TestSnapshot({2019, 6, 7});
  FrontendOptions options;
  SnapshotSource source(snapshot);
  DnsFrontend frontend(source, options);
  ASSERT_TRUE(frontend.Start().ok());

  rootsrv::AuthServer reference(nullptr, snapshot,
                                ReferenceOptions(options));

  TcpClient client(frontend.tcp_port());
  ASSERT_TRUE(client.connected());
  const std::vector<dns::Message> corpus = {
      WithOpt(dns::MakeQuery(1, Name(), RRType::kNS), 1232),
      dns::MakeQuery(2, Name(), RRType::kDNSKEY),
      dns::MakeQuery(3, N("www.bigtld."), RRType::kA),  // big: no TC on TCP
      dns::MakeQuery(4, N("www.no-such-tld-zz."), RRType::kA),
  };
  for (const auto& query : corpus) {
    const auto expected =
        reference.AnswerWire(query, rootsrv::Channel::kTcp);
    client.SendFrame(dns::EncodeMessage(query));
    const auto got = client.RecvFrame();
    ASSERT_TRUE(got.has_value()) << query.header.id;
    EXPECT_EQ(*got, expected) << query.header.id;
    EXPECT_FALSE(got->size() > 2 && ((*got)[2] & 0x02));  // never TC
  }
  // Undecodable garbage over TCP draws the same FORMERR as over UDP.
  util::Bytes garbage(24, 0x41);
  garbage[0] = 0x13;
  garbage[1] = 0x37;
  garbage[2] = 0x00;
  client.SendFrame(garbage);
  const auto formerr = client.RecvFrame();
  ASSERT_TRUE(formerr.has_value());
  auto decoded = dns::DecodeMessage(*formerr);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->header.rcode, dns::RCode::kFormErr);
  EXPECT_EQ(decoded->header.id, 0x1337);
  frontend.Stop();
}

TEST(NetParity, AxfrTransfersTheExactZone) {
  const zone::SnapshotPtr snapshot = TestSnapshot({2019, 6, 7});
  SnapshotSource source(snapshot);
  DnsFrontend frontend(source, {});
  ASSERT_TRUE(frontend.Start().ok());

  auto fetched = FetchZoneTcp("127.0.0.1", frontend.tcp_port(), {});
  ASSERT_TRUE(fetched.ok()) << fetched.error().message();
  ASSERT_TRUE(*fetched);
  EXPECT_TRUE((*fetched)->SameContent(*snapshot));

  // Probing with the current serial reports "up to date" (null snapshot).
  const auto soa = (*fetched)->soa();
  ASSERT_TRUE(soa.has_value());
  AxfrFetchOptions probe;
  probe.have_serial = std::get<dns::SoaData>(dns::RdataRun::Decode(
                                                 dns::RRType::kSOA,
                                                 soa->rdatas.front()))
                          .serial;
  auto up_to_date = FetchZoneTcp("127.0.0.1", frontend.tcp_port(), probe);
  ASSERT_TRUE(up_to_date.ok());
  EXPECT_EQ(*up_to_date, nullptr);
  frontend.Stop();
}

// Only `. AXFR` of class IN with opcode QUERY transfers. An AXFR for another
// name, class or opcode draws one REFUSED message and no stream: a `. SOA`
// query sent next on the same connection is answered by the next frame.
TEST(NetParity, AxfrRefusesEveryOtherZone) {
  const zone::SnapshotPtr snapshot = TestSnapshot({2019, 6, 7});
  SnapshotSource source(snapshot);
  DnsFrontend frontend(source, {});
  ASSERT_TRUE(frontend.Start().ok());

  std::vector<dns::Message> refused = {
      dns::MakeQuery(0x11, N("com."), RRType::kAXFR),
      dns::MakeQuery(0x12, N("nonexistent-tld."), RRType::kAXFR),
      dns::MakeQuery(0x13, Name(), RRType::kAXFR),
      dns::MakeQuery(0x14, Name(), RRType::kAXFR)};
  refused[2].questions.front().rrclass = dns::RRClass::kCH;
  refused[3].header.opcode = dns::Opcode::kNotify;
  TcpClient client(frontend.tcp_port());
  ASSERT_TRUE(client.connected());
  for (const dns::Message& query : refused) {
    SCOPED_TRACE(query.header.id);
    client.SendFrame(dns::EncodeMessage(query));
    const auto frame = client.RecvFrame();
    ASSERT_TRUE(frame.has_value());
    const auto response = dns::DecodeMessage(*frame);
    ASSERT_TRUE(response.ok());
    EXPECT_EQ(response->header.id, query.header.id);
    EXPECT_EQ(response->header.rcode, dns::RCode::kRefused);
    EXPECT_EQ(response->questions, query.questions);
    EXPECT_EQ(response->record_count(), 0u);

    client.SendFrame(
        dns::EncodeMessage(dns::MakeQuery(0x99, Name(), RRType::kSOA)));
    const auto next = client.RecvFrame();
    ASSERT_TRUE(next.has_value());
    const auto soa = dns::DecodeMessage(*next);
    ASSERT_TRUE(soa.ok());
    EXPECT_EQ(soa->header.id, 0x99);
    EXPECT_EQ(soa->header.rcode, dns::RCode::kNoError);
  }

  auto fetched = FetchZoneTcp("127.0.0.1", frontend.tcp_port(), {});
  ASSERT_TRUE(fetched.ok()) << fetched.error().message();
  ASSERT_TRUE(*fetched);
  EXPECT_TRUE((*fetched)->SameContent(*snapshot));
  frontend.Stop();
}

// ---- FetchZoneTcp against hostile framing -------------------------------

// A loopback TCP peer for one FetchZoneTcp call: it accepts one connection,
// reads the client's query frame, writes `script` verbatim, and then closes
// — or, with `stall`, holds the connection open until the client gives up.
class ScriptedPeer {
 public:
  ScriptedPeer(util::Bytes script, bool stall) {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    timeval tv{5, 0};  // bounds accept and every read if the client is gone
    ::setsockopt(listen_fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    socklen_t len = sizeof(addr);
    if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
               sizeof(addr)) != 0 ||
        ::listen(listen_fd_, 1) != 0 ||
        ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len) !=
            0) {
      ADD_FAILURE() << "scripted peer: " << std::strerror(errno);
      return;
    }
    port_ = ntohs(addr.sin_port);
    thread_ = std::thread([this, script = std::move(script), stall] {
      const int fd = ::accept(listen_fd_, nullptr, nullptr);
      if (fd < 0) return;
      timeval conn_tv{5, 0};
      ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &conn_tv, sizeof(conn_tv));
      std::uint8_t prefix[2];
      if (RecvAll(fd, prefix, 2)) {
        util::Bytes query(static_cast<std::size_t>(prefix[0]) << 8 | prefix[1]);
        RecvAll(fd, query.data(), query.size());
      }
      SendAll(fd, script);
      if (stall) {
        std::uint8_t byte;
        while (::recv(fd, &byte, 1, 0) > 0) {
        }
      }
      ::close(fd);
    });
  }
  ~ScriptedPeer() {
    if (thread_.joinable()) thread_.join();
    ::close(listen_fd_);
  }
  ScriptedPeer(const ScriptedPeer&) = delete;
  ScriptedPeer& operator=(const ScriptedPeer&) = delete;

  std::uint16_t port() const { return port_; }

 private:
  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  std::thread thread_;
};

// The transfer of TestSnapshot, split into messages as a server sends it.
const std::vector<util::Bytes>& TestStream() {
  static const std::vector<util::Bytes> stream = distrib::BuildAxfrStream(
      *TestSnapshot({2019, 6, 7}),
      dns::MakeQuery(0xAFF, Name(), RRType::kAXFR));
  return stream;
}

util::Bytes Frames(std::span<const util::Bytes> messages) {
  util::Bytes out;
  for (const util::Bytes& message : messages) {
    const util::Bytes frame = Frame(message);
    out.insert(out.end(), frame.begin(), frame.end());
  }
  return out;
}

util::Result<zone::SnapshotPtr> FetchFromPeer(util::Bytes script,
                                              bool stall = false) {
  ScriptedPeer peer(std::move(script), stall);
  AxfrFetchOptions options;
  options.timeout_ms = stall ? 200 : 5000;
  return FetchZoneTcp("127.0.0.1", peer.port(), options);
}

void ExpectFetchError(const util::Result<zone::SnapshotPtr>& result,
                      ErrorCode code) {
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().code(), code) << result.error().message();
}

TEST(FetchZoneTcp, ScriptedPeerTransfersTheWholeStream) {
  ASSERT_GE(TestStream().size(), 3u);
  const auto result = FetchFromPeer(Frames(TestStream()));
  ASSERT_TRUE(result.ok()) << result.error().message();
  ASSERT_TRUE(*result);
  EXPECT_TRUE((*result)->SameContent(*TestSnapshot({2019, 6, 7})));
}

TEST(FetchZoneTcp, CloseInsideTheLengthPrefix) {
  ExpectFetchError(FetchFromPeer({0x01}), ErrorCode::kProtocol);
}

TEST(FetchZoneTcp, ZeroLengthFrame) {
  ExpectFetchError(FetchFromPeer({0x00, 0x00}), ErrorCode::kTruncated);
}

TEST(FetchZoneTcp, LengthPastWhatThePeerSends) {
  const util::Bytes& first = TestStream().front();
  util::Bytes script = Frame(first);
  script.resize(script.size() - 1);
  ExpectFetchError(FetchFromPeer(script), ErrorCode::kProtocol);
}

TEST(FetchZoneTcp, PeerStallsMidFrame) {
  const util::Bytes& first = TestStream().front();
  util::Bytes script = Frame(first);
  script.resize(2 + first.size() / 2);
  ExpectFetchError(FetchFromPeer(script, /*stall=*/true), ErrorCode::kTimeout);
}

TEST(FetchZoneTcp, StreamClosesBeforeTheClosingSoa) {
  const auto& stream = TestStream();
  ExpectFetchError(
      FetchFromPeer(Frames(std::span(stream).first(stream.size() - 1))),
      ErrorCode::kProtocol);
}

TEST(FetchZoneTcp, ErrorRcodeMidStream) {
  const auto& stream = TestStream();
  util::Bytes refused = stream[1];
  refused[3] = static_cast<std::uint8_t>(
      (refused[3] & 0xF0) | static_cast<std::uint8_t>(dns::RCode::kRefused));
  const util::Bytes head[] = {stream[0], refused};
  ExpectFetchError(FetchFromPeer(Frames(head)), ErrorCode::kProtocol);
}

TEST(NetParity, SnapshotSwapBecomesVisible) {
  const zone::SnapshotPtr day1 = TestSnapshot({2019, 6, 7});
  const zone::SnapshotPtr day2 = TestSnapshot({2019, 6, 8});
  SnapshotSource source(day1);
  DnsFrontend frontend(source, {});
  ASSERT_TRUE(frontend.Start().ok());

  auto serial_of = [](const util::Bytes& wire) -> std::uint32_t {
    auto decoded = dns::DecodeMessage(wire);
    if (!decoded.ok() || decoded->answers.empty()) return 0;
    return std::get<dns::SoaData>(decoded->answers.front().rdata).serial;
  };
  UdpClient client(frontend.udp_port());
  client.Send(dns::EncodeMessage(dns::MakeQuery(1, Name(), RRType::kSOA)));
  auto before = client.Recv(3000);
  ASSERT_TRUE(before.has_value());
  const std::uint32_t serial1 = serial_of(*before);
  ASSERT_NE(serial1, 0u);

  source.Publish(day2);
  // Workers poll the generation between epoll batches; give them a few
  // round trips to pick it up.
  std::uint32_t serial2 = serial1;
  for (int attempt = 0; attempt < 100 && serial2 == serial1; ++attempt) {
    client.Send(dns::EncodeMessage(dns::MakeQuery(
        static_cast<std::uint16_t>(2 + attempt), Name(), RRType::kSOA)));
    auto response = client.Recv(3000);
    ASSERT_TRUE(response.has_value());
    serial2 = serial_of(*response);
  }
  EXPECT_NE(serial2, serial1);
  frontend.Stop();
}

// Fast-lane fuzz parity: thousands of valid, mutated, and hostile datagrams
// against two identically configured frontends — fast lane on vs off. The
// contract is total equivalence: each datagram draws byte-identical
// responses or is silently dropped by both, and the pipeline/RRL counter
// deltas match exactly (the fast lane must charge the same counters the
// slow path would).
//
// Response-to-datagram matching: after each fuzz datagram a sentinel query
// with an id from a reserved range is sent, and the socket is drained until
// the sentinel's answer appears — anything that arrives first is the fuzz
// datagram's response. Segmentation offload is disabled on both frontends
// because the GSO flush sort may reorder responses within a batch, which
// would break this pairing.
TEST(FuzzParity, FastLaneMatchesSlowPathOnHostileCorpus) {
  const zone::SnapshotPtr snapshot = TestSnapshot({2019, 6, 7});

  FrontendOptions base;
  base.enable_tcp = false;
  // Plain datagrams, strict FIFO responses: the sentinel protocol below
  // depends on send-order delivery, which the GSO flush sort would break.
  base.segmentation_offload = false;
  // A real limiter that never trips: rrl_checked/admit accounting must still
  // advance identically on both paths.
  base.rrl = {.enabled = true, .rate = 1000000000, .burst = 0, .slip = 2,
              .buckets = 4096};
  FrontendOptions fast_options = base;
  fast_options.fast_lane = true;
  FrontendOptions slow_options = base;
  slow_options.fast_lane = false;

  SnapshotSource fast_source(snapshot);
  SnapshotSource slow_source(snapshot);
  DnsFrontend fast(fast_source, fast_options);
  DnsFrontend slow(slow_source, slow_options);
  ASSERT_TRUE(fast.Start().ok());
  ASSERT_TRUE(slow.Start().ok());

  // Sentinel: fixed valid query; ids live in 0xFF00+ which the corpus
  // generator never produces.
  std::uint16_t sentinel_id = 0xFF00;
  auto sentinel_wire = [&](std::uint16_t id) {
    return dns::EncodeMessage(dns::MakeQuery(id, N("www.com."), RRType::kA));
  };

  const std::vector<std::string> tlds = {"com.", "net.", "org.", "bigtld.",
                                         "no-such-tld-zz.", "a.", ""};
  const std::vector<RRType> types = {RRType::kA,  RRType::kNS,
                                     RRType::kDS, RRType::kDNSKEY,
                                     RRType::kSOA, RRType::kAXFR};
  util::Rng rng(0xF422);
  auto make_datagram = [&](std::uint16_t id) -> util::Bytes {
    const std::uint64_t shape = rng.Below(10);
    if (shape < 4) {  // valid query, maybe EDNS
      auto query = dns::MakeQuery(id, N(tlds[rng.Below(tlds.size())]),
                                  types[rng.Below(types.size())]);
      query.header.rd = rng.Below(2) == 0;
      if (rng.Below(2) == 0) {
        return dns::EncodeMessage(WithOpt(
            std::move(query),
            static_cast<std::uint16_t>(256 + rng.Below(4096))));
      }
      return dns::EncodeMessage(query);
    }
    if (shape < 7) {  // valid query with 1-3 random byte flips
      auto wire = dns::EncodeMessage(dns::MakeQuery(
          id, N("www." + tlds[rng.Below(3)]), types[rng.Below(types.size())]));
      const std::uint64_t flips = 1 + rng.Below(3);
      for (std::uint64_t f = 0; f < flips; ++f) {
        // Flip past the id so the response (if any) stays matchable.
        wire[2 + rng.Below(wire.size() - 2)] ^=
            static_cast<std::uint8_t>(1 + rng.Below(255));
      }
      return wire;
    }
    if (shape < 9) {  // structured protocol violations
      auto query = dns::MakeQuery(id, N("www.com."), RRType::kA);
      switch (rng.Below(5)) {
        case 0: query.header.qr = true; break;
        case 1: query.header.opcode = dns::Opcode::kNotify; break;
        case 2: query.questions.clear(); break;
        case 3: query.questions.push_back({N("b.com."), RRType::kA,
                                           dns::RRClass::kIN}); break;
        case 4: query.questions.front().rrclass = dns::RRClass::kCH; break;
      }
      util::Bytes wire = dns::EncodeMessage(query);
      if (rng.Below(3) == 0) wire.push_back(0x00);  // trailing junk
      return wire;
    }
    // Raw garbage, any length 0..63, id bytes forced when room allows.
    util::Bytes wire(rng.Below(64));
    for (auto& b : wire) b = static_cast<std::uint8_t>(rng.Below(256));
    if (wire.size() >= 2) {
      wire[0] = static_cast<std::uint8_t>(id >> 8);
      wire[1] = static_cast<std::uint8_t>(id);
    }
    return wire;
  };

  UdpClient fast_client(fast.udp_port());
  UdpClient slow_client(slow.udp_port());
  // One datagram through one server; returns its response (nullopt =
  // silently dropped), using the sentinel to bound the wait.
  auto probe = [&](UdpClient& client, const util::Bytes& datagram,
                   std::uint16_t sid) -> std::optional<util::Bytes> {
    const util::Bytes sentinel = sentinel_wire(sid);
    client.Send(datagram);
    client.Send(sentinel);
    std::optional<util::Bytes> answer;
    for (int rounds = 0; rounds < 4; ++rounds) {
      auto got = client.Recv(3000);
      if (!got.has_value()) break;  // lost sentinel: treat as silent
      if (got->size() >= 2 && (*got)[0] == sentinel[0] &&
          (*got)[1] == sentinel[1]) {
        return answer;
      }
      answer = std::move(got);
    }
    return answer;
  };

  constexpr int kCorpus = 2048;
  int answered = 0, silent = 0;
  for (int i = 0; i < kCorpus; ++i) {
    const auto id = static_cast<std::uint16_t>(i);  // < 0xFF00 always
    const util::Bytes datagram = make_datagram(id);
    const std::uint16_t sid = sentinel_id++;
    if (sentinel_id == 0) sentinel_id = 0xFF00;
    const auto from_fast = probe(fast_client, datagram, sid);
    const auto from_slow = probe(slow_client, datagram, sid);
    ASSERT_EQ(from_fast.has_value(), from_slow.has_value())
        << "corpus item " << i;
    if (from_fast.has_value()) {
      ASSERT_EQ(*from_fast, *from_slow) << "corpus item " << i;
      ++answered;
    } else {
      ++silent;
    }
  }
  EXPECT_GT(answered, kCorpus / 3);
  EXPECT_GT(silent, 0);

  fast.Stop();
  slow.Stop();

  // The lane must actually have engaged, and every per-stage counter the
  // two servers charged must agree — the fast lane's accounting is required
  // to be indistinguishable from the pipeline's.
  EXPECT_GT(fast.fast_lane_stats().hits, 0u);
  const rootsrv::PipelineStats fp = fast.pipeline_stats();
  const rootsrv::PipelineStats sp = slow.pipeline_stats();
  EXPECT_EQ(fp.screen_diverted, sp.screen_diverted);
  EXPECT_EQ(fp.rrl_checked, sp.rrl_checked);
  EXPECT_EQ(fp.rrl_dropped, sp.rrl_dropped);
  EXPECT_EQ(fp.rrl_slipped, sp.rrl_slipped);
  EXPECT_EQ(fp.cache_probes, sp.cache_probes);
  EXPECT_EQ(fp.cache_insertions, sp.cache_insertions);
  EXPECT_EQ(fp.cache_evictions, sp.cache_evictions);
  EXPECT_EQ(fp.snapshot_answers, sp.snapshot_answers);
  const rootsrv::AuthServerStats fs = fast.stats();
  const rootsrv::AuthServerStats ss = slow.stats();
  EXPECT_EQ(fs.queries, ss.queries);
  EXPECT_EQ(fs.malformed, ss.malformed);
  EXPECT_EQ(fs.refused, ss.refused);
  EXPECT_EQ(fs.truncated, ss.truncated);
  EXPECT_EQ(fs.edns_queries, ss.edns_queries);
  EXPECT_EQ(fs.cache_hits, ss.cache_hits);
  EXPECT_EQ(fs.bytes_in, ss.bytes_in);
  EXPECT_EQ(fs.bytes_out, ss.bytes_out);
  EXPECT_EQ(fast.rrl()->dropped(), slow.rrl()->dropped());
  EXPECT_EQ(fast.rrl()->slipped(), slow.rrl()->slipped());
}

TEST(NetParity, MultiWorkerReusePortServesEveryQuery) {
  const zone::SnapshotPtr snapshot = TestSnapshot({2019, 6, 7});
  SnapshotSource source(snapshot);
  FrontendOptions options;
  options.udp_workers = 2;
  options.enable_tcp = false;
  DnsFrontend frontend(source, options);
  ASSERT_TRUE(frontend.Start().ok());

  UdpClient client(frontend.udp_port());
  for (int i = 0; i < 200; ++i) {
    const auto query = dns::MakeQuery(static_cast<std::uint16_t>(i),
                                      N("www.com."), RRType::kA);
    client.Send(dns::EncodeMessage(query));
    const auto response = client.Recv(3000);
    ASSERT_TRUE(response.has_value()) << i;
    EXPECT_EQ((*response)[0], static_cast<std::uint8_t>(i >> 8)) << i;
    EXPECT_EQ((*response)[1], static_cast<std::uint8_t>(i & 0xFF)) << i;
  }
  frontend.Stop();
  EXPECT_EQ(frontend.stats().queries, 200u);
}

// A metric's total over every instance in `registry`: a counter's count, or
// the sum of the values a histogram recorded.
std::uint64_t MetricTotal(const obs::Registry& registry,
                          std::string_view name) {
  std::uint64_t total = 0;
  for (const obs::Sample& sample : registry.Snapshot()) {
    if (sample.name != name) continue;
    total += sample.kind == obs::Kind::kHistogram ? sample.hist->sum
                                                  : sample.counter;
  }
  return total;
}

// This process's resident set in KiB (VmRSS in /proc/self/status).
std::int64_t ResidentKiB() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmRSS:", 0) == 0) return std::stoll(line.substr(6));
  }
  return 0;
}

// A fast lane that answers every datagram with its own bytes.
FastVerdict Echo(std::span<const std::uint8_t> datagram, std::uint64_t,
                 std::uint8_t* out, std::size_t capacity,
                 std::size_t& out_size) {
  if (datagram.size() > capacity) return FastVerdict::kMiss;
  std::memcpy(out, datagram.data(), datagram.size());
  out_size = datagram.size();
  return FastVerdict::kResponded;
}

// A default Bind reserves a 4 MiB GRO receive ring and 8 MiB of transmit
// slots; none of it may be resident before a datagram arrives, or every
// worker of a multi-worker frontend pays ~12 MB up front.
TEST(UdpServer, BindLeavesTheRingsNonResident) {
  EventLoop loop;
  ASSERT_TRUE(loop.ok());
  obs::Registry registry;
  UdpServer::Options options;
  options.registry = &registry;
  constexpr int kServers = 8;
  std::vector<std::unique_ptr<UdpServer>> servers;
  const std::int64_t before = ResidentKiB();
  for (int i = 0; i < kServers; ++i) {
    auto bound = UdpServer::Bind(loop, options);
    ASSERT_TRUE(bound.ok()) << bound.error().message();
    servers.push_back(std::move(*bound));
  }
  const std::int64_t grown = ResidentKiB() - before;
  ASSERT_GT(before, 0);
  EXPECT_LT(grown, 8 * 1024) << "KiB resident after " << kServers << " binds";

  // Reserved, not missing: each server still answers through its rings.
  for (auto& server : servers) {
    server->SetFastLane(Echo);
    UdpClient client(server->port());
    const util::Bytes ping = {0xAB, 0xCD, 'p', 'i', 'n', 'g'};
    client.Send(ping);
    std::optional<util::Bytes> reply;
    for (int round = 0; round < 300 && !reply.has_value(); ++round) {
      loop.PollOnce(10);
      reply = client.Poll();
    }
    ASSERT_TRUE(reply.has_value()) << "port " << server->port();
    EXPECT_EQ(*reply, ping);
  }
}

// A ring the kernel cannot map fails Bind with a code instead of throwing:
// 64 receive entries of 2^48 bytes each are more than any address space.
TEST(UdpServer, UnmappableRingFailsBind) {
  EventLoop loop;
  ASSERT_TRUE(loop.ok());
  obs::Registry registry;
  UdpServer::Options options;
  options.registry = &registry;
  options.rx_buffer = std::size_t{1} << 48;
  auto bound = UdpServer::Bind(loop, options);
  ASSERT_FALSE(bound.ok());
  EXPECT_EQ(bound.error().code(), ErrorCode::kUnavailable);
}

// A guard page ends each ring, in every build: with one 100-byte receive
// entry (not a page multiple), reading one byte past a full datagram faults.
// The child exits 0 if it binds nothing or reads without a fault; ASan
// builds report the fault and exit nonzero instead of dying by the signal.
TEST(UdpServer, ReadingPastTheReceiveRingFaults) {
  const auto faulted = [](int status) {
    if (WIFSIGNALED(status)) return WTERMSIG(status) == SIGSEGV;
    return WIFEXITED(status) && WEXITSTATUS(status) != 0;
  };
  EXPECT_EXIT(
      {
        EventLoop loop;
        obs::Registry registry;
        UdpServer::Options options;
        options.registry = &registry;
        options.batch = 1;
        options.rx_buffer = 100;
        options.segmentation_offload = false;
        auto bound = UdpServer::Bind(loop, options);
        if (!bound.ok()) std::exit(0);
        volatile std::uint8_t sink = 0;
        (*bound)->SetFastLane([&sink](std::span<const std::uint8_t> datagram,
                                      std::uint64_t, std::uint8_t*,
                                      std::size_t, std::size_t&) {
          sink = datagram.data()[datagram.size()];
          return FastVerdict::kDropped;
        });
        UdpClient client((*bound)->port());
        client.Send(util::Bytes(100, 0x5A));
        for (int round = 0; round < 300; ++round) loop.PollOnce(10);
        std::exit(0);
      },
      faulted, "");
}

// A response leaves the transmit queue as soon as the kernel accepts it,
// also when a flush stops early. Loopback never tells a UDP sender EAGAIN
// (the kernel releases the send buffer at transmit), so the early stop here
// is a partial sendmmsg: every tenth answer is larger than a UDP datagram
// can be, sendmmsg sends what precedes it and stops there (EMSGSIZE), and
// the server drops it (counted) on a later flush, the last ones on EPOLLOUT.
TEST(UdpServer, SentResponsesLeaveTheQueueWhenAFlushStopsEarly) {
  EventLoop loop;
  ASSERT_TRUE(loop.ok());
  obs::Registry registry;
  UdpServer::Options options;
  options.registry = &registry;
  auto bound = UdpServer::Bind(loop, options);
  ASSERT_TRUE(bound.ok()) << bound.error().message();
  UdpServer& server = **bound;

  constexpr std::uint16_t kQueries = 200;
  constexpr std::uint16_t kOversizedEvery = 10;
  auto query = [](std::uint16_t id) {
    return util::Bytes{static_cast<std::uint8_t>(id >> 8),
                       static_cast<std::uint8_t>(id), 'q',
                       static_cast<std::uint8_t>(id * 7)};
  };
  auto id_of = [](const util::Bytes& wire) {
    return static_cast<std::uint16_t>(wire[0] << 8 | wire[1]);
  };
  std::uint64_t produced = 0;
  server.AddNode([&](const Packet& packet) {
    util::Bytes answer = packet.payload;
    if (id_of(answer) % kOversizedEvery == 0) answer.resize(70000);
    server.Send(0, packet.src, std::move(answer));
    ++produced;
  });

  UdpClient client(server.port());
  const int rcvbuf = 1 << 20;
  ::setsockopt(client.fd(), SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof(rcvbuf));
  // Every query is queued at the server before it reads any.
  for (std::uint16_t id = 0; id < kQueries; ++id) client.Send(query(id));

  const std::size_t expected = kQueries - kQueries / kOversizedEvery;
  std::vector<int> answers(kQueries, 0);
  std::size_t answered = 0;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while ((answered < expected || server.tx_queued() > 0) &&
         std::chrono::steady_clock::now() < deadline) {
    loop.PollOnce(0);
    // Whatever the server still holds is unsent: each answer is sent,
    // dropped (counted) or queued, never two of these.
    const std::uint64_t sent = MetricTotal(registry, "net.udp.tx_datagrams");
    const std::uint64_t dropped = MetricTotal(registry, "net.udp.dropped");
    ASSERT_EQ(server.tx_queued(), produced - sent - dropped)
        << "sent " << sent << ", dropped " << dropped;
    while (auto reply = client.Poll()) {
      ASSERT_GE(reply->size(), 2u);
      const std::uint16_t id = id_of(*reply);
      ASSERT_LT(id, kQueries);
      EXPECT_EQ(*reply, query(id));
      ++answers[id];
      ++answered;
    }
  }
  EXPECT_EQ(produced, kQueries);
  for (std::uint16_t id = 0; id < kQueries; ++id) {
    EXPECT_EQ(answers[id], id % kOversizedEvery == 0 ? 0 : 1) << "id " << id;
  }
  EXPECT_EQ(MetricTotal(registry, "net.udp.dropped"),
            kQueries / kOversizedEvery);
  EXPECT_EQ(server.tx_queued(), 0u);
}

// UDP GRO: one UDP_SEGMENT send of kSegments equal datagrams plus a shorter
// tail reaches the server as one ring entry spanning two pages, the receive
// path splits it by the cmsg's segment size, and the echo lane answers each
// datagram once and intact.
TEST(UdpServer, GroTrainSplitsIntoItsDatagrams) {
  const int probe = ::socket(AF_INET, SOCK_DGRAM, 0);
  const int one = 1;
  const bool gro =
      ::setsockopt(probe, SOL_UDP, UDP_GRO, &one, sizeof(one)) == 0;
  ::close(probe);
  if (!gro) GTEST_SKIP() << "kernel refuses UDP_GRO";

  EventLoop loop;
  ASSERT_TRUE(loop.ok());
  obs::Registry registry;
  UdpServer::Options options;
  options.registry = &registry;
  auto bound = UdpServer::Bind(loop, options);
  ASSERT_TRUE(bound.ok()) << bound.error().message();
  UdpServer& server = **bound;
  server.SetFastLane(Echo);

  constexpr std::size_t kSegments = 9;
  constexpr std::uint16_t kSegment = 700;
  constexpr std::size_t kTail = 300;  // 6600 bytes in all
  std::vector<util::Bytes> datagrams;
  util::Bytes train;
  for (std::size_t i = 0; i <= kSegments; ++i) {
    util::Bytes datagram(i < kSegments ? kSegment : kTail);
    for (std::size_t j = 0; j < datagram.size(); ++j) {
      datagram[j] = static_cast<std::uint8_t>(i * 31 + j);
    }
    datagram[0] = static_cast<std::uint8_t>(i);
    train.insert(train.end(), datagram.begin(), datagram.end());
    datagrams.push_back(std::move(datagram));
  }

  UdpClient client(server.port());
  alignas(cmsghdr) std::uint8_t control[CMSG_SPACE(sizeof(kSegment))] = {};
  iovec iov{train.data(), train.size()};
  msghdr msg{};
  msg.msg_iov = &iov;
  msg.msg_iovlen = 1;
  msg.msg_control = control;
  msg.msg_controllen = sizeof(control);
  cmsghdr* cm = CMSG_FIRSTHDR(&msg);
  cm->cmsg_level = SOL_UDP;
  cm->cmsg_type = UDP_SEGMENT;
  cm->cmsg_len = CMSG_LEN(sizeof(kSegment));
  std::memcpy(CMSG_DATA(cm), &kSegment, sizeof(kSegment));
  if (::sendmsg(client.fd(), &msg, 0) != static_cast<ssize_t>(train.size())) {
    GTEST_SKIP() << "kernel refuses UDP_SEGMENT: " << std::strerror(errno);
  }

  std::vector<int> seen(kSegments + 1, 0);
  std::size_t replies = 0;
  for (int round = 0; round < 300 && replies < kSegments + 1; ++round) {
    loop.PollOnce(10);
    while (auto reply = client.Poll()) {
      ASSERT_FALSE(reply->empty());
      const std::size_t i = (*reply)[0];
      ASSERT_LE(i, kSegments);
      EXPECT_EQ(*reply, datagrams[i]) << "datagram " << i;
      ++seen[i];
      ++replies;
    }
  }
  for (std::size_t i = 0; i <= kSegments; ++i) {
    EXPECT_EQ(seen[i], 1) << "datagram " << i;
  }
  EXPECT_EQ(MetricTotal(registry, "net.udp.rx_datagrams"), kSegments + 1);
  // The histogram records entries per recvmmsg, so its sum is ring entries.
  EXPECT_LT(MetricTotal(registry, "net.udp.rx_batch_size"), kSegments + 1);
}

}  // namespace
}  // namespace rootless::net
