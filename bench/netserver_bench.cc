// Socket front-end throughput: loopback UDP qps through the epoll +
// recvmmsg/sendmmsg server (net::DnsFrontend) over the signed model root
// zone, single worker and a multi-worker SO_REUSEPORT fleet, plus one
// AXFR-over-TCP transfer timing. The replay qps from BENCH_hotpath.json is
// read back as the no-sockets reference, so the report shows what fraction
// of the in-process AnswerWire rate survives a real kernel round trip.
//
// The client runs in-process on a connected non-blocking UDP socket. When
// the kernel supports UDP GSO/GRO (Linux >= 4.18) it pipelines pre-built
// trains of equal-size queries — one sendmsg with a UDP_SEGMENT cmsg per
// train, one recvmsg per coalesced response train — matching the offload
// the server side uses; otherwise it degrades to one datagram per send.
// On a single-core container, client and server share the CPU, so the
// printed qps is a conservative lower bound.
//
// Per-query latency is sampled by stamping each DNS id at send time and
// matching ids on receive (ids are unique across the query set, and the
// in-flight window stays below the set size, so an id is never reused
// while outstanding). The p50/p99 include client-side queueing across the
// pipelining window — they measure the served system, not a single lonely
// round trip.
//
// Usage: netserver_bench [--out FILE.json] [--baseline OLD.json]
//                        [--duration MS] [--workers N]
// --out defaults to netserver_bench.bench.json (git-ignored); the
// bench_netserver target passes the committed BENCH_netserver.json.

#include <poll.h>
#include <sys/socket.h>
#include <netinet/in.h>
#include <netinet/udp.h>
#include <arpa/inet.h>
#include <unistd.h>

#include <cctype>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "crypto/dnssec.h"
#include "dns/message.h"
#include "net/axfr_client.h"
#include "net/frontend.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "util/rng.h"
#include "zone/evolution.h"
#include "zone/sign.h"
#include "zone/zone_snapshot.h"

#ifndef UDP_SEGMENT
#define UDP_SEGMENT 103
#endif
#ifndef UDP_GRO
#define UDP_GRO 104
#endif

using namespace rootless;
using Clock = std::chrono::steady_clock;

namespace {

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct BlastResult {
  double qps = 0;
  std::uint64_t sent = 0;
  std::uint64_t received = 0;
  std::uint64_t dropped = 0;  // sent datagrams that never came back
  std::uint64_t p50_us = 0;
  std::uint64_t p99_us = 0;
};

// A pre-built GSO send: `count` equal-size queries concatenated, leaving the
// socket as one syscall and `count` wire datagrams.
struct Train {
  util::Bytes wire;
  std::uint16_t seg = 0;
  std::vector<std::uint16_t> ids;
};

std::vector<Train> BuildTrains(const std::vector<util::Bytes>& queries,
                               std::size_t max_segments) {
  std::map<std::size_t, std::vector<const util::Bytes*>> by_size;
  for (const auto& q : queries) by_size[q.size()].push_back(&q);
  std::vector<Train> trains;
  for (const auto& [size, group] : by_size) {
    for (std::size_t i = 0; i < group.size();) {
      const std::size_t n = std::min(max_segments, group.size() - i);
      Train t;
      t.seg = static_cast<std::uint16_t>(size);
      t.wire.reserve(size * n);
      for (std::size_t k = 0; k < n; ++k) {
        const util::Bytes& q = *group[i + k];
        t.wire.insert(t.wire.end(), q.begin(), q.end());
        t.ids.push_back(static_cast<std::uint16_t>((q[0] << 8) | q[1]));
      }
      trains.push_back(std::move(t));
      i += n;
    }
  }
  return trains;
}

// Pipelined loopback query storm against `port` for `duration_ms`.
BlastResult Blast(std::uint16_t port, const std::vector<util::Bytes>& queries,
                  int duration_ms) {
  constexpr std::size_t kWindow = 1400;  // in-flight datagrams (< query count)
  constexpr std::size_t kRxBatch = 8;
  constexpr std::size_t kRxBuffer = 65536;  // GRO trains are up to 64KB
  BlastResult result;

  const int fd = ::socket(AF_INET, SOCK_DGRAM | SOCK_NONBLOCK, 0);
  if (fd < 0) return result;
  const int bufsize = 1 << 20;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &bufsize, sizeof(bufsize));
  ::setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &bufsize, sizeof(bufsize));
  const int zero = 0;
  const bool gso_on =
      ::setsockopt(fd, SOL_UDP, UDP_SEGMENT, &zero, sizeof(zero)) == 0;
  const int one = 1;
  const bool gro_on = ::setsockopt(fd, SOL_UDP, UDP_GRO, &one, sizeof(one)) == 0;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    ::close(fd);
    return result;
  }

  // Without GSO every "train" must be a single datagram (a concatenated
  // train would leave the socket as one oversized datagram).
  const std::vector<Train> trains =
      BuildTrains(queries, gso_on ? std::size_t{64} : std::size_t{1});

  std::vector<mmsghdr> rx_msgs(kRxBatch);
  std::vector<iovec> rx_iovs(kRxBatch);
  std::vector<std::uint8_t> rx_buffers(kRxBatch * kRxBuffer);
  std::vector<std::uint8_t> rx_ctrl(kRxBatch * 64);
  for (std::size_t i = 0; i < kRxBatch; ++i) {
    rx_iovs[i].iov_base = rx_buffers.data() + i * kRxBuffer;
    rx_iovs[i].iov_len = kRxBuffer;
    std::memset(&rx_msgs[i], 0, sizeof(rx_msgs[i]));
    rx_msgs[i].msg_hdr.msg_iov = &rx_iovs[i];
    rx_msgs[i].msg_hdr.msg_iovlen = 1;
  }

  std::vector<Clock::time_point> send_ts(65536);
  obs::HistogramData latency;
  std::size_t next_train = 0;
  std::size_t inflight = 0;
  const auto start = Clock::now();
  const auto deadline = start + std::chrono::milliseconds(duration_ms);
  while (Clock::now() < deadline) {
    // Fill the window train by train.
    while (inflight + trains[next_train].ids.size() <= kWindow) {
      const Train& t = trains[next_train];
      msghdr mh{};
      iovec iov{const_cast<std::uint8_t*>(t.wire.data()), t.wire.size()};
      mh.msg_iov = &iov;
      mh.msg_iovlen = 1;
      alignas(cmsghdr) char ctrl[CMSG_SPACE(sizeof(std::uint16_t))] = {};
      if (t.ids.size() > 1) {
        mh.msg_control = ctrl;
        mh.msg_controllen = sizeof(ctrl);
        cmsghdr* cm = CMSG_FIRSTHDR(&mh);
        cm->cmsg_level = SOL_UDP;
        cm->cmsg_type = UDP_SEGMENT;
        cm->cmsg_len = CMSG_LEN(sizeof(std::uint16_t));
        std::memcpy(CMSG_DATA(cm), &t.seg, sizeof(t.seg));
      }
      if (::sendmsg(fd, &mh, 0) < 0) break;  // socket buffer full: drain
      const auto now = Clock::now();
      for (const std::uint16_t id : t.ids) send_ts[id] = now;
      result.sent += t.ids.size();
      inflight += t.ids.size();
      next_train = (next_train + 1) % trains.size();
    }
    for (std::size_t i = 0; i < kRxBatch; ++i) {
      rx_msgs[i].msg_hdr.msg_control = rx_ctrl.data() + i * 64;
      rx_msgs[i].msg_hdr.msg_controllen = 64;
      rx_msgs[i].msg_hdr.msg_flags = 0;
    }
    const int got = ::recvmmsg(fd, rx_msgs.data(),
                               static_cast<unsigned>(kRxBatch), 0, nullptr);
    if (got > 0) {
      const auto now = Clock::now();
      for (int i = 0; i < got; ++i) {
        const std::size_t bytes = rx_msgs[i].msg_len;
        std::size_t segment = bytes;
        if (gro_on) {
          for (cmsghdr* c = CMSG_FIRSTHDR(&rx_msgs[i].msg_hdr); c != nullptr;
               c = CMSG_NXTHDR(&rx_msgs[i].msg_hdr, c)) {
            if (c->cmsg_level == SOL_UDP && c->cmsg_type == UDP_GRO) {
              int s = 0;
              std::memcpy(&s, CMSG_DATA(c), sizeof(s));
              if (s > 0) segment = static_cast<std::size_t>(s);
            }
          }
        }
        if (segment == 0) segment = 1;
        const auto* base = static_cast<const std::uint8_t*>(rx_iovs[i].iov_base);
        for (std::size_t off = 0; off < bytes; off += segment) {
          if (bytes - off >= 2) {
            const std::uint16_t id =
                static_cast<std::uint16_t>((base[off] << 8) | base[off + 1]);
            if (send_ts[id] != Clock::time_point{}) {
              latency.Record(static_cast<std::uint64_t>(
                  std::chrono::duration_cast<std::chrono::microseconds>(
                      now - send_ts[id])
                      .count()));
              send_ts[id] = Clock::time_point{};
            }
          }
          ++result.received;
          if (inflight > 0) --inflight;
        }
      }
    } else if (inflight > 0) {
      pollfd pfd{fd, POLLIN, 0};
      if (::poll(&pfd, 1, 10) == 0) {
        // Window presumed lost (kernel buffer overflow); resync.
        inflight = 0;
      }
    }
  }
  const double elapsed = SecondsSince(start);
  ::close(fd);
  result.qps = elapsed > 0 ? static_cast<double>(result.received) / elapsed : 0;
  result.dropped = result.sent - std::min(result.sent, result.received);
  result.p50_us = latency.Percentile(50);
  result.p99_us = latency.Percentile(99);
  return result;
}

struct UdpRun {
  BlastResult blast;
  rootsrv::FastLaneStats fast_lane;
};

// One throughput measurement against a fresh frontend with `workers` UDP
// workers.
UdpRun MeasureUdp(const zone::SnapshotPtr& snapshot,
                  const std::vector<util::Bytes>& queries, int workers,
                  int duration_ms, bool fast_lane) {
  net::SnapshotSource source(snapshot);
  net::FrontendOptions options;
  options.udp_workers = workers;
  options.enable_tcp = false;
  options.fast_lane = fast_lane;
  net::DnsFrontend frontend(source, options);
  if (!frontend.Start().ok()) return {};
  UdpRun run;
  run.blast = Blast(frontend.udp_port(), queries, duration_ms);
  frontend.Stop();
  run.fast_lane = frontend.fast_lane_stats();
  return run;
}

// `"key": number` scanner (same shape as the other bench harnesses); keeps
// the first occurrence, which is the "metrics" block.
std::map<std::string, double> LoadJsonNumbers(const std::string& path) {
  std::map<std::string, double> out;
  std::ifstream in(path);
  if (!in) return out;
  std::stringstream ss;
  ss << in.rdbuf();
  const std::string text = ss.str();
  std::size_t pos = 0;
  while ((pos = text.find('"', pos)) != std::string::npos) {
    const std::size_t end = text.find('"', pos + 1);
    if (end == std::string::npos) break;
    const std::string key = text.substr(pos + 1, end - pos - 1);
    std::size_t p = end + 1;
    while (p < text.size() && (text[p] == ':' || text[p] == ' ')) ++p;
    if (p < text.size() && p > end + 1 &&
        (std::isdigit(static_cast<unsigned char>(text[p])) ||
         text[p] == '-')) {
      out.emplace(key, std::strtod(text.c_str() + p, nullptr));
    }
    pos = end + 1;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "netserver_bench.bench.json";
  std::string baseline_path;
  std::string hotpath_path = "BENCH_hotpath.json";
  int duration_ms = 2000;
  int multi_workers = 2;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* { return i + 1 < argc ? argv[++i] : ""; };
    if (arg == "--out") out_path = next();
    else if (arg == "--baseline") baseline_path = next();
    else if (arg == "--hotpath") hotpath_path = next();
    else if (arg == "--duration") duration_ms = std::atoi(next());
    else if (arg == "--workers") multi_workers = std::atoi(next());
    else {
      std::fprintf(stderr,
                   "usage: %s [--out FILE.json] [--baseline OLD.json] "
                   "[--hotpath HOTPATH.json] [--duration MS] [--workers N]\n",
                   argv[0]);
      return 2;
    }
  }

  const obs::RunInfo run_info{
      "netserver_bench", 0,
      "loopback udp, signed root zone, duration_ms=" +
          std::to_string(duration_ms)};
  std::printf("%s", obs::RunHeader(run_info).c_str());

  // Same zone and date as the hotpath replay, so the reference qps is
  // apples-to-apples.
  const zone::RootZoneModel model;
  zone::Zone root = model.Snapshot({2018, 4, 11});
  util::Rng keyrng(0xD15EC);
  const crypto::SigningKey zsk = crypto::GenerateKey(crypto::kZskFlags, keyrng);
  root = zone::SignZone(root, zsk, {0, 0xFFFFFFFF});
  const zone::SnapshotPtr snapshot = zone::ZoneSnapshot::Build(root);

  // Replay-shaped queries: www.<tld>. A across the full TLD population,
  // EDNS-less (the referral answer fits 512 unsigned; the signed referral
  // gets truncated exactly as a real 512-limited client would see).
  std::vector<util::Bytes> queries;
  std::uint16_t id = 1;
  for (const auto* tld : model.ActiveTlds({2018, 4, 11})) {
    auto qname = dns::Name::Parse("www." + tld->label + ".");
    if (!qname.ok()) continue;
    queries.push_back(
        dns::EncodeMessage(dns::MakeQuery(id++, *qname, dns::RRType::kA)));
  }
  std::printf("%-28s %12zu\n", "distinct_queries", queries.size());

  std::vector<std::pair<std::string, double>> metrics;
  auto record = [&](const std::string& name, double value) {
    metrics.emplace_back(name, value);
    std::printf("%-28s %12.1f\n", name.c_str(), value);
    std::fflush(stdout);
  };

  const UdpRun single = MeasureUdp(snapshot, queries, 1, duration_ms, true);
  record("udp_qps_1worker", single.blast.qps);
  record("udp_sent_1worker", static_cast<double>(single.blast.sent));
  record("udp_received_1worker", static_cast<double>(single.blast.received));
  record("udp_dropped_1worker", static_cast<double>(single.blast.dropped));
  record("udp_latency_p50_us", static_cast<double>(single.blast.p50_us));
  record("udp_latency_p99_us", static_cast<double>(single.blast.p99_us));
  {
    const rootsrv::FastLaneStats& fl = single.fast_lane;
    const double handled =
        static_cast<double>(fl.hits + fl.slips + fl.drops);
    const double attempts =
        handled + static_cast<double>(fl.parse_fallbacks + fl.cache_misses);
    record("fast_lane_hit_ratio", attempts > 0 ? handled / attempts : 0);
  }

  if (std::getenv("NETSERVER_BENCH_DEBUG") != nullptr) {
    std::printf("%s", obs::RenderMetricsTable().c_str());
  }

  // Ablation: the same storm with the fast lane off — every datagram pays
  // the Packet copy + full pipeline.
  const UdpRun ablation = MeasureUdp(snapshot, queries, 1, duration_ms, false);
  record("udp_qps_1worker_nofastlane", ablation.blast.qps);

  const UdpRun multi =
      MeasureUdp(snapshot, queries, multi_workers, duration_ms, true);
  record("udp_workers_multi", multi_workers);
  record("udp_qps_multiworker", multi.blast.qps);

  // TCP path: one full AXFR transfer of the signed zone.
  {
    net::SnapshotSource source(snapshot);
    net::DnsFrontend frontend(source, {});
    if (frontend.Start().ok()) {
      const auto start = Clock::now();
      auto fetched = net::FetchZoneTcp("127.0.0.1", frontend.tcp_port(), {});
      const double ms = SecondsSince(start) * 1e3;
      frontend.Stop();
      if (fetched.ok() && *fetched && (*fetched)->SameContent(*snapshot)) {
        record("axfr_fetch_ms", ms);
        record("axfr_rrsets", static_cast<double>((*fetched)->rrset_count()));
      } else {
        std::fprintf(stderr, "netserver_bench: AXFR fetch failed\n");
      }
    }
  }

  const auto hotpath = LoadJsonNumbers(hotpath_path);
  const double replay_qps =
      hotpath.count("replay_qps") ? hotpath.at("replay_qps") : 0;
  if (replay_qps > 0) {
    record("replay_qps_reference", replay_qps);
    record("socket_vs_replay_ratio", single.blast.qps / replay_qps);
  }

  std::FILE* out = std::fopen(out_path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(out, "{\n  \"schema\": \"rootless-bench-netserver-v1\",\n");
  std::fprintf(out, "  \"config\": {\"duration_ms\": %d, \"queries\": %zu},\n",
               duration_ms, queries.size());
  std::fprintf(out, "  \"metrics\": {\n");
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::fprintf(out, "    \"%s\": %g%s\n", metrics[i].first.c_str(),
                 metrics[i].second, i + 1 < metrics.size() ? "," : "");
  }
  std::fprintf(out, "  }");
  if (!baseline_path.empty()) {
    const auto baseline = LoadJsonNumbers(baseline_path);
    std::fprintf(out, ",\n  \"baseline\": {\n");
    bool first = true;
    for (const auto& [name, value] : metrics) {
      auto it = baseline.find(name);
      if (it == baseline.end()) continue;
      std::fprintf(out, "%s    \"%s\": %g", first ? "" : ",\n", name.c_str(),
                   it->second);
      first = false;
    }
    std::fprintf(out, "\n  }");
    if (baseline.count("udp_qps_1worker") &&
        baseline.at("udp_qps_1worker") > 0) {
      std::fprintf(out, ",\n  \"speedup\": {\"udp_qps_1worker\": %g}",
                   single.blast.qps / baseline.at("udp_qps_1worker"));
    }
  }
  std::fprintf(out, "\n}\n");
  std::fclose(out);
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}
