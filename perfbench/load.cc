#include "load.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sched.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <iterator>
#include <thread>

#include "bench.h"
#include "util/rng.h"

namespace rootbench {

using rootless::util::Bytes;

namespace {

constexpr std::size_t kBatch = 64;        // datagrams per sendmmsg/recvmmsg
constexpr std::size_t kMaxQuery = 512;    // generated queries are far smaller
constexpr std::size_t kMaxAnswer = 4096;  // the largest EDNS payload offered
constexpr std::size_t kIds = 65536;

struct Outstanding {
  std::int64_t sched_ns = 0;
  std::uint32_t query = 0;
  bool live = false;
};

struct Socket {
  int fd = -1;
  std::uint16_t next_id = 0;
  std::vector<Outstanding> slots = std::vector<Outstanding>(kIds);
  std::vector<mmsghdr> tx_msgs = std::vector<mmsghdr>(kBatch);
  std::vector<iovec> tx_iovs = std::vector<iovec>(kBatch);
  std::vector<std::uint8_t> tx_buf = std::vector<std::uint8_t>(kBatch * kMaxQuery);
  std::vector<std::int64_t> tx_sched = std::vector<std::int64_t>(kBatch);
  std::size_t tx_count = 0;
};

// Nearest-rank percentile of `samples` plus `missing` samples that count as
// +infinity (reported as the grace window).
double PercentileWithMissing(std::vector<float>& samples, std::uint64_t missing,
                             double p) {
  const std::uint64_t total = samples.size() + missing;
  if (total == 0) return 0;
  const auto rank = static_cast<std::uint64_t>(
      std::max(1.0, std::ceil(p / 100.0 * static_cast<double>(total))));
  if (rank > samples.size()) return kGraceSeconds * 1e6;
  std::nth_element(samples.begin(), samples.begin() + static_cast<std::ptrdiff_t>(rank - 1),
                   samples.end());
  return samples[rank - 1];
}

class ClientThread {
 public:
  ClientThread(const LoadSpec& spec, int index, const QueryMix& mix,
               const Reference* reference)
      : spec_(spec),
        index_(index),
        mix_(mix),
        reference_(reference),
        rng_(spec.seed * 0x9E3779B97F4A7C15ULL + static_cast<std::uint64_t>(index) + 1),
        sockets_(static_cast<std::size_t>(spec.sockets_per_thread)) {}

  void Run(std::int64_t start_ns, LoadResult& out) {
    const std::uint64_t cpu0 = ThreadCpuNs();
    start_ns_ = start_ns;
    for (Socket& s : sockets_) s.fd = OpenClientSocket(spec_.port);
    std::vector<mmsghdr> rx_msgs(kBatch);
    std::vector<iovec> rx_iovs(kBatch);
    std::vector<std::uint8_t> rx_buf(kBatch * kMaxAnswer);
    for (std::size_t i = 0; i < kBatch; ++i) {
      rx_iovs[i] = {rx_buf.data() + i * kMaxAnswer, kMaxAnswer};
      rx_msgs[i] = {};
      rx_msgs[i].msg_hdr.msg_iov = &rx_iovs[i];
      rx_msgs[i].msg_hdr.msg_iovlen = 1;
    }
    // Sized up front: a sample vector reallocating mid-run would stall the
    // client for the copy.
    const double per_thread_rate = spec_.rate_qps / spec_.threads;
    out.windows.resize(static_cast<std::size_t>(std::ceil(spec_.seconds / kWindowSeconds)));
    for (LoadResult::Window& w : out.windows) {
      w.latency_us.reserve(static_cast<std::size_t>(1.5 * per_thread_rate * kWindowSeconds) + 64);
    }
    out.late_us.reserve(static_cast<std::size_t>(1.2 * per_thread_rate * spec_.seconds) + 1024);

    const double mean_gap_ns = 1e9 / per_thread_rate;
    const auto end_ns = start_ns + static_cast<std::int64_t>(spec_.seconds * 1e9);
    const auto grace_ns = static_cast<std::int64_t>(kGraceSeconds * 1e9);
    double next_due = static_cast<double>(start_ns) + Gap(mean_gap_ns);
    std::uint64_t k = 0;
    bool sending = true;
    for (;;) {
      const std::int64_t now = NowNs();
      while (sending && next_due <= static_cast<double>(now)) {
        if (next_due >= static_cast<double>(end_ns)) {
          sending = false;
          out.backlog += outstanding_;
          break;
        }
        // At most one batch per socket between receives: a generator that
        // has fallen behind must still drain answers, or they would sit in
        // the socket until the 16-bit ids wrap.
        Socket& s = sockets_[k % sockets_.size()];
        if (s.tx_count == kBatch) break;
        const std::uint64_t g = spec_.first_query +
                                k * static_cast<std::uint64_t>(spec_.threads) +
                                static_cast<std::uint64_t>(index_);
        Stage(s, mix_.sequence[g % mix_.sequence.size()],
              static_cast<std::int64_t>(next_due), out);
        ++k;
        next_due += Gap(mean_gap_ns);
      }
      for (Socket& s : sockets_) {
        if (s.tx_count) Flush(s, out);
      }
      bool received = false;
      for (Socket& s : sockets_) {
        if (s.fd < 0) continue;
        const int n = ::recvmmsg(s.fd, rx_msgs.data(), kBatch, MSG_DONTWAIT, nullptr);
        if (n <= 0) continue;
        received = true;
        const std::int64_t rx_ns = NowNs();
        for (int i = 0; i < n; ++i) {
          Receive(s, rx_buf.data() + static_cast<std::size_t>(i) * kMaxAnswer,
                  rx_msgs[static_cast<std::size_t>(i)].msg_len, rx_ns, out);
        }
      }
      if (!sending) {
        if (outstanding_ == 0 || NowNs() >= end_ns + grace_ns) break;
        if (!received) WaitReadable(1);
      } else if (!received) {
        // Idle spin iteration: let the kernel's deferred network work
        // (ksoftirqd) on this CPU run instead of waiting out a time slice.
        sched_yield();
      }
    }
    for (Socket& s : sockets_) {
      for (const Outstanding& o : s.slots) {
        if (o.live) Lost(o, out);
      }
      if (s.fd >= 0) ::close(s.fd);
    }
    out.sent += sent_;
    out.next_query = spec_.first_query + k * static_cast<std::uint64_t>(spec_.threads);
    out.client_cpu_ns += ThreadCpuNs() - cpu0;
  }

 private:
  double Gap(double mean_gap_ns) {
    const double u = (static_cast<double>(rng_.Next() >> 11) + 0.5) * 0x1p-53;
    return -std::log(u) * mean_gap_ns;
  }

  LoadResult::Window& WindowOf(std::int64_t sched_ns, LoadResult& out) const {
    const auto w = static_cast<std::size_t>(
        static_cast<double>(sched_ns - start_ns_) / (kWindowSeconds * 1e9));
    return out.windows[std::min(w, out.windows.size() - 1)];
  }

  void Lost(const Outstanding& o, LoadResult& out) {
    ++out.lost;
    ++WindowOf(o.sched_ns, out).failed;
  }

  void Stage(Socket& s, std::uint32_t query, std::int64_t sched_ns,
             LoadResult& out) {
    const Bytes& datagram = mix_.datagrams[query];
    const std::size_t n = std::min(datagram.size(), kMaxQuery);
    std::uint8_t* buf = s.tx_buf.data() + s.tx_count * kMaxQuery;
    std::memcpy(buf, datagram.data(), n);
    const std::uint16_t id = s.next_id++;
    buf[0] = static_cast<std::uint8_t>(id >> 8);
    buf[1] = static_cast<std::uint8_t>(id & 0xFF);
    Outstanding& o = s.slots[id];
    if (o.live) {  // the id wrapped before an answer came: long lost
      Lost(o, out);
      --outstanding_;
    }
    o = {sched_ns, query, true};
    ++outstanding_;
    ++WindowOf(sched_ns, out).sent;
    s.tx_iovs[s.tx_count] = {buf, n};
    s.tx_msgs[s.tx_count] = {};
    s.tx_msgs[s.tx_count].msg_hdr.msg_iov = &s.tx_iovs[s.tx_count];
    s.tx_msgs[s.tx_count].msg_hdr.msg_iovlen = 1;
    s.tx_sched[s.tx_count] = sched_ns;
    ++s.tx_count;
  }

  void Flush(Socket& s, LoadResult& out) {
    std::size_t off = 0;
    while (off < s.tx_count && s.fd >= 0) {
      const int r = ::sendmmsg(s.fd, s.tx_msgs.data() + off,
                               static_cast<unsigned>(s.tx_count - off), 0);
      if (r > 0) {
        off += static_cast<std::size_t>(r);
        continue;
      }
      if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) {
        pollfd pfd{s.fd, POLLOUT, 0};
        ::poll(&pfd, 1, 1);
        continue;
      }
      break;  // unsent queries stay outstanding and end up lost
    }
    const std::int64_t sent_ns = NowNs();
    for (std::size_t i = 0; i < off; ++i) {
      out.late_us.push_back(static_cast<float>((sent_ns - s.tx_sched[i]) / 1e3));
    }
    sent_ += s.tx_count;
    s.tx_count = 0;
  }

  void Receive(Socket& s, const std::uint8_t* data, std::size_t size,
               std::int64_t rx_ns, LoadResult& out) {
    if (size < 2) return;
    Outstanding& o = s.slots[static_cast<std::uint16_t>((data[0] << 8) | data[1])];
    if (!o.live) return;  // duplicate, or already written off as lost
    o.live = false;
    --outstanding_;
    bool ok = false;
    if (spec_.constant_answer != nullptr) {
      const Bytes& c = *spec_.constant_answer;
      ok = c.size() == size && std::memcmp(c.data() + 2, data + 2, size - 2) == 0;
    } else {
      ok = reference_->Matches(o.query, {data, size});
    }
    LoadResult::Window& w = WindowOf(o.sched_ns, out);
    if (!ok) {
      ++out.wrong;
      ++w.failed;
      return;
    }
    ++out.answered;
    w.latency_us.push_back(static_cast<float>((rx_ns - o.sched_ns) / 1e3));
  }

  void WaitReadable(int timeout_ms) {
    std::vector<pollfd> fds;
    for (const Socket& s : sockets_) {
      if (s.fd >= 0) fds.push_back({s.fd, POLLIN, 0});
    }
    ::poll(fds.data(), fds.size(), timeout_ms);
  }

  const LoadSpec& spec_;
  const int index_;
  const QueryMix& mix_;
  const Reference* reference_;
  rootless::util::Rng rng_;
  std::vector<Socket> sockets_;
  std::int64_t start_ns_ = 0;
  std::uint64_t outstanding_ = 0;
  std::uint64_t sent_ = 0;
};

}  // namespace

int OpenClientSocket(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_DGRAM | SOCK_NONBLOCK, 0);
  if (fd < 0) return -1;
  const int bufsize = 4 << 20;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &bufsize, sizeof(bufsize));
  ::setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &bufsize, sizeof(bufsize));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

double LoadResult::LatencyPercentileUs(double p) const {
  std::vector<float> all;
  std::uint64_t failed = 0;
  for (const Window& w : windows) {
    all.insert(all.end(), w.latency_us.begin(), w.latency_us.end());
    failed += w.failed;
  }
  return PercentileWithMissing(all, failed, p);
}

double LoadResult::WindowMedianUs(double p) const {
  std::vector<double> per_window;
  for (const Window& w : windows) {
    if (w.sent == 0) continue;
    std::vector<float> samples = w.latency_us;
    per_window.push_back(PercentileWithMissing(samples, w.failed, p));
  }
  return Median(per_window);
}

double LoadResult::PassingWindowShare(double p99_limit_us, double fail_limit) const {
  std::size_t counted = 0, passing = 0;
  for (const Window& w : windows) {
    if (w.sent == 0) continue;
    ++counted;
    std::vector<float> samples = w.latency_us;
    if (PercentileWithMissing(samples, w.failed, 99) <= p99_limit_us &&
        static_cast<double>(w.failed) <= fail_limit * static_cast<double>(w.sent)) {
      ++passing;
    }
  }
  return counted ? static_cast<double>(passing) / static_cast<double>(counted) : 0;
}

void LoadResult::Append(LoadResult&& later) {
  sent += later.sent;
  answered += later.answered;
  wrong += later.wrong;
  lost += later.lost;
  backlog += later.backlog;
  elapsed_s += later.elapsed_s;
  client_cpu_ns += later.client_cpu_ns;
  next_query = later.next_query;
  for (Window& w : later.windows) windows.push_back(std::move(w));
  std::vector<float> late;
  late.reserve(late_us.size() + later.late_us.size());
  std::merge(late_us.begin(), late_us.end(), later.late_us.begin(), later.late_us.end(),
             std::back_inserter(late));
  late_us = std::move(late);
}

double LoadResult::LatePercentileUs(double p) const {
  if (late_us.empty()) return 0;
  const auto rank = static_cast<std::size_t>(
      std::max(1.0, std::ceil(p / 100.0 * static_cast<double>(late_us.size()))));
  return late_us[std::min(rank, late_us.size()) - 1];
}

LoadResult RunOpenLoop(const LoadSpec& spec, const QueryMix& mix,
                       const Reference* reference) {
  const std::size_t n = static_cast<std::size_t>(std::max(1, spec.threads));
  std::vector<LoadResult> parts(n);
  std::vector<ClientThread> clients;
  clients.reserve(n);
  for (std::size_t t = 0; t < n; ++t) {
    clients.emplace_back(spec, static_cast<int>(t), mix, reference);
  }
  // A common origin a little ahead, so every thread has its sockets open
  // before the first query is due.
  const std::int64_t start_ns = NowNs() + 2'000'000;
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < n; ++t) {
    threads.emplace_back([&, t] { clients[t].Run(start_ns, parts[t]); });
  }
  for (std::thread& th : threads) th.join();

  LoadResult total;
  total.elapsed_s = spec.seconds;
  total.windows.resize(parts.front().windows.size());
  for (LoadResult& part : parts) {
    total.sent += part.sent;
    total.answered += part.answered;
    total.wrong += part.wrong;
    total.lost += part.lost;
    total.backlog += part.backlog;
    total.client_cpu_ns += part.client_cpu_ns;
    total.next_query = std::max(total.next_query, part.next_query);
    for (std::size_t w = 0; w < part.windows.size(); ++w) {
      LoadResult::Window& into = total.windows[w];
      const LoadResult::Window& from = part.windows[w];
      into.latency_us.insert(into.latency_us.end(), from.latency_us.begin(),
                             from.latency_us.end());
      into.sent += from.sent;
      into.failed += from.failed;
    }
    total.late_us.insert(total.late_us.end(), part.late_us.begin(), part.late_us.end());
  }
  std::sort(total.late_us.begin(), total.late_us.end());
  return total;
}

}  // namespace rootbench
