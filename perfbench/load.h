// Open-loop UDP load generator. Independent resolvers send on a Poisson
// schedule whether or not earlier queries were answered, spread over several
// connected source sockets (distinct 4-tuples, so SO_REUSEPORT can spread
// them over workers). Latency is timed from each query's *scheduled* send
// time, so a stall delays every query due during it. Every response is
// byte-compared (id aside) against the reference table.
//
// Samples are kept exactly, per 100 ms window of scheduled send time. The
// window view exists because the virtual machines this runs on pause all
// vCPUs for 5-40 ms a few times a second: a tail percentile of the whole
// phase then measures how many pauses fell into it, while the median over
// windows of each window's percentile measures the server.
#pragma once

#include <cstdint>
#include <vector>

#include "traffic_mix.h"
#include "util/bytes.h"

namespace rootbench {

struct LoadSpec {
  std::uint16_t port = 0;
  double rate_qps = 0;
  double seconds = 0;
  int threads = 1;
  int sockets_per_thread = 2;
  std::uint64_t seed = 0;
  std::uint64_t first_query = 0;  // position in the mix sequence
  // When set, every response must equal this wire (id aside) instead of the
  // reference answer: the constant-response echo server.
  const rootless::util::Bytes* constant_answer = nullptr;
};

// How long the client keeps receiving after the last scheduled send, and the
// latency a query that never got a (correct) answer counts as.
inline constexpr double kGraceSeconds = 0.1;
inline constexpr double kWindowSeconds = 0.1;

struct LoadResult {
  struct Window {
    std::vector<float> latency_us;  // correct answers, from scheduled send
    std::uint64_t sent = 0;
    std::uint64_t failed = 0;  // lost or wrong
  };

  std::uint64_t sent = 0;
  std::uint64_t answered = 0;  // correct responses
  std::uint64_t wrong = 0;     // responses that differ from the reference
  std::uint64_t lost = 0;      // no response within the grace window
  std::vector<Window> windows;
  std::vector<float> late_us;  // send time minus scheduled time, sorted
  std::uint64_t backlog = 0;   // queries in flight when sending stopped
  double elapsed_s = 0;        // sending window
  std::uint64_t client_cpu_ns = 0;
  std::uint64_t next_query = 0;  // sequence position after this run

  // Percentile over every sent query of the phase; lost and wrong ones
  // count as missing any limit (reported as the grace window).
  double LatencyPercentileUs(double p) const;
  // Median over windows of each window's percentile (same convention).
  double WindowMedianUs(double p) const;
  // Share of windows whose p99 and failure ratio meet the limits.
  double PassingWindowShare(double p99_limit_us, double fail_limit) const;
  double LatePercentileUs(double p) const;
  double loss_ratio() const {
    return sent ? static_cast<double>(lost + wrong) / static_cast<double>(sent)
                : 0;
  }
  double answered_qps() const {
    return elapsed_s > 0 ? static_cast<double>(answered) / elapsed_s : 0;
  }
  // Adds a later phase at the same rate: counts add, windows append.
  void Append(LoadResult&& later);
};

LoadResult RunOpenLoop(const LoadSpec& spec, const QueryMix& mix,
                       const Reference* reference);

// A non-blocking UDP socket connected to 127.0.0.1:`port` (-1 on failure).
int OpenClientSocket(std::uint16_t port);

}  // namespace rootbench
