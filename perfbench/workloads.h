// The four benchmark workloads and the layer probes a traced run adds.
#pragma once

#include <cstdint>
#include <string>

#include "bench.h"
#include "traffic_mix.h"

namespace rootbench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  // Self-test: corrupt one reference answer; the run must then fail.
  bool corrupt_reference = false;
};

// hot_referrals, junk_storm, refresh_under_load.
void RunServing(const RunOptions& options, Result& result, Tracer& tracer);
// ditl_replay.
void RunReplay(const RunOptions& options, Result& result, Tracer& tracer);

// ---- layer probes (traced runs) ----------------------------------------

// Per-query costs of the answer path, timed from this code around calls into
// dns/ and rootsrv/ over one pass of the mix in send order.
struct AnswerPathCosts {
  double fast_lane_hit_ns = 0;
  double fast_lane_miss_ns = 0;
  double answer_datagram_ns = 0;
  // Timed pass over the same pass untimed, minus one.
  double trace_overhead = 0;
};

// Detached-server timings: dns.*, rootsrv.* (but the live ratios), zone
// lookup and the post-swap refill.
AnswerPathCosts AddAnswerPathLayers(const ZoneSet& zones, const QueryMix& mix,
                                    Result& result, Tracer& tracer);

// Live-server statistics of one frontend run (read after Stop()).
struct LiveStats {
  double fast_lane_hit_ratio = 0;
  double answer_cache_hit_ratio = 0;
  double evictions_per_kq = 0;
  double screen_diverted_ratio = 0;
  double rx_batch_mean = 0;
  double tx_drop_ratio = 0;
};
void AddLiveLayers(const LiveStats& live, Result& result);

// Socket-layer probes at `rate_qps`: the constant-response echo server's CPU
// per query and the SO_REUSEPORT spread over two workers. Returns the echo
// CPU ns per query.
double AddSocketLayers(const ZoneSet& zones, const QueryMix& mix,
                       const Reference& reference, double rate_qps,
                       std::uint64_t seed, Result& result, Tracer& tracer);

// Serves `mix` for `seconds` at `rate_qps` on a one-worker frontend and
// returns its live statistics (the DITL traced run uses this to put the
// replay's own query mix through the sockets).
LiveStats ServeBriefly(const ZoneSet& zones, const QueryMix& mix,
                       const Reference& reference, double rate_qps,
                       double seconds, std::uint64_t seed, Result& result);

// The AXFR stream build/assemble split and, with `run_cycles` (workloads
// that do not refresh under load), unloaded refresh cycles between an
// upstream and a serving frontend (between the first two versions of
// `zones`, or of a fresh two-version set when it has only one).
void AddRefreshLayers(const ZoneSet& zones, bool run_cycles, Result& result,
                      Tracer& tracer);

// Per-query costs of the DITL shard stacks, assembled here from the public
// types the sharded replay uses and run one after another on this thread.
struct ReplayCosts {
  double gen_classify_ns = 0;
  double resolve_ns = 0;
  double run_other_ns = 0;
  // Label space and stack construction, amortized per query.
  double setup_ns = 0;
  // Thread CPU per query of the same stacks run untimed.
  double untimed_cpu_ns = 0;
  double trace_overhead = 0;
};
// `per_thread_overhead` < 0 measures sim.per_thread_overhead with a 1-thread
// and a multi-thread replay; otherwise it is reported as given.
ReplayCosts AddReplayLayers(std::uint64_t seed, double per_thread_overhead,
                            Result& result, Tracer& tracer);

// The query-name labels of the first `count` queries of the DITL shard
// stream (shard 0 of the benchmark's plan) for `seed`.
std::vector<std::string> ReplayLabels(std::uint64_t seed, std::size_t count);

}  // namespace rootbench
