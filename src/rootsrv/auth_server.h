// Authoritative DNS server bound to an immutable zone snapshot, attached to
// any net::Transport — the simulated network during replays, a socket server
// (net::UdpServer / net::TcpServer) when serving real resolvers. Decodes
// queries, applies the zone's lookup logic, and answers with referrals /
// answers / NXDOMAIN exactly as a root or TLD server would.
//
// Every answer is wire bytes built by one path: AnswerWire (a decoded
// query) and AnswerDatagram / HandleDatagram (a raw UDP or TCP payload) call
// the stages of pipeline.h directly, in one fixed order: Screen →
// RateLimit → AnswerCache → SnapshotAnswer. There is exactly one
// EDNS-clamp / truncation implementation, one FORMERR/NOTIMP/REFUSED
// policy, one cache lookup, and one defense hook across both transports.
// The UDP fast lane (TryFastLane) serves answer-cache hits straight off the
// receive ring, calling the same EDNS, rate-limit and hit-accounting code.
//
// The serving path is zero-copy: a query is answered by assembling borrowed
// RRset views out of the shared zone::ZoneSnapshot arena and encoding them
// straight to the wire, reusing per-server scratch buffers — no RRset is
// copied per query. Anycast instances share one SnapshotPtr, so a fleet
// costs one zone copy total, and a zone update is a pointer swap.
//
// Real packets are hostile, so the wire-facing behaviour is explicit:
//   * malformed input decodes to a coded util::Result (kTruncated /
//     kCorrupted), never an assert; with respond_formerr_to_garbage set the
//     server answers FORMERR whenever a 12-byte header is readable;
//   * non-Query opcodes get NOTIMP, non-IN classes REFUSED, AXFR over UDP
//     REFUSED;
//   * responses are truncated whole-record with the TC bit at the EDNS0
//     requestor payload size (clamped to [min, max]) when the query carries
//     an OPT record, or at `default_udp_payload` when it does not — the
//     latter preserves the simulator's historical 1232-byte behaviour;
//   * with RRL enabled, over-limit UDP clients are dropped or slipped a
//     TC|REFUSED (rootsrv/rrl.h) before any lookup work happens.
#pragma once

#include <cstdint>
#include <functional>
#include <span>

#include "dns/message.h"
#include "net/transport.h"
#include "obs/counter_set.h"
#include "rootsrv/pipeline.h"
#include "rootsrv/rrl.h"
#include "util/bytes.h"
#include "zone/zone_snapshot.h"

namespace rootless::rootsrv {

// Fast-lane activity (module "rootsrv.fastlane"; fast_lane_stats() reads
// the snapshot). These live in their own module so the "rootsrv.auth" /
// "rootsrv.pipeline" counter deltas stay byte-identical between a fast-lane
// and a pipeline-only run — the parity suites compare those two modules,
// and observability of the lane itself must not perturb them.
#define ROOTLESS_FASTLANE_COUNTERS(X)                                    \
  X(hits)             /* answered straight from the cache probe */       \
  X(parse_fallbacks)  /* shallow parser punted to the pipeline */        \
  X(cache_misses)     /* parsed fine, answer not memoized yet */         \
  X(slips)            /* RRL slip rendered in the fast lane */           \
  X(drops)            /* RRL drop decided in the fast lane */
ROOTLESS_COUNTER_SET(FastLaneStats, FastLaneCounters,
                     ROOTLESS_FASTLANE_COUNTERS);

class AuthServer {
 public:
  struct Options {
    bool include_dnssec = false;
    EdnsConfig edns{};
    // Answer FORMERR (id echoed, empty question section) when a query fails
    // to decode but a 12-byte header is readable. Off by default: the
    // simulator's historical behaviour is to drop garbage, and the fault
    // benches' corruption baselines depend on it. Wire front-ends enable it.
    bool respond_formerr_to_garbage = false;
    // Answer packet cache capacity (see AnswerCacheStage in pipeline.h).
    // Bounded with FIFO eviction at capacity; 0 disables.
    std::size_t answer_cache_entries = 16384;
    // Response rate limiting (defense stage). Either enable a private
    // limiter here, or point shared_rrl at one shared across servers (the
    // socket front-end shares one limiter over all SO_REUSEPORT UDP
    // workers; shared_rrl wins when both are set). Disabled by default —
    // the serving path is then byte-identical to a server without the
    // stage.
    RrlConfig rrl{};
    ResponseRateLimiter* shared_rrl = nullptr;
    // Microsecond clock sampled once per rate-limited query (attributed,
    // UDP) while RRL is active. Defaults to std::chrono::steady_clock; the
    // simulator passes sim time so attack replays stay deterministic.
    std::function<std::uint64_t()> clock{};
    // Metrics registry; nullptr = process default.
    obs::Registry* registry = nullptr;
  };

  // The snapshot is shared between anycast instances (refcounted).
  // `transport` may be null for a detached server: AnswerWire() and
  // AnswerDatagram() work normally, but there is no endpoint (node() is
  // meaningless) — used by front-ends that drive the server directly (e.g.
  // the TCP query path) and by parity tests.
  AuthServer(net::Transport* transport, zone::SnapshotPtr snapshot,
             Options options);

  net::EndpointId node() const { return node_; }
  // Snapshot of the registry-backed counters (module "rootsrv.auth").
  AuthServerStats stats() const { return c_.Read(); }
  // Snapshot of the per-stage pipeline counters.
  PipelineStats pipeline_stats() const { return pc_.Read(); }
  const zone::SnapshotPtr& snapshot() const { return snapshot_; }
  const EdnsConfig& edns() const { return options_.edns; }
  // The active rate limiter (shared or private), nullptr when RRL is off.
  const ResponseRateLimiter* rrl() const { return rrl_stage_.limiter(); }
  std::size_t answer_cache_size() const { return cache_stage_.size(); }

  // Swaps in a new zone version (e.g. the daily root zone update) — a
  // pointer swap; in-flight views into the old snapshot stay valid as long
  // as someone holds its refcount. Must be called from the thread serving
  // this instance (a wire front-end swaps at batch boundaries; see
  // net::SnapshotSource).
  void SetZone(zone::SnapshotPtr snapshot) {
    snapshot_ = std::move(snapshot);
    cache_stage_.Drop();
  }

  // The serving path: screen → rate limit → answer cache → lookup into
  // borrowed views → wire bytes, with TC truncation at the channel's
  // payload limit (kTcp never truncates). Reuses this server's scratch
  // buffers (not reentrant). No client attribution → the rate limiter
  // never drops it.
  util::Bytes AnswerWire(const dns::Message& query,
                         Channel channel = Channel::kUdp) {
    return AnswerWireFrom(query, channel, kUnattributed);
  }

  // AnswerWire with transport attribution: `client` feeds the rate-limit
  // stage, which may decide to answer nothing at all — the only case in
  // which the returned wire is empty.
  util::Bytes AnswerWireFrom(const dns::Message& query, Channel channel,
                             std::uint64_t client);

  // The full datagram path (decode → answer → respond), exposed so socket
  // front-ends and parity tests can drive exactly what the transport
  // delivers. Responses (if any) go back through the transport; detached
  // servers drop them. `channel` selects the truncation regime (a TCP
  // front-end passes kTcp).
  void HandleDatagram(const net::Packet& packet,
                      Channel channel = Channel::kUdp);

  // The slow path minus the transport: decode one raw datagram (malformed
  // handling included) and return the response wire, empty when the verdict
  // is silence. HandleDatagram is this plus the Send; the fast-lane parity
  // suite drives it directly to compare byte-for-byte against TryFastLane.
  util::Bytes AnswerDatagram(std::span<const std::uint8_t> payload,
                             std::uint64_t client,
                             Channel channel = Channel::kUdp);

  // The zero-copy UDP fast lane: shallow-parse `datagram` straight off the
  // receive ring (dns/wire_probe.h), probe the answer cache, and on a hit
  // write the response into `out` (cached wire memcpy + id patch) — no
  // dns::Message, no intermediate buffer. Returns kMiss with NO side
  // effects (no counters, no limiter charge) when the datagram is not
  // provably servable or the answer is not memoized; the caller must then
  // run the normal path, which re-counts from scratch — the probe-first
  // ordering is what keeps fast and slow runs counter-identical. On a hit
  // it runs the slow path's own EDNS, limiter-charge and hit-accounting
  // code (slip rendered in place, drop silent), plus bytes in/out.
  net::FastVerdict TryFastLane(std::span<const std::uint8_t> datagram,
                               std::uint64_t client, std::uint8_t* out,
                               std::size_t capacity, std::size_t& out_size);

  // Snapshot of the fast-lane counters (module "rootsrv.fastlane").
  FastLaneStats fast_lane_stats() const { return flc_.Read(); }

 private:
  // FORMERR wire response for an undecodable datagram (empty when even the
  // header is unreadable — those stay dropped).
  util::Bytes GarbageResponse(std::span<const std::uint8_t> payload);

  net::Transport* transport_;
  zone::SnapshotPtr snapshot_;
  Options options_;
  net::EndpointId node_ = 0;
  // Pre-resolved registry handles; stages bump these through references, so
  // they are declared (and registered) before the stages below.
  AuthCounters c_;
  PipelineCounters pc_;
  FastLaneCounters flc_;
  // The stages, in call order.
  ScreenStage screen_stage_;
  RateLimitStage rrl_stage_;
  AnswerCacheStage cache_stage_;
  SnapshotAnswerStage answer_stage_;
  // Per-query scratch (capacity retained across queries). Every answer is
  // encoded into wire_ and leaves as one exact-size copy, so an uncached
  // answer costs one allocation and the answers a caller keeps hold no
  // spare capacity.
  dns::MessageView response_scratch_;
  util::ByteWriter wire_;
  // Storage backing the OPT record echoed on EDNS responses (the response
  // scratch borrows views; these members are what they point at).
  dns::Name opt_owner_;                      // root
  dns::Rdata opt_rdata_ = dns::RawData{};    // empty RDATA
};

}  // namespace rootless::rootsrv
