// The auth server's query-processing stages, called in one fixed order by
// AuthServer (auth_server.cc):
//
//   Screen        — header policy: EDNS clamp, FORMERR/NOTIMP/REFUSED.
//   RateLimit     — per-client response rate limiting / resolver quota
//                   (rootsrv/rrl.h); a defense stage, off by default.
//   AnswerCache   — memoized response packets with bounded FIFO eviction.
//   SnapshotAnswer— the zone lookup + classification that produces a live
//                   answer when nothing earlier resolved the query.
//
// AuthServer::AnswerWire and the net:: TCP/UDP datagram handlers run every
// stage; the UDP fast lane (AuthServer::TryFastLane) serves answer-cache
// hits without decoding, and shares the policy code below with the slow
// path instead of mirroring it: one EDNS payload-limit/OPT-echo function
// (ApplyEdns), one limiter charge with its clock sample
// (RateLimitStage::Charge), and one cache lookup (AnswerCacheStage::Probe)
// plus hit accounting (AnswerCacheStage::CountProbe). Whatever the hit lane
// calls is inline here, except the probe itself and CountDisposition.
//
// Counter layout: the per-disposition serving counters stay in module
// "rootsrv.auth" (AuthCounters, unchanged names — the byte/counter parity
// suites pin them); each stage additionally exposes its own activity in
// module "rootsrv.pipeline" (PipelineCounters).
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "dns/message.h"
#include "obs/counter_set.h"
#include "rootsrv/rrl.h"
#include "util/bytes.h"
#include "util/flat_hash.h"
#include "zone/zone_snapshot.h"

namespace rootless::rootsrv {

// Which transport the response will travel over: UDP truncates at the EDNS
// limit; TCP never truncates (64KB message ceiling) and refuses nothing
// extra.
enum class Channel { kUdp, kTcp };

// TCP DNS messages are bounded by the 2-byte length prefix, not EDNS.
inline constexpr std::size_t kMaxTcpMessage = 0xFFFF;

// No transport peer to attribute a query to (detached tests, AnswerWire);
// the rate limiter passes these through.
inline constexpr std::uint64_t kUnattributed = ~0ULL;

// EDNS0 (RFC 6891) response-size policy.
struct EdnsConfig {
  // Truncation limit for queries WITHOUT an OPT record. RFC 1035 says 512;
  // the simulator has always used the server's configured maximum (1232 by
  // default), and replay determinism depends on that, so the default stays.
  // Wire front-ends set 512.
  std::size_t default_udp_payload = 1232;
  // Clamp bounds for the requestor's advertised payload size.
  std::size_t min_udp_payload = 512;
  std::size_t max_udp_payload = 4096;
  // Payload size advertised in the OPT record echoed on EDNS responses.
  std::size_t advertise_udp_payload = 1232;
  // Echo an OPT record in responses to EDNS queries.
  bool echo_opt = true;
};

// What EDNS makes of one query: the response's truncation limit and whether
// it echoes an OPT record.
struct EdnsReply {
  std::size_t payload_limit = 0;
  bool echo_opt = false;
};

// The one EDNS policy function, for decoded (Screen) and shallow-parsed
// (fast lane) queries alike. `requestor_payload` is the OPT CLASS field, the
// requestor's maximum UDP payload size; it is ignored without an OPT.
inline EdnsReply ApplyEdns(const EdnsConfig& edns, bool has_opt,
                           std::size_t requestor_payload, Channel channel) {
  EdnsReply reply{edns.default_udp_payload, false};
  if (has_opt) {
    reply.echo_opt = edns.echo_opt;
    reply.payload_limit = std::clamp(requestor_payload, edns.min_udp_payload,
                                     edns.max_udp_payload);
  }
  if (channel == Channel::kTcp) reply.payload_limit = kMaxTcpMessage;
  return reply;
}

// The serving counters (module "rootsrv.auth", one instance per server):
// AuthServerStats is the snapshot AuthServer::stats() reads, AuthCounters
// the pre-resolved registry handles.
#define ROOTLESS_AUTH_COUNTERS(X) \
  X(queries)                      \
  X(answers)                      \
  X(referrals)                    \
  X(nxdomain)                     \
  X(nodata)                       \
  X(refused)                      \
  X(malformed)                    \
  X(truncated)                    \
  X(edns_queries)                 \
  X(cache_hits)                   \
  X(bytes_in)                     \
  X(bytes_out)
ROOTLESS_COUNTER_SET(AuthServerStats, AuthCounters, ROOTLESS_AUTH_COUNTERS);

// Per-stage activity counters (module "rootsrv.pipeline", one instance per
// server, registered alongside AuthCounters); AuthServer::pipeline_stats()
// reads the snapshot.
#define ROOTLESS_PIPELINE_COUNTERS(X)                                  \
  X(screen_diverted)   /* queries answered with a screen error */      \
  X(rrl_checked)       /* queries evaluated by the rate limiter */     \
  X(rrl_dropped)                                                       \
  X(rrl_slipped)                                                       \
  X(cache_probes)      /* queries that reached the answer cache */     \
  X(cache_insertions)                                                  \
  X(cache_evictions)                                                   \
  X(snapshot_answers)  /* live lookup+encode executions */
ROOTLESS_COUNTER_SET(PipelineStats, PipelineCounters,
                     ROOTLESS_PIPELINE_COUNTERS);

// Bumps the per-disposition serving counter; shared by the live lookup path
// and the cache-hit replay so cached and uncached serving count identically.
void CountDisposition(AuthCounters& c, zone::LookupDisposition disposition);

// ---- stages, in call order ---------------------------------------------

// Header-level screening: EDNS payload clamp, question/OPT cardinality,
// opcode and class policy, AXFR-over-UDP refusal.
class ScreenStage {
 public:
  ScreenStage(const EdnsConfig& edns, AuthCounters& c, PipelineCounters& pc)
      : edns_(edns), c_(c), pc_(pc) {}
  // Fills `reply` (a diverted query's error response needs it too) and
  // returns the rcode to divert the query to, kNoError when it passes.
  dns::RCode Admit(const dns::Message& query, Channel channel,
                   EdnsReply& reply);

 private:
  const EdnsConfig& edns_;
  AuthCounters& c_;
  PipelineCounters& pc_;
};

// Per-client response rate limiting (UDP only — TCP clients already proved
// their source address). Inactive without a limiter, and passes queries the
// transport could not attribute to a client.
class RateLimitStage {
 public:
  enum class Verdict { kPass, kSlip, kDrop };

  // Limits with `shared` when set, else with a private limiter built from
  // `config` when it is enabled, else not at all. `clock` (microseconds) is
  // sampled once per charged query; null means std::chrono::steady_clock.
  RateLimitStage(const RrlConfig& config, ResponseRateLimiter* shared,
                 std::function<std::uint64_t()> clock, AuthCounters& c,
                 PipelineCounters& pc);
  const ResponseRateLimiter* limiter() const { return limiter_; }

  // The one limiter charge, for the slow path and the fast lane alike. The
  // charge is stateful: the fast lane calls it only once it holds a
  // committed outcome (a cache hit), because charging and then falling back
  // to the slow path would bill the client twice for one query. kSlip means
  // "respond TC|REFUSED"; kDrop means silence.
  Verdict Charge(Channel channel, std::uint64_t client) {
    if (limiter_ == nullptr || channel != Channel::kUdp ||
        client == kUnattributed) {
      return Verdict::kPass;
    }
    pc_.rrl_checked.Inc();
    switch (limiter_->Admit(client, clock_())) {
      case ResponseRateLimiter::Decision::kAllow:
        return Verdict::kPass;
      case ResponseRateLimiter::Decision::kSlip:
        pc_.rrl_slipped.Inc();
        c_.refused.Inc();
        return Verdict::kSlip;
      case ResponseRateLimiter::Decision::kDrop:
        break;
    }
    pc_.rrl_dropped.Inc();
    return Verdict::kDrop;
  }

 private:
  std::unique_ptr<ResponseRateLimiter> owned_;
  ResponseRateLimiter* limiter_ = nullptr;
  std::function<std::uint64_t()> clock_;
  AuthCounters& c_;
  PipelineCounters& pc_;
};

// Answer packet cache: wire responses memoized per snapshot, keyed on
// everything that shapes the wire besides the message id (exact-case qname
// bytes, qtype, echoed header flags, payload limit, OPT echo). A hit is a
// hash probe + memcpy + id patch instead of a zone lookup + encode. Sound
// because the snapshot is immutable; Drop()ped on zone swap. Bounded: at
// capacity, a miss evicts the oldest inserted entry (FIFO clock) — a
// random-qname water-torture storm churns the cache instead of pinning its
// first fill forever, and the eviction counter makes the churn observable.
class AnswerCacheStage {
 public:
  // The full cache key, assembled either from a decoded Message or straight
  // from raw datagram bytes by the UDP fast lane (wire_probe.h). It covers
  // every query property that can shape the response bytes other than the
  // id: the exact-case qname (the question echo preserves case), qtype, the
  // header flag bits copied into the response (tc, rd — opcode and class
  // are pinned by the screen stage), the effective payload limit (which
  // also folds in the channel and the EDNS clamp), and whether an OPT
  // record is echoed. `name_hash` must equal dns::Name::Hash() of the qname
  // (util::simd::NameHash over the flat label bytes): it is case-folded, so
  // different-case spellings share a hash and are split by the exact-byte
  // equality check.
  struct WireKey {
    std::span<const std::uint8_t> qname;  // flat, exact case, no root octet
    std::uint64_t name_hash = 0;
    dns::RRType type = dns::RRType::kA;
    std::uint8_t flags = 0;  // echoed header bits: tc<<1 | rd
    bool echo_opt = false;
    std::size_t payload_limit = 0;
  };
  static std::uint8_t Flags(bool tc, bool rd) {
    return static_cast<std::uint8_t>((tc ? 2 : 0) | (rd ? 1 : 0));
  }
  // Borrowed view of a cached answer; valid until the next Insert or Drop().
  struct Hit {
    const std::uint8_t* wire = nullptr;  // id bytes zeroed
    std::size_t size = 0;
    zone::LookupDisposition disposition = zone::LookupDisposition::kAnswer;
    bool truncated = false;
  };
  // The key-hash formula: the name hash salted with every other
  // response-shaping property.
  static std::uint64_t KeyHash(const WireKey& key) {
    const std::uint64_t salt =
        (static_cast<std::uint64_t>(key.type) << 32) |
        (static_cast<std::uint64_t>(key.payload_limit) << 8) |
        (static_cast<std::uint64_t>(key.flags) << 1) | (key.echo_opt ? 1 : 0);
    return key.name_hash ^ (salt * 0x9E3779B97F4A7C15ULL);
  }

  AnswerCacheStage(std::size_t capacity, AuthCounters& c, PipelineCounters& pc)
      : capacity_(capacity), c_(c), pc_(pc) {}
  bool enabled() const { return capacity_ != 0; }

  // The lookup, side-effect free: no counters. The fast lane probes before
  // it commits to serving, so a miss leaves the server's state exactly as
  // the slow path expects.
  bool Probe(const WireKey& key, std::uint64_t key_hash, Hit& hit) const;

  // Counts one query that reached the cache — `hit` is null on a miss —
  // replaying a hit's disposition and truncation so cached and uncached
  // serving count identically.
  void CountProbe(const Hit* hit) {
    pc_.cache_probes.Inc();
    if (hit == nullptr) return;
    CountDisposition(c_, hit->disposition);
    if (hit->truncated) c_.truncated.Inc();
    c_.cache_hits.Inc();
  }

  // Memoizes the live answer to a query that missed.
  void Insert(const WireKey& key, std::uint64_t key_hash,
              zone::LookupDisposition disposition, bool truncated,
              std::span<const std::uint8_t> wire);

  void Drop() {
    entries_.clear();
    index_.Clear();
    clock_ = 0;
  }
  std::size_t size() const { return entries_.size(); }

 private:
  struct CachedAnswer {
    std::uint64_t hash = 0;
    util::Bytes name;  // exact-case qname wire bytes (the echo must match)
    dns::RRType type = dns::RRType::kA;
    std::uint8_t flags = 0;  // echoed header bits: tc<<1 | rd
    bool echo_opt = false;
    std::uint32_t payload_limit = 0;
    zone::LookupDisposition disposition = zone::LookupDisposition::kAnswer;
    bool truncated = false;
    util::Bytes wire;  // stored with the id bytes zeroed
  };

  std::size_t capacity_;
  AuthCounters& c_;
  PipelineCounters& pc_;
  std::vector<CachedAnswer> entries_;
  util::FlatHashIndex index_;
  std::size_t clock_ = 0;  // next eviction victim once at capacity
};

// The snapshot answerer: zone lookup + disposition classification, for the
// queries no earlier stage resolved.
class SnapshotAnswerStage {
 public:
  SnapshotAnswerStage(bool include_dnssec, AuthCounters& c,
                      PipelineCounters& pc)
      : include_dnssec_(include_dnssec), c_(c), pc_(pc) {}
  // The returned view borrows `snapshot`'s arena and this stage's scratch;
  // it is valid until the next Answer().
  const zone::LookupView& Answer(const zone::ZoneSnapshot& snapshot,
                                 const dns::Question& question);

 private:
  bool include_dnssec_;
  AuthCounters& c_;
  PipelineCounters& pc_;
  zone::LookupView scratch_;  // capacity retained across queries
};

}  // namespace rootless::rootsrv
