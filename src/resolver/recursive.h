// Recursive resolver over the simulated network.
//
// Implements the paper's four bootstrap configurations:
//   kRootServers     — classic: root hints + anycast root fleet + RTT-based
//                      root selection (the baseline being argued against).
//   kCachePreload    — §3 option 1: read the whole root zone into the cache.
//   kOnDemandZoneFile— §3 option 2: consult a local root-zone store whenever
//                      a root query would have been sent (ZoneSnapshot::Lookup
//                      with a configurable access latency).
//   kLoopbackAuth    — §3 option 3 / RFC 7706: a local authoritative root
//                      instance reached over loopback.
//
// Resolution is asynchronous: Resolve() returns immediately and the callback
// fires when the simulated lookup completes (including retries/timeouts).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <unordered_set>

#include "crypto/dnssec.h"
#include "obs/counter_set.h"
#include "obs/metrics.h"
#include "util/strings.h"
#include "dns/message.h"
#include "resolver/cache.h"
#include "resolver/root_selector.h"
#include "rootsrv/fleet.h"
#include "rootsrv/tld_farm.h"
#include "sim/network.h"
#include "sim/retry.h"
#include "sim/simulator.h"
#include "topo/geo.h"
#include "topo/topology.h"
#include "util/bytes.h"
#include "zone/zone_snapshot.h"

namespace rootless::resolver {

enum class RootMode {
  kRootServers,
  kCachePreload,
  kOnDemandZoneFile,
  kLoopbackAuth,
};

std::string RootModeName(RootMode mode);

struct ResolverConfig {
  RootMode mode = RootMode::kRootServers;
  // QNAME minimization (RFC 7816): send only the TLD to the root.
  bool qname_minimization = false;
  std::size_t cache_capacity = 0;  // RRsets; 0 = unlimited
  // Local-store access latency for kOnDemandZoneFile (an indexed DB; the
  // paper's naive compressed-file scan would be ~37 ms).
  sim::SimTime db_lookup_latency = 200;  // 200 us
  // RFC 2308 negative caching of NXDOMAIN (bogus-TLD) answers.
  bool negative_cache = true;
  // Encrypted transport (DoT/DoH-style): the first query to each server
  // pays a connection+TLS handshake (2 extra RTTs); later queries reuse the
  // session. The paper's Sec 4 contrasts encrypting root transactions with
  // eliminating them.
  bool encrypted_transport = false;
  // DNSSEC: validate NXDOMAIN denials from the root against the trust
  // anchor installed via SetTrustAnchor (requires a signed root zone with
  // an NSEC chain). Spoofed denials then count as manipulation and are
  // retried instead of believed.
  bool validate_denials = false;
  std::uint32_t validation_now = 1000;  // unix time for RRSIG windows
  std::uint64_t seed = 1;
  // NXNSAttack surface (Afek et al., PAPERS.md): when a TLD answer is an
  // unusable glueless referral (NOERROR, no answers, NS authority without
  // glue), chase up to this many of the referral's NS target names with
  // fire-and-forget A lookups — the behaviour that lets one malicious
  // delegation fan a single query into `fanout` fresh root lookups. 0
  // (default) keeps the historical behaviour bit-for-bit: the referral is
  // just a SERVFAIL.
  int max_glueless_chase = 0;
  // Retry policy (sim/retry.h) for root and TLD queries: each attempt gets
  // attempt_timeout, the attempt budget is max_attempts, and re-asks after a
  // timeout or bad response wait out the policy's (jittered) exponential
  // backoff. The default's zero backoff re-asks immediately, three times.
  sim::RetryPolicy retry{.max_attempts = 4,
                         .attempt_timeout = 2 * sim::kSecond,
                         .initial_backoff = 0};
};

struct ResolutionResult {
  dns::RCode rcode = dns::RCode::kServFail;
  std::vector<dns::RRset> answers;
  sim::SimTime latency = 0;
  int transactions = 0;   // network round trips issued
  bool used_root = false; // a root transaction (or local equivalent) occurred
  bool failed = false;    // retries exhausted
};

// The resolver's counters (module "resolver", one instance label per
// resolver): ResolverStats is the snapshot stats() reads, ResolverCounters
// the pre-resolved registry handles (a bump is one 64-bit add through a
// pointer).
//   full_qname_exposures — privacy accounting (Sec 4): root queries that
//     exposed more of the qname than the TLD the root can act on (QNAME
//     minimization avoids these; local-root modes never expose anything).
//   glueless_referrals, chase_queries — NXNS accounting: unusable glueless
//     referrals seen, and the NS-target chase lookups they spawned (see
//     ResolverConfig::max_glueless_chase).
#define ROOTLESS_RESOLVER_COUNTERS(X)                                     \
  X(resolutions)                                                          \
  X(answered_from_cache)                                                  \
  X(root_transactions)      /* packets to root servers */                 \
  X(local_root_lookups)     /* local-zone consultations */                \
  X(tld_transactions)                                                     \
  X(full_qname_exposures)                                                 \
  X(handshakes)             /* encrypted-transport session setups */      \
  X(nxdomain)                                                             \
  X(negative_hits)          /* NXDOMAIN answered from cache */            \
  X(manipulation_detected)  /* denials failing validation */              \
  X(timeouts)                                                             \
  X(failures)                                                             \
  X(retries)                /* re-asks after timeout/bad response */      \
  X(glueless_referrals)                                                   \
  X(chase_queries)
ROOTLESS_COUNTER_SET(ResolverStats, ResolverCounters,
                     ROOTLESS_RESOLVER_COUNTERS);

class RecursiveResolver {
 public:
  using ResolveCallback = std::function<void(const ResolutionResult&)>;

  // Aggregate options (designated-initializer friendly).
  struct Options {
    ResolverConfig config;
    topo::GeoPoint location;
    obs::Registry* registry = nullptr;
    // When set, the resolver registers its own node at `location` in the
    // topology (replacing the old external SetLocation call) — the same
    // facade whose catchment model routes its classic root queries.
    topo::Topology* topology = nullptr;
  };

  RecursiveResolver(sim::Simulator& sim, sim::Network& network,
                    Options options);

  sim::NodeId node() const { return node_; }
  const topo::GeoPoint& location() const { return location_; }

  // --- wiring ---------------------------------------------------------
  // kRootServers mode: the anycast fleet to query.
  void SetRootFleet(const rootsrv::RootServerFleet* fleet) { fleet_ = fleet; }
  // All modes: the TLD servers referrals point at.
  void SetTldFarm(const rootsrv::TldFarm* farm) { farm_ = farm; }
  // Local-root modes: installs/updates the local root zone copy as an
  // immutable snapshot — the same SnapshotPtr a RefreshDaemon fetches and a
  // whole fleet can share. Swapping is atomic: the next consult runs
  // ZoneSnapshot::Lookup on the new snapshot, and nothing is rebuilt;
  // preload mode additionally loads every RRset into the cache.
  void SetLocalZone(zone::SnapshotPtr root_zone);
  // kLoopbackAuth: node of the local root instance (an AuthServer whose
  // location equals this resolver's).
  void SetLoopbackNode(sim::NodeId node) {
    loopback_ = node;
    has_loopback_ = true;
  }
  // Trust anchor for validate_denials (the resolver's copy of the root
  // DNSKEY; the KeyStore plays the public-key math, see crypto/dnssec.h).
  void SetTrustAnchor(dns::DnskeyData dnskey, crypto::KeyStore store) {
    trust_dnskey_ = std::move(dnskey);
    trust_store_ = std::move(store);
    has_trust_ = true;
  }

  // --- operation ------------------------------------------------------
  void Resolve(const dns::Name& qname, dns::RRType qtype,
               const ResolveCallback& cb);

  DnsCache& cache() { return cache_; }
  const DnsCache& cache() const { return cache_; }
  // Snapshot of the registry-backed counters.
  ResolverStats stats() const { return c_.Read(); }
  const RootSelector& root_selector() const { return selector_; }
  const ResolverConfig& config() const { return config_; }

 private:
  struct Pending {
    dns::Name qname;
    dns::RRType qtype = dns::RRType::kA;
    ResolveCallback callback;
    sim::SimTime start = 0;
    int transactions = 0;
    bool used_root = false;
    // Spawned by a glueless-referral chase; never chases further (the loop
    // guard that keeps NXNS amplification one level deep on our side).
    bool is_chase = false;
    // In-flight transaction bookkeeping.
    enum class Stage { kRoot, kTld } stage = Stage::kRoot;
    char root_letter = 0;
    int retries_left = 0;
    int attempt = 1;  // 1-based attempt number (for backoff + histogram)
    sim::SimTime last_send = 0;
    std::uint64_t generation = 0;  // invalidates stale timeout events
  };

  // Resolve() body; `is_chase` marks fire-and-forget NS-target lookups.
  void ResolveImpl(const dns::Name& qname, dns::RRType qtype,
                   const ResolveCallback& cb, bool is_chase);
  void StartResolution(std::uint16_t id, Pending& pending);
  // Consults the configured root source for the TLD referral.
  void AskRoot(std::uint16_t id);
  void AskRootServers(std::uint16_t id);
  void AskLocalStore(std::uint16_t id);
  // Queries the TLD server once referral data is cached.
  void AskTld(std::uint16_t id);
  // Referral data for qname's TLD is in cache? (NS + usable address)
  bool ReferralCached(const dns::Name& qname);

  void HandleDatagram(const sim::Datagram& datagram);
  void HandleRootResponse(std::uint16_t id, Pending& pending,
                          const dns::Message& response);
  void HandleTldResponse(std::uint16_t id, Pending& pending,
                         const dns::Message& response);
  void HandleTimeout(std::uint16_t id, std::uint64_t generation);
  void ArmTimeout(std::uint16_t id);

  void Finish(std::uint16_t id, dns::RCode rcode,
              std::vector<dns::RRset> answers, bool failed = false);
  void CacheRecords(const std::vector<dns::ResourceRecord>& records);
  // Negative cache (RFC 2308), keyed by TLD label (case-insensitive;
  // lookups take views straight out of the qname).
  bool NegativeCached(std::string_view tld) const;
  void CacheNegative(std::string_view tld, sim::SimTime ttl);
  // Retry or fail after a bad (unvalidatable) response.
  void RetryAfterBadResponse(std::uint16_t id);
  // Re-issues the current stage's query after the retry policy's jittered
  // backoff (immediately when that is zero).
  void ReissueAfterBackoff(std::uint16_t id);
  void ReissueNow(std::uint16_t id);
  // Sends a query datagram, modelling the encrypted-transport handshake on
  // first contact with a server and any extra pre-send delay.
  void SendDnsQuery(sim::NodeId target, const dns::Message& query,
                    sim::SimTime extra_delay = 0);

  // Picks the network node for the current TLD target; false if the TLD's
  // servers cannot be located (treated as SERVFAIL).
  bool TldNodeFor(const dns::Name& qname, sim::NodeId& node, bool& extra_hop);

  sim::Simulator& sim_;
  sim::Network& network_;
  ResolverConfig config_;
  topo::GeoPoint location_;
  sim::NodeId node_;

  const rootsrv::RootServerFleet* fleet_ = nullptr;
  const rootsrv::TldFarm* farm_ = nullptr;
  sim::NodeId loopback_ = 0;
  bool has_loopback_ = false;
  dns::DnskeyData trust_dnskey_;
  crypto::KeyStore trust_store_;
  bool has_trust_ = false;
  std::unordered_map<std::string, sim::SimTime, util::CaseInsensitiveHash,
                     util::CaseInsensitiveEqual>
      negative_;
  std::unordered_set<sim::NodeId> sessions_;  // encrypted sessions

  DnsCache cache_;
  // Local root zone (nullptr until SetLocalZone) and its consults' scratch.
  zone::SnapshotPtr local_zone_;
  zone::LookupView local_view_;
  RootSelector selector_;
  util::Rng rng_;
  ResolverCounters c_;
  // Attempts consumed by each resolution that completed (cache hits and
  // other synchronous answers are not recorded).
  obs::Histogram attempts_per_success_;
  // Latency distribution of resolutions that left the resolver (cache and
  // negative hits complete synchronously at latency 0 and are counted, not
  // recorded, so the fast path stays allocation- and histogram-free).
  obs::Histogram latency_us_;

  // Resolutions that left the resolver, by query id (nonzero, so at most
  // kMaxInFlight at once; a resolution beyond that fails at once).
  static constexpr std::size_t kMaxInFlight = 65535;
  std::unordered_map<std::uint16_t, Pending> pending_;
  std::uint16_t next_id_ = 1;
  std::uint64_t next_generation_ = 1;
  // Capacity-recycled buffer for the cache-hit fast path (see Finish).
  std::vector<dns::RRset> answer_scratch_;
  // Encode scratch for outgoing queries; each query leaves it as one
  // exact-size copy.
  util::ByteWriter query_wire_;
};

}  // namespace rootless::resolver
