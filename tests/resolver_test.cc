// Tests for the resolver stack: cache, root selection, the recursive engine
// in all four root modes (local-root consults included), and the refresh
// daemon.
#include <gtest/gtest.h>

#include <initializer_list>
#include <memory>
#include <string_view>

#include "resolver/cache.h"
#include "resolver/recursive.h"
#include "resolver/refresh_daemon.h"
#include "resolver/root_selector.h"
#include "rootsrv/fleet.h"
#include "rootsrv/tld_farm.h"
#include "topo/deployment.h"
#include "zone/evolution.h"
#include "zone/zone_snapshot.h"

namespace rootless::resolver {
namespace {

using dns::Name;
using dns::RRClass;
using dns::RRset;
using dns::RRType;

Name N(std::string_view s) { return *Name::Parse(s); }

RRset MakeNsSet(std::string_view owner, std::string_view target,
                std::uint32_t ttl = 172800) {
  RRset s;
  s.name = N(owner);
  s.type = RRType::kNS;
  s.ttl = ttl;
  s.rdatas.push_back(dns::NsData{N(target)});
  return s;
}

// ------------------------------------------------------------------ cache

TEST(Cache, HitAndMiss) {
  DnsCache cache;
  cache.Put(MakeNsSet("com.", "a.gtld-servers.net."), 0);
  EXPECT_NE(cache.Get({N("com."), RRType::kNS, RRClass::kIN}, 1), nullptr);
  EXPECT_EQ(cache.Get({N("org."), RRType::kNS, RRClass::kIN}, 1), nullptr);
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().misses, 1u);
}

TEST(Cache, TtlExpiry) {
  DnsCache cache;
  cache.Put(MakeNsSet("com.", "ns.", 10), 0);  // expires at t=10s
  EXPECT_NE(cache.Get({N("com."), RRType::kNS, RRClass::kIN},
                      9 * sim::kSecond),
            nullptr);
  EXPECT_EQ(cache.Get({N("com."), RRType::kNS, RRClass::kIN},
                      10 * sim::kSecond),
            nullptr);
  EXPECT_EQ(cache.stats().expired, 1u);
  EXPECT_EQ(cache.size(), 0u);  // expired entry erased
}

TEST(Cache, LruEvictionUnderCapacity) {
  DnsCache cache(2);
  cache.Put(MakeNsSet("a.", "ns."), 0);
  cache.Put(MakeNsSet("b.", "ns."), 0);
  // Touch a. so b. becomes LRU.
  EXPECT_NE(cache.Get({N("a."), RRType::kNS, RRClass::kIN}, 1), nullptr);
  cache.Put(MakeNsSet("c.", "ns."), 0);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_NE(cache.Get({N("a."), RRType::kNS, RRClass::kIN}, 1), nullptr);
  EXPECT_EQ(cache.Get({N("b."), RRType::kNS, RRClass::kIN}, 1), nullptr);
  EXPECT_NE(cache.Get({N("c."), RRType::kNS, RRClass::kIN}, 1), nullptr);
}

TEST(Cache, ReplaceRefreshes) {
  DnsCache cache;
  cache.Put(MakeNsSet("com.", "ns1.", 10), 0);
  cache.Put(MakeNsSet("com.", "ns2.", 100), 5 * sim::kSecond);
  const RRset* got =
      cache.Get({N("com."), RRType::kNS, RRClass::kIN}, 50 * sim::kSecond);
  ASSERT_NE(got, nullptr);
  EXPECT_TRUE(std::get<dns::NsData>(got->rdatas[0]).nameserver == N("ns2."));
  EXPECT_EQ(cache.size(), 1u);
}

TEST(Cache, PurgeExpired) {
  DnsCache cache;
  cache.Put(MakeNsSet("a.", "ns.", 10), 0);
  cache.Put(MakeNsSet("b.", "ns.", 1000), 0);
  EXPECT_EQ(cache.PurgeExpired(500 * sim::kSecond), 1u);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(Cache, TldRRsetCount) {
  DnsCache cache;
  cache.Put(MakeNsSet("com.", "ns."), 0);
  cache.Put(MakeNsSet("org.", "ns."), 0);
  cache.Put(MakeNsSet("example.com.", "ns."), 0);
  EXPECT_EQ(cache.TldRRsetCount(), 2u);
}

// --------------------------------------------------------------- selector

TEST(RootSelector, ProbesAllLettersFirst) {
  RootSelector selector(1);
  std::set<char> seen;
  for (int i = 0; i < 13; ++i) {
    const char letter = selector.PickLetter();
    seen.insert(letter);
    selector.ReportRtt(letter, (letter - 'a' + 1) * sim::kMillisecond);
  }
  EXPECT_EQ(seen.size(), 13u);
}

TEST(RootSelector, ConvergesToFastestLetter) {
  RootSelector selector(1, /*explore=*/0.0);
  for (int i = 0; i < 13; ++i) {
    const char letter = selector.PickLetter();
    selector.ReportRtt(letter, (letter - 'a' + 1) * sim::kMillisecond);
  }
  // 'a' has the lowest RTT.
  for (int i = 0; i < 20; ++i) EXPECT_EQ(selector.PickLetter(), 'a');
}

TEST(RootSelector, TimeoutTriggersFailover) {
  RootSelector selector(1, 0.0);
  for (int i = 0; i < 13; ++i) {
    const char letter = selector.PickLetter();
    selector.ReportRtt(letter, (letter - 'a' + 1) * sim::kMillisecond);
  }
  selector.ReportTimeout('a');
  EXPECT_EQ(selector.PickLetter(), 'b');
  EXPECT_NE(selector.PickRetryLetter('b'), 'b');
}

TEST(RootSelector, EwmaSmoothing) {
  RootSelector selector(1);
  selector.ReportRtt('a', 100);
  selector.ReportRtt('a', 200);
  EXPECT_EQ(selector.srtt('a'), 125);  // (100*3 + 200) / 4
}

// ------------------------------------------------- end-to-end resolution

struct E2E {
  sim::Simulator sim;
  sim::Network net{sim, 21};
  topo::Topology registry;
  zone::RootZoneModel model;
  zone::SnapshotPtr root_snapshot;
  std::unique_ptr<rootsrv::RootServerFleet> fleet;
  std::unique_ptr<rootsrv::TldFarm> farm;
  std::unique_ptr<rootsrv::AuthServer> loopback;

  E2E() {
    net.set_latency_fn(registry.LatencyFn());
    // One immutable snapshot serves the fleet, the TLD farm, the loopback
    // server, and every local-root resolver in the fixture.
    root_snapshot = zone::ZoneSnapshot::Build(model.Snapshot({2018, 4, 11}));
    fleet = std::make_unique<rootsrv::RootServerFleet>(net, registry,
                                                       root_snapshot);
    farm = std::make_unique<rootsrv::TldFarm>(net, registry, *root_snapshot,
                                              5);
  }

  std::unique_ptr<RecursiveResolver> MakeResolver(RootMode mode,
                                                  topo::GeoPoint where = {48.85,
                                                                          2.35}) {
    ResolverConfig config;
    config.mode = mode;
    config.seed = 77;
    auto r = std::make_unique<RecursiveResolver>(
        sim, net,
        RecursiveResolver::Options{config, where, nullptr, &registry});
    r->SetTldFarm(farm.get());
    switch (mode) {
      case RootMode::kRootServers:
        r->SetRootFleet(fleet.get());
        break;
      case RootMode::kCachePreload:
      case RootMode::kOnDemandZoneFile:
        r->SetLocalZone(root_snapshot);
        break;
      case RootMode::kLoopbackAuth:
        loopback = std::make_unique<rootsrv::AuthServer>(
            &net, root_snapshot, rootsrv::AuthServer::Options{});
        registry.PlaceNode(loopback->node(), where);
        r->SetLoopbackNode(loopback->node());
        r->SetLocalZone(root_snapshot);  // loopback operators hold a copy
        break;
    }
    return r;
  }

  ResolutionResult ResolveSync(RecursiveResolver& r, std::string_view name,
                               RRType type = RRType::kA) {
    ResolutionResult out;
    bool done = false;
    r.Resolve(N(name), type, [&](const ResolutionResult& result) {
      out = result;
      done = true;
    });
    sim.Run();
    EXPECT_TRUE(done);
    return out;
  }
};

TEST(Recursive, ClassicModeResolvesViaRootAndTld) {
  E2E e2e;
  auto r = e2e.MakeResolver(RootMode::kRootServers);
  const auto result = e2e.ResolveSync(*r, "www.example.com.");
  EXPECT_EQ(result.rcode, dns::RCode::kNoError);
  ASSERT_EQ(result.answers.size(), 1u);
  EXPECT_EQ(result.answers[0].type, RRType::kA);
  EXPECT_TRUE(result.used_root);
  EXPECT_GE(result.transactions, 2);  // root + TLD
  EXPECT_GT(result.latency, 0);
  EXPECT_EQ(e2e.fleet->TotalStats().referrals, 1u);
}

TEST(Recursive, SecondLookupUsesCachedReferral) {
  E2E e2e;
  auto r = e2e.MakeResolver(RootMode::kRootServers);
  (void)e2e.ResolveSync(*r, "www.example.com.");
  const auto second = e2e.ResolveSync(*r, "other.example.com.");
  EXPECT_EQ(second.rcode, dns::RCode::kNoError);
  EXPECT_FALSE(second.used_root);  // TLD referral was cached
  EXPECT_EQ(e2e.fleet->TotalStats().queries, 1u);
}

TEST(Recursive, ExactAnswerCacheHitIsInstant) {
  E2E e2e;
  auto r = e2e.MakeResolver(RootMode::kRootServers);
  (void)e2e.ResolveSync(*r, "www.example.com.");
  const auto again = e2e.ResolveSync(*r, "www.example.com.");
  EXPECT_EQ(again.latency, 0);
  EXPECT_EQ(again.transactions, 0);
  EXPECT_EQ(r->stats().answered_from_cache, 1u);
}

TEST(Recursive, BogusTldYieldsNxdomainFromRoot) {
  E2E e2e;
  auto r = e2e.MakeResolver(RootMode::kRootServers);
  const auto result = e2e.ResolveSync(*r, "foo.bogus-tld-xyz.");
  EXPECT_EQ(result.rcode, dns::RCode::kNXDomain);
  EXPECT_EQ(e2e.fleet->TotalStats().nxdomain, 1u);
}

TEST(Recursive, CachePreloadNeverTouchesRoots) {
  E2E e2e;
  auto r = e2e.MakeResolver(RootMode::kCachePreload);
  const auto result = e2e.ResolveSync(*r, "www.example.com.");
  EXPECT_EQ(result.rcode, dns::RCode::kNoError);
  EXPECT_EQ(e2e.fleet->TotalStats().queries, 0u);
  // Preloading put the whole zone in the cache.
  EXPECT_GE(r->cache().size(), e2e.root_snapshot->rrset_count());
}

TEST(Recursive, OnDemandModeResolvesLocallyWithDbLatency) {
  E2E e2e;
  auto r = e2e.MakeResolver(RootMode::kOnDemandZoneFile);
  const auto result = e2e.ResolveSync(*r, "www.example.com.");
  EXPECT_EQ(result.rcode, dns::RCode::kNoError);
  EXPECT_EQ(e2e.fleet->TotalStats().queries, 0u);
  EXPECT_EQ(r->stats().local_root_lookups, 1u);
  // Cache holds only what was needed, not the whole zone.
  EXPECT_LT(r->cache().size(), 100u);
}

// Resolves each of `names` (under distinct TLDs) in both local-root modes and
// expects a local NXDOMAIN for each: no network transaction at all, so the
// consult costs only the store's access latency.
void ExpectLocalNxdomains(std::initializer_list<std::string_view> names) {
  E2E e2e;
  for (const RootMode mode :
       {RootMode::kCachePreload, RootMode::kOnDemandZoneFile}) {
    auto r = e2e.MakeResolver(mode);
    const sim::SimTime latency = mode == RootMode::kOnDemandZoneFile
                                     ? r->config().db_lookup_latency
                                     : 0;
    for (const std::string_view name : names) {
      const auto result = e2e.ResolveSync(*r, name);
      EXPECT_EQ(result.rcode, dns::RCode::kNXDomain)
          << RootModeName(mode) << ' ' << name;
      EXPECT_EQ(result.transactions, 0) << RootModeName(mode) << ' ' << name;
      EXPECT_EQ(result.latency, latency) << RootModeName(mode) << ' ' << name;
    }
    EXPECT_EQ(r->stats().local_root_lookups, names.size())
        << RootModeName(mode);
    EXPECT_EQ(r->stats().nxdomain, names.size()) << RootModeName(mode);
  }
  EXPECT_EQ(e2e.fleet->TotalStats().queries, 0u);
}

TEST(Recursive, LocalModesAnswerBogusTldLocally) {
  ExpectLocalNxdomains({"foo.bogus-tld-xyz."});
}

// The local equivalent of a root NXDOMAIN for the leaked names that make up
// much of root traffic: no fallback to the network.
TEST(Recursive, UnknownTldIsLocalNxDomain) {
  ExpectLocalNxdomains({"printer.local.", "foo.belkin."});
}

// The local store matches the qname in any case: a cold consult for
// WWW.COM. finds com.'s delegation.
TEST(Recursive, LocalConsultMatchesAnyCase) {
  E2E e2e;
  auto r = e2e.MakeResolver(RootMode::kOnDemandZoneFile);
  const auto result = e2e.ResolveSync(*r, "WWW.COM.");
  EXPECT_EQ(result.rcode, dns::RCode::kNoError);
  ASSERT_EQ(result.answers.size(), 1u);
  EXPECT_EQ(r->stats().local_root_lookups, 1u);
  EXPECT_EQ(r->stats().nxdomain, 0u);
}

// A cold local consult caches what a root referral delivers and nothing
// more: the TLD's NS RRset, the A and AAAA of every NS host, and the TLD's
// DS.
TEST(Recursive, LocalReferralCachesNsGlueAndDs) {
  E2E e2e;
  auto r = e2e.MakeResolver(RootMode::kOnDemandZoneFile);
  ASSERT_EQ(e2e.ResolveSync(*r, "www.com.").rcode, dns::RCode::kNoError);

  const zone::ZoneSnapshot& root = *e2e.root_snapshot;
  const Name com = N("com.");
  const auto ns = root.Find(com, RRType::kNS);
  ASSERT_TRUE(ns.has_value());
  std::vector<dns::RRsetKey> expected = {{com, RRType::kNS, RRClass::kIN}};
  for (const auto& rd : ns->Materialize().rdatas) {
    const Name& host = std::get<dns::NsData>(rd).nameserver;
    for (const RRType type : {RRType::kA, RRType::kAAAA}) {
      if (root.Find(host, type)) expected.push_back({host, type, RRClass::kIN});
    }
  }
  ASSERT_GT(expected.size(), 1u);  // com. has glue
  ASSERT_TRUE(root.Find(com, RRType::kDS));  // and the model signs it
  expected.push_back({com, RRType::kDS, RRClass::kIN});
  for (const dns::RRsetKey& key : expected) {
    EXPECT_TRUE(r->cache().Contains(key, e2e.sim.now()))
        << key.name.ToString() << ' ' << dns::RRTypeToString(key.type);
  }
  // One more insertion: the answer RRset.
  EXPECT_EQ(r->cache().stats().insertions, expected.size() + 1);
}

TEST(Recursive, LoopbackModeUsesLoopbackServer) {
  E2E e2e;
  auto r = e2e.MakeResolver(RootMode::kLoopbackAuth);
  const auto result = e2e.ResolveSync(*r, "www.example.com.");
  EXPECT_EQ(result.rcode, dns::RCode::kNoError);
  EXPECT_EQ(e2e.fleet->TotalStats().queries, 0u);
  EXPECT_EQ(e2e.loopback->stats().queries, 1u);
  // The root leg cost loopback latency instead of a WAN RTT, so the total
  // must beat the classic mode resolving the same name cold.
  auto classic = e2e.MakeResolver(RootMode::kRootServers);
  const auto classic_result = e2e.ResolveSync(*classic, "www.example.com.");
  EXPECT_LT(result.latency, classic_result.latency);
}

TEST(Recursive, LocalModesBeatClassicOnColdLookups) {
  E2E e2e;
  auto classic = e2e.MakeResolver(RootMode::kRootServers);
  auto preload = e2e.MakeResolver(RootMode::kCachePreload);
  const auto classic_result = e2e.ResolveSync(*classic, "www.example.com.");
  const auto preload_result = e2e.ResolveSync(*preload, "www.example.com.");
  EXPECT_LT(preload_result.latency, classic_result.latency);
}

TEST(Recursive, QnameMinimizationSendsOnlyTldToRoot) {
  E2E e2e;
  ResolverConfig config;
  config.mode = RootMode::kRootServers;
  config.qname_minimization = true;
  config.seed = 3;
  const topo::GeoPoint where{48.85, 2.35};
  RecursiveResolver r(e2e.sim, e2e.net, {config, where});
  e2e.registry.PlaceNode(r.node(), where);
  r.SetTldFarm(e2e.farm.get());
  r.SetRootFleet(e2e.fleet.get());

  bool done = false;
  r.Resolve(N("www.secret-host.example.com."), RRType::kA,
            [&](const ResolutionResult& result) {
              done = true;
              EXPECT_EQ(result.rcode, dns::RCode::kNoError);
            });
  e2e.sim.Run();
  EXPECT_TRUE(done);
  // The root saw an answerable NS query for com. (a referral in our zone
  // semantics), never the full qname.
  EXPECT_EQ(e2e.fleet->TotalStats().queries, 1u);
}

TEST(Recursive, TimeoutRetriesAnotherLetter) {
  E2E e2e;
  e2e.net.set_loss_rate(0.9);  // heavy loss forces retries
  ResolverConfig config;
  config.mode = RootMode::kRootServers;
  config.seed = 5;
  config.retry.max_attempts = 11;
  const topo::GeoPoint where{48.85, 2.35};
  RecursiveResolver r(e2e.sim, e2e.net, {config, where});
  e2e.registry.PlaceNode(r.node(), where);
  r.SetTldFarm(e2e.farm.get());
  r.SetRootFleet(e2e.fleet.get());

  bool done = false;
  dns::RCode rcode = dns::RCode::kServFail;
  r.Resolve(N("www.example.com."), RRType::kA,
            [&](const ResolutionResult& result) {
              done = true;
              rcode = result.rcode;
            });
  e2e.sim.Run();
  EXPECT_TRUE(done);
  // With 10 retries at 90% loss the lookup usually succeeds; either way the
  // resolver must have recorded timeouts and never hung.
  EXPECT_GT(r.stats().timeouts, 0u);
}

TEST(Recursive, ExhaustedRetriesFail) {
  E2E e2e;
  e2e.net.set_loss_rate(1.0);  // nothing gets through
  ResolverConfig config;
  config.mode = RootMode::kRootServers;
  config.seed = 5;
  config.retry.max_attempts = 3;
  const topo::GeoPoint where{48.85, 2.35};
  RecursiveResolver r(e2e.sim, e2e.net, {config, where});
  e2e.registry.PlaceNode(r.node(), where);
  r.SetTldFarm(e2e.farm.get());
  r.SetRootFleet(e2e.fleet.get());

  ResolutionResult out;
  bool done = false;
  r.Resolve(N("www.example.com."), RRType::kA,
            [&](const ResolutionResult& result) {
              out = result;
              done = true;
            });
  e2e.sim.Run();
  ASSERT_TRUE(done);
  EXPECT_TRUE(out.failed);
  EXPECT_EQ(out.rcode, dns::RCode::kServFail);
  EXPECT_EQ(r.stats().failures, 1u);
}

// With all 65,535 nonzero transaction ids in flight, one more resolution
// fails at once with SERVFAIL (no id, no transaction) instead of searching
// forever for a free id; the ones in flight still complete, and once ids
// free up resolution works again.
TEST(Recursive, TransactionIdExhaustionFailsInsteadOfHanging) {
  E2E e2e;
  auto r = e2e.MakeResolver(RootMode::kOnDemandZoneFile);
  constexpr int kIds = 65535;
  int completed = 0, failed = 0;
  for (int i = 0; i < kIds; ++i) {
    r->Resolve(N("h" + std::to_string(i) + ".com."), RRType::kA,
               [&](const ResolutionResult& result) {
                 ++completed;
                 if (result.failed) ++failed;
               });
  }
  ASSERT_EQ(completed, 0);

  ResolutionResult extra;
  bool extra_done = false;
  r->Resolve(N("h" + std::to_string(kIds) + ".com."), RRType::kA,
             [&](const ResolutionResult& result) {
               extra = result;
               extra_done = true;
             });
  ASSERT_TRUE(extra_done);
  EXPECT_TRUE(extra.failed);
  EXPECT_EQ(extra.rcode, dns::RCode::kServFail);
  EXPECT_EQ(extra.transactions, 0);
  EXPECT_EQ(r->stats().failures, 1u);

  e2e.sim.Run();
  EXPECT_EQ(completed, kIds);
  EXPECT_EQ(failed, 0);
  EXPECT_EQ(r->stats().failures, 1u);
  const auto after = e2e.ResolveSync(*r, "www.example.com.");
  EXPECT_EQ(after.rcode, dns::RCode::kNoError);
  EXPECT_FALSE(after.failed);
}

// Resolves `name` through a local-root resolver that has no TLD farm, so
// only its NXDOMAIN path can complete; true if the answer is NXDOMAIN.
bool ResolvesToNxdomain(sim::Simulator& sim, RecursiveResolver& r,
                        std::string_view name) {
  dns::RCode rcode = dns::RCode::kNoError;
  r.Resolve(N(name), RRType::kA,
            [&](const ResolutionResult& result) { rcode = result.rcode; });
  sim.Run();
  return rcode == dns::RCode::kNXDomain;
}

// A local-root NXDOMAIN is cached for min(SOA minimum, SOA TTL), capped at
// 1 h (RFC 2308), and the entry matches the label in any case.
TEST(Recursive, LocalNxdomainLivesForTheSoaNegativeTtl) {
  struct Soa {
    std::uint32_t ttl, minimum, negative_sec;
  };
  for (const Soa soa :
       {Soa{900, 600, 600}, Soa{300, 1200, 300}, Soa{7200, 86400, 3600}}) {
    zone::Zone zone;
    dns::SoaData data;
    data.mname = N("a.root-servers.net.");
    data.minimum = soa.minimum;
    ASSERT_TRUE(
        zone.AddRecord({Name(), RRType::kSOA, RRClass::kIN, soa.ttl, data})
            .ok());
    ASSERT_TRUE(zone.AddRecord({N("com."), RRType::kNS, RRClass::kIN, 172800,
                                dns::NsData{N("ns1.nic.com.")}})
                    .ok());
    sim::Simulator sim;
    sim::Network net(sim, 21);
    ResolverConfig config;
    config.mode = RootMode::kOnDemandZoneFile;
    config.seed = 77;
    RecursiveResolver r(sim, net, {config, topo::GeoPoint{48.85, 2.35}});
    r.SetLocalZone(zone::ZoneSnapshot::Build(zone));

    ASSERT_TRUE(ResolvesToNxdomain(sim, r, "printer.belkin."));
    ASSERT_EQ(r.stats().local_root_lookups, 1u);
    const sim::SimTime cached_at = sim.now();
    const sim::SimTime expires = cached_at + soa.negative_sec * sim::kSecond;
    sim.RunUntil(expires - 1);
    EXPECT_TRUE(ResolvesToNxdomain(sim, r, "scanner.BeLKiN."));
    EXPECT_EQ(r.stats().negative_hits, 1u) << "SOA TTL " << soa.ttl;
    EXPECT_EQ(r.stats().local_root_lookups, 1u);
    sim.RunUntil(expires);
    EXPECT_TRUE(ResolvesToNxdomain(sim, r, "nas.belkin."));
    EXPECT_EQ(r.stats().negative_hits, 1u) << "SOA TTL " << soa.ttl;
    EXPECT_EQ(r.stats().local_root_lookups, 2u);
  }
}

// With no SOA to take the TTL from, in a zone without one or with no zone
// loaded at all, a local-root NXDOMAIN is cached for the 1 h cap.
TEST(Recursive, LocalNxdomainWithoutSoaLivesForTheCap) {
  zone::Zone no_soa;
  ASSERT_TRUE(no_soa.AddRecord({N("com."), RRType::kNS, RRClass::kIN, 172800,
                                dns::NsData{N("ns1.nic.com.")}})
                  .ok());
  for (const bool loaded : {true, false}) {
    sim::Simulator sim;
    sim::Network net(sim, 21);
    ResolverConfig config;
    config.mode = RootMode::kOnDemandZoneFile;
    RecursiveResolver r(sim, net, {config, topo::GeoPoint{48.85, 2.35}});
    if (loaded) r.SetLocalZone(zone::ZoneSnapshot::Build(no_soa));

    ASSERT_TRUE(ResolvesToNxdomain(sim, r, "printer.belkin."));
    const sim::SimTime expires = sim.now() + sim::kHour;
    sim.RunUntil(expires - 1);
    EXPECT_TRUE(ResolvesToNxdomain(sim, r, "scanner.belkin."));
    EXPECT_EQ(r.stats().negative_hits, 1u) << "zone loaded " << loaded;
    sim.RunUntil(expires);
    EXPECT_TRUE(ResolvesToNxdomain(sim, r, "nas.belkin."));
    EXPECT_EQ(r.stats().negative_hits, 1u) << "zone loaded " << loaded;
    EXPECT_EQ(r.stats().local_root_lookups, 2u) << "zone loaded " << loaded;
  }
}

// ---------------------------------------------------------------- daemon

TEST(RefreshDaemon, RefreshesBeforeExpiry) {
  sim::Simulator sim;
  int fetches = 0, applies = 0;
  RefreshDaemon daemon(
      sim,
      {RefreshConfig{},
       {[&](std::function<void(RefreshDaemon::FetchResult)> done) {
         ++fetches;
         sim.Schedule(sim::kMinute, [done = std::move(done)]() {
           done(zone::ZoneSnapshot::Build(zone::Zone()));
         });
       }},
       [&](zone::SnapshotPtr) { ++applies; }});
  daemon.Start(zone::ZoneSnapshot::Build(zone::Zone()));
  EXPECT_EQ(applies, 1);
  sim.RunUntil(10 * sim::kDay);
  // Every ~42h a refresh: ~5-6 refreshes in 10 days.
  EXPECT_GE(daemon.stats().refreshes, 5u);
  EXPECT_EQ(daemon.stats().expirations, 0u);
  EXPECT_TRUE(daemon.zone_valid());
  EXPECT_EQ(fetches, static_cast<int>(daemon.stats().fetch_attempts));
}

TEST(RefreshDaemon, RetriesDuringOutageWithoutExpiring) {
  sim::Simulator sim;
  // Outage between hour 40 and hour 45 (fetch window opens at hour 42).
  auto in_outage = [&sim]() {
    return sim.now() >= 40 * sim::kHour && sim.now() < 45 * sim::kHour;
  };
  RefreshDaemon daemon(
      sim,
      {RefreshConfig{},
       {[&](std::function<void(RefreshDaemon::FetchResult)> done) {
         if (in_outage()) {
           done(util::Error("outage"));
         } else {
           done(zone::ZoneSnapshot::Build(zone::Zone()));
         }
       }},
       [](zone::SnapshotPtr) {}});
  daemon.Start(zone::ZoneSnapshot::Build(zone::Zone()));
  sim.RunUntil(3 * sim::kDay);
  // The paper's point: with a 6h lead there is room to retry through a
  // short outage with no impact on lookups.
  EXPECT_GT(daemon.stats().fetch_failures, 0u);
  EXPECT_EQ(daemon.stats().expirations, 0u);
  EXPECT_GE(daemon.stats().refreshes, 1u);
}

TEST(RefreshDaemon, LongOutageExpiresZone) {
  sim::Simulator sim;
  // Outage from hour 40 to hour 80: expiry at 48h passes while failing.
  auto in_outage = [&sim]() {
    return sim.now() >= 40 * sim::kHour && sim.now() < 80 * sim::kHour;
  };
  RefreshDaemon daemon(
      sim,
      {RefreshConfig{},
       {[&](std::function<void(RefreshDaemon::FetchResult)> done) {
         if (in_outage()) {
           done(util::Error("outage"));
         } else {
           done(zone::ZoneSnapshot::Build(zone::Zone()));
         }
       }},
       [](zone::SnapshotPtr) {}});
  daemon.Start(zone::ZoneSnapshot::Build(zone::Zone()));
  sim.RunUntil(48 * sim::kHour - 1);
  EXPECT_TRUE(daemon.zone_valid());
  sim.RunUntil(50 * sim::kHour);
  EXPECT_FALSE(daemon.zone_valid());
  sim.RunUntil(5 * sim::kDay);
  EXPECT_EQ(daemon.stats().expirations, 1u);
  EXPECT_TRUE(daemon.zone_valid());  // recovered after the outage
  EXPECT_GT(daemon.stats().stale_time, 0);
}

}  // namespace
}  // namespace rootless::resolver
