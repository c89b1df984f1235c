// Tests for authenticated denial: NSEC chain construction, covering checks,
// denial validation, signed-zone production, and the resolver's negative
// cache + manipulation detection (the §4 security story).
#include <gtest/gtest.h>

#include <memory>

#include "crypto/dnssec.h"
#include "resolver/recursive.h"
#include "rootsrv/auth_server.h"
#include "rootsrv/tld_farm.h"
#include "topo/topology.h"
#include "zone/evolution.h"
#include "zone/sign.h"

namespace rootless {
namespace {

using dns::Name;
using dns::NsecData;
using dns::RRset;
using dns::RRType;

Name N(std::string_view s) { return *Name::Parse(s); }

struct SignedEnv {
  util::Rng rng{404};
  crypto::SigningKey zsk = crypto::GenerateKey(crypto::kZskFlags, rng);
  crypto::KeyStore store;
  zone::Zone plain;
  zone::Zone signed_zone;

  SignedEnv() {
    store.AddKey(zsk);
    dns::SoaData soa;
    soa.mname = N("a.root-servers.net.");
    soa.minimum = 86400;
    (void)plain.AddRecord(
        {Name(), RRType::kSOA, dns::RRClass::kIN, 86400, soa});
    for (const char* tld : {"com", "net", "org", "dev"}) {
      (void)plain.AddRecord({N(std::string(tld) + "."), RRType::kNS,
                             dns::RRClass::kIN, 172800,
                             dns::NsData{N("ns1.nic." + std::string(tld) + ".")}});
      (void)plain.AddRecord(
          {N("ns1.nic." + std::string(tld) + "."), RRType::kA,
           dns::RRClass::kIN, 172800,
           dns::AData{dns::Ipv4{0xC0000200u + static_cast<std::uint32_t>(
                                                  tld[0])}}});
    }
    signed_zone = zone::SignZone(plain, zsk, {0, 100000});
  }
};

TEST(NsecChain, CoversEveryOwnerOnce) {
  SignedEnv env;
  const auto chain =
      crypto::BuildNsecChain(env.plain.AllRRsets(), Name(), 86400);
  // One NSEC per distinct owner (apex + 4 TLDs + 4 glue hosts).
  EXPECT_EQ(chain.size(), 9u);
  // The chain closes: following `next` from the apex visits every owner and
  // returns to the apex.
  std::size_t hops = 0;
  Name current;  // apex
  do {
    bool found = false;
    for (const auto& s : chain) {
      if (s.name == current) {
        current = std::get<NsecData>(s.rdatas.front()).next;
        found = true;
        break;
      }
    }
    ASSERT_TRUE(found) << current.ToString();
    ++hops;
    ASSERT_LE(hops, chain.size());
  } while (!current.is_root());
  EXPECT_EQ(hops, chain.size());
}

TEST(NsecChain, TypeBitmapsIncludeOwnerTypes) {
  SignedEnv env;
  const auto chain =
      crypto::BuildNsecChain(env.plain.AllRRsets(), Name(), 86400);
  for (const auto& s : chain) {
    const auto& nsec = std::get<NsecData>(s.rdatas.front());
    EXPECT_TRUE(std::find(nsec.types.begin(), nsec.types.end(),
                          RRType::kNSEC) != nsec.types.end());
    if (s.name == N("com.")) {
      EXPECT_TRUE(std::find(nsec.types.begin(), nsec.types.end(),
                            RRType::kNS) != nsec.types.end());
    }
  }
}

TEST(NsecCovers, IntervalSemantics) {
  NsecData nsec;
  nsec.next = N("net.");
  // NSEC at com. covering (com., net.).
  EXPECT_TRUE(crypto::NsecCovers(N("com."), nsec, N("dev."), Name()));
  EXPECT_TRUE(crypto::NsecCovers(N("com."), nsec, N("foo.com."), Name()));
  EXPECT_FALSE(crypto::NsecCovers(N("com."), nsec, N("org."), Name()));
  EXPECT_FALSE(crypto::NsecCovers(N("com."), nsec, N("com."), Name()));

  // Wrap-around NSEC: last owner pointing back to the apex.
  NsecData wrap;
  wrap.next = Name();
  EXPECT_TRUE(crypto::NsecCovers(N("org."), wrap, N("zz."), Name()));
  EXPECT_FALSE(crypto::NsecCovers(N("org."), wrap, N("net."), Name()));
}

TEST(SignedZone, ValidatesCompletely) {
  SignedEnv env;
  auto validated = crypto::ValidateZoneRRsets(
      env.signed_zone.AllRRsets(), env.zsk.dnskey, env.store, 5000);
  ASSERT_TRUE(validated.ok()) << validated.error().message();
  // plain RRsets + DNSKEY + NSEC per owner.
  EXPECT_GT(*validated, env.plain.rrset_count());
  // DNSKEY present at the apex.
  EXPECT_NE(env.signed_zone.Find(Name(), RRType::kDNSKEY), nullptr);
}

TEST(SignedZone, NxdomainCarriesProvableDenial) {
  SignedEnv env;
  const auto result =
      env.signed_zone.Lookup(N("foo.bogus."), RRType::kA, true);
  EXPECT_EQ(result.disposition, zone::LookupDisposition::kNxDomain);

  auto status = crypto::ValidateDenial(N("foo.bogus."), result.authority,
                                       env.zsk.dnskey, env.store, 5000);
  EXPECT_TRUE(status.ok()) << status.message();
}

TEST(SignedZone, DenialForNameBeforeFirstOwner) {
  SignedEnv env;
  // "aa." sorts before "com." — needs the wrap-around NSEC.
  const auto result = env.signed_zone.Lookup(N("aa."), RRType::kA, true);
  EXPECT_EQ(result.disposition, zone::LookupDisposition::kNxDomain);
  auto status = crypto::ValidateDenial(N("aa."), result.authority,
                                       env.zsk.dnskey, env.store, 5000);
  EXPECT_TRUE(status.ok()) << status.message();
}

TEST(ValidateDenial, RejectsSpoofedNxdomain) {
  SignedEnv env;
  // A bare NXDOMAIN with no NSEC (what an on-path attacker can forge).
  auto status = crypto::ValidateDenial(N("victim.com."), {}, env.zsk.dnskey,
                                       env.store, 5000);
  EXPECT_FALSE(status.ok());

  // An NSEC that does not cover the name.
  RRset nsec_set;
  nsec_set.name = N("org.");
  nsec_set.type = RRType::kNSEC;
  nsec_set.ttl = 60;
  NsecData nsec;
  nsec.next = N("zz.");
  nsec_set.rdatas.push_back(dns::Rdata(nsec));
  auto sig = crypto::SignRRset(nsec_set, env.zsk, Name(), 0, 100000);
  RRset sig_set;
  sig_set.name = nsec_set.name;
  sig_set.type = RRType::kRRSIG;
  sig_set.ttl = 60;
  sig_set.rdatas.push_back(dns::Rdata(sig));
  auto wrong = crypto::ValidateDenial(N("aaa."), {nsec_set, sig_set},
                                      env.zsk.dnskey, env.store, 5000);
  EXPECT_FALSE(wrong.ok());

  // A covering NSEC whose signature was forged (random bytes).
  RRset forged_sig_set = sig_set;
  std::get<dns::RrsigData>(forged_sig_set.rdatas[0]).signature[0] ^= 0xFF;
  auto forged = crypto::ValidateDenial(N("victim.com."),
                                       {nsec_set, forged_sig_set},
                                       env.zsk.dnskey, env.store, 5000);
  EXPECT_FALSE(forged.ok());
}

// ------------------------------------------------------------- resolver

struct AttackEnv {
  sim::Simulator sim;
  sim::Network net{sim, 5};
  topo::Topology registry;
  SignedEnv keys;
  std::shared_ptr<zone::Zone> signed_zone;
  zone::SnapshotPtr signed_snapshot;
  std::unique_ptr<rootsrv::AuthServer> root;
  std::unique_ptr<rootsrv::TldFarm> farm;

  AttackEnv() {
    net.set_latency_fn(registry.LatencyFn());
    signed_zone = std::make_shared<zone::Zone>(keys.signed_zone);
    signed_snapshot = zone::ZoneSnapshot::Build(*signed_zone);
    root = std::make_unique<rootsrv::AuthServer>(
        &net, signed_snapshot,
        rootsrv::AuthServer::Options{.include_dnssec = true});
    registry.PlaceNode(root->node(), {40, -74});
    farm = std::make_unique<rootsrv::TldFarm>(net, registry, *signed_snapshot,
                                              9);
  }

  std::unique_ptr<resolver::RecursiveResolver> MakeResolver(bool validate) {
    resolver::ResolverConfig config;
    config.mode = resolver::RootMode::kLoopbackAuth;  // single root node
    config.validate_denials = validate;
    config.validation_now = 5000;
    config.retry.max_attempts = 3;
    auto r = std::make_unique<resolver::RecursiveResolver>(
        sim, net,
        resolver::RecursiveResolver::Options{config, topo::GeoPoint{40, -74}});
    registry.PlaceNode(r->node(), {48, 2});
    r->SetTldFarm(farm.get());
    r->SetLoopbackNode(root->node());
    r->SetLocalZone(signed_snapshot);
    if (validate) r->SetTrustAnchor(keys.zsk.dnskey, keys.store);
    return r;
  }
};

TEST(ResolverNegativeCache, SecondBogusLookupIsLocal) {
  AttackEnv env;
  auto r = env.MakeResolver(false);
  int done = 0;
  r->Resolve(N("printer.belkin."), RRType::kA,
             [&](const resolver::ResolutionResult& result) {
               EXPECT_EQ(result.rcode, dns::RCode::kNXDomain);
               ++done;
             });
  env.sim.Run();
  const auto root_queries = env.root->stats().queries;
  r->Resolve(N("scanner.belkin."), RRType::kA,
             [&](const resolver::ResolutionResult& result) {
               EXPECT_EQ(result.rcode, dns::RCode::kNXDomain);
               EXPECT_EQ(result.latency, 0);
               ++done;
             });
  env.sim.Run();
  EXPECT_EQ(done, 2);
  EXPECT_EQ(env.root->stats().queries, root_queries);  // no extra root query
  EXPECT_EQ(r->stats().negative_hits, 1u);
}

TEST(ResolverNegativeCache, ExpiresAfterTtl) {
  AttackEnv env;
  auto r = env.MakeResolver(false);
  r->Resolve(N("a.belkin."), RRType::kA, [](const auto&) {});
  env.sim.Run();
  // Warp past the negative TTL (capped at 1h) and ask again.
  env.sim.RunUntil(env.sim.now() + 2 * sim::kHour);
  const auto before = env.root->stats().queries;
  r->Resolve(N("b.belkin."), RRType::kA, [](const auto&) {});
  env.sim.Run();
  EXPECT_GT(env.root->stats().queries, before);
}

TEST(ResolverValidation, AcceptsGenuineDenial) {
  AttackEnv env;
  auto r = env.MakeResolver(true);
  bool done = false;
  r->Resolve(N("foo.nonexistent-tld."), RRType::kA,
             [&](const resolver::ResolutionResult& result) {
               EXPECT_EQ(result.rcode, dns::RCode::kNXDomain);
               done = true;
             });
  env.sim.Run();
  EXPECT_TRUE(done);
  EXPECT_EQ(r->stats().manipulation_detected, 0u);
}

TEST(ResolverValidation, DetectsSpoofedDenial) {
  AttackEnv env;
  // On-path censor: replace any query to the root about victim TLD "com"
  // with a spoofed, unsigned NXDOMAIN.
  const sim::NodeId root_node = env.root->node();
  env.net.set_interceptor([root_node](const sim::Datagram& d)
                              -> sim::InterceptVerdict {
    if (d.dst != root_node) return sim::InterceptVerdict::Pass();
    auto query = dns::DecodeMessage(d.payload);
    if (!query.ok() || query->questions.empty())
      return sim::InterceptVerdict::Pass();
    if (query->questions[0].name.tld() != "com")
      return sim::InterceptVerdict::Pass();
    dns::Message spoof = MakeResponse(*query, dns::RCode::kNXDomain);
    spoof.header.aa = true;
    return sim::InterceptVerdict::Replace(
        sim::Datagram{.src = d.dst, .dst = d.src, .payload = dns::EncodeMessage(spoof)});
  });

  // Without validation: the resolver believes the censor.
  auto naive = env.MakeResolver(false);
  dns::RCode naive_rcode = dns::RCode::kNoError;
  naive->Resolve(N("www.example.com."), RRType::kA,
                 [&](const resolver::ResolutionResult& result) {
                   naive_rcode = result.rcode;
                 });
  env.sim.Run();
  EXPECT_EQ(naive_rcode, dns::RCode::kNXDomain);  // censored successfully

  // With validation: the spoof is detected; the lookup fails closed instead
  // of returning the attacker's answer.
  auto validating = env.MakeResolver(true);
  resolver::ResolutionResult out;
  validating->Resolve(N("www.example.com."), RRType::kA,
                      [&](const resolver::ResolutionResult& result) {
                        out = result;
                      });
  env.sim.Run();
  EXPECT_NE(out.rcode, dns::RCode::kNXDomain);
  EXPECT_GT(validating->stats().manipulation_detected, 0u);
}

TEST(ResolverValidation, LocalRootModeIsImmuneToOnPathCensor) {
  AttackEnv env;
  const sim::NodeId root_node = env.root->node();
  std::uint64_t interceptions = 0;
  env.net.set_interceptor([&, root_node](const sim::Datagram& d)
                              -> sim::InterceptVerdict {
    if (d.dst != root_node) return sim::InterceptVerdict::Pass();
    ++interceptions;
    return sim::InterceptVerdict::Drop();  // blackhole all root traffic
  });

  // A resolver with the zone preloaded never emits a root query, so the
  // censor never gets a shot.
  resolver::ResolverConfig config;
  config.mode = resolver::RootMode::kCachePreload;
  resolver::RecursiveResolver r(env.sim, env.net,
                                {config, topo::GeoPoint{48, 2}});
  env.registry.PlaceNode(r.node(), {48, 2});
  r.SetTldFarm(env.farm.get());
  r.SetLocalZone(env.signed_snapshot);

  dns::RCode rcode = dns::RCode::kServFail;
  r.Resolve(N("www.example.com."), RRType::kA,
            [&](const resolver::ResolutionResult& result) {
              rcode = result.rcode;
            });
  env.sim.Run();
  EXPECT_EQ(rcode, dns::RCode::kNoError);
  EXPECT_EQ(interceptions, 0u);
}

}  // namespace
}  // namespace rootless
