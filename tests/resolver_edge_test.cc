// Edge-case coverage for the recursive resolver: glueless delegations,
// TTL expiry, zone updates, root-selection convergence, and id handling.
#include <gtest/gtest.h>

#include <memory>

#include "resolver/recursive.h"
#include "rootsrv/fleet.h"
#include "rootsrv/tld_farm.h"
#include "topo/deployment.h"
#include "topo/topology.h"
#include "zone/evolution.h"

namespace rootless::resolver {
namespace {

using dns::Name;
using dns::RRClass;
using dns::RRType;

Name N(std::string_view s) { return *Name::Parse(s); }

// A tiny hand-built root zone: one TLD with glue, one without (glueless
// delegation — the nameserver name lives out of bailiwick).
std::shared_ptr<zone::Zone> TinyRoot() {
  auto z = std::make_shared<zone::Zone>();
  dns::SoaData soa;
  soa.mname = N("a.root-servers.net.");
  soa.serial = 2019010100;
  soa.minimum = 86400;
  EXPECT_TRUE(z->AddRecord({Name(), RRType::kSOA, RRClass::kIN, 86400, soa})
                  .ok());
  EXPECT_TRUE(z->AddRecord({N("glued."), RRType::kNS, RRClass::kIN, 172800,
                            dns::NsData{N("ns1.nic.glued.")}})
                  .ok());
  EXPECT_TRUE(z->AddRecord({N("ns1.nic.glued."), RRType::kA, RRClass::kIN,
                            172800,
                            dns::AData{*dns::Ipv4::Parse("192.0.2.1")}})
                  .ok());
  // Glueless: NS target under another TLD, no A record in the root zone.
  EXPECT_TRUE(z->AddRecord({N("glueless."), RRType::kNS, RRClass::kIN, 172800,
                            dns::NsData{N("ns.operator.glued.")}})
                  .ok());
  return z;
}

struct Env {
  sim::Simulator sim;
  sim::Network net{sim, 77};
  topo::Topology registry;
  std::shared_ptr<zone::Zone> root_zone = TinyRoot();
  zone::SnapshotPtr root_snapshot = zone::ZoneSnapshot::Build(*root_zone);
  std::unique_ptr<rootsrv::AuthServer> root;
  std::unique_ptr<rootsrv::TldFarm> farm;

  Env() {
    net.set_latency_fn(registry.LatencyFn());
    root = std::make_unique<rootsrv::AuthServer>(
        &net, root_snapshot, rootsrv::AuthServer::Options{});
    registry.PlaceNode(root->node(), {40, -74});
    farm = std::make_unique<rootsrv::TldFarm>(net, registry, *root_snapshot,
                                              3);
  }

  std::unique_ptr<RecursiveResolver> MakeResolver(RootMode mode) {
    ResolverConfig config;
    config.mode = mode;
    config.seed = 2;
    auto r = std::make_unique<RecursiveResolver>(
        sim, net,
        RecursiveResolver::Options{config, topo::GeoPoint{48, 2}, nullptr,
                                   &registry});
    r->SetTldFarm(farm.get());
    if (mode == RootMode::kLoopbackAuth) {
      r->SetLoopbackNode(root->node());
      r->SetLocalZone(root_snapshot);
    } else {
      r->SetLocalZone(root_snapshot);
    }
    return r;
  }

  ResolutionResult ResolveSync(RecursiveResolver& r, std::string_view name) {
    ResolutionResult out;
    bool done = false;
    r.Resolve(N(name), RRType::kA, [&](const ResolutionResult& result) {
      out = result;
      done = true;
    });
    sim.Run();
    EXPECT_TRUE(done);
    return out;
  }
};

TEST(ResolverEdge, GluelessDelegationCostsAnExtraHop) {
  Env env;
  auto r = env.MakeResolver(RootMode::kOnDemandZoneFile);
  const auto glued = env.ResolveSync(*r, "www.example.glued.");
  ASSERT_EQ(glued.rcode, dns::RCode::kNoError);

  auto r2 = env.MakeResolver(RootMode::kOnDemandZoneFile);
  const auto glueless = env.ResolveSync(*r2, "www.example.glueless.");
  ASSERT_EQ(glueless.rcode, dns::RCode::kNoError);
  // The glueless path records the extra NS-resolution transaction.
  EXPECT_GT(glueless.transactions, glued.transactions);
}

TEST(ResolverEdge, ReferralExpiryForcesRootReconsultation) {
  Env env;
  auto r = env.MakeResolver(RootMode::kOnDemandZoneFile);
  (void)env.ResolveSync(*r, "a.example.glued.");
  EXPECT_EQ(r->stats().local_root_lookups, 1u);

  // Within TTL: referral cached, no new local lookup.
  (void)env.ResolveSync(*r, "b.example.glued.");
  EXPECT_EQ(r->stats().local_root_lookups, 1u);

  // Jump past the 2-day TTL: the referral has expired.
  env.sim.RunUntil(env.sim.now() + 3 * sim::kDay);
  (void)env.ResolveSync(*r, "c.example.glued.");
  EXPECT_EQ(r->stats().local_root_lookups, 2u);
}

TEST(ResolverEdge, ZoneUpdateChangesAnswers) {
  Env env;
  auto r = env.MakeResolver(RootMode::kOnDemandZoneFile);
  EXPECT_EQ(env.ResolveSync(*r, "x.newtld.").rcode, dns::RCode::kNXDomain);

  // Publish a new zone version with the TLD added.
  auto updated = std::make_shared<zone::Zone>(*env.root_zone);
  ASSERT_TRUE(updated
                  ->AddRecord({N("newtld."), RRType::kNS, RRClass::kIN, 172800,
                               dns::NsData{N("ns1.nic.newtld.")}})
                  .ok());
  ASSERT_TRUE(updated
                  ->AddRecord({N("ns1.nic.newtld."), RRType::kA, RRClass::kIN,
                               172800,
                               dns::AData{*dns::Ipv4::Parse("192.0.2.99")}})
                  .ok());
  auto updated_snapshot = zone::ZoneSnapshot::Build(*updated);
  r->SetLocalZone(updated_snapshot);
  env.farm->RefreshAddresses(*updated_snapshot);
  // Note: negative cache would keep answering NXDOMAIN until its TTL; a new
  // name avoids that here (the TTL interplay is tested separately).
  env.sim.RunUntil(env.sim.now() + 2 * sim::kHour);
  EXPECT_EQ(env.ResolveSync(*r, "y.newtld.").rcode, dns::RCode::kNoError);
}

TEST(ResolverEdge, CaseInsensitiveReferralReuse) {
  Env env;
  auto r = env.MakeResolver(RootMode::kOnDemandZoneFile);
  (void)env.ResolveSync(*r, "www.example.glued.");
  EXPECT_EQ(r->stats().local_root_lookups, 1u);
  (void)env.ResolveSync(*r, "WWW.OTHER.GLUED.");
  // Same TLD, different case: referral reused.
  EXPECT_EQ(r->stats().local_root_lookups, 1u);
}

TEST(ResolverEdge, LoopbackNxdomainPath) {
  Env env;
  auto r = env.MakeResolver(RootMode::kLoopbackAuth);
  const auto result = env.ResolveSync(*r, "device.home.");
  EXPECT_EQ(result.rcode, dns::RCode::kNXDomain);
  EXPECT_EQ(env.root->stats().nxdomain, 1u);
  // Negative-cached afterwards.
  const auto again = env.ResolveSync(*r, "other.home.");
  EXPECT_EQ(again.rcode, dns::RCode::kNXDomain);
  EXPECT_EQ(env.root->stats().nxdomain, 1u);
}

TEST(ResolverEdge, SelectorConvergesOnNearbyLetter) {
  sim::Simulator sim;
  sim::Network net(sim, 7);
  topo::Topology registry;
  net.set_latency_fn(registry.LatencyFn());
  const zone::RootZoneModel model;
  const zone::SnapshotPtr root_zone =
      zone::ZoneSnapshot::Build(model.Snapshot({2018, 4, 11}));
  rootsrv::RootServerFleet fleet(net, registry, root_zone);
  rootsrv::TldFarm farm(net, registry, *root_zone, 3);

  ResolverConfig config;
  config.mode = RootMode::kRootServers;
  config.seed = 10;
  const topo::GeoPoint where{48.85, 2.35};
  RecursiveResolver r(sim, net, {config, where, nullptr, &registry});
  r.SetTldFarm(&farm);
  r.SetRootFleet(&fleet);

  // Force many root consultations with distinct TLD-looking bogus names.
  for (int i = 0; i < 60; ++i) {
    r.Resolve(N("x.bogus" + std::to_string(i) + "."), RRType::kA,
              [](const auto&) {});
    sim.Run();
  }
  // After probing, every letter has an estimate and the resolver's current
  // preference must be among the genuinely fastest.
  const auto& selector = r.root_selector();
  sim::SimTime best = 0;
  bool first = true;
  for (char letter = 'a'; letter <= 'm'; ++letter) {
    ASSERT_TRUE(selector.probed(letter)) << letter;
    if (first || selector.srtt(letter) < best) {
      best = selector.srtt(letter);
      first = false;
    }
  }
  // Large anycast letters should give Paris sub-25ms SRTT.
  EXPECT_LT(best, 25 * sim::kMillisecond);
}

TEST(ResolverEdge, ManyConcurrentResolutions) {
  Env env;
  auto r = env.MakeResolver(RootMode::kOnDemandZoneFile);
  int completed = 0;
  for (int i = 0; i < 500; ++i) {
    r->Resolve(N("h" + std::to_string(i) + ".example.glued."), RRType::kA,
               [&](const ResolutionResult& result) {
                 EXPECT_EQ(result.rcode, dns::RCode::kNoError);
                 ++completed;
               });
  }
  env.sim.Run();
  EXPECT_EQ(completed, 500);
}

}  // namespace
}  // namespace rootless::resolver

namespace rootless::resolver {
namespace {

TEST(ResolverEdge, EncryptedTransportPaysHandshakeOnce) {
  Env env;
  ResolverConfig config;
  config.mode = RootMode::kLoopbackAuth;
  config.encrypted_transport = true;
  config.seed = 3;
  RecursiveResolver r(env.sim, env.net,
                      {config, topo::GeoPoint{48, 2}, nullptr, &env.registry});
  r.SetTldFarm(env.farm.get());
  r.SetLoopbackNode(env.root->node());
  r.SetLocalZone(env.root_snapshot);

  auto resolve = [&](std::string_view name) {
    ResolutionResult out;
    r.Resolve(*dns::Name::Parse(name), RRType::kA,
              [&](const ResolutionResult& result) { out = result; });
    env.sim.Run();
    return out;
  };
  const auto first = resolve("a.example.glued.");
  EXPECT_EQ(first.rcode, dns::RCode::kNoError);
  const auto handshakes_after_first = r.stats().handshakes;
  EXPECT_GE(handshakes_after_first, 2u);  // root session + TLD session

  // Same servers again: sessions reused, latency strictly lower.
  const auto second = resolve("b.example.glued.");
  EXPECT_EQ(second.rcode, dns::RCode::kNoError);
  EXPECT_EQ(r.stats().handshakes, handshakes_after_first);
  EXPECT_LT(second.latency, first.latency);
}

TEST(ResolverEdge, EncryptedTransportSlowerThanUdpWhenCold) {
  Env env;
  auto MakeWith = [&](bool encrypted) {
    ResolverConfig config;
    config.mode = RootMode::kOnDemandZoneFile;
    config.encrypted_transport = encrypted;
    config.seed = 5;
    auto r = std::make_unique<RecursiveResolver>(
        env.sim, env.net,
        RecursiveResolver::Options{config, topo::GeoPoint{48, 2}, nullptr,
                                   &env.registry});
    r->SetTldFarm(env.farm.get());
    r->SetLocalZone(env.root_snapshot);
    return r;
  };
  auto udp = MakeWith(false);
  auto tls = MakeWith(true);
  const auto udp_result = env.ResolveSync(*udp, "x.example.glued.");
  const auto tls_result = env.ResolveSync(*tls, "x.example.glued.");
  EXPECT_EQ(udp_result.rcode, dns::RCode::kNoError);
  EXPECT_EQ(tls_result.rcode, dns::RCode::kNoError);
  EXPECT_GT(tls_result.latency, udp_result.latency);
}

}  // namespace
}  // namespace rootless::resolver
