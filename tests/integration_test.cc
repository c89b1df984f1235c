// End-to-end integration: the paper's whole pipeline in one test —
// evolution model -> signed zone -> distribution (fetch service / rsync) ->
// refresh daemon -> recursive resolver answering clients from its local
// copy, across simulated days with zone updates.
#include <gtest/gtest.h>

#include <memory>

#include "distrib/axfr.h"
#include "distrib/fetch_service.h"
#include "distrib/rsync.h"
#include "resolver/recursive.h"
#include "resolver/refresh_daemon.h"
#include "rootsrv/tld_farm.h"
#include "topo/topology.h"
#include "util/civil_time.h"
#include "zone/evolution.h"
#include "zone/sign.h"
#include "zone/snapshot.h"
#include "zone/zone_diff.h"
#include "zone/zone_snapshot.h"

namespace rootless {
namespace {

using dns::Name;
using dns::RRType;

Name N(std::string_view s) { return *Name::Parse(s); }

zone::SnapshotPtr ModelSnapshot(const zone::RootZoneModel& model,
                                const util::CivilDate& date) {
  return zone::ZoneSnapshot::Build(model.Snapshot(date));
}

// Small-scale model keeps the test fast while exercising every stage.
zone::EvolutionConfig SmallModel() {
  zone::EvolutionConfig config;
  config.seed = 99;
  config.legacy_tld_count = 40;
  config.peak_tld_count = 80;
  config.rotating_tld_count = 2;
  return config;
}

TEST(Integration, SignedZoneDistributedAndServedLocally) {
  const zone::RootZoneModel model(SmallModel());
  util::Rng key_rng(5);
  const crypto::SigningKey zsk = crypto::GenerateKey(crypto::kZskFlags, key_rng);
  crypto::KeyStore trust;
  trust.AddKey(zsk);

  sim::Simulator sim;
  sim::Network net(sim, 8);
  topo::Topology registry;
  net.set_latency_fn(registry.LatencyFn());

  // Publisher side: signs the daily snapshot on demand. Simulation starts at
  // 2019-06-01; sim-time day N = that date + N.
  const util::CivilDate start_date{2019, 6, 1};
  auto publish = [&](const util::CivilDate& date) {
    return zone::ZoneSnapshot::Build(
        zone::SignZone(model.Snapshot(date), zsk, {0, 2'000'000'000}));
  };

  distrib::FetchServiceConfig fetch_config;
  fetch_config.verify_signatures = true;
  fetch_config.validation_now = 1'000'000'000;
  distrib::ZoneFetchService service(
      sim, {fetch_config, [&]() {
              const auto date = util::AddDays(
                  start_date, sim.now() / sim::kDay);
              return publish(date);
            }});
  service.SetTrust(zsk.dnskey, trust);

  // Resolver side.
  auto initial = publish(start_date);
  rootsrv::TldFarm farm(net, registry, *initial, 4);

  resolver::ResolverConfig config;
  config.mode = resolver::RootMode::kOnDemandZoneFile;
  config.seed = 1;
  resolver::RecursiveResolver resolver(
      sim, net, {config, topo::GeoPoint{48.85, 2.35}, nullptr, &registry});
  resolver.SetTldFarm(&farm);

  resolver::RefreshDaemon daemon(
      sim,
      {resolver::RefreshConfig{},
       {[&](std::function<void(resolver::RefreshDaemon::FetchResult)> done) {
         service.Fetch(std::move(done));
       }},
       [&](zone::SnapshotPtr z) {
         resolver.SetLocalZone(z);
         farm.RefreshAddresses(*z);
       }});
  daemon.Start(initial);

  // Drive lookups across ten simulated days; the daemon refreshes the zone
  // roughly every 42 hours underneath.
  int answered = 0, nxdomain = 0;
  const auto tlds = initial->DelegatedChildren();
  ASSERT_GE(tlds.size(), 10u);
  for (int day = 0; day < 10; ++day) {
    sim.RunUntil(static_cast<sim::SimTime>(day) * sim::kDay);
    for (int q = 0; q < 20; ++q) {
      const std::string host = "h" + std::to_string(day * 100 + q) +
                               ".example." +
                               tlds[q % tlds.size()].tld() + ".";
      resolver.Resolve(*Name::Parse(host), RRType::kA,
                       [&](const resolver::ResolutionResult& result) {
                         answered += result.rcode == dns::RCode::kNoError;
                       });
    }
    resolver.Resolve(N("junk.device.local."), RRType::kA,
                     [&](const resolver::ResolutionResult& result) {
                       nxdomain += result.rcode == dns::RCode::kNXDomain;
                     });
    // The refresh daemon keeps the event queue perpetually non-empty, so
    // advance a bounded window rather than draining the queue.
    sim.RunUntil(static_cast<sim::SimTime>(day) * sim::kDay + sim::kHour);
  }

  EXPECT_EQ(answered, 200);
  EXPECT_EQ(nxdomain, 10);
  EXPECT_GE(daemon.stats().refreshes, 4u);  // ~every 42h over 10 days
  EXPECT_EQ(daemon.stats().expirations, 0u);
  EXPECT_EQ(service.stats().validation_failures, 0u);
  // The resolver never needed a root server: it has no fleet at all.
  EXPECT_GT(resolver.stats().local_root_lookups, 0u);
}

TEST(Integration, RsyncPipelineTracksDailySnapshots) {
  const zone::RootZoneModel model(SmallModel());
  // A resolver keeps its serialized snapshot in sync via rsync deltas for a
  // month and must match the publisher bit-for-bit every day.
  util::Bytes local =
      zone::SerializeSnapshot(*ModelSnapshot(model, {2019, 4, 1}));
  std::size_t total_delta_bytes = 0;
  for (int day = 1; day <= 30; ++day) {
    const auto remote = zone::SerializeSnapshot(
        *ModelSnapshot(model, util::AddDays({2019, 4, 1}, day)));
    const auto sig = distrib::ComputeSignature(local, 1024);
    const auto delta = distrib::ComputeDelta(sig, remote);
    total_delta_bytes += delta.WireSize() + sig.WireSize();
    auto rebuilt = distrib::ApplyDelta(local, delta);
    ASSERT_TRUE(rebuilt.ok()) << day;
    ASSERT_EQ(*rebuilt, remote) << day;
    local = std::move(*rebuilt);
  }
  // A month of deltas must cost far less than a month of full files.
  EXPECT_LT(total_delta_bytes, 30u * local.size() / 4);
}

TEST(Integration, DiffChannelKeepsZoneCurrent) {
  // The §5.3 "recent additions diff" channel: apply daily structural diffs
  // instead of full snapshots and stay identical to the publisher.
  const zone::RootZoneModel model(SmallModel());
  zone::SnapshotPtr local = ModelSnapshot(model, {2018, 2, 20});
  for (int day = 1; day <= 10; ++day) {
    const zone::SnapshotPtr remote =
        ModelSnapshot(model, util::AddDays({2018, 2, 20}, day));
    const auto wire =
        zone::SerializeDiff(zone::DiffSnapshots(*local, *remote));
    auto decoded = zone::DeserializeDiff(wire);
    ASSERT_TRUE(decoded.ok());
    auto next = zone::ZoneSnapshot::Apply(local, *decoded);
    ASSERT_TRUE(next.ok()) << day;
    local = std::move(*next);
    ASSERT_TRUE(local->SameContent(*remote)) << day;
  }
  // The channel picked up ".llc" (added 2018-02-23) along the way.
  EXPECT_TRUE(local->Find(N("llc."), RRType::kNS).has_value());
}

}  // namespace
}  // namespace rootless

namespace rootless {
namespace {

TEST(Integration, RefreshDaemonOverAxfrTransport) {
  // The refresh daemon's out-of-band fetch realized by the actual AXFR
  // protocol over a lossy simulated network.
  const zone::RootZoneModel model(SmallModel());
  sim::Simulator sim;
  sim::Network net(sim, 44);
  topo::Topology registry;
  net.set_latency_fn(registry.LatencyFn());
  net.set_loss_rate(0.05);

  const util::CivilDate start_date{2019, 6, 1};
  auto current = zone::ZoneSnapshot::Build(model.Snapshot(start_date));
  distrib::AxfrServer server(net, [&]() { return current; });
  distrib::AxfrClient client(sim, net, {});
  registry.PlaceNode(server.node(), {40, -74});
  registry.PlaceNode(client.node(), {48, 2});

  std::uint32_t applied_serial = 0;
  resolver::RefreshDaemon daemon(
      sim,
      {resolver::RefreshConfig{},
       {[&](std::function<void(resolver::RefreshDaemon::FetchResult)> done) {
         client.Fetch(server.node(), applied_serial, std::move(done));
       }},
       [&](zone::SnapshotPtr z) { applied_serial = z->Serial(); }});
  daemon.Start(current);
  EXPECT_EQ(applied_serial, current->Serial());

  // Publisher moves forward each simulated day.
  for (int day = 1; day <= 6; ++day) {
    sim.RunUntil(static_cast<sim::SimTime>(day) * sim::kDay);
    current = zone::ZoneSnapshot::Build(
        model.Snapshot(util::AddDays(start_date, day)));
  }
  sim.RunUntil(7 * sim::kDay);

  EXPECT_GE(daemon.stats().refreshes, 2u);
  EXPECT_EQ(daemon.stats().expirations, 0u);
  // The resolver's copy tracked the publisher through real transfers.
  EXPECT_GT(applied_serial, zone::RootZoneModel::SerialFor(start_date));
  EXPECT_GT(client.stats().transfers, 0u);
}

// A source that answers "up to date" (AxfrClient::Fetch asked with the held
// serial returns an ok null snapshot) renews the copy without replacing it:
// the resolver keeps answering from the zone it holds, in both local-root
// modes.
TEST(Integration, RefreshDaemonKeepsZoneWhenSourceIsUpToDate) {
  const zone::RootZoneModel model(SmallModel());
  const zone::SnapshotPtr published = ModelSnapshot(model, {2019, 6, 1});
  for (const resolver::RootMode mode : {resolver::RootMode::kOnDemandZoneFile,
                                        resolver::RootMode::kCachePreload}) {
    SCOPED_TRACE(mode == resolver::RootMode::kCachePreload ? "preload"
                                                           : "on-demand");
    sim::Simulator sim;
    sim::Network net(sim, 45);
    topo::Topology registry;
    net.set_latency_fn(registry.LatencyFn());
    distrib::AxfrServer server(net, [&]() { return published; });
    distrib::AxfrClient client(sim, net, {});
    registry.PlaceNode(server.node(), {40, -74});
    registry.PlaceNode(client.node(), {48, 2});
    rootsrv::TldFarm farm(net, registry, *published, 2);

    resolver::ResolverConfig config;
    config.mode = mode;
    config.seed = 2;
    resolver::RecursiveResolver resolver(
        sim, net, {config, topo::GeoPoint{48.85, 2.35}, nullptr, &registry});
    resolver.SetTldFarm(&farm);

    std::uint32_t held_serial = 0;
    int null_applies = 0;
    resolver::RefreshDaemon daemon(
        sim,
        {resolver::RefreshConfig{},
         {[&](std::function<void(resolver::RefreshDaemon::FetchResult)>
                 done) {
           client.Fetch(server.node(), held_serial, std::move(done));
         }},
         [&](zone::SnapshotPtr z) {
           if (z == nullptr) {
             ++null_applies;  // SetLocalZone(nullptr) would drop the zone
             return;
           }
           held_serial = z->Serial();
           resolver.SetLocalZone(std::move(z));
         }});
    daemon.Start(published);
    // The daemon reschedules forever, so run a bounded window: three days
    // span the refresh at 42 h and the initial copy's expiry at 48 h.
    sim.RunUntil(3 * sim::kDay);

    EXPECT_EQ(null_applies, 0);
    EXPECT_EQ(daemon.stats().refreshes, 1u);
    EXPECT_EQ(held_serial, published->Serial());
    EXPECT_TRUE(daemon.zone_valid());  // the initial copy alone lapsed at 48 h

    dns::RCode rcode = dns::RCode::kServFail;
    resolver.Resolve(N("www.com."), RRType::kA,
                     [&](const resolver::ResolutionResult& result) {
                       rcode = result.rcode;
                     });
    sim.RunUntil(3 * sim::kDay + sim::kMinute);
    EXPECT_EQ(rcode, dns::RCode::kNoError);
  }
}

}  // namespace
}  // namespace rootless
