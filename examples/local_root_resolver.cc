// Compares the paper's resolver configurations side by side on one
// realistic stack: classic root hints vs the three §3 local-root options.
//
//   $ ./local_root_resolver [lookup_count]
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "analysis/stats.h"
#include "resolver/recursive.h"
#include "rootsrv/fleet.h"
#include "rootsrv/tld_farm.h"
#include "topo/topology.h"
#include "util/zipf.h"
#include "zone/evolution.h"

int main(int argc, char** argv) {
  using namespace rootless;

  const int lookups = argc > 1 ? std::atoi(argv[1]) : 1000;

  const zone::RootZoneModel zone_model;
  // One immutable snapshot shared (zero-copy) by the fleet, the farm, the
  // loopback servers, and the local-root resolvers.
  const zone::SnapshotPtr root_snapshot =
      zone::ZoneSnapshot::Build(zone_model.Snapshot({2019, 6, 7}));
  topo::Topology topology({.date = {2019, 6, 7}});

  std::printf("root zone %s: %zu records, %zu TLDs; fleet of %d instances\n\n",
              "2019-06-07", root_snapshot->record_count(),
              root_snapshot->DelegatedChildren().size(),
              topology.deployment().TotalInstancesOn({2019, 6, 7}));

  for (const auto mode :
       {resolver::RootMode::kRootServers, resolver::RootMode::kCachePreload,
        resolver::RootMode::kOnDemandZoneFile,
        resolver::RootMode::kLoopbackAuth}) {
    sim::Simulator sim;
    sim::Network net(sim, 1);
    net.set_latency_fn(topology.LatencyFn());
    rootsrv::RootServerFleet fleet(net, topology, root_snapshot);
    rootsrv::TldFarm farm(net, topology, *root_snapshot, 5);

    resolver::ResolverConfig config;
    config.mode = mode;
    config.seed = 11;
    const topo::GeoPoint where{37.77, -122.42};  // San Francisco
    resolver::RecursiveResolver r(sim, net,
                                  {config, where, nullptr, &topology});
    r.SetTldFarm(&farm);
    std::unique_ptr<rootsrv::AuthServer> loopback;
    if (mode == resolver::RootMode::kRootServers) {
      r.SetRootFleet(&fleet);
    } else if (mode == resolver::RootMode::kLoopbackAuth) {
      loopback = std::make_unique<rootsrv::AuthServer>(
          &net, root_snapshot, rootsrv::AuthServer::Options{});
      topology.PlaceNode(loopback->node(), where);
      r.SetLoopbackNode(loopback->node());
      r.SetLocalZone(root_snapshot);
    } else {
      r.SetLocalZone(root_snapshot);
    }

    std::vector<std::string> tlds;
    for (const auto& child : root_snapshot->DelegatedChildren())
      tlds.push_back(child.tld());
    util::ZipfSampler zipf(tlds.size(), 0.95);
    util::Rng rng(2);

    analysis::Summary latency;
    int nxdomain = 0;
    for (int i = 0; i < lookups; ++i) {
      // 5% junk queries sprinkled in, like real resolver input.
      std::string host;
      if (rng.Chance(0.05)) {
        host = "device.local.";
      } else {
        host = "www.site" + std::to_string(rng.Below(500)) + "." +
               tlds[zipf.Sample(rng)] + ".";
      }
      r.Resolve(*dns::Name::Parse(host), dns::RRType::kA,
                [&](const resolver::ResolutionResult& result) {
                  latency.Add(static_cast<double>(result.latency) / 1000.0);
                  nxdomain += result.rcode == dns::RCode::kNXDomain;
                });
      sim.Run();
    }

    std::printf("%-16s mean %7.2f ms  max %8.2f ms  root txns %5llu  "
                "local lookups %5llu  cache hit %5.1f%%  nxdomain %d\n",
                resolver::RootModeName(mode).c_str(), latency.mean(),
                latency.max(),
                static_cast<unsigned long long>(r.stats().root_transactions),
                static_cast<unsigned long long>(r.stats().local_root_lookups),
                r.cache().stats().hit_rate() * 100.0, nxdomain);
  }
  std::printf("\nthe paper's claim in action: every mode resolves the same "
              "names, the local-root modes just never ask a root server.\n");
  return 0;
}
