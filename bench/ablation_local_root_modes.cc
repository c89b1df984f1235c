// Ablation A — which §3 local-root implementation should a resolver use?
//
// The paper sketches three options and their trade-off: preloading the whole
// zone may "pollute the cache with unneeded records", while the on-demand
// store keeps the cache clean at the cost of per-miss work. This bench pins
// a cache capacity and measures, per mode: hit rate, capacity evictions,
// steady-state latency, and how much of the cache the root zone occupies.
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "analysis/report.h"
#include "analysis/stats.h"
#include "resolver/recursive.h"
#include "rootsrv/fleet.h"
#include "rootsrv/tld_farm.h"
#include "topo/topology.h"
#include "util/strings.h"
#include "util/zipf.h"
#include "zone/evolution.h"
#include "obs/export.h"

namespace {

using namespace rootless;

struct Row {
  std::string mode;
  std::size_t cache_size = 0;
  std::size_t tld_rrsets = 0;
  std::uint64_t evictions = 0;
  double hit_rate = 0;
  double steady_mean_us = 0;
};

Row Run(resolver::RootMode mode, std::size_t capacity) {
  sim::Simulator sim;
  sim::Network net(sim, 1);
  topo::Topology topology;
  net.set_latency_fn(topology.LatencyFn());

  const zone::RootZoneModel zone_model;
  const zone::SnapshotPtr root_snapshot =
      zone::ZoneSnapshot::Build(zone_model.Snapshot({2018, 4, 11}));
  rootsrv::RootServerFleet fleet(net, topology, root_snapshot);
  rootsrv::TldFarm farm(net, topology, *root_snapshot, 5);

  resolver::ResolverConfig config;
  config.mode = mode;
  config.seed = 99;
  config.cache_capacity = capacity;
  const topo::GeoPoint where{40.71, -74.0};
  resolver::RecursiveResolver r(sim, net, {config, where, nullptr, &topology});
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
  util::Rng rng(3);

  analysis::Summary steady;
  const int kLookups = 6000;
  r.cache().ResetStats();
  for (int i = 0; i < kLookups; ++i) {
    // Mixed workload: repeated popular names (cacheable answers) plus a
    // long tail of distinct names (referral reuse only).
    const std::string& tld = tlds[zipf.Sample(rng)];
    const bool popular = rng.Chance(0.4);
    const std::string host =
        (popular ? "popular" + std::to_string(rng.Below(50))
                 : "host" + std::to_string(i)) +
        ".example." + tld + ".";
    auto name = dns::Name::Parse(host);
    sim::SimTime latency = 0;
    bool done = false;
    r.Resolve(*name, dns::RRType::kA,
              [&](const resolver::ResolutionResult& rr) {
                latency = rr.latency;
                done = true;
              });
    sim.Run();
    if (done && i > kLookups / 4) steady.Add(static_cast<double>(latency));
  }

  Row row;
  row.mode = resolver::RootModeName(mode);
  row.cache_size = r.cache().size();
  row.tld_rrsets = r.cache().TldRRsetCount();
  row.evictions = r.cache().stats().evictions;
  row.hit_rate = r.cache().stats().hit_rate();
  row.steady_mean_us = steady.mean();
  return row;
}

}  // namespace

int main() {
  std::printf("%s",
              analysis::Banner(
                  "Ablation A: local-root implementations under a bounded "
                  "cache")
                  .c_str());

  const rootless::obs::RunInfo run_info{"ablation_local_root_modes", 99,
                                       "cache-capacities=sweep modes=preload,on-demand,loopback"};
  std::printf("%s", rootless::obs::RunHeader(run_info).c_str());

  for (const std::size_t capacity : {5000ul, 20000ul}) {
    std::printf("cache capacity: %zu RRsets\n", capacity);
    analysis::Table table({"mode", "cache RRsets", "TLD-owner RRsets",
                           "evictions", "hit rate", "steady mean latency"});
    for (const auto mode :
         {resolver::RootMode::kRootServers, resolver::RootMode::kCachePreload,
          resolver::RootMode::kOnDemandZoneFile,
          resolver::RootMode::kLoopbackAuth}) {
      const Row row = Run(mode, capacity);
      char latency[32];
      std::snprintf(latency, sizeof(latency), "%.2f ms",
                    row.steady_mean_us / 1000.0);
      table.AddRow({row.mode, std::to_string(row.cache_size),
                    std::to_string(row.tld_rrsets),
                    std::to_string(row.evictions),
                    util::FormatPercent(row.hit_rate), latency});
    }
    std::printf("%s\n", table.Render().c_str());
  }
  std::printf("expected shape: cache-preload shows the paper's pollution "
              "effect (zone RRsets occupying a bounded cache, more "
              "evictions); on-demand keeps the cache clean; both beat "
              "classic on latency; loopback matches on-demand without "
              "resolver changes.\n");
  rootless::obs::ExportRun(run_info);
  return 0;
}
