// §3 "Deployment" — no flag day required.
//
// The paper: "our approach allows each recursive resolver to independently
// abandon the root nameservers … the root nameserver infrastructure can be
// gradually rolled back as the number of resolvers using root nameservers
// diminishes." This bench sweeps the adoption fraction: a fixed population
// of resolvers runs the same lookup mix, with a growing share switched to
// local root copies, and reports the query load that still reaches the
// root fleet — the decommissioning signal.
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "analysis/report.h"
#include "resolver/recursive.h"
#include "rootsrv/fleet.h"
#include "rootsrv/tld_farm.h"
#include "topo/topology.h"
#include "traffic/workload.h"
#include "util/strings.h"
#include "util/zipf.h"
#include "zone/evolution.h"
#include "obs/export.h"

int main() {
  using namespace rootless;

  std::printf("%s",
              analysis::Banner("Sec 3: gradual adoption — root load vs "
                               "fraction of local-root resolvers")
                  .c_str());

  const rootless::obs::RunInfo run_info{"sec3_deployment", 100,
                                       "adoption-sweep=0..100% seed-base=100"};
  std::printf("%s", rootless::obs::RunHeader(run_info).c_str());

  const zone::RootZoneModel model;
  const zone::SnapshotPtr root_snapshot =
      zone::ZoneSnapshot::Build(model.Snapshot({2019, 6, 7}));

  const int kResolvers = 40;
  const int kLookupsEach = 150;

  analysis::Table table({"adoption", "root queries", "root qps share",
                         "lookups answered"});
  std::uint64_t baseline = 0;
  for (const double adoption : {0.0, 0.25, 0.50, 0.75, 0.90, 1.0}) {
    sim::Simulator sim;
    sim::Network net(sim, 13);
    topo::Topology topology({.date = {2019, 6, 7}});
    net.set_latency_fn(topology.LatencyFn());
    rootsrv::RootServerFleet fleet(net, topology, root_snapshot);
    rootsrv::TldFarm farm(net, topology, *root_snapshot, 5);

    std::vector<std::string> tlds;
    for (const auto& child : root_snapshot->DelegatedChildren())
      tlds.push_back(child.tld());
    util::ZipfSampler zipf(tlds.size(), 0.95);
    util::Rng rng(31);

    std::vector<std::unique_ptr<resolver::RecursiveResolver>> resolvers;
    for (int i = 0; i < kResolvers; ++i) {
      resolver::ResolverConfig config;
      const bool local = i < adoption * kResolvers;
      config.mode = local ? resolver::RootMode::kOnDemandZoneFile
                          : resolver::RootMode::kRootServers;
      config.seed = 100 + i;
      // Population-weighted placement off the facade: a pure function of
      // (topology seed, resolver index), so the population is identical in
      // every arm of the sweep.
      const topo::GeoPoint where =
          topology.PlaceResolver(static_cast<std::uint64_t>(i)).location;
      auto r = std::make_unique<resolver::RecursiveResolver>(
          sim, net,
          resolver::RecursiveResolver::Options{config, where, nullptr,
                                               &topology});
      r->SetTldFarm(&farm);
      if (local) {
        r->SetLocalZone(root_snapshot);
      } else {
        r->SetRootFleet(&fleet);
      }
      resolvers.push_back(std::move(r));
    }

    int answered = 0;
    for (int q = 0; q < kLookupsEach; ++q) {
      for (auto& r : resolvers) {
        std::string host;
        if (rng.Chance(0.61)) {
          host = "junk." + traffic::SampleBogusTld(rng) + ".";
        } else {
          host = "www.s" + std::to_string(rng.Below(300)) + "." +
                 tlds[zipf.Sample(rng)] + ".";
        }
        r->Resolve(*dns::Name::Parse(host), dns::RRType::kA,
                   [&](const resolver::ResolutionResult& result) {
                     answered += !result.failed;
                   });
      }
      sim.Run();
    }

    const std::uint64_t root_queries = fleet.TotalStats().queries;
    if (adoption == 0.0) baseline = root_queries;
    char label[16];
    std::snprintf(label, sizeof(label), "%3.0f%%", adoption * 100);
    table.AddRow({label, std::to_string(root_queries),
                  baseline ? util::FormatPercent(
                                 static_cast<double>(root_queries) /
                                 static_cast<double>(baseline))
                           : "100%",
                  std::to_string(answered)});
  }
  std::printf("%s\n", table.Render().c_str());

  // Region x deployment-date sweep: the best-letter catchment RTT a classic
  // holdout pays, per region, as the fleet grows. The spread is the paper's
  // missing geography — poor-coverage regions (the F-ROOT Southeast Asia
  // regime) pay multiples of what Europe pays, on every date, while every
  // local-root resolver pays the same near-zero regardless of region.
  auto ms = [](sim::SimTime us) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.1f ms",
                  static_cast<double>(us) / 1000.0);
    return std::string(buf);
  };
  const topo::Topology early({.date = {2015, 3, 15}});
  const topo::Topology late({.date = {2018, 4, 11}});
  analysis::Table geo_table({"region", "2015-03-15 p50", "2015-03-15 p90",
                             "2018-04-11 p50", "2018-04-11 p90"});
  for (std::size_t i = 0; i < late.region_count(); ++i) {
    const auto e = early.RegionRootRtt(static_cast<int>(i));
    const auto l = late.RegionRootRtt(static_cast<int>(i));
    geo_table.AddRow({late.region(i).name, ms(e.p50), ms(e.p90), ms(l.p50),
                      ms(l.p90)});
  }
  std::printf("best-letter root RTT by region (classic holdouts):\n%s\n",
              geo_table.Render().c_str());
  std::printf("root load falls in step with adoption while every resolver "
              "keeps answering — no flag day, and the fleet can shrink as "
              "the remaining share dwindles (the paper also notes the "
              "resulting performance decay itself nudges holdouts to "
              "switch).\n");
  rootless::obs::ExportRun(run_info);
  return 0;
}
