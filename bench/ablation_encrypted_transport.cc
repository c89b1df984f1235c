// Ablation C — encrypt the root transactions, or eliminate them?
//
// §4 observes that DNS-over-TLS/HTTPS would blunt the on-path attacks but
// "is not yet common practice" (96.2% of root queries were UDP on the DITL
// day), and that it still leaves the transactions — and their latency and
// metadata — in place. This bench quantifies the trade: classic UDP vs
// classic over an encrypted session (handshake on first contact, reuse
// after) vs the paper's local-copy proposal.
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "analysis/report.h"
#include "analysis/stats.h"
#include "resolver/recursive.h"
#include "rootsrv/fleet.h"
#include "rootsrv/tld_farm.h"
#include "topo/deployment.h"
#include "topo/topology.h"
#include "util/strings.h"
#include "util/zipf.h"
#include "zone/evolution.h"
#include "obs/export.h"

namespace {

using namespace rootless;

struct Row {
  std::string config;
  double cold_mean_ms = 0;
  double steady_mean_ms = 0;
  std::uint64_t handshakes = 0;
  std::uint64_t root_transactions = 0;
};

Row Run(resolver::RootMode mode, bool encrypted) {
  sim::Simulator sim;
  sim::Network net(sim, 6);
  topo::Topology topology({.date = {2019, 6, 7}});
  net.set_latency_fn(topology.LatencyFn());
  const zone::RootZoneModel zone_model;
  const zone::SnapshotPtr root_snapshot =
      zone::ZoneSnapshot::Build(zone_model.Snapshot({2019, 6, 7}));
  rootsrv::RootServerFleet fleet(net, topology, root_snapshot);
  rootsrv::TldFarm farm(net, topology, *root_snapshot, 5);

  resolver::ResolverConfig config;
  config.mode = mode;
  config.encrypted_transport = encrypted;
  config.seed = 23;
  const topo::GeoPoint where{1.35, 103.82};  // Singapore
  resolver::RecursiveResolver r(sim, net, {config, where, nullptr, &topology});
  r.SetTldFarm(&farm);
  if (mode == resolver::RootMode::kRootServers) {
    r.SetRootFleet(&fleet);
  } else {
    r.SetLocalZone(root_snapshot);
  }

  std::vector<std::string> tlds;
  for (const auto& child : root_snapshot->DelegatedChildren())
    tlds.push_back(child.tld());
  util::ZipfSampler zipf(tlds.size(), 0.95);
  util::Rng rng(4);

  analysis::Summary cold, steady;
  const int kLookups = 4000;
  for (int i = 0; i < kLookups; ++i) {
    const std::string host = "www.s" + std::to_string(rng.Below(1500)) + "." +
                             tlds[zipf.Sample(rng)] + ".";
    sim::SimTime latency = 0;
    r.Resolve(*dns::Name::Parse(host), dns::RRType::kA,
              [&](const resolver::ResolutionResult& result) {
                latency = result.latency;
              });
    sim.Run();
    (i < 400 ? cold : steady).Add(static_cast<double>(latency) / 1000.0);
  }

  Row row;
  row.config = resolver::RootModeName(mode) +
               (encrypted ? " over TLS" : " over UDP");
  row.cold_mean_ms = cold.mean();
  row.steady_mean_ms = steady.mean();
  row.handshakes = r.stats().handshakes;
  row.root_transactions = r.stats().root_transactions;
  return row;
}

}  // namespace

int main() {
  std::printf("%s",
              analysis::Banner("Ablation C: encrypting root transactions vs "
                               "eliminating them")
                  .c_str());

  const rootless::obs::RunInfo run_info{"ablation_encrypted_transport", 23,
                                       "lookups=2000 modes=plain,encrypted,local-root"};
  std::printf("%s", rootless::obs::RunHeader(run_info).c_str());

  std::vector<Row> rows;
  rows.push_back(Run(resolver::RootMode::kRootServers, false));
  rows.push_back(Run(resolver::RootMode::kRootServers, true));
  rows.push_back(Run(resolver::RootMode::kOnDemandZoneFile, false));

  analysis::Table table({"configuration", "cold mean", "steady mean",
                         "TLS handshakes", "root transactions"});
  for (const auto& row : rows) {
    char cold[32], steady[32];
    std::snprintf(cold, sizeof(cold), "%.2f ms", row.cold_mean_ms);
    std::snprintf(steady, sizeof(steady), "%.2f ms", row.steady_mean_ms);
    table.AddRow({row.config, cold, steady, std::to_string(row.handshakes),
                  std::to_string(row.root_transactions)});
  }
  std::printf("%s\n", table.Render().c_str());
  std::printf("encryption protects the channel but keeps every root "
              "transaction (plus handshake warm-up and the metadata the "
              "server still sees); the local copy removes the transactions "
              "altogether — the paper's Sec 4 comparison.\n");
  rootless::obs::ExportRun(run_info);
  return 0;
}
