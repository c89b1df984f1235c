// rootless_dig — a dig-like CLI that resolves a name through the full
// simulated ecosystem in any of the paper's resolver configurations.
//
//   rootless_dig <name> [type] [--mode=classic|preload|ondemand|loopback]
//                [--qmin] [--tls] [--date=YYYY-MM-DD]
//
//   $ rootless_dig www.sigcomm.org.
//   $ rootless_dig www.example.com. A --mode=classic --tls
//   $ rootless_dig printer.belkin. --mode=preload
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>

#include "resolver/recursive.h"
#include "rootsrv/fleet.h"
#include "rootsrv/tld_farm.h"
#include "topo/topology.h"
#include "util/strings.h"
#include "zone/evolution.h"

int main(int argc, char** argv) {
  using namespace rootless;

  std::string name_text;
  std::string type_text = "A";
  resolver::RootMode mode = resolver::RootMode::kOnDemandZoneFile;
  bool qmin = false, tls = false;
  util::CivilDate date{2019, 6, 7};

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--qmin") {
      qmin = true;
    } else if (arg == "--tls") {
      tls = true;
    } else if (util::StartsWith(arg, "--mode=")) {
      const std::string m = arg.substr(7);
      if (m == "classic") mode = resolver::RootMode::kRootServers;
      else if (m == "preload") mode = resolver::RootMode::kCachePreload;
      else if (m == "ondemand") mode = resolver::RootMode::kOnDemandZoneFile;
      else if (m == "loopback") mode = resolver::RootMode::kLoopbackAuth;
      else {
        std::fprintf(stderr, "unknown mode %s\n", m.c_str());
        return 2;
      }
    } else if (util::StartsWith(arg, "--date=")) {
      const auto parts = util::Split(arg.substr(7), '-');
      if (parts.size() == 3) {
        date = {static_cast<int>(*util::ParseU32(parts[0])),
                static_cast<int>(*util::ParseU32(parts[1])),
                static_cast<int>(*util::ParseU32(parts[2]))};
      }
    } else if (name_text.empty()) {
      name_text = arg;
    } else {
      type_text = arg;
    }
  }
  if (name_text.empty()) {
    std::fprintf(stderr,
                 "usage: rootless_dig <name> [type] [--mode=...] [--qmin] "
                 "[--tls] [--date=YYYY-MM-DD]\n");
    return 2;
  }
  auto qname = dns::Name::Parse(name_text);
  if (!qname.ok()) {
    std::fprintf(stderr, "bad name: %s\n", qname.error().message().c_str());
    return 2;
  }
  auto qtype = dns::RRTypeFromString(type_text);
  if (!qtype.ok()) {
    std::fprintf(stderr, "bad type: %s\n", qtype.error().message().c_str());
    return 2;
  }

  // Build the world.
  sim::Simulator sim;
  sim::Network net(sim, 1);
  topo::Topology topology({.date = date});
  net.set_latency_fn(topology.LatencyFn());
  const zone::RootZoneModel model;
  const zone::SnapshotPtr root_snapshot =
      zone::ZoneSnapshot::Build(model.Snapshot(date));
  std::unique_ptr<rootsrv::RootServerFleet> fleet;
  rootsrv::TldFarm farm(net, topology, *root_snapshot, 2);

  resolver::ResolverConfig config;
  config.mode = mode;
  config.qname_minimization = qmin;
  config.encrypted_transport = tls;
  const topo::GeoPoint where{48.85, 2.35};
  resolver::RecursiveResolver r(sim, net, {config, where, nullptr, &topology});
  r.SetTldFarm(&farm);
  std::unique_ptr<rootsrv::AuthServer> loopback;
  if (mode == resolver::RootMode::kRootServers) {
    fleet = std::make_unique<rootsrv::RootServerFleet>(net, topology,
                                                       root_snapshot);
    r.SetRootFleet(fleet.get());
  } else if (mode == resolver::RootMode::kLoopbackAuth) {
    loopback = std::make_unique<rootsrv::AuthServer>(
        &net, root_snapshot, rootsrv::AuthServer::Options{});
    topology.PlaceNode(loopback->node(), where);
    r.SetLoopbackNode(loopback->node());
    r.SetLocalZone(root_snapshot);
  } else {
    r.SetLocalZone(root_snapshot);
  }

  std::printf("; rootless_dig %s %s  mode=%s qmin=%d tls=%d zone=%s (%zu "
              "records, %d root instances)\n",
              name_text.c_str(), type_text.c_str(),
              resolver::RootModeName(mode).c_str(), qmin, tls,
              util::FormatDate(date).c_str(), root_snapshot->record_count(),
              topology.deployment().TotalInstancesOn(date));

  int exit_code = 1;
  r.Resolve(*qname, *qtype, [&](const resolver::ResolutionResult& result) {
    std::printf(";; status: %s, time: %.2f ms, transactions: %d, "
                "root leg: %s\n",
                dns::RCodeToString(result.rcode).c_str(),
                static_cast<double>(result.latency) / 1000.0,
                result.transactions,
                result.used_root
                    ? (mode == resolver::RootMode::kRootServers
                           ? "root servers"
                           : "local copy")
                    : "cache");
    for (const auto& rrset : result.answers) {
      for (const auto& rr : rrset.ToRecords()) {
        std::printf("%s\n", rr.ToString().c_str());
      }
    }
    exit_code = result.rcode == dns::RCode::kNoError ? 0 : 1;
  });
  sim.Run();
  return exit_code;
}
