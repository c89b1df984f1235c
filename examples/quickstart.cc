// Quickstart: the library in five minutes.
//
// Parses a root-zone master file, signs it DNSSEC-style, validates it,
// serves it from an authoritative server on the simulated network, and
// resolves one name through a recursive resolver using a local copy —
// the paper's proposal end to end.
//
//   $ ./quickstart
#include <cstdio>
#include <memory>

#include "crypto/dnssec.h"
#include "obs/export.h"
#include "resolver/recursive.h"
#include "rootsrv/tld_farm.h"
#include "topo/topology.h"
#include "util/base64.h"
#include "zone/master_file.h"
#include "zone/zone.h"
#include "zone/zone_snapshot.h"

int main() {
  using namespace rootless;

  // 1. Parse a (tiny) root zone from master-file text.
  const std::string zone_text = R"(
$TTL 86400
.        518400 IN SOA a.root-servers.net. nstld.verisign-grs.com. 2019060700 1800 900 604800 86400
.        518400 IN NS  a.root-servers.net.
com.     172800 IN NS  ns1.nic.com.
ns1.nic.com. 172800 IN A 192.0.2.10
org.     172800 IN NS  ns1.nic.org.
ns1.nic.org. 172800 IN A 192.0.2.20
)";
  auto records = zone::ParseMasterFile(zone_text);
  if (!records.ok()) {
    std::printf("parse error: %s\n", records.error().message().c_str());
    return 1;
  }
  zone::Zone root_zone;
  for (const auto& rr : *records) {
    if (auto status = root_zone.AddRecord(rr); !status.ok()) {
      std::printf("add error: %s\n", status.message().c_str());
      return 1;
    }
  }
  std::printf("parsed root zone: %zu records, %zu RRsets, serial %u\n",
              root_zone.record_count(), root_zone.rrset_count(),
              root_zone.Serial());

  // 2. Sign every RRset and verify the zone offline (what makes a
  //    distributed copy trustworthy without root servers).
  util::Rng rng(1);
  const crypto::SigningKey zsk = crypto::GenerateKey(crypto::kZskFlags, rng);
  crypto::KeyStore trust;
  trust.AddKey(zsk);
  const auto signed_rrsets = crypto::SignZoneRRsets(
      root_zone.AllRRsets(), zsk, dns::Name(), /*inception=*/0,
      /*expiration=*/1'700'000'000);
  auto validated =
      crypto::ValidateZoneRRsets(signed_rrsets, zsk.dnskey, trust, 1000);
  if (!validated.ok()) {
    std::printf("validation error: %s\n", validated.error().message().c_str());
    return 1;
  }
  const auto digest = crypto::ZoneDigest(signed_rrsets);
  std::printf("signed + validated %zu RRsets; zone digest %s...\n",
              *validated,
              util::HexEncode(std::span(digest).first(8)).c_str());

  // 3. Freeze the zone into an immutable snapshot: every consumer below
  //    shares this one arena-backed copy by refcounted pointer. Look a name
  //    up in it the way a root server would.
  zone::SnapshotPtr root_snapshot = zone::ZoneSnapshot::Build(root_zone);
  const auto lookup = root_snapshot->Lookup(
      *dns::Name::Parse("www.sigcomm.org."), dns::RRType::kA);
  std::printf("root lookup for www.sigcomm.org./A -> %s (%zu authority, "
              "%zu glue)\n",
              lookup.disposition == zone::LookupDisposition::kReferral
                  ? "referral to .org"
                  : "unexpected",
              lookup.authority.size(), lookup.additional.size());

  // 4. Resolve through the full simulated stack with a *local* root copy
  //    (the paper's proposal: no root nameservers involved).
  sim::Simulator sim;
  sim::Network net(sim, 1);
  topo::Topology topology;
  net.set_latency_fn(topology.LatencyFn());
  rootsrv::TldFarm farm(net, topology, *root_snapshot, 2);

  resolver::RecursiveResolver resolver(
      sim, net,
      {.config = {.mode = resolver::RootMode::kOnDemandZoneFile},
       .location = {48.85, 2.35},
       .topology = &topology});
  resolver.SetTldFarm(&farm);
  resolver.SetLocalZone(root_snapshot);

  resolver.Resolve(*dns::Name::Parse("www.sigcomm.org."), dns::RRType::kA,
                   [](const resolver::ResolutionResult& result) {
                     std::printf(
                         "resolved www.sigcomm.org. -> %s in %.2f ms "
                         "(%d transactions, root servers used: %s)\n",
                         dns::RCodeToString(result.rcode).c_str(),
                         static_cast<double>(result.latency) / 1000.0,
                         result.transactions,
                         result.used_root ? "local copy" : "cache");
                   });
  sim.Run();

  // 5. A bogus TLD is rejected locally, without bothering anyone.
  resolver.Resolve(*dns::Name::Parse("printer.belkin."), dns::RRType::kA,
                   [](const resolver::ResolutionResult& result) {
                     std::printf("resolved printer.belkin. -> %s locally "
                                 "(%d network transactions)\n",
                                 dns::RCodeToString(result.rcode).c_str(),
                                 result.transactions);
                   });
  sim.Run();

  // 6. Everything above recorded into the process-wide metrics registry as
  //    a side effect; dump the aggregated table.
  std::printf("\n%s", obs::RenderMetricsTable().c_str());
  return 0;
}
