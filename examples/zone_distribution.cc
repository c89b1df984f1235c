// Demonstrates the root-zone distribution pipeline the paper proposes in
// §3/§5.2: take two daily snapshots, sign them, move the update to a
// resolver via full-file, rsync delta, and a P2P swarm, then run the
// refresh daemon through an outage to show the robustness window at work.
//
//   $ ./zone_distribution
#include <cstdio>
#include <memory>

#include "crypto/dnssec.h"
#include "distrib/axfr.h"
#include "distrib/fetch_service.h"
#include "distrib/mechanisms.h"
#include "distrib/rsync.h"
#include "resolver/refresh_daemon.h"
#include "util/strings.h"
#include "zone/evolution.h"
#include "zone/snapshot.h"
#include "zone/zone_diff.h"

int main() {
  using namespace rootless;

  const zone::RootZoneModel model;
  const zone::SnapshotPtr yesterday =
      zone::ZoneSnapshot::Build(model.Snapshot({2019, 6, 5}));
  const zone::SnapshotPtr today =
      zone::ZoneSnapshot::Build(model.Snapshot({2019, 6, 7}));

  const auto old_wire = zone::SerializeSnapshot(*yesterday);
  const auto new_wire = zone::SerializeSnapshot(*today);
  std::printf("zone snapshots: %s -> %s (%zu -> %zu records)\n",
              util::FormatBytes(static_cast<double>(old_wire.size())).c_str(),
              util::FormatBytes(static_cast<double>(new_wire.size())).c_str(),
              yesterday->record_count(), today->record_count());

  // 1. Structural diff (IXFR-style).
  const zone::ZoneDiff diff = zone::DiffSnapshots(*yesterday, *today);
  std::printf("structural diff: %zu added, %zu removed, %zu changed RRsets "
              "(%s on the wire)\n",
              diff.added.size(), diff.removed.size(), diff.changed.size(),
              util::FormatBytes(static_cast<double>(
                                    zone::SerializeDiff(diff).size()))
                  .c_str());

  // 2. rsync delta (content-addressed, works on opaque files).
  const auto signature = distrib::ComputeSignature(old_wire, 2048);
  const auto delta = distrib::ComputeDelta(signature, new_wire);
  auto rebuilt = distrib::ApplyDelta(old_wire, delta);
  if (!rebuilt.ok() || *rebuilt != new_wire) {
    std::printf("rsync reconstruction FAILED\n");
    return 1;
  }
  std::printf("rsync: signature %s up, delta %s down, reconstruction exact "
              "(literals %s of %s)\n",
              util::FormatBytes(static_cast<double>(signature.WireSize()))
                  .c_str(),
              util::FormatBytes(static_cast<double>(delta.WireSize())).c_str(),
              util::FormatBytes(static_cast<double>(delta.literal_bytes()))
                  .c_str(),
              util::FormatBytes(static_cast<double>(new_wire.size())).c_str());

  // 3. P2P swarm for the same update.
  distrib::SwarmConfig swarm_config;
  swarm_config.file_bytes = new_wire.size();
  swarm_config.peer_count = 500;
  const auto swarm = distrib::SimulateSwarm(swarm_config);
  std::printf("p2p swarm: %u peers complete in %u rounds; origin served "
              "%.1f%% of chunks\n",
              swarm_config.peer_count, swarm.rounds,
              100.0 * static_cast<double>(swarm.origin_chunks) /
                  static_cast<double>(swarm.origin_chunks + swarm.peer_chunks));

  // 4. The same update over the AXFR protocol on a lossy path.
  {
    sim::Simulator axfr_sim;
    sim::Network axfr_net(axfr_sim, 3);
    axfr_net.set_loss_rate(0.05);
    distrib::AxfrServer server(axfr_net, [&]() { return today; });
    distrib::AxfrClient client(axfr_sim, axfr_net,
                               distrib::AxfrClient::Options{.window = 8});
    bool exact = false;
    client.Fetch(server.node(), 0,
                 [&](util::Result<zone::SnapshotPtr> result) {
                   exact = result.ok() && *result != nullptr &&
                           (*result)->SameContent(*today);
                 });
    axfr_sim.RunUntil(10 * sim::kMinute);
    std::printf("axfr over 5%% loss: %u chunks, %u retransmits, zone %s\n",
                static_cast<unsigned>(client.stats().chunks_received),
                static_cast<unsigned>(client.stats().retransmits),
                exact ? "transferred exactly" : "FAILED");
  }

  // 5. Refresh daemon riding through an outage (paper §4 robustness).
  sim::Simulator sim;
  distrib::ZoneFetchService service(
      sim, {.config = {}, .provider = [&]() { return today; }});
  // A 5-hour outage inside the first refresh window (42h..48h).
  service.AddOutage(42 * sim::kHour, 47 * sim::kHour);

  resolver::RefreshDaemon daemon(
      sim,
      {.config = {},
       .sources = {[&](std::function<void(
                          resolver::RefreshDaemon::FetchResult)> done) {
                    service.Fetch(std::move(done));
                  }},
       .apply =
           [&](zone::SnapshotPtr z) {
             std::printf("  [t=%5.1f h] applied zone serial %u\n",
                         static_cast<double>(sim.now()) / sim::kHour,
                         z->Serial());
           }});
  std::printf("refresh daemon with a 42h..47h fetch outage:\n");
  daemon.Start(yesterday);
  sim.RunUntil(4 * sim::kDay);
  std::printf("  attempts %llu, failures %llu, refreshes %llu, "
              "expirations %llu (zone stayed valid: %s)\n",
              static_cast<unsigned long long>(daemon.stats().fetch_attempts),
              static_cast<unsigned long long>(daemon.stats().fetch_failures),
              static_cast<unsigned long long>(daemon.stats().refreshes),
              static_cast<unsigned long long>(daemon.stats().expirations),
              daemon.stats().expirations == 0 ? "yes" : "no");
  return 0;
}
