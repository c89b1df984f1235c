#include "rootsrv/fleet.h"

#include <utility>

#include "util/check.h"

namespace rootless::rootsrv {

RootServerFleet::RootServerFleet(sim::Network& network,
                                 topo::Topology& topology,
                                 zone::SnapshotPtr root_zone,
                                 const AuthServer::Options& options)
    : topology_(&topology) {
  for (const auto& instance : topology.instances()) {
    auto server =
        std::make_unique<AuthServer>(&network, root_zone, options);
    topology.PlaceNode(server->node(), instance.location);
    by_letter_[topo::IndexForLetter(instance.letter)].push_back(
        instances_.size());
    instances_.push_back(
        InstanceInfo{instance.letter, instance.location, std::move(server)});
  }
}

sim::NodeId RootServerFleet::InstanceFor(char letter,
                                         const topo::GeoPoint& location) const {
  const auto& candidates = by_letter_[topo::IndexForLetter(letter)];
  ROOTLESS_CHECK(!candidates.empty());
  std::size_t best = candidates[0];
  double best_km = topo::GreatCircleKm(instances_[best].location, location);
  for (std::size_t i = 1; i < candidates.size(); ++i) {
    const double km =
        topo::GreatCircleKm(instances_[candidates[i]].location, location);
    if (km < best_km) {
      best_km = km;
      best = candidates[i];
    }
  }
  return instances_[best].server->node();
}

sim::NodeId RootServerFleet::CatchmentInstanceFor(
    char letter, const topo::GeoPoint& location,
    std::uint64_t client_id) const {
  const topo::Topology::Catchment c =
      topology_->CatchmentAt(location, client_id, letter);
  // instances_ is built in topology_->instances() order, so the catchment's
  // instance index addresses our server table directly.
  return instances_[c.instance].server->node();
}

AuthServerStats RootServerFleet::TotalStats() const {
  AuthServerStats total;
  for (const auto& instance : instances_) total += instance.server->stats();
  return total;
}

AuthServerStats RootServerFleet::LetterStats(char letter) const {
  AuthServerStats total;
  for (const auto& instance : instances_) {
    if (instance.letter == letter) total += instance.server->stats();
  }
  return total;
}

}  // namespace rootless::rootsrv
