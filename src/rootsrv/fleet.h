// The root nameserver fleet: 13 letters, each replicated via anycast across
// the sites the topology's deployment places for its date. All instances of
// all letters serve the same (shared) root zone.
#pragma once

#include <array>
#include <memory>
#include <vector>

#include "rootsrv/auth_server.h"
#include "sim/network.h"
#include "topo/topology.h"

namespace rootless::rootsrv {

class RootServerFleet {
 public:
  // Creates one AuthServer node per instance `topology` reports for its
  // deployment date, placing each node at its site; every instance is built
  // with `options` (this is how the attack benches arm the fleet with a
  // shared response-rate limiter and a sim-time clock). Every instance
  // serves the same refcounted snapshot — the whole fleet holds one zone
  // copy regardless of its size. The topology must outlive the fleet
  // (catchment queries route through it).
  RootServerFleet(sim::Network& network, topo::Topology& topology,
                  zone::SnapshotPtr root_zone,
                  const AuthServer::Options& options = {});

  std::size_t instance_count() const { return instances_.size(); }

  // Ideal anycast: the geographically nearest instance of `letter` to a
  // client at `location` — the routing a perfectly tuned BGP would give.
  sim::NodeId InstanceFor(char letter, const topo::GeoPoint& location) const;

  // Realistic anycast: the instance the topology's BGP-perturbed catchment
  // model delivers a client to. `client_id` identifies the client (its
  // resolver seed): distinct clients at one location can land in different
  // catchments, as measured in the wild.
  sim::NodeId CatchmentInstanceFor(char letter, const topo::GeoPoint& location,
                                   std::uint64_t client_id) const;

  // Instance servers (for stats aggregation).
  struct InstanceInfo {
    char letter;
    topo::GeoPoint location;
    std::unique_ptr<AuthServer> server;
  };
  const std::vector<InstanceInfo>& instances() const { return instances_; }

  // Aggregate stats.
  AuthServerStats TotalStats() const;
  AuthServerStats LetterStats(char letter) const;

 private:
  const topo::Topology* topology_ = nullptr;
  // Aligned with topology_->instances(): instances_[i] serves instance i.
  std::vector<InstanceInfo> instances_;
  // Per-letter index into instances_ for the nearest-instance search.
  std::array<std::vector<std::size_t>, topo::kRootLetterCount> by_letter_;
};

}  // namespace rootless::rootsrv
