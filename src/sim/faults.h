// Deterministic fault injection for the simulated network.
//
// A FaultPlan declares, up front, everything that will go wrong in a run:
// per-link packet loss and latency jitter, payload corruption, burst
// outages of individual nodes, server crash/restart schedules, and network
// partitions. A FaultInjector executes the plan inside sim::Network::Send
// using its own seeded RNG stream, so a given (plan, workload, seed) triple
// reproduces the exact same drop/jitter/corruption schedule bit-for-bit —
// the property the §5.2-style degradation benches and the determinism tests
// rely on.
//
// Fault events are counted in the metrics registry (module "sim.faults"),
// so every bench exports drops-by-cause and jitter distributions uniformly.
#pragma once

#include <cstdint>
#include <vector>

#include "obs/counter_set.h"
#include "obs/metrics.h"
#include "sim/simulator.h"
#include "util/bytes.h"
#include "util/rng.h"

namespace rootless::sim {

// Must stay identical to the alias in sim/network.h (redeclaring the same
// alias is well-formed; this header must not include network.h, which
// includes it back).
using NodeId = std::uint32_t;

struct FaultPlan {
  // Matches any node when used as a link endpoint.
  static constexpr NodeId kAnyNode = 0xFFFFFFFFu;

  std::uint64_t seed = 0xFA17;

  // Per-link impairments; kAnyNode endpoints act as wildcards. Every rule
  // matching a datagram is applied independently, in declaration order.
  struct Link {
    NodeId src = kAnyNode;
    NodeId dst = kAnyNode;
    double loss = 0;          // drop probability
    SimTime jitter_max = 0;   // uniform extra one-way latency in [0, max]
    double corrupt = 0;       // probability of flipping bytes in the payload
  };
  std::vector<Link> links;

  // A node unreachable in [from, to): models a burst outage of the path to
  // it (both directions are cut).
  struct Window {
    NodeId node = 0;
    SimTime from = 0;
    SimTime to = 0;
  };
  std::vector<Window> outages;

  // A server process down in [crash_at, restart_at): datagrams to or from
  // the node vanish. restart_at < 0 means it never comes back.
  struct Crash {
    NodeId node = 0;
    SimTime crash_at = 0;
    SimTime restart_at = -1;
  };
  std::vector<Crash> crashes;

  // Two node groups mutually unreachable in [from, to); traffic within a
  // group is unaffected.
  struct Partition {
    std::vector<NodeId> group_a;
    std::vector<NodeId> group_b;
    SimTime from = 0;
    SimTime to = 0;
  };
  std::vector<Partition> partitions;

  // --- fluent builders (return *this so plans read as one expression) ----
  FaultPlan& Loss(NodeId src, NodeId dst, double p) {
    links.push_back({src, dst, p, 0, 0});
    return *this;
  }
  FaultPlan& LossEverywhere(double p) { return Loss(kAnyNode, kAnyNode, p); }
  FaultPlan& Jitter(NodeId src, NodeId dst, SimTime max) {
    links.push_back({src, dst, 0, max, 0});
    return *this;
  }
  FaultPlan& JitterEverywhere(SimTime max) {
    return Jitter(kAnyNode, kAnyNode, max);
  }
  FaultPlan& Corrupt(NodeId src, NodeId dst, double p) {
    links.push_back({src, dst, 0, 0, p});
    return *this;
  }
  FaultPlan& Outage(NodeId node, SimTime from, SimTime to) {
    outages.push_back({node, from, to});
    return *this;
  }
  FaultPlan& CrashRestart(NodeId node, SimTime crash_at, SimTime restart_at) {
    crashes.push_back({node, crash_at, restart_at});
    return *this;
  }
  FaultPlan& Partition2(std::vector<NodeId> a, std::vector<NodeId> b,
                        SimTime from, SimTime to) {
    partitions.push_back({std::move(a), std::move(b), from, to});
    return *this;
  }

  bool empty() const {
    return links.empty() && outages.empty() && crashes.empty() &&
           partitions.empty();
  }
};

// The injector's counters (module "sim.faults"): FaultStats is the snapshot
// stats() reads, FaultCounters the registry handles.
#define ROOTLESS_FAULT_COUNTERS(X) \
  X(drops_loss)                    \
  X(drops_outage)                  \
  X(drops_crash)                   \
  X(drops_partition)               \
  X(corruptions)                   \
  X(jitter_events)
ROOTLESS_COUNTER_SET(FaultStats, FaultCounters, ROOTLESS_FAULT_COUNTERS);

class FaultInjector {
 public:
  explicit FaultInjector(FaultPlan plan, obs::Registry* registry = nullptr);

  struct Verdict {
    bool drop = false;
    SimTime extra_latency = 0;
  };

  // Consulted by Network::Send for every datagram. May mutate `payload`
  // (corruption). All randomness comes from the injector's own stream, so
  // installing an injector never perturbs the network's RNG.
  Verdict OnSend(NodeId src, NodeId dst, SimTime now, util::Bytes& payload);

  // True if `node` is inside any outage or crash window at `t`.
  bool NodeDown(NodeId node, SimTime t) const;
  // True if `a` and `b` are split by an active partition at `t`.
  bool Partitioned(NodeId a, NodeId b, SimTime t) const;

  const FaultPlan& plan() const { return plan_; }
  FaultStats stats() const { return c_.Read(); }

 private:
  FaultPlan plan_;
  util::Rng rng_;
  FaultCounters c_;
  obs::Histogram jitter_us_;
};

}  // namespace rootless::sim
