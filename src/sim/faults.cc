#include "sim/faults.h"

#include <algorithm>

namespace rootless::sim {

namespace {

bool LinkMatches(const FaultPlan::Link& link, NodeId src, NodeId dst) {
  return (link.src == FaultPlan::kAnyNode || link.src == src) &&
         (link.dst == FaultPlan::kAnyNode || link.dst == dst);
}

bool InGroup(const std::vector<NodeId>& group, NodeId node) {
  return std::find(group.begin(), group.end(), node) != group.end();
}

}  // namespace

FaultInjector::FaultInjector(FaultPlan plan, obs::Registry* registry)
    : plan_(std::move(plan)), rng_(plan_.seed) {
  obs::Registry& reg = obs::RegistryOrDefault(registry);
  const obs::Labels labels = c_.Register(&reg, "sim.faults");
  jitter_us_ = reg.histogram("sim.faults.jitter_us", labels);
}

bool FaultInjector::NodeDown(NodeId node, SimTime t) const {
  for (const auto& w : plan_.outages) {
    if (w.node == node && t >= w.from && t < w.to) return true;
  }
  for (const auto& c : plan_.crashes) {
    if (c.node != node || t < c.crash_at) continue;
    if (c.restart_at < 0 || t < c.restart_at) return true;
  }
  return false;
}

bool FaultInjector::Partitioned(NodeId a, NodeId b, SimTime t) const {
  for (const auto& p : plan_.partitions) {
    if (t < p.from || t >= p.to) continue;
    if ((InGroup(p.group_a, a) && InGroup(p.group_b, b)) ||
        (InGroup(p.group_a, b) && InGroup(p.group_b, a)))
      return true;
  }
  return false;
}

FaultInjector::Verdict FaultInjector::OnSend(NodeId src, NodeId dst,
                                             SimTime now,
                                             util::Bytes& payload) {
  // Structural faults first: they consume no randomness, so runs that only
  // differ in outage windows keep identical RNG streams elsewhere.
  for (const auto& w : plan_.outages) {
    if ((w.node == src || w.node == dst) && now >= w.from && now < w.to) {
      c_.drops_outage.Inc();
      return {.drop = true};
    }
  }
  for (const auto& c : plan_.crashes) {
    if (c.node != src && c.node != dst) continue;
    if (now < c.crash_at) continue;
    if (c.restart_at >= 0 && now >= c.restart_at) continue;
    c_.drops_crash.Inc();
    return {.drop = true};
  }
  if (Partitioned(src, dst, now)) {
    c_.drops_partition.Inc();
    return {.drop = true};
  }

  // Probabilistic link rules, in declaration order; every matching rule is
  // applied independently.
  Verdict verdict;
  for (const auto& link : plan_.links) {
    if (!LinkMatches(link, src, dst)) continue;
    if (link.loss > 0 && rng_.Chance(link.loss)) {
      c_.drops_loss.Inc();
      return {.drop = true};
    }
    if (link.jitter_max > 0) {
      const SimTime extra = static_cast<SimTime>(
          rng_.Below(static_cast<std::uint64_t>(link.jitter_max) + 1));
      if (extra > 0) {
        verdict.extra_latency += extra;
        c_.jitter_events.Inc();
        jitter_us_.Record(static_cast<std::uint64_t>(extra));
      }
    }
    if (link.corrupt > 0 && !payload.empty() && rng_.Chance(link.corrupt)) {
      c_.corruptions.Inc();
      // Flip 1–4 bytes; a corrupted DNS datagram must still be delivered —
      // discarding garbage is the receiver's job, not the network's.
      const int flips = 1 + static_cast<int>(rng_.Below(4));
      for (int i = 0; i < flips; ++i) {
        const std::size_t pos = rng_.Below(payload.size());
        payload[pos] ^= static_cast<std::uint8_t>(1 + rng_.Below(255));
      }
    }
  }
  return verdict;
}

}  // namespace rootless::sim
