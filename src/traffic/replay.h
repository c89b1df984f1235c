// Sharded parallel DITL replay engine.
//
// Replays a §2.2-calibrated day through full resolver stacks, split into K
// independent shards (traffic/shard.h) executed on a worker-thread pool
// (sim/parallel.h). Each shard owns a complete private stack — Simulator,
// Network, topo::Topology, TldFarm, RecursiveResolver, and its own
// obs::Registry — so nothing mutable is shared between threads and every
// stats bump stays a plain non-atomic add. Shards share only immutable
// state: the root-zone ZoneSnapshot (refcounted, read-only) and the real-TLD
// label list.
//
// Determinism: a shard's entire run is a pure function of (options, shard
// index). After the pool joins, per-shard tallies and registries are merged
// in shard-index order, so the aggregate output — classification counts,
// resolver stats, and the merged metrics dump — is bit-identical for every
// thread count, including 1. Across different *shard counts* K the
// generated workload and its classification tallies are invariant too
// (per-resolver RNG streams); resolver-side stats legitimately vary with K
// because K stacks mean K caches.
//
// Only the local-root modes (kOnDemandZoneFile, kCachePreload) are
// supported. AuthServer and RootServerFleet take AuthServer::Options::registry,
// so classic mode waits only on measuring a fleet's memory per shard: about
// 985 AuthServers, each with a 16,384-entry answer cache.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>

#include "obs/metrics.h"
#include "resolver/recursive.h"
#include "sim/faults.h"
#include "topo/topology.h"
#include "traffic/attack.h"
#include "traffic/shard.h"
#include "traffic/workload.h"

namespace rootless::traffic {

struct ReplayOptions {
  WorkloadConfig workload;
  int num_shards = 1;
  int num_threads = 1;  // <= 0: one per detected core
  resolver::RootMode mode = resolver::RootMode::kOnDemandZoneFile;
  // Seeds the per-shard resolver/network/farm RNG streams (each shard
  // derives its own, independent of thread scheduling).
  std::uint64_t stack_seed = 77;
  // Sim-time compression relative to the trace's wall clock (600x, like the
  // hotpath bench: a day replays in ~144 sim-seconds, so cached referrals
  // and negative entries still expire realistically relative to each other).
  std::uint32_t time_compression = 600;
  // Adversarial stream (traffic/attack.h): attacker resolvers additionally
  // emit the plan's queries. Window-scheduled attacks stay deterministic
  // across shard and thread counts like the benign trace. kNone = off.
  AttackPlan attack;
  // Fault schedule installed into every shard's private network (windows in
  // sim time, which runs `time_compression`x faster than trace seconds).
  // Node ids are per-shard-stack ids: the farm's TLD servers are created
  // first (ids 0..tld_count-1), then the resolver. Empty = no faults.
  sim::FaultPlan fault_plan;
  // Geo model. When set, each shard builds its private topo::Topology from
  // these options and places its resolver at the population-weighted site
  // of the shard's first resolver id — a pure function of (topology seed,
  // shard range), so per-region latency is modeled and the merged outcome
  // stays bit-identical for every thread count. Unset preserves the legacy
  // fixed-Paris placement bit-for-bit.
  std::optional<topo::TopologyOptions> topology;
};

struct ReplayOutcome {
  // Generation-side ground truth + streamed §2.2 classification, summed over
  // shards (invariant across K and thread count).
  ShardTally tally;
  // Resolver-side counters summed over shards (invariant across thread
  // count at fixed K).
  resolver::ResolverStats resolver;
  std::uint64_t replayed = 0;  // resolution callbacks fired
  std::uint64_t attack_queries = 0;  // adversarial share of the replay
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_lookups = 0;
  // Every shard's metrics merged in shard-index order (instance labels are
  // namespaced "s<shard>.", so per-shard series stay distinguishable).
  std::unique_ptr<obs::Registry> metrics;
  int shards = 0;
  int threads = 0;

  TrafficMixReport mix() const { return tally.ToReport(); }
  double cache_hit_rate() const {
    return cache_lookups == 0
               ? 0.0
               : static_cast<double>(cache_hits) /
                     static_cast<double>(cache_lookups);
  }
};

ReplayOutcome RunShardedReplay(const ReplayOptions& options);

}  // namespace rootless::traffic
