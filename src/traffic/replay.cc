#include "traffic/replay.h"

#include <string>
#include <vector>

#include "dns/name.h"
#include "rootsrv/tld_farm.h"
#include "sim/faults.h"
#include "sim/network.h"
#include "sim/parallel.h"
#include "sim/simulator.h"
#include "topo/topology.h"
#include "util/check.h"
#include "util/civil_time.h"
#include "zone/evolution.h"
#include "zone/zone_snapshot.h"

namespace rootless::traffic {

namespace {

// The DITL collection day; fixes the root-zone snapshot the replay serves.
constexpr util::CivilDate kCollectionDay{2018, 4, 11};

struct ShardOutput {
  ShardTally tally;
  resolver::ResolverStats stats;
  std::uint64_t replayed = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_lookups = 0;
  std::unique_ptr<obs::Registry> registry;
};

// Issues each chunk event at its (compressed) trace timestamp; one sim event
// per distinct second, like the hotpath bench's ReplayPump.
struct ChunkPump {
  sim::Simulator* sim;
  resolver::RecursiveResolver* r;
  const std::vector<QueryEvent>* events;
  const std::vector<dns::Name>* qnames;
  std::uint32_t compression;
  std::size_t* next;
  const resolver::RecursiveResolver::ResolveCallback* on_done;

  void operator()() const {
    const std::uint32_t now_sec = (*events)[*next].time_sec;
    while (*next < events->size() && (*events)[*next].time_sec == now_sec) {
      r->Resolve((*qnames)[(*events)[*next].tld], dns::RRType::kA, *on_done);
      ++*next;
    }
    if (*next < events->size()) {
      const sim::SimTime when =
          static_cast<sim::SimTime>((*events)[*next].time_sec) * sim::kSecond /
          compression;
      sim->ScheduleAt(when > sim->now() ? when : sim->now(), *this);
    }
  }
};

ShardOutput RunOneShard(const ReplayOptions& options, const ShardPlan& plan,
                        int shard, const ShardLabelSpace& labels,
                        const std::vector<dns::Name>& qnames,
                        std::size_t real_tld_count,
                        const zone::SnapshotPtr& snapshot) {
  ShardOutput out;
  out.registry = std::make_unique<obs::Registry>();
  out.registry->set_instance_namespace("s" + std::to_string(shard) + ".");
  obs::Registry& reg = *out.registry;
  // The TLD farm registers a counter block per authoritative server; size
  // the name index for that up front instead of rehashing through it.
  reg.Reserve(16 * real_tld_count + 64);

  // A complete private stack; every seed derives from (stack_seed, shard).
  const std::uint64_t salt = static_cast<std::uint64_t>(shard) + 1;
  sim::Simulator sim(sim::QueuePolicy::kCalendar);
  // In-flight ceiling: one pump event plus the resolutions of one trace
  // second, each holding at most a timeout + a delivery event.
  sim.ReserveEvents(4096);
  sim::Network net(sim, options.stack_seed ^ (salt * 0x9E3779B97F4A7C15ULL),
                   &reg);
  topo::Topology geo(options.topology ? *options.topology
                                      : topo::TopologyOptions{});
  net.set_latency_fn(geo.LatencyFn());
  // Faults attach before any traffic flows; per-shard injector, per-shard
  // counters. The plan's node ids refer to this stack's deterministic
  // creation order (TLD farm servers first, resolver after).
  std::unique_ptr<sim::FaultInjector> faults;
  if (!options.fault_plan.empty()) {
    faults = std::make_unique<sim::FaultInjector>(options.fault_plan, &reg);
    net.set_fault_injector(faults.get());
  }
  rootsrv::TldFarm farm(net, geo, *snapshot,
                        options.stack_seed ^ (salt * 0xC2B2AE3D27D4EB4FULL));

  resolver::ResolverConfig rconfig;
  rconfig.mode = options.mode;
  rconfig.seed = options.stack_seed ^ (salt * 0xD6E8FEB86659FD93ULL);
  // Legacy default: the fixed Paris vantage every committed baseline was
  // recorded with. With a topology option, the shard's resolver sits at the
  // population-weighted site of its first owned resolver id instead.
  topo::GeoPoint where{48.85, 2.35};
  if (options.topology) {
    where = geo.PlaceResolver(plan.shards[static_cast<std::size_t>(shard)]
                                  .begin)
                .location;
  }
  resolver::RecursiveResolver r(sim, net, {rconfig, where, &reg, &geo});
  r.SetTldFarm(&farm);
  r.SetLocalZone(snapshot);

  ShardTraceGenerator gen(options.workload, plan, shard, labels);
  if (options.attack.active()) gen.SetAttackPlan(&options.attack);

  std::uint64_t done = 0;
  const resolver::RecursiveResolver::ResolveCallback on_done =
      [&done](const resolver::ResolutionResult&) { ++done; };

  ShardChunk chunk;
  // Chunk buffer sized from the plan: this shard's share of the day's
  // queries, spread over the chunks, with headroom for the diurnal peak.
  const auto day_queries = static_cast<double>(
      static_cast<std::uint64_t>(options.workload.full_scale_queries *
                                 options.workload.scale));
  const double shard_share =
      static_cast<double>(gen.range().size()) /
      static_cast<double>(plan.resolver_count ? plan.resolver_count : 1);
  chunk.events.reserve(static_cast<std::size_t>(
      1.5 * day_queries * shard_share / gen.chunk_count()));
  while (gen.NextChunk(chunk)) {
    if (chunk.events.empty()) continue;
    std::size_t next = 0;
    const sim::SimTime first =
        static_cast<sim::SimTime>(chunk.events.front().time_sec) *
        sim::kSecond / options.time_compression;
    sim.ScheduleAt(first > sim.now() ? first : sim.now(),
                   ChunkPump{&sim, &r, &chunk.events, &qnames,
                             options.time_compression, &next, &on_done});
    sim.Run();
  }

  out.tally = gen.tally();
  out.stats = r.stats();
  out.replayed = done;
  const resolver::CacheStats cache = r.cache().stats();
  out.cache_hits = cache.hits;
  out.cache_lookups = cache.hits + cache.misses + cache.expired;
  return out;
}

}  // namespace

ReplayOutcome RunShardedReplay(const ReplayOptions& options) {
  ROOTLESS_CHECK(options.num_shards >= 1);
  ROOTLESS_CHECK(options.time_compression >= 1);
  // Classic mode waits for a measured per-shard fleet; see the header.
  ROOTLESS_CHECK(options.mode == resolver::RootMode::kOnDemandZoneFile ||
                 options.mode == resolver::RootMode::kCachePreload);
  const int threads = options.num_threads > 0 ? options.num_threads
                                              : sim::DetectCores();

  // Shared immutable state, built once.
  const zone::RootZoneModel zone_model;
  std::vector<std::string> real_tlds;
  for (const auto* tld : zone_model.ActiveTlds(kCollectionDay)) {
    real_tlds.push_back(tld->label);
  }
  const zone::SnapshotPtr snapshot =
      zone::ZoneSnapshot::Build(zone_model.Snapshot(kCollectionDay));
  const ShardPlan plan = MakeShardPlan(options.workload, options.num_shards);

  // The label universe and the query names over it are pure functions of
  // the workload config; build them once and share them read-only across
  // every shard instead of K identical rebuilds (~33k label interns and
  // ~33k Name parses each). Hashes are pre-warmed so the shard threads
  // never write the Names' lazy hash slots — the hot resolve loop then does
  // relaxed loads only, with no cross-thread cache-line traffic.
  const ShardLabelSpace labels(options.workload, real_tlds);
  std::vector<dns::Name> qnames;
  qnames.reserve(labels.tlds().size());
  for (std::size_t id = 0; id < labels.tlds().size(); ++id) {
    auto n = dns::Name::Parse(
        "www." + labels.tlds().LabelOf(static_cast<TldId>(id)) + ".");
    qnames.push_back(n.ok() ? *n : dns::Name());
    qnames.back().Hash();
  }

  std::vector<ShardOutput> outputs(
      static_cast<std::size_t>(options.num_shards));
  sim::RunShards(options.num_shards, threads, [&](int shard) {
    outputs[static_cast<std::size_t>(shard)] = RunOneShard(
        options, plan, shard, labels, qnames, real_tlds.size(), snapshot);
  });

  // Merge strictly in shard-index order: the aggregate is then independent
  // of which worker ran which shard.
  ReplayOutcome outcome;
  outcome.metrics = std::make_unique<obs::Registry>();
  outcome.shards = options.num_shards;
  outcome.threads = threads;
  for (const ShardOutput& o : outputs) {
    outcome.tally.MergeFrom(o.tally);
    outcome.resolver += o.stats;
    outcome.replayed += o.replayed;
    outcome.attack_queries = outcome.tally.attack_queries;
    outcome.cache_hits += o.cache_hits;
    outcome.cache_lookups += o.cache_lookups;
    o.registry->MergeInto(*outcome.metrics);
  }
  return outcome;
}

}  // namespace rootless::traffic
