// ditl_replay: the sharded DITL replay (traffic::RunShardedReplay, local-root
// kOnDemandZoneFile mode) at a fixed scale, shard count and thread count,
// repeated for the run's duration. Opens no sockets in the measured part.
// The traced run assembles the shard stacks here from the same public types
// the replay engine uses and times the calls into each layer.

#include <algorithm>
#include <thread>

#include "dns/name.h"
#include "load.h"
#include "resolver/recursive.h"
#include "rootsrv/tld_farm.h"
#include "sim/network.h"
#include "sim/simulator.h"
#include "topo/topology.h"
#include "traffic/replay.h"
#include "traffic/shard.h"
#include "util/civil_time.h"
#include "workloads.h"
#include "zone/evolution.h"
#include "zone/zone_snapshot.h"

namespace rootbench {

using namespace rootless;

namespace {

constexpr double kScale = 0.001;  // 5.7M queries per replay
constexpr int kShards = 8;
constexpr int kMaxThreads = 2;
constexpr int kMinPasses = 3;
constexpr int kSetups = 3;
constexpr util::CivilDate kDitlDay{2018, 4, 11};
// The serving probes of the traced run send the replay's own queries at the
// hot_referrals fixed rate.
constexpr double kServeRate = 50000;
constexpr std::size_t kServeQueries = 1 << 16;

int Threads() {
  const unsigned cores = std::thread::hardware_concurrency();
  return static_cast<int>(std::clamp<unsigned>(cores, 1, kMaxThreads));
}

traffic::ReplayOptions Options(std::uint64_t seed, int threads) {
  traffic::ReplayOptions options;
  options.workload.seed = seed;
  options.workload.scale = kScale;
  options.num_shards = kShards;
  options.num_threads = threads;
  options.mode = resolver::RootMode::kOnDemandZoneFile;
  return options;
}

// Everything the outcome promises to be invariant across thread counts.
std::vector<std::uint64_t> Fingerprint(const traffic::ReplayOutcome& o) {
  const traffic::ShardTally& t = o.tally;
  const resolver::ResolverStats& r = o.resolver;
  return {t.total_queries, t.bogus_tld_queries, t.cache_spurious_ideal,
          t.valid_ideal, t.cache_spurious_budget, t.valid_budget,
          t.new_tld_queries, t.resolvers_total, t.resolvers_bogus_only,
          r.resolutions, r.answered_from_cache, r.local_root_lookups,
          r.tld_transactions, r.nxdomain, r.negative_hits, r.timeouts,
          r.failures, r.retries, o.replayed, o.cache_hits, o.cache_lookups};
}

// §2.2 composition of the replayed day (paper: 61% bogus TLDs, ~0.5% valid
// under an ideal cache, ~3.3% valid under the 15-minute budget).
void CheckMix(const traffic::ReplayOutcome& o, Result& result) {
  const traffic::TrafficMixReport mix = o.mix();
  auto within = [&](const char* what, double v, double lo, double hi) {
    if (v < lo || v > hi) {
      result.Fail(std::string("§2.2 ") + what + " fraction " + std::to_string(v) +
                  " outside [" + std::to_string(lo) + ", " + std::to_string(hi) + "]");
    }
  };
  within("bogus", mix.bogus_fraction(), 0.600, 0.620);
  within("ideal-valid", mix.valid_ideal_fraction(), 0.0040, 0.0060);
  within("budget-valid", mix.valid_budget_fraction(), 0.030, 0.036);
  if (o.replayed != mix.total_queries) {
    result.Fail("replay resolved " + std::to_string(o.replayed) + " of " +
                std::to_string(mix.total_queries) + " generated queries");
  }
}

std::vector<std::string> RealTlds(const zone::RootZoneModel& model) {
  std::vector<std::string> labels;
  for (const auto* tld : model.ActiveTlds(kDitlDay)) labels.push_back(tld->label);
  return labels;
}

// The work the replay engine does before any shard runs: the model root
// zone and its snapshot, the shared label space, and the shard plan.
double TimeReplaySetup(std::uint64_t seed) {
  const std::int64_t t0 = NowNs();
  const zone::RootZoneModel model;
  const zone::SnapshotPtr snapshot = zone::ZoneSnapshot::Build(model.Snapshot(kDitlDay));
  const traffic::ReplayOptions options = Options(seed, 1);
  const traffic::ShardLabelSpace labels(options.workload, RealTlds(model));
  const traffic::ShardPlan plan = traffic::MakeShardPlan(options.workload, kShards);
  const double seconds = (NowNs() - t0) / 1e9;
  if (!snapshot || labels.tlds().size() == 0 || plan.shards.empty()) return -1;
  return seconds;
}

struct Pass {
  double wall_s = 0;
  double cpu_ns = 0;
  std::uint64_t queries = 0;
};

Pass TimedReplay(const traffic::ReplayOptions& options,
                 traffic::ReplayOutcome& outcome) {
  const std::int64_t t0 = NowNs();
  const std::uint64_t cpu0 = ProcessCpuNs();
  outcome = traffic::RunShardedReplay(options);
  return {(NowNs() - t0) / 1e9, static_cast<double>(ProcessCpuNs() - cpu0),
          outcome.replayed};
}

// One shard's stack, mirroring the replay engine's per-shard assembly (same
// seeds, same fixed vantage point), with the calls into each layer timed
// from here.
class ShardStack {
 public:
  ShardStack(const traffic::ReplayOptions& options, const traffic::ShardPlan& plan,
             int shard, const traffic::ShardLabelSpace& labels,
             const std::vector<dns::Name>& qnames, const zone::SnapshotPtr& snapshot)
      : salt_(static_cast<std::uint64_t>(shard) + 1),
        sim_(sim::QueuePolicy::kCalendar),
        net_(sim_, options.stack_seed ^ (salt_ * 0x9E3779B97F4A7C15ULL), &registry_),
        farm_(net_, geo_, *snapshot, options.stack_seed ^ (salt_ * 0xC2B2AE3D27D4EB4FULL)),
        resolver_(sim_, net_, {Config(options, salt_), topo::GeoPoint{48.85, 2.35}, &registry_, &geo_}),
        gen_(options.workload, plan, shard, labels),
        qnames_(qnames),
        compression_(options.time_compression) {
    sim_.ReserveEvents(4096);
    net_.set_latency_fn(geo_.LatencyFn());
    resolver_.SetTldFarm(&farm_);
    resolver_.SetLocalZone(snapshot);
  }

  // Replays the shard's whole day. With `timed`, accumulates the time spent
  // in NextChunk, in Resolve, and in the rest of Simulator::Run.
  void Run(bool timed, Tracer* tracer) {
    traffic::ShardChunk chunk;
    const resolver::RecursiveResolver::ResolveCallback on_done =
        [this](const resolver::ResolutionResult&) { ++done_; };
    for (;;) {
      const std::int64_t t0 = timed ? NowNs() : 0;
      const bool more = gen_.NextChunk(chunk);
      const std::int64_t t1 = timed ? NowNs() : 0;
      gen_ns_ += t1 - t0;
      if (!more) break;
      if (chunk.events.empty()) continue;
      std::size_t next = 0;
      const std::int64_t resolve_before = resolve_ns_;
      Schedule(chunk, next, timed, on_done, FirstTime(chunk));
      sim_.Run();
      const std::int64_t t2 = timed ? NowNs() : 0;
      other_ns_ += (t2 - t1) - (resolve_ns_ - resolve_before);
      if (tracer != nullptr && chunk.index < kTracedChunks) {
        const int c = tracer->Record("traffic.chunk", t0, t2, parent_span);
        tracer->Record("traffic.next_chunk", t0, t1, c);
        tracer->Record("sim.run", t1, t2, c);
      }
    }
  }

  std::uint64_t done() const { return done_; }
  double gen_ns() const { return static_cast<double>(gen_ns_); }
  double resolve_ns() const { return static_cast<double>(resolve_ns_); }
  double other_ns() const { return static_cast<double>(other_ns_); }
  std::uint64_t events() const { return sim_.events_executed(); }
  const resolver::RecursiveResolver& resolver() const { return resolver_; }
  int parent_span = Tracer::kNoParent;

 private:
  static constexpr std::uint32_t kTracedChunks = 4;

  static resolver::ResolverConfig Config(const traffic::ReplayOptions& options,
                                         std::uint64_t salt) {
    resolver::ResolverConfig config;
    config.mode = options.mode;
    config.seed = options.stack_seed ^ (salt * 0xD6E8FEB86659FD93ULL);
    return config;
  }

  sim::SimTime FirstTime(const traffic::ShardChunk& chunk) const {
    const sim::SimTime first = static_cast<sim::SimTime>(chunk.events.front().time_sec) *
                               sim::kSecond / compression_;
    return first > sim_.now() ? first : sim_.now();
  }

  // One sim event per distinct trace second issues that second's queries.
  void Schedule(const traffic::ShardChunk& chunk, std::size_t& next, bool timed,
                const resolver::RecursiveResolver::ResolveCallback& on_done,
                sim::SimTime when) {
    sim_.ScheduleAt(when, [this, &chunk, &next, timed, &on_done] {
      const std::uint32_t now_sec = chunk.events[next].time_sec;
      const std::int64_t t0 = timed ? NowNs() : 0;
      while (next < chunk.events.size() && chunk.events[next].time_sec == now_sec) {
        resolver_.Resolve(qnames_[chunk.events[next].tld], dns::RRType::kA, on_done);
        ++next;
      }
      if (timed) resolve_ns_ += NowNs() - t0;
      if (next < chunk.events.size()) {
        const sim::SimTime at = static_cast<sim::SimTime>(chunk.events[next].time_sec) *
                                sim::kSecond / compression_;
        Schedule(chunk, next, timed, on_done, at > sim_.now() ? at : sim_.now());
      }
    });
  }

  const std::uint64_t salt_;
  obs::Registry registry_;
  sim::Simulator sim_;
  sim::Network net_;
  topo::Topology geo_;
  rootsrv::TldFarm farm_;
  resolver::RecursiveResolver resolver_;
  traffic::ShardTraceGenerator gen_;
  const std::vector<dns::Name>& qnames_;
  std::uint32_t compression_;
  std::uint64_t done_ = 0;
  std::int64_t gen_ns_ = 0;
  std::int64_t resolve_ns_ = 0;
  std::int64_t other_ns_ = 0;
};

std::vector<dns::Name> QueryNames(const traffic::ShardLabelSpace& labels) {
  std::vector<dns::Name> qnames;
  qnames.reserve(labels.tlds().size());
  for (std::size_t id = 0; id < labels.tlds().size(); ++id) {
    auto n = dns::Name::Parse(
        "www." + labels.tlds().LabelOf(static_cast<traffic::TldId>(id)) + ".");
    qnames.push_back(n.ok() ? *n : dns::Name());
    qnames.back().Hash();
  }
  return qnames;
}

}  // namespace

std::vector<std::string> ReplayLabels(std::uint64_t seed, std::size_t count) {
  const zone::RootZoneModel model;
  const traffic::ReplayOptions options = Options(seed, 1);
  const traffic::ShardLabelSpace labels(options.workload, RealTlds(model));
  const traffic::ShardPlan plan = traffic::MakeShardPlan(options.workload, kShards);
  traffic::ShardTraceGenerator gen(options.workload, plan, 0, labels);
  std::vector<std::string> out;
  traffic::ShardChunk chunk;
  while (out.size() < count && gen.NextChunk(chunk)) {
    for (const traffic::QueryEvent& e : chunk.events) {
      if (out.size() == count) break;
      out.push_back(labels.tlds().LabelOf(e.tld));
    }
  }
  return out;
}

ReplayCosts AddReplayLayers(std::uint64_t seed, double per_thread_overhead,
                            Result& result, Tracer& tracer) {
  const int parent = tracer.Begin("replay.shard_stack");
  const zone::RootZoneModel model;
  const zone::SnapshotPtr snapshot = zone::ZoneSnapshot::Build(model.Snapshot(kDitlDay));
  const traffic::ReplayOptions options = Options(seed, 1);
  std::int64_t t0 = NowNs();
  const traffic::ShardLabelSpace labels(options.workload, RealTlds(model));
  const double label_ns = static_cast<double>(NowNs() - t0);
  tracer.Record("traffic.label_space", t0, NowNs(), parent);
  const std::vector<dns::Name> qnames = QueryNames(labels);
  const traffic::ShardPlan plan = traffic::MakeShardPlan(options.workload, kShards);

  // Every shard in turn on this thread: an untimed pass (the trace-overhead
  // baseline), then a timed one with its stack construction timed too.
  double untimed_ns = 0, untimed_cpu_ns = 0, timed_ns = 0, build_ns = 0, gen_ns = 0,
         resolve_ns = 0, other_ns = 0, events = 0, queries = 0;
  resolver::ResolverStats rs;
  resolver::CacheStats cs;
  for (int shard = 0; shard < kShards; ++shard) {
    {
      ShardStack stack(options, plan, shard, labels, qnames, snapshot);
      t0 = NowNs();
      const std::uint64_t cpu0 = ThreadCpuNs();
      stack.Run(false, nullptr);
      untimed_cpu_ns += static_cast<double>(ThreadCpuNs() - cpu0);
      untimed_ns += static_cast<double>(NowNs() - t0);
    }
    t0 = NowNs();
    ShardStack stack(options, plan, shard, labels, qnames, snapshot);
    build_ns += static_cast<double>(NowNs() - t0);
    const int span = tracer.Record("replay.shard_" + std::to_string(shard), t0, t0, parent);
    tracer.Record("replay.stack_build", t0, NowNs(), span);
    stack.parent_span = span;
    t0 = NowNs();
    stack.Run(true, tracer.enabled() ? &tracer : nullptr);
    timed_ns += static_cast<double>(NowNs() - t0);
    gen_ns += stack.gen_ns();
    resolve_ns += stack.resolve_ns();
    other_ns += stack.other_ns();
    events += static_cast<double>(stack.events());
    queries += static_cast<double>(stack.done());
    const resolver::ResolverStats s = stack.resolver().stats();
    rs.resolutions += s.resolutions;
    rs.negative_hits += s.negative_hits;
    rs.local_root_lookups += s.local_root_lookups;
    const resolver::CacheStats c = stack.resolver().cache().stats();
    cs.hits += c.hits;
    cs.misses += c.misses;
    cs.expired += c.expired;
  }
  tracer.End(parent);

  const double q = std::max(1.0, queries);
  ReplayCosts costs;
  costs.gen_classify_ns = gen_ns / q;
  costs.resolve_ns = resolve_ns / q;
  costs.run_other_ns = other_ns / q;
  costs.setup_ns = (label_ns + build_ns) / q;
  costs.untimed_cpu_ns = untimed_cpu_ns / q;
  costs.trace_overhead = untimed_ns > 0 ? timed_ns / untimed_ns - 1 : 0;

  const double resolutions = static_cast<double>(std::max<std::uint64_t>(1, rs.resolutions));
  const double lookups = static_cast<double>(cs.hits + cs.misses + cs.expired);
  result.Add("traffic.gen_classify_ns_per_query", costs.gen_classify_ns, "ns");
  result.Add("traffic.label_space_ms", label_ns / 1e6, "ms");
  result.Add("resolver.resolve_call_ns", costs.resolve_ns, "ns");
  result.Add("sim.run_other_ns_per_query", costs.run_other_ns, "ns");
  result.Add("sim.events_per_query", events / q, "count");
  result.Add("resolver.cache_hit_ratio",
             lookups > 0 ? static_cast<double>(cs.hits) / lookups : 0, "ratio");
  result.Add("resolver.negative_hit_ratio",
             static_cast<double>(rs.negative_hits) / resolutions, "ratio");
  result.Add("resolver.local_root_lookups_per_query",
             static_cast<double>(rs.local_root_lookups) / resolutions, "ratio");

  if (per_thread_overhead < 0) {
    // CPU per query with the benchmark's thread count over CPU per query on
    // one thread, same replay.
    traffic::ReplayOutcome outcome;
    const Pass one = TimedReplay(Options(seed, 1), outcome);
    const Pass many = TimedReplay(Options(seed, Threads()), outcome);
    per_thread_overhead = (many.cpu_ns / static_cast<double>(many.queries)) /
                          (one.cpu_ns / static_cast<double>(one.queries));
  }
  result.Add("sim.per_thread_overhead", per_thread_overhead, "ratio");
  return costs;
}

void RunReplay(const RunOptions& options, Result& result, Tracer& tracer) {
  std::vector<double> setup_times;
  for (int i = 0; i < kSetups; ++i) {
    ScopedSpan span(tracer, "setup");
    setup_times.push_back(TimeReplaySetup(options.seed));
  }
  result.Add("setup_s", Median(setup_times), "s");

  const int threads = Threads();
  const traffic::ReplayOptions replay = Options(options.seed, threads);
  std::vector<Pass> passes;
  std::vector<std::uint64_t> first;
  const std::int64_t end = NowNs() + static_cast<std::int64_t>(options.seconds * 1e9);
  while (static_cast<int>(passes.size()) < kMinPasses || NowNs() < end) {
    traffic::ReplayOutcome outcome;
    {
      ScopedSpan span(tracer, "traffic.run_sharded_replay");
      passes.push_back(TimedReplay(replay, outcome));
    }
    ++result.attempted;
    if (first.empty()) {
      first = Fingerprint(outcome);
      CheckMix(outcome, result);
    } else if (Fingerprint(outcome) != first) {
      result.Fail("replay pass " + std::to_string(passes.size()) +
                  " differs from the first pass");
    }
  }
  // Thread-count invariance: one single-threaded pass must reproduce it.
  traffic::ReplayOutcome single;
  Pass one;
  {
    ScopedSpan span(tracer, "traffic.run_sharded_replay.1thread");
    one = TimedReplay(Options(options.seed, 1), single);
  }
  ++result.attempted;
  if (Fingerprint(single) != first) {
    result.Fail("1-thread replay differs from the " + std::to_string(threads) +
                "-thread replay");
  }

  std::vector<double> qps, cpu, wall_us;
  for (const Pass& p : passes) {
    qps.push_back(static_cast<double>(p.queries) / p.wall_s);
    cpu.push_back(p.cpu_ns / static_cast<double>(p.queries));
    wall_us.push_back(p.wall_s * 1e6);
  }
  const double cpu_per_query = Median(cpu);
  result.Add("replay_qps", Median(qps), "1/s");
  result.Add("throughput", Median(qps), "1/s");
  result.Add("replay_cpu_ns_per_query", cpu_per_query, "ns");
  result.Add("cpu_ns_per_query", cpu_per_query, "ns");
  result.Add("p50_us", Percentile(wall_us, 50), "us");
  result.Add("p99_us", Percentile(wall_us, 99), "us");
  result.Add("replay_passes", static_cast<double>(passes.size()), "count");
  result.info.emplace_back("replay", "scale " + std::to_string(kScale) + ", " +
                                         std::to_string(kShards) + " shards, " +
                                         std::to_string(threads) + " threads, " +
                                         std::to_string(passes.front().queries) +
                                         " queries per pass");
  result.Add("peak_rss_mb", PeakRssMb(), "MB");
  if (!options.trace) return;

  // ---- traced run ------------------------------------------------------
  const double cpu_one = one.cpu_ns / static_cast<double>(one.queries);
  const ReplayCosts costs =
      AddReplayLayers(options.seed, cpu_per_query / cpu_one, result, tracer);
  result.Add("bench.trace_overhead_ratio", costs.trace_overhead, "ratio");
  result.layers = {
      {"traffic.gen_classify", costs.gen_classify_ns, "NextChunk, shard stacks"},
      {"resolver.resolve", costs.resolve_ns, "Resolve calls, shard stacks"},
      {"sim.run_other", costs.run_other_ns, "Simulator::Run minus Resolve"},
      {"traffic.replay_setup", costs.setup_ns, "label space + stack build, amortized"},
      {"sim.parallel_overhead", cpu_per_query - costs.untimed_cpu_ns - costs.setup_ns,
       "replay CPU/query at " + std::to_string(threads) +
           " threads minus the same stacks run untimed on one thread"},
  };
  result.layers_total_ns = cpu_per_query;

  // The serving layers, fed the replay's own query stream: 61% bogus-TLD
  // names, the rest real TLDs by their replay popularity.
  Tracer quiet;
  ZoneSet zones = BuildZones(2, quiet, Tracer::kNoParent);
  const QueryMix mix = MakeLabelMix(ReplayLabels(options.seed, kServeQueries));
  const Reference reference(zones, mix);
  const LiveStats live =
      ServeBriefly(zones, mix, reference, kServeRate, 1.0, options.seed, result);
  AddLiveLayers(live, result);
  AddSocketLayers(zones, mix, reference, kServeRate, options.seed, result, tracer);
  AddAnswerPathLayers(zones, mix, result, tracer);
  AddRefreshLayers(zones, true, result, tracer);
}

}  // namespace rootbench
