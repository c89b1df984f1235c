// Sharded parallel replay: partitioner properties, workload invariance
// across shard counts, streamed-classifier parity with ClassifyTrace, and
// bit-identical merged output across thread counts.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <tuple>
#include <unordered_set>
#include <vector>

#include "crypto/sha256.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "sim/parallel.h"
#include "traffic/attack.h"
#include "traffic/classify.h"
#include "traffic/replay.h"
#include "traffic/shard.h"
#include "util/base64.h"

namespace rootless::traffic {
namespace {

std::vector<std::string> TestTlds() {
  std::vector<std::string> tlds;
  for (int i = 0; i < 120; ++i) tlds.push_back("tld" + std::to_string(i));
  tlds.push_back("llc");  // the §5.3 new TLD, delegated on the DITL day
  return tlds;
}

WorkloadConfig SmallConfig() {
  WorkloadConfig config;
  config.seed = 4242;
  config.scale = 0.00005;  // ~285K queries, ~205 resolvers
  return config;
}

void ExpectTalliesEqual(const ShardTally& a, const ShardTally& b) {
  EXPECT_EQ(a.total_queries, b.total_queries);
  EXPECT_EQ(a.bogus_tld_queries, b.bogus_tld_queries);
  EXPECT_EQ(a.cache_spurious_ideal, b.cache_spurious_ideal);
  EXPECT_EQ(a.valid_ideal, b.valid_ideal);
  EXPECT_EQ(a.cache_spurious_budget, b.cache_spurious_budget);
  EXPECT_EQ(a.valid_budget, b.valid_budget);
  EXPECT_EQ(a.new_tld_queries, b.new_tld_queries);
  EXPECT_EQ(a.resolvers_total, b.resolvers_total);
  EXPECT_EQ(a.resolvers_bogus_only, b.resolvers_bogus_only);
}

// ------------------------------------------------------------ partitioner

TEST(ShardPlan, PartitionCoversPopulationExactlyOnce) {
  for (const std::uint32_t n : {1u, 10u, 97u, 4096u, 4097u}) {
    for (const int k : {1, 2, 3, 7, 8, 16}) {
      WorkloadConfig config;
      config.scale = 1.0;
      config.full_scale_resolvers = n;
      const ShardPlan plan = MakeShardPlan(config, k);
      // MakeShardPlan floors the population at 10 resolvers.
      const std::uint32_t count = std::max(n, 10u);
      ASSERT_EQ(plan.resolver_count, count);
      ASSERT_EQ(plan.shards.size(), static_cast<std::size_t>(k));

      // Contiguous cover of [0, count), balanced to within one resolver.
      std::uint32_t expected_begin = 0;
      std::uint32_t min_size = count, max_size = 0;
      for (const ShardRange& range : plan.shards) {
        EXPECT_EQ(range.begin, expected_begin);
        EXPECT_LE(range.begin, range.end);
        expected_begin = range.end;
        min_size = std::min(min_size, range.size());
        max_size = std::max(max_size, range.size());
      }
      EXPECT_EQ(expected_begin, count);
      EXPECT_LE(max_size - min_size, 1u);

      // ShardOf agrees with the plan's ranges for every resolver.
      for (std::uint32_t r = 0; r < count; ++r) {
        const int s = ShardOf(count, k, r);
        ASSERT_GE(s, 0);
        ASSERT_LT(s, k);
        const ShardRange& range = plan.shards[static_cast<std::size_t>(s)];
        EXPECT_GE(r, range.begin);
        EXPECT_LT(r, range.end);
      }
    }
  }
}

TEST(ShardPlan, MoreShardsThanResolversLeavesEmptyShards) {
  WorkloadConfig config;
  config.scale = 1.0;
  config.full_scale_resolvers = 3;  // floored to 10 by MakeShardPlan
  const ShardPlan plan = MakeShardPlan(config, 16);
  ASSERT_EQ(plan.resolver_count, 10u);
  std::uint32_t covered = 0;
  int empty = 0;
  for (const ShardRange& range : plan.shards) {
    covered += range.size();
    empty += range.size() == 0;
  }
  EXPECT_EQ(covered, 10u);
  EXPECT_EQ(empty, 6);
}

// --------------------------------------------- workload invariance over K

// Drains every chunk of every shard; returns packed (time, resolver, tld)
// events plus the summed tally. TLD ids are comparable across shards and
// shard counts because every generator builds the identical label table.
struct GeneratedDay {
  std::vector<std::tuple<std::uint32_t, std::uint32_t, TldId>> events;
  ShardTally tally;
};

GeneratedDay GenerateWholeDay(const WorkloadConfig& config, int num_shards,
                              const std::vector<std::string>& tlds) {
  GeneratedDay day;
  const ShardPlan plan = MakeShardPlan(config, num_shards);
  const ShardLabelSpace labels(config, tlds);
  for (int s = 0; s < num_shards; ++s) {
    ShardTraceGenerator gen(config, plan, s, labels);
    ShardChunk chunk;
    while (gen.NextChunk(chunk)) {
      for (const QueryEvent& e : chunk.events) {
        day.events.emplace_back(e.time_sec, e.resolver_id, e.tld);
      }
    }
    day.tally.MergeFrom(gen.tally());
  }
  std::sort(day.events.begin(), day.events.end());
  return day;
}

TEST(ShardGenerator, WorkloadInvariantAcrossShardCounts) {
  const WorkloadConfig config = SmallConfig();
  const std::vector<std::string> tlds = TestTlds();
  const GeneratedDay one = GenerateWholeDay(config, 1, tlds);
  ASSERT_GT(one.events.size(), 100000u);
  for (const int k : {2, 3, 8}) {
    const GeneratedDay split = GenerateWholeDay(config, k, tlds);
    // Not just equal counts: the exact same multiset of queries.
    EXPECT_TRUE(one.events == split.events) << "K=" << k;
    ExpectTalliesEqual(one.tally, split.tally);
  }
}

// The order replay consumes: each chunk ascending by (time, resolver, tld)
// and inside its own 900-second window, attack stream included.
TEST(ShardGenerator, ChunksAreInTraceOrderInsideTheirWindow) {
  constexpr std::uint32_t kChunkSec = ShardTraceGenerator::kChunkSec;
  const std::vector<std::string> tlds = TestTlds();
  AttackPlan attack;
  attack.kind = AttackKind::kWaterTorture;
  attack.attackers = 12;
  attack.rate = 40;
  attack.windows.push_back({.node = 0, .from = 3600, .to = 14400});
  for (const std::uint64_t seed : {4242ULL, 99ULL}) {
    for (const bool attacked : {false, true}) {
      WorkloadConfig config = SmallConfig();
      config.seed = seed;
      const ShardPlan plan = MakeShardPlan(config, 3);
      const ShardLabelSpace labels(config, tlds);
      std::uint64_t events = 0;
      for (int s = 0; s < 3; ++s) {
        ShardTraceGenerator gen(config, plan, s, labels);
        if (attacked) gen.SetAttackPlan(&attack);
        ShardChunk chunk;
        std::uint32_t expected_index = 0;
        while (gen.NextChunk(chunk)) {
          ASSERT_EQ(chunk.index, expected_index++);
          const std::uint32_t begin = chunk.index * kChunkSec;
          for (std::size_t i = 0; i < chunk.events.size(); ++i) {
            const QueryEvent& e = chunk.events[i];
            ASSERT_GE(e.time_sec, begin);
            ASSERT_LT(e.time_sec, begin + kChunkSec);
            if (i == 0) continue;
            const QueryEvent& p = chunk.events[i - 1];
            ASSERT_LE(std::tie(p.time_sec, p.resolver_id, p.tld),
                      std::tie(e.time_sec, e.resolver_id, e.tld))
                << "seed " << seed << " attack " << attacked << " shard " << s
                << " chunk " << chunk.index << " event " << i;
          }
          events += chunk.events.size();
        }
        EXPECT_EQ(expected_index, gen.chunk_count());
        if (attacked && s == 0) {
          EXPECT_GT(gen.tally().attack_queries, 0u);
        }
      }
      EXPECT_GT(events, 100000u);
    }
  }
}

TEST(ShardGenerator, StreamedClassifierMatchesClassifyTrace) {
  const WorkloadConfig config = SmallConfig();
  const std::vector<std::string> tlds = TestTlds();
  const std::unordered_set<std::string> real(tlds.begin(), tlds.end());

  // Concatenate the shards' chunks back into a whole-day Trace.
  const int kShards = 3;
  const ShardPlan plan = MakeShardPlan(config, kShards);
  const ShardLabelSpace labels(config, tlds);
  Trace trace;
  ShardTally tally;
  for (int s = 0; s < kShards; ++s) {
    ShardTraceGenerator gen(config, plan, s, labels);
    ShardChunk chunk;
    while (gen.NextChunk(chunk)) {
      for (const QueryEvent& e : chunk.events) {
        trace.events.push_back(
            {e.time_sec, e.resolver_id,
             trace.tlds.Intern(gen.tlds().LabelOf(e.tld))});
      }
    }
    tally.MergeFrom(gen.tally());
  }
  std::sort(trace.events.begin(), trace.events.end(),
            [](const QueryEvent& a, const QueryEvent& b) {
              return a.time_sec < b.time_sec;
            });

  const TrafficMixReport reference = ClassifyTrace(
      trace, [&](const std::string& label) { return real.count(label) > 0; });
  const TrafficMixReport streamed = tally.ToReport();
  EXPECT_EQ(streamed.total_queries, reference.total_queries);
  EXPECT_EQ(streamed.bogus_tld_queries, reference.bogus_tld_queries);
  EXPECT_EQ(streamed.cache_spurious_ideal, reference.cache_spurious_ideal);
  EXPECT_EQ(streamed.valid_ideal, reference.valid_ideal);
  EXPECT_EQ(streamed.cache_spurious_budget, reference.cache_spurious_budget);
  EXPECT_EQ(streamed.valid_budget, reference.valid_budget);
  EXPECT_EQ(streamed.resolvers_total, reference.resolvers_total);
  EXPECT_EQ(streamed.resolvers_bogus_only, reference.resolvers_bogus_only);
}

// ------------------------------------------------- registry merge semantics

TEST(RegistryMerge, CountersGaugesAndHistogramsAccumulate) {
  obs::Registry a, b, target;
  a.counter("m.count").Inc(3);
  a.gauge("m.gauge").Set(7);
  a.histogram("m.hist").Record(10);
  a.histogram("m.hist").Record(1000);
  b.counter("m.count").Inc(4);
  b.gauge("m.gauge").Set(5);
  b.histogram("m.hist").Record(1);

  a.MergeInto(target);
  b.MergeInto(target);

  EXPECT_EQ(target.counter("m.count").value(), 7u);
  EXPECT_EQ(target.gauge("m.gauge").value(), 12);
  const obs::HistogramData& h = target.histogram("m.hist").data();
  EXPECT_EQ(h.count, 3u);
  EXPECT_EQ(h.sum, 1011u);
  EXPECT_EQ(h.min, 1u);
  EXPECT_EQ(h.max, 1000u);
}

TEST(RegistryMerge, ShardOrderMergeIsReproducible) {
  // Two merge passes over the same shard registries (in the same shard-index
  // order) must render byte-identical tables — the property RunShardedReplay
  // relies on for thread-count-independent dumps.
  auto build_shard = [](int shard) {
    auto reg = std::make_unique<obs::Registry>();
    reg->set_instance_namespace("s" + std::to_string(shard) + ".");
    const obs::Labels labels{.instance = reg->NextInstance("test")};
    reg->counter("test.events", labels).Inc(100 + shard);
    reg->histogram("test.latency", labels).Record(shard + 1);
    return reg;
  };
  std::vector<std::unique_ptr<obs::Registry>> shards;
  for (int s = 0; s < 4; ++s) shards.push_back(build_shard(s));

  obs::Registry first, second;
  for (const auto& reg : shards) reg->MergeInto(first);
  for (const auto& reg : shards) reg->MergeInto(second);
  EXPECT_EQ(obs::RenderMetricsTable(first, /*aggregate_instances=*/false),
            obs::RenderMetricsTable(second, /*aggregate_instances=*/false));
  // Instance labels keep their shard namespace through the merge.
  bool saw_s3 = false;
  for (const obs::Sample& sample : first.Snapshot()) {
    if (sample.labels.instance.rfind("s3.", 0) == 0) saw_s3 = true;
  }
  EXPECT_TRUE(saw_s3);
}

TEST(HistogramData, MergeFromIsBucketwiseAdd) {
  obs::HistogramData a, b;
  for (std::uint64_t v : {1u, 2u, 3u, 500u}) a.Record(v);
  for (std::uint64_t v : {4u, 1000000u}) b.Record(v);
  a.MergeFrom(b);
  EXPECT_EQ(a.count, 6u);
  EXPECT_EQ(a.sum, 1000510u);
  EXPECT_EQ(a.min, 1u);
  EXPECT_EQ(a.max, 1000000u);
  EXPECT_GE(a.Percentile(100), 1000000u);
  std::uint64_t bucket_total = 0;
  for (const std::uint64_t bucket : a.buckets) bucket_total += bucket;
  EXPECT_EQ(bucket_total, 6u);
}

// ----------------------------------------------- end-to-end replay engine

std::string Fingerprint(const ReplayOutcome& outcome) {
  std::ostringstream out;
  const ShardTally& t = outcome.tally;
  out << t.total_queries << '|' << t.bogus_tld_queries << '|'
      << t.cache_spurious_ideal << '|' << t.valid_ideal << '|'
      << t.cache_spurious_budget << '|' << t.valid_budget << '|'
      << t.new_tld_queries << '|' << t.resolvers_total << '|'
      << t.resolvers_bogus_only << '\n';
  const resolver::ResolverStats& r = outcome.resolver;
  out << r.resolutions << '|' << r.answered_from_cache << '|'
      << r.root_transactions << '|' << r.local_root_lookups << '|'
      << r.tld_transactions << '|' << r.nxdomain << '|' << r.negative_hits
      << '|' << r.timeouts << '|' << r.failures << '|' << r.retries << '\n';
  out << outcome.replayed << '|' << outcome.cache_hits << '|'
      << outcome.cache_lookups << '\n';
  out << obs::RenderMetricsTable(*outcome.metrics,
                                 /*aggregate_instances=*/false);
  return out.str();
}

TEST(ParallelReplay, MergedOutputBitIdenticalAcrossThreadCounts) {
  ReplayOptions options;
  options.workload = SmallConfig();
  options.num_shards = 4;

  options.num_threads = 1;
  const ReplayOutcome serial = RunShardedReplay(options);
  ASSERT_GT(serial.tally.total_queries, 0u);
  // Every generated query was driven through the resolver stack.
  EXPECT_EQ(serial.replayed, serial.tally.total_queries);
  EXPECT_EQ(serial.resolver.resolutions, serial.tally.total_queries);
  EXPECT_EQ(serial.threads, 1);
  EXPECT_EQ(serial.shards, 4);

  const std::string reference = Fingerprint(serial);
  for (const int threads : {2, 4, 8}) {
    ReplayOptions parallel_options = options;
    parallel_options.num_threads = threads;
    const ReplayOutcome parallel = RunShardedReplay(parallel_options);
    EXPECT_EQ(Fingerprint(parallel), reference) << threads << " threads";
  }
}

// SHA-256 of Fingerprint(outcome) for SmallConfig() at 4 shards: the tally,
// the resolver stats, the cache counts and the unaggregated metrics table.
// A change to generation, classification, the resolver or the metrics
// vocabulary that moves any replayed byte moves one of these.
TEST(ParallelReplay, OutcomeMatchesPinnedDigests) {
  struct Case {
    resolver::RootMode mode;
    bool water_torture;
    std::string_view sha256;
  };
  const Case cases[] = {
      {resolver::RootMode::kOnDemandZoneFile, false,
       "0e9cfe078e0ae07ad65a8ce8e9d3477ef7ba3a76fa07ff0a39b7096f3b50d602"},
      {resolver::RootMode::kOnDemandZoneFile, true,
       "63506adeadb289235cfddedafb35946cd6944c3704ed3cf79a2b8a36a94248aa"},
      {resolver::RootMode::kCachePreload, false,
       "cb1cf42e6cb19a0f8c44f68819b8ca3f2dc05805f2bc4c1a4d17f73914bf7b8e"},
      {resolver::RootMode::kCachePreload, true,
       "8ff98c17b0a2648f4080854a23d997b85f9619455f4f174fee30ff394fd8b8ba"},
  };
  for (const Case& c : cases) {
    ReplayOptions options;
    options.workload = SmallConfig();
    options.num_shards = 4;
    options.num_threads = 4;
    options.mode = c.mode;
    if (c.water_torture) {
      options.attack.kind = AttackKind::kWaterTorture;
      options.attack.attackers = 12;
      options.attack.rate = 40;
      options.attack.windows.push_back({.node = 0, .from = 3600, .to = 14400});
    }
    const ReplayOutcome outcome = RunShardedReplay(options);
    if (c.water_torture) {
      ASSERT_GT(outcome.attack_queries, 0u);
    }
    const std::string fingerprint = Fingerprint(outcome);
    EXPECT_EQ(util::HexEncode(crypto::Sha256::Hash(fingerprint)), c.sha256)
        << resolver::RootModeName(c.mode)
        << (c.water_torture ? " with water torture" : "");
  }
}

TEST(ParallelReplay, TopologyPlacementKeepsThreadInvariance) {
  // With the geo model enabled, each shard's resolver is placed at the
  // population-weighted site of its first owned resolver id — a pure
  // function of (topology seed, shard range) — so the merged outcome must
  // stay bit-identical across thread counts, exactly like the legacy
  // fixed-Paris path.
  ReplayOptions options;
  options.workload = SmallConfig();
  options.num_shards = 4;
  options.num_threads = 1;
  options.topology = topo::TopologyOptions{};
  const ReplayOutcome serial = RunShardedReplay(options);
  ASSERT_GT(serial.tally.total_queries, 0u);
  const std::string reference = Fingerprint(serial);
  for (const int threads : {2, 8}) {
    ReplayOptions parallel_options = options;
    parallel_options.num_threads = threads;
    EXPECT_EQ(Fingerprint(RunShardedReplay(parallel_options)), reference)
        << threads << " threads";
  }
  // Generation-side classification is independent of where resolvers sit.
  ReplayOptions legacy = options;
  legacy.topology.reset();
  const ReplayOutcome paris = RunShardedReplay(legacy);
  ExpectTalliesEqual(serial.tally, paris.tally);
}

TEST(ParallelReplay, ClassificationTallyInvariantAcrossShardCounts) {
  // Resolver-side stats legitimately change with K (K caches), but the
  // generated workload and its §2.2 classification must not.
  ReplayOptions options;
  options.workload = SmallConfig();
  options.num_shards = 1;
  options.num_threads = 1;
  const ReplayOutcome one = RunShardedReplay(options);
  options.num_shards = 4;
  const ReplayOutcome four = RunShardedReplay(options);
  ExpectTalliesEqual(one.tally, four.tally);
  EXPECT_EQ(four.replayed, four.tally.total_queries);
}

TEST(ParallelReplay, RunShardsExecutesEveryShardOnce) {
  std::vector<int> hits(17, 0);
  sim::RunShards(17, 4, [&](int shard) { ++hits[shard]; });
  for (int shard = 0; shard < 17; ++shard) EXPECT_EQ(hits[shard], 1);
  // Worker exceptions surface to the caller instead of being swallowed.
  EXPECT_THROW(
      sim::RunShards(4, 2,
                     [](int shard) {
                       if (shard == 3) throw std::runtime_error("boom");
                     }),
      std::runtime_error);
}

}  // namespace
}  // namespace rootless::traffic
