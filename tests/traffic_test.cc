// Tests for the DITL-day generator and the §2.2 classifier: the
// calibration targets from the paper, and the generated day's structure
// beyond the headline mix (diurnal shape, per-pair burst structure, scaling
// behaviour, the bogus-only/regular split).
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <stdexcept>
#include <vector>

#include "traffic/classify.h"
#include "traffic/shard.h"
#include "traffic/trace.h"
#include "traffic/workload.h"
#include "util/rng.h"
#include "zone/evolution.h"

namespace rootless::traffic {
namespace {

const std::vector<std::string>& RealTlds() {
  static const std::vector<std::string>* tlds = [] {
    const zone::RootZoneModel model;
    auto* out = new std::vector<std::string>();
    for (const auto* tld : model.ActiveTlds({2018, 4, 11})) {
      out->push_back(tld->label);
    }
    return out;
  }();
  return *tlds;
}

const std::set<std::string>& TldSet() {
  static const std::set<std::string>* s =
      new std::set<std::string>(RealTlds().begin(), RealTlds().end());
  return *s;
}

bool IsReal(const std::string& label) { return TldSet().count(label) > 0; }

WorkloadConfig Config(double scale) {
  WorkloadConfig config;
  config.scale = scale;
  return config;
}

// A small-scale config for fast tests.
WorkloadConfig SmallConfig() {
  return Config(0.0001);  // 570K queries, 410 resolvers
}

// The generated day of `config`: one shard's chunks appended in order
// (which is trace order), and the tally it classified while streaming.
struct Day {
  Trace trace;
  ShardTally tally;
};

Day GenerateDay(const WorkloadConfig& config) {
  const ShardLabelSpace labels(config, RealTlds());
  ShardTraceGenerator gen(config, MakeShardPlan(config, 1), 0, labels);
  Day day;
  day.trace.tlds = labels.tlds();
  ShardChunk chunk;
  while (gen.NextChunk(chunk)) {
    day.trace.events.insert(day.trace.events.end(), chunk.events.begin(),
                            chunk.events.end());
  }
  day.tally = gen.tally();
  return day;
}

TEST(TldTable, InternsAndDedupes) {
  TldTable table;
  const TldId a = table.Intern("com");
  const TldId b = table.Intern("org");
  EXPECT_EQ(table.Intern("com"), a);
  EXPECT_NE(a, b);
  EXPECT_EQ(table.LabelOf(a), "com");
  EXPECT_EQ(table.size(), 2u);
}

TEST(Workload, DeterministicForSeed) {
  const Day a = GenerateDay(SmallConfig());
  const Day b = GenerateDay(SmallConfig());
  ASSERT_EQ(a.trace.events.size(), b.trace.events.size());
  for (std::size_t i = 0; i < a.trace.events.size(); i += 997) {
    EXPECT_EQ(a.trace.events[i].time_sec, b.trace.events[i].time_sec);
    EXPECT_EQ(a.trace.events[i].resolver_id, b.trace.events[i].resolver_id);
  }
}

TEST(Workload, EventsSortedWithinWindow) {
  const Trace trace = GenerateDay(SmallConfig()).trace;
  for (std::size_t i = 1; i < trace.events.size(); ++i) {
    EXPECT_LE(trace.events[i - 1].time_sec, trace.events[i].time_sec);
    EXPECT_LT(trace.events[i].time_sec, 86400u);
  }
}

// Every generated query is counted once: bogus, or real and placed by each
// cache model.
TEST(Workload, SummaryAccounting) {
  const Day day = GenerateDay(SmallConfig());
  const ShardTally& t = day.tally;
  EXPECT_EQ(t.total_queries, day.trace.events.size());
  EXPECT_EQ(t.total_queries,
            t.bogus_tld_queries + t.valid_ideal + t.cache_spurious_ideal);
  EXPECT_EQ(t.total_queries,
            t.bogus_tld_queries + t.valid_budget + t.cache_spurious_budget);
  EXPECT_GT(t.resolvers_bogus_only, 0u);
}

TEST(Workload, BogusTldsAvoidRealLabels) {
  util::Rng rng(5);
  int real_hits = 0;
  for (int i = 0; i < 2000; ++i) {
    if (IsReal(SampleBogusTld(rng))) ++real_hits;
  }
  // "test" and random collisions are possible but must be rare.
  EXPECT_LT(real_hits, 100);
}

// The headline §2.2 calibration: the generated day must classify close to
// the paper's published mix.
TEST(Workload, MatchesPaperTrafficMix) {
  // 2.85M queries — enough for tight fractions.
  const Day day = GenerateDay(Config(0.0005));
  const TrafficMixReport report = day.tally.ToReport();

  EXPECT_EQ(report.total_queries, day.trace.events.size());

  // Paper: 61.0% bogus.
  EXPECT_NEAR(report.bogus_fraction(), 0.610, 0.02);
  // Paper: 38.4% ideal-cache spurious, 0.5% valid.
  EXPECT_NEAR(report.spurious_ideal_fraction(), 0.384, 0.02);
  EXPECT_NEAR(report.valid_ideal_fraction(), 0.005, 0.004);
  // Paper: 35.7% budget-model spurious, 3.3% valid.
  EXPECT_NEAR(report.spurious_budget_fraction(), 0.357, 0.02);
  EXPECT_NEAR(report.valid_budget_fraction(), 0.033, 0.012);
  // Paper: 723K of 4.1M resolvers bogus-only (17.6%).
  EXPECT_NEAR(static_cast<double>(report.resolvers_bogus_only) /
                  report.resolvers_total,
              0.176, 0.05);
}

TEST(Workload, NewTldShareMatchesPaper) {
  // Scale 0.005: each regular resolver adopts .llc with probability
  // floor(0.00044 * resolvers) / regulars, so scale 0.001 expects a single
  // adopter and can draw none (seeds 2018 and 777 both do).
  // The day (28.5M queries) is counted as it streams, not kept.
  const WorkloadConfig config = Config(0.005);
  const ShardLabelSpace labels(config, RealTlds());
  ShardTraceGenerator gen(config, MakeShardPlan(config, 1), 0, labels);
  TldId llc = 0;
  while (labels.tlds().LabelOf(llc) != "llc") ++llc;
  std::uint64_t queries = 0;
  std::set<std::uint32_t> resolvers;
  ShardChunk chunk;
  while (gen.NextChunk(chunk)) {
    for (const QueryEvent& e : chunk.events) {
      if (e.tld != llc) continue;
      ++queries;
      resolvers.insert(e.resolver_id);
    }
  }
  const double query_fraction = static_cast<double>(queries) /
                                static_cast<double>(gen.tally().total_queries);
  const double resolver_fraction =
      static_cast<double>(resolvers.size()) / gen.tally().resolvers_total;
  // Paper §5.3: <0.0002% of queries... our scaled trace has quantization,
  // so allow an order of magnitude while requiring "tiny".
  EXPECT_GT(queries, 0u);
  EXPECT_LT(query_fraction, 2e-5);
  EXPECT_LT(resolver_fraction, 0.002);  // paper: <0.1%
}

TEST(WorkloadStructure, QueryCountScalesLinearly) {
  const auto small = GenerateDay(Config(0.0001)).trace;
  const auto large = GenerateDay(Config(0.0002)).trace;
  const double ratio = static_cast<double>(large.events.size()) /
                       static_cast<double>(small.events.size());
  EXPECT_NEAR(ratio, 2.0, 0.1);
}

TEST(WorkloadStructure, DiurnalShapeIsPresent) {
  const Trace trace = GenerateDay(Config(0.0003)).trace;
  // Split the day into 8 bins; max/min bin ratio should show the swing but
  // stay bounded (the per-chunk rate weight is 0.75 + 0.25 sin).
  std::uint64_t bins[8] = {};
  for (const auto& e : trace.events) ++bins[e.time_sec / (86400 / 8)];
  std::uint64_t lo = bins[0], hi = bins[0];
  for (auto b : bins) {
    lo = std::min(lo, b);
    hi = std::max(hi, b);
  }
  EXPECT_GT(static_cast<double>(hi) / lo, 1.15);
  EXPECT_LT(static_cast<double>(hi) / lo, 3.0);
}

TEST(WorkloadStructure, BogusOnlyResolversNeverQueryRealTlds) {
  const WorkloadConfig config = Config(0.0002);
  const Trace trace = GenerateDay(config).trace;
  // Resolver ids below bogus_only_count are the junk-only population.
  const std::uint32_t bogus_only = MakeShardPlan(config, 1).bogus_only_count;
  for (const auto& e : trace.events) {
    if (e.resolver_id < bogus_only) {
      EXPECT_FALSE(IsReal(trace.tlds.LabelOf(e.tld)))
          << trace.tlds.LabelOf(e.tld);
    }
  }
}

TEST(WorkloadStructure, ValidPairsAreBursty) {
  // The §2.2 numbers require per-(resolver,TLD) queries concentrated in few
  // 15-minute slots: mean slots-per-pair must be near the configured 6.6,
  // far below the mean queries-per-pair (~78).
  const Trace trace = GenerateDay(Config(0.0005)).trace;
  std::map<std::uint64_t, std::set<std::uint32_t>> slots;
  std::map<std::uint64_t, std::uint64_t> counts;
  for (const auto& e : trace.events) {
    if (!IsReal(trace.tlds.LabelOf(e.tld))) continue;
    const std::uint64_t key =
        (static_cast<std::uint64_t>(e.resolver_id) << 20) | e.tld;
    slots[key].insert(e.time_sec / 900);
    ++counts[key];
  }
  double slot_sum = 0, count_sum = 0;
  for (const auto& [key, s] : slots) slot_sum += static_cast<double>(s.size());
  for (const auto& [key, c] : counts) count_sum += static_cast<double>(c);
  const double mean_slots = slot_sum / static_cast<double>(slots.size());
  const double mean_queries = count_sum / static_cast<double>(counts.size());
  EXPECT_NEAR(mean_slots, 6.6, 1.5);
  EXPECT_GT(mean_queries, 8 * mean_slots);
}

TEST(WorkloadStructure, DifferentSeedsDifferButCalibrationHolds) {
  WorkloadConfig a = Config(0.0003);
  WorkloadConfig b = Config(0.0003);
  b.seed = 777;
  const Day day_a = GenerateDay(a);
  const Day day_b = GenerateDay(b);
  const auto& events_a = day_a.trace.events;
  const auto& events_b = day_b.trace.events;
  // Different event streams...
  bool any_diff = events_a.size() != events_b.size();
  for (std::size_t i = 0; !any_diff && i < events_a.size(); i += 1009) {
    any_diff = events_a[i].time_sec != events_b[i].time_sec;
  }
  EXPECT_TRUE(any_diff);
  // ...same calibrated mix.
  const TrafficMixReport report_a = day_a.tally.ToReport();
  const TrafficMixReport report_b = day_b.tally.ToReport();
  EXPECT_NEAR(report_a.bogus_fraction(), report_b.bogus_fraction(), 0.01);
  EXPECT_NEAR(report_a.valid_budget_fraction(),
              report_b.valid_budget_fraction(), 0.01);
}

TEST(WorkloadStructure, CustomMixParametersRespected) {
  WorkloadConfig config = Config(0.0002);
  config.bogus_query_fraction = 0.30;
  EXPECT_NEAR(GenerateDay(config).tally.ToReport().bogus_fraction(), 0.30,
              0.02);
}

TEST(WorkloadStructure, WindowParameterBoundsTimestamps) {
  WorkloadConfig config = Config(0.0001);
  config.window_sec = 3600;
  const Trace trace = GenerateDay(config).trace;
  for (const auto& e : trace.events) EXPECT_LT(e.time_sec, 3600u);
}

TEST(Classify, IdealModelCountsFirstQueryPerPairOnly) {
  Trace trace;
  const TldId com = trace.tlds.Intern("com");
  const TldId bogus = trace.tlds.Intern("bogus");
  // resolver 1 queries com three times, resolver 2 once, plus bogus.
  trace.events.push_back({100, 1, com});
  trace.events.push_back({200, 1, com});
  trace.events.push_back({50000, 1, com});
  trace.events.push_back({300, 2, com});
  trace.events.push_back({400, 2, bogus});

  const auto report = ClassifyTrace(
      trace, [](const std::string& label) { return label == "com"; });
  EXPECT_EQ(report.total_queries, 5u);
  EXPECT_EQ(report.bogus_tld_queries, 1u);
  EXPECT_EQ(report.valid_ideal, 2u);           // first per pair
  EXPECT_EQ(report.cache_spurious_ideal, 2u);  // repeats
  EXPECT_EQ(report.resolvers_total, 2u);
  EXPECT_EQ(report.resolvers_bogus_only, 0u);
}

TEST(Classify, BudgetModelAllowsOnePerWindow) {
  Trace trace;
  const TldId com = trace.tlds.Intern("com");
  // Three queries in one 15-min window, one in the next.
  trace.events.push_back({0, 1, com});
  trace.events.push_back({100, 1, com});
  trace.events.push_back({899, 1, com});
  trace.events.push_back({900, 1, com});

  const auto report =
      ClassifyTrace(trace, [](const std::string&) { return true; });
  EXPECT_EQ(report.valid_budget, 2u);
  EXPECT_EQ(report.cache_spurious_budget, 2u);
  // Ideal model: only the very first is valid.
  EXPECT_EQ(report.valid_ideal, 1u);
  EXPECT_EQ(report.cache_spurious_ideal, 3u);
}

TEST(Classify, BogusOnlyResolverDetection) {
  Trace trace;
  const TldId com = trace.tlds.Intern("com");
  const TldId junk = trace.tlds.Intern("junk");
  trace.events.push_back({1, 1, junk});
  trace.events.push_back({2, 1, junk});
  trace.events.push_back({3, 2, junk});
  trace.events.push_back({4, 2, com});

  const auto report = ClassifyTrace(
      trace, [](const std::string& label) { return label == "com"; });
  EXPECT_EQ(report.resolvers_total, 2u);
  EXPECT_EQ(report.resolvers_bogus_only, 1u);
}

TEST(Classify, CustomBudgetWindow) {
  Trace trace;
  const TldId com = trace.tlds.Intern("com");
  trace.events.push_back({0, 1, com});
  trace.events.push_back({30, 1, com});

  ClassifyOptions options;
  options.budget_window_sec = 60;
  const auto report =
      ClassifyTrace(trace, [](const std::string&) { return true; }, options);
  EXPECT_EQ(report.valid_budget, 1u);

  options.budget_window_sec = 20;
  const auto report2 =
      ClassifyTrace(trace, [](const std::string&) { return true; }, options);
  EXPECT_EQ(report2.valid_budget, 2u);
}

TEST(Classify, EmptyTrace) {
  Trace trace;
  const auto report =
      ClassifyTrace(trace, [](const std::string&) { return true; });
  EXPECT_EQ(report.total_queries, 0u);
  EXPECT_EQ(report.bogus_fraction(), 0.0);
}

}  // namespace
}  // namespace rootless::traffic

namespace rootless::traffic {
namespace {

// SortEvents gives exactly the order of the comparison sort it replaced.
TEST(SortEvents, MatchesComparisonSort) {
  const auto before = [](const QueryEvent& a, const QueryEvent& b) {
    if (a.time_sec != b.time_sec) return a.time_sec < b.time_sec;
    if (a.resolver_id != b.resolver_id) return a.resolver_id < b.resolver_id;
    return a.tld < b.tld;
  };
  const auto same = [](const std::vector<QueryEvent>& a,
                       const std::vector<QueryEvent>& b) {
    return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                      [](const QueryEvent& x, const QueryEvent& y) {
                        return x.time_sec == y.time_sec &&
                               x.resolver_id == y.resolver_id && x.tld == y.tld;
                      });
  };
  constexpr std::uint32_t kLast = 0xFFFFFFFFu;
  util::Rng rng(515);
  std::vector<QueryEvent> events, scratch;
  SortEvents(events, scratch);
  EXPECT_TRUE(events.empty());
  // Windows: one replay chunk, a day, a sparse day, and the last seconds of
  // the 32-bit range.
  struct Window {
    std::uint32_t first;
    std::uint32_t seconds;
    std::size_t count;
  };
  for (const Window w : {Window{0, 900, 1}, Window{900, 900, 7000},
                         Window{0, 86400, 50000}, Window{0, 86400, 200},
                         Window{kLast - 99, 100, 3000}}) {
    for (int round = 0; round < 5; ++round) {
      events.clear();
      // Few resolvers and TLDs, so (time, resolver, tld) repeats.
      for (std::size_t i = 0; i < w.count; ++i) {
        events.push_back({w.first + static_cast<std::uint32_t>(
                                        rng.Below(w.seconds)),
                          static_cast<std::uint32_t>(rng.Below(50)),
                          static_cast<TldId>(rng.Below(40))});
      }
      // Events at the window's first and last second, duplicated.
      const std::uint32_t last = w.first + (w.seconds - 1);
      for (const std::uint32_t t : {last, w.first, last, w.first}) {
        events.push_back({t, 7, 3});
      }
      std::vector<QueryEvent> expected = events;
      std::sort(expected.begin(), expected.end(), before);
      SortEvents(events, scratch);
      EXPECT_TRUE(same(events, expected))
          << "window " << w.first << "+" << w.seconds << " round " << round;
    }
  }
}

// A span wider than any collection window is a caller's error, refused
// before the counting array is sized.
TEST(SortEvents, RefusesSpansWiderThanAYear) {
  std::vector<QueryEvent> events = {{0, 1, 1}, {366 * 86400, 1, 1}}, scratch;
  EXPECT_THROW(SortEvents(events, scratch), std::logic_error);
}

}  // namespace
}  // namespace rootless::traffic
