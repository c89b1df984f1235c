// Tests for the workload generator and the §2.2 classifier, including the
// calibration targets from the paper.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <stdexcept>
#include <vector>

#include "traffic/classify.h"
#include "traffic/trace.h"
#include "traffic/workload.h"
#include "util/rng.h"
#include "zone/evolution.h"

namespace rootless::traffic {
namespace {

std::vector<std::string> RealTlds() {
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

std::function<bool(const std::string&)> RealTldPredicate() {
  static const std::set<std::string>* tld_set = [] {
    auto* s = new std::set<std::string>();
    for (const auto& t : RealTlds()) s->insert(t);
    return s;
  }();
  return [](const std::string& label) { return tld_set->count(label) > 0; };
}

// A small-scale config for fast tests.
WorkloadConfig SmallConfig() {
  WorkloadConfig config;
  config.scale = 0.0001;  // 570K queries, 410 resolvers
  return config;
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
  const auto a = GenerateDitlTrace(SmallConfig(), RealTlds());
  const auto b = GenerateDitlTrace(SmallConfig(), RealTlds());
  ASSERT_EQ(a.events.size(), b.events.size());
  for (std::size_t i = 0; i < a.events.size(); i += 997) {
    EXPECT_EQ(a.events[i].time_sec, b.events[i].time_sec);
    EXPECT_EQ(a.events[i].resolver_id, b.events[i].resolver_id);
  }
}

TEST(Workload, EventsSortedWithinWindow) {
  const auto trace = GenerateDitlTrace(SmallConfig(), RealTlds());
  for (std::size_t i = 1; i < trace.events.size(); ++i) {
    EXPECT_LE(trace.events[i - 1].time_sec, trace.events[i].time_sec);
    EXPECT_LT(trace.events[i].time_sec, 86400u);
  }
}

TEST(Workload, SummaryAccounting) {
  WorkloadSummary summary;
  const auto trace = GenerateDitlTrace(SmallConfig(), RealTlds(), &summary);
  EXPECT_EQ(summary.total_queries, trace.events.size());
  EXPECT_EQ(summary.total_queries, summary.bogus_queries +
                                       summary.valid_stream_queries +
                                       summary.new_tld_queries);
  EXPECT_GT(summary.bogus_only_resolvers, 0u);
}

TEST(Workload, BogusTldsAvoidRealLabels) {
  util::Rng rng(5);
  const auto is_real = RealTldPredicate();
  int real_hits = 0;
  for (int i = 0; i < 2000; ++i) {
    if (is_real(SampleBogusTld(rng))) ++real_hits;
  }
  // "test" and random collisions are possible but must be rare.
  EXPECT_LT(real_hits, 100);
}

// The headline §2.2 calibration: the generated day must classify close to
// the paper's published mix.
TEST(Workload, MatchesPaperTrafficMix) {
  WorkloadConfig config;
  config.scale = 0.0005;  // 2.85M queries — enough for tight fractions
  WorkloadSummary summary;
  const auto trace = GenerateDitlTrace(config, RealTlds(), &summary);
  const auto report = ClassifyTrace(trace, RealTldPredicate());

  EXPECT_EQ(report.total_queries, trace.events.size());

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
  WorkloadConfig config;
  config.scale = 0.001;
  const auto trace = GenerateDitlTrace(config, RealTlds());
  const TldShare share = MeasureTldShare(trace, "llc");
  // Paper §5.3: <0.0002% of queries... our scaled trace has quantization,
  // so allow an order of magnitude while requiring "tiny".
  EXPECT_GT(share.queries, 0u);
  EXPECT_LT(share.query_fraction, 2e-5);
  EXPECT_LT(share.resolver_fraction, 0.002);  // paper: <0.1%
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

TEST(MeasureTldShare, CountsQueriesAndResolvers) {
  Trace trace;
  const TldId com = trace.tlds.Intern("com");
  const TldId llc = trace.tlds.Intern("llc");
  trace.events.push_back({1, 1, com});
  trace.events.push_back({2, 2, llc});
  trace.events.push_back({3, 2, llc});
  trace.events.push_back({4, 3, com});

  const TldShare share = MeasureTldShare(trace, "llc");
  EXPECT_EQ(share.queries, 2u);
  EXPECT_EQ(share.resolvers, 1u);
  EXPECT_DOUBLE_EQ(share.query_fraction, 0.5);
  EXPECT_DOUBLE_EQ(share.resolver_fraction, 1.0 / 3.0);
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
