// Tests for the root-zone evolution model: calibration against the paper's
// published numbers (Fig 1, §5.2, §5.3) and internal consistency.
#include <gtest/gtest.h>

#include "zone/evolution.h"
#include "zone/master_file.h"
#include "zone/zone_diff.h"
#include "zone/zone_snapshot.h"

namespace rootless::zone {
namespace {

using util::CivilDate;

// The model is deterministic; share one instance across tests (construction
// builds the full roster and churn history).
const RootZoneModel& Model() {
  static const RootZoneModel* model = new RootZoneModel();
  return *model;
}

TEST(Evolution, TldCountMatchesPaperShape) {
  const auto& m = Model();
  // Stable legacy period (paper: 317 TLDs on 2013-06-15).
  EXPECT_EQ(m.TldCountOn({2013, 6, 15}), 317);
  // Peak after the ramp (paper: 1,534 on 2017-06-15).
  const int peak = m.TldCountOn({2017, 6, 15});
  EXPECT_GE(peak, 1500);
  EXPECT_LE(peak, 1545);
  // Roughly stable into 2019 (paper: 1,532 on 2019-04-01).
  const int in2019 = m.TldCountOn({2019, 4, 1});
  EXPECT_GE(in2019, 1500);
  EXPECT_LE(in2019, 1560);
}

TEST(Evolution, RampIsMonotonic) {
  const auto& m = Model();
  int prev = 0;
  for (int year = 2014; year <= 2017; ++year) {
    const int count = m.TldCountOn({year, 1, 15});
    EXPECT_GE(count, prev);
    prev = count;
  }
}

TEST(Evolution, RecordCountGrowsFiveFold) {
  const auto& m = Model();
  const std::size_t before = m.Snapshot({2013, 12, 15}).record_count();
  const std::size_t after = m.Snapshot({2017, 6, 15}).record_count();
  // Paper Fig 1: increase over five-fold between early 2014 and early 2017.
  EXPECT_GT(after, before * 4);
  EXPECT_LT(after, before * 7);
  // Plateau near 22K records (paper: "roughly 22K entries").
  EXPECT_GT(after, 18000u);
  EXPECT_LT(after, 26000u);
}

TEST(Evolution, SnapshotIsDeterministic) {
  const auto& m = Model();
  const Zone a = m.Snapshot({2018, 4, 11});
  const Zone b = m.Snapshot({2018, 4, 11});
  EXPECT_EQ(a.AllRRsets(), b.AllRRsets());
}

TEST(Evolution, SerialEncodesDate) {
  EXPECT_EQ(RootZoneModel::SerialFor({2019, 4, 1}), 2019040100u);
  const auto& m = Model();
  EXPECT_EQ(m.Snapshot({2019, 4, 1}).Serial(), 2019040100u);
}

TEST(Evolution, LlcAddedOnPaperDate) {
  const auto& m = Model();
  const TldRecord* llc = m.FindTld("llc");
  ASSERT_NE(llc, nullptr);
  EXPECT_EQ(llc->add_day, util::DaysFromCivil({2018, 2, 23}));
  // .llc is the last TLD added before the DITL-2018 collection (§5.3).
  const TldRecord* last = m.LastAddedBefore({2018, 4, 11});
  ASSERT_NE(last, nullptr);
  EXPECT_EQ(last->label, "llc");
}

TEST(Evolution, SnapshotContainsLlcAfterAddDate) {
  const auto& m = Model();
  const Zone before = m.Snapshot({2018, 2, 22});
  const Zone after = m.Snapshot({2018, 2, 24});
  EXPECT_EQ(before.Find(*dns::Name::Parse("llc."), dns::RRType::kNS), nullptr);
  EXPECT_NE(after.Find(*dns::Name::Parse("llc."), dns::RRType::kNS), nullptr);
}

TEST(Evolution, RotatingTldCount) {
  const auto& m = Model();
  int rotating = 0;
  for (const auto& tld : m.roster()) rotating += tld.rotating;
  EXPECT_EQ(rotating, 5);  // the paper's five NeuStar TLDs
}

TEST(Evolution, RotatingTldsUnreachableAfterAMonth) {
  const auto& m = Model();
  for (const auto& tld : m.roster()) {
    if (!tld.rotating) continue;
    EXPECT_FALSE(m.TldReachableAcross(tld, {2019, 4, 1}, {2019, 5, 1}))
        << tld.label;
  }
}

TEST(Evolution, RotatingTldsReachableWithin14Days) {
  const auto& m = Model();
  for (const auto& tld : m.roster()) {
    if (!tld.rotating) continue;
    // Paper: overlap guarantees reachability for zones <= 14 days stale.
    for (int offset = 0; offset < 28; offset += 7) {
      const CivilDate start = util::AddDays({2019, 4, 1}, offset);
      EXPECT_TRUE(m.TldReachableAcross(tld, start, util::AddDays(start, 14)))
          << tld.label << " from " << util::FormatDate(start);
    }
  }
}

TEST(Evolution, MonthStalenessMatchesPaper) {
  // Paper §5.2: 99.6% of TLDs reachable with a one-month-old zone file
  // (all but the five rotating ones).
  const auto& m = Model();
  const CivilDate old_date{2019, 4, 1};
  const CivilDate new_date{2019, 5, 1};
  int active = 0, reachable = 0;
  for (const auto* tld : m.ActiveTlds(old_date)) {
    if (!tld->ActiveOn(util::DaysFromCivil(new_date))) continue;
    ++active;
    reachable += m.TldReachableAcross(*tld, old_date, new_date);
  }
  const double fraction = static_cast<double>(reachable) / active;
  EXPECT_GT(fraction, 0.985);
  EXPECT_LT(fraction, 1.0);
}

TEST(Evolution, YearStalenessMatchesPaper) {
  // Paper §5.2: all but 50 TLDs (3.3%) retain reachability across a year.
  const auto& m = Model();
  const CivilDate old_date{2018, 4, 1};
  const CivilDate new_date{2019, 4, 1};
  int active = 0, reachable = 0;
  for (const auto* tld : m.ActiveTlds(old_date)) {
    if (!tld->ActiveOn(util::DaysFromCivil(new_date))) continue;
    ++active;
    reachable += m.TldReachableAcross(*tld, old_date, new_date);
  }
  const double fraction = static_cast<double>(reachable) / active;
  EXPECT_GT(fraction, 0.93);
  EXPECT_LT(fraction, 0.995);
}

TEST(Evolution, DailyDiffIsSmall) {
  const auto& m = Model();
  const ZoneDiff diff =
      DiffSnapshots(*ZoneSnapshot::Build(m.Snapshot({2019, 4, 1})),
                    *ZoneSnapshot::Build(m.Snapshot({2019, 4, 2})));
  // Serial change + a handful of churn events.
  EXPECT_GE(diff.change_count(), 1u);
  EXPECT_LT(diff.change_count(), 80u);
}

TEST(Evolution, SnapshotServesAsMasterFile) {
  const auto& m = Model();
  const Zone zone = m.Snapshot({2019, 6, 7});
  const std::string text = SerializeMasterFile(zone.AllRecords());
  // Paper: ~1.1 MB compressed, a couple MB raw.
  EXPECT_GT(text.size(), 500u * 1024);
  auto reparsed = ParseMasterFile(text);
  ASSERT_TRUE(reparsed.ok()) << reparsed.error().message();
  EXPECT_EQ(reparsed->size(), zone.record_count());
}

TEST(Evolution, ActiveTldsMatchesSnapshotDelegations) {
  const auto& m = Model();
  const CivilDate date{2018, 4, 11};
  const auto active = m.ActiveTlds(date);
  const Zone zone = m.Snapshot(date);
  EXPECT_EQ(active.size(), zone.DelegatedChildren().size());
}

TEST(Evolution, OrdinaryTldsStableAcrossAMonthMostly) {
  // Non-rotating TLDs overwhelmingly keep at least one stable NS across a
  // month; spot check a few known-legacy labels.
  const auto& m = Model();
  for (const char* label : {"com", "net", "org"}) {
    const TldRecord* tld = m.FindTld(label);
    ASSERT_NE(tld, nullptr) << label;
    EXPECT_TRUE(m.TldReachableAcross(*tld, {2019, 4, 1}, {2019, 5, 1}))
        << label;
  }
}

TEST(Evolution, RemovalDuringApril2019) {
  // Paper: the month started with 1,532 TLDs and one was deleted during it.
  const auto& m = Model();
  const int at_start = m.TldCountOn({2019, 4, 1});
  const int at_end = m.TldCountOn({2019, 4, 30});
  EXPECT_EQ(at_start - at_end, 1);
}

TEST(Evolution, CustomConfigRespected) {
  EvolutionConfig config;
  config.seed = 7;
  config.legacy_tld_count = 50;
  config.peak_tld_count = 100;
  config.rotating_tld_count = 2;
  const RootZoneModel m(config);
  EXPECT_EQ(m.TldCountOn({2013, 1, 1}), 50);
  int rotating = 0;
  for (const auto& tld : m.roster()) rotating += tld.rotating;
  EXPECT_EQ(rotating, 2);
}

}  // namespace
}  // namespace rootless::zone
