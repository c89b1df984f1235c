// Tests for the §5.3 "recent additions / diffs" channel.
#include <gtest/gtest.h>

#include "distrib/diff_channel.h"
#include "zone/evolution.h"
#include "zone/snapshot.h"
#include "zone/zone_snapshot.h"

namespace rootless::distrib {
namespace {

zone::EvolutionConfig SmallModel() {
  zone::EvolutionConfig config;
  config.seed = 3;
  config.legacy_tld_count = 30;
  config.peak_tld_count = 60;
  config.rotating_tld_count = 1;
  return config;
}

zone::SnapshotPtr Day(const zone::RootZoneModel& model,
                      const util::CivilDate& date) {
  return zone::ZoneSnapshot::Build(model.Snapshot(date));
}

TEST(DiffChannel, UpToDateSubscriberGetsNothing) {
  const zone::RootZoneModel model(SmallModel());
  DiffPublisher publisher(Day(model, {2019, 4, 1}));
  const auto update = publisher.UpdatesSince(publisher.latest_serial());
  EXPECT_EQ(update.kind, DiffPublisher::Update::Kind::kUpToDate);
  EXPECT_TRUE(update.payload.empty());
}

TEST(DiffChannel, SubscriberFollowsDailyPublishes) {
  const zone::RootZoneModel model(SmallModel());
  DiffPublisher publisher(Day(model, {2019, 4, 1}));
  DiffSubscriber subscriber(Day(model, {2019, 4, 1}));

  for (int day = 1; day <= 20; ++day) {
    publisher.Publish(Day(model, util::AddDays({2019, 4, 1}, day)));
  }
  const auto update = publisher.UpdatesSince(subscriber.serial());
  ASSERT_EQ(update.kind, DiffPublisher::Update::Kind::kDiffs);
  ASSERT_TRUE(subscriber.Apply(update).ok());
  EXPECT_EQ(subscriber.serial(), publisher.latest_serial());
  EXPECT_TRUE(subscriber.snapshot()->SameContent(*publisher.latest()));
  EXPECT_EQ(subscriber.updates_applied(), 20u);
  EXPECT_EQ(subscriber.full_bytes_received(), 0u);
  EXPECT_GT(subscriber.diff_bytes_received(), 0u);
}

TEST(DiffChannel, DiffsAreFarSmallerThanFullZone) {
  const zone::RootZoneModel model(SmallModel());
  DiffPublisher publisher(Day(model, {2019, 4, 1}));
  DiffSubscriber subscriber(Day(model, {2019, 4, 1}));
  for (int day = 1; day <= 7; ++day) {
    publisher.Publish(Day(model, util::AddDays({2019, 4, 1}, day)));
  }
  const auto update = publisher.UpdatesSince(subscriber.serial());
  ASSERT_TRUE(subscriber.Apply(update).ok());
  const std::size_t full = zone::SerializeSnapshot(*publisher.latest()).size();
  EXPECT_LT(subscriber.diff_bytes_received(), full / 4);
}

TEST(DiffChannel, HistoryMissFallsBackToFullZone) {
  const zone::RootZoneModel model(SmallModel());
  DiffPublisher publisher(Day(model, {2019, 4, 1}), /*max_history=*/3);
  DiffSubscriber subscriber(Day(model, {2019, 4, 1}));
  for (int day = 1; day <= 10; ++day) {
    publisher.Publish(Day(model, util::AddDays({2019, 4, 1}, day)));
  }
  const auto update = publisher.UpdatesSince(subscriber.serial());
  ASSERT_EQ(update.kind, DiffPublisher::Update::Kind::kFullZone);
  ASSERT_TRUE(subscriber.Apply(update).ok());
  EXPECT_TRUE(subscriber.snapshot()->SameContent(*publisher.latest()));
  EXPECT_GT(subscriber.full_bytes_received(), 0u);
}

TEST(DiffChannel, RejectsChainFromWrongSerial) {
  const zone::RootZoneModel model(SmallModel());
  DiffPublisher publisher(Day(model, {2019, 4, 1}));
  publisher.Publish(Day(model, {2019, 4, 2}));
  const auto update =
      publisher.UpdatesSince(zone::RootZoneModel::SerialFor({2019, 4, 1}));
  ASSERT_EQ(update.kind, DiffPublisher::Update::Kind::kDiffs);

  // A subscriber at a *different* serial must refuse the chain.
  DiffSubscriber wrong(Day(model, {2019, 3, 15}));
  EXPECT_FALSE(wrong.Apply(update).ok());
}

TEST(DiffChannel, RejectsCorruptPayload) {
  const zone::RootZoneModel model(SmallModel());
  DiffPublisher publisher(Day(model, {2019, 4, 1}));
  publisher.Publish(Day(model, {2019, 4, 2}));
  auto update =
      publisher.UpdatesSince(zone::RootZoneModel::SerialFor({2019, 4, 1}));
  update.payload.resize(update.payload.size() / 2);
  DiffSubscriber subscriber(Day(model, {2019, 4, 1}));
  EXPECT_FALSE(subscriber.Apply(update).ok());
}

TEST(DiffChannel, NewTldArrivesThroughChannel) {
  const zone::RootZoneModel model(SmallModel());
  DiffPublisher publisher(Day(model, {2018, 2, 20}));
  DiffSubscriber subscriber(Day(model, {2018, 2, 20}));
  for (int day = 1; day <= 5; ++day) {
    publisher.Publish(Day(model, util::AddDays({2018, 2, 20}, day)));
  }
  ASSERT_TRUE(subscriber.Apply(publisher.UpdatesSince(subscriber.serial())).ok());
  // ".llc" was added 2018-02-23 and must now be visible locally.
  EXPECT_TRUE(subscriber.snapshot()
                  ->Find(*dns::Name::Parse("llc."), dns::RRType::kNS)
                  .has_value());
}

}  // namespace
}  // namespace rootless::distrib
