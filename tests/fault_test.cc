// Tests for the fault-injection subsystem (sim/faults.h), the shared retry
// policy (sim/retry.h), the refresh daemon's fallback ladder + serve-stale
// degradation, and the coded-error contract on the distrib entry points.
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "distrib/axfr.h"
#include "distrib/diff_channel.h"
#include "distrib/fetch_service.h"
#include "resolver/recursive.h"
#include "resolver/refresh_daemon.h"
#include "rootsrv/fleet.h"
#include "rootsrv/tld_farm.h"
#include "sim/faults.h"
#include "sim/network.h"
#include "sim/retry.h"
#include "sim/simulator.h"
#include "topo/deployment.h"
#include "topo/topology.h"
#include "util/result.h"
#include "util/rng.h"
#include "zone/evolution.h"
#include "zone/zone_snapshot.h"

namespace rootless {
namespace {

using sim::FaultInjector;
using sim::FaultPlan;
using sim::JitteredBackoff;
using sim::RetryPolicy;
using sim::RetrySchedule;
using sim::SimTime;

// ------------------------------------------------------------ retry policy

TEST(RetryPolicy, FirstAttemptNeverWaits) {
  RetryPolicy p;
  EXPECT_EQ(p.BackoffBeforeAttempt(1), 0);
}

TEST(RetryPolicy, ExponentialProgression) {
  RetryPolicy p{.max_attempts = 10,
                .initial_backoff = 100 * sim::kMillisecond,
                .backoff_multiplier = 2.0,
                .max_backoff = 60 * sim::kSecond};
  EXPECT_EQ(p.BackoffBeforeAttempt(2), 100 * sim::kMillisecond);
  EXPECT_EQ(p.BackoffBeforeAttempt(3), 200 * sim::kMillisecond);
  EXPECT_EQ(p.BackoffBeforeAttempt(4), 400 * sim::kMillisecond);
  EXPECT_EQ(p.BackoffBeforeAttempt(5), 800 * sim::kMillisecond);
}

TEST(RetryPolicy, BackoffSaturatesAtMax) {
  RetryPolicy p{.max_attempts = 64,
                .initial_backoff = 1 * sim::kSecond,
                .backoff_multiplier = 4.0,
                .max_backoff = 10 * sim::kSecond};
  EXPECT_EQ(p.BackoffBeforeAttempt(3), 4 * sim::kSecond);
  EXPECT_EQ(p.BackoffBeforeAttempt(4), 10 * sim::kSecond);
  // Far past saturation the doubling loop must not overflow.
  EXPECT_EQ(p.BackoffBeforeAttempt(60), 10 * sim::kSecond);
}

TEST(RetryPolicy, NonePolicyMakesOneAttempt) {
  constexpr RetryPolicy p = RetryPolicy::None();
  EXPECT_EQ(p.max_attempts, 1);
  RetrySchedule schedule(p);
  EXPECT_TRUE(schedule.CanAttempt());
  util::Rng rng(1);
  EXPECT_EQ(schedule.NextDelay(rng), 0);
  EXPECT_FALSE(schedule.CanAttempt());
}

TEST(RetryPolicy, JitteredBackoffStaysInBand) {
  RetryPolicy p{.max_attempts = 8,
                .initial_backoff = 1 * sim::kSecond,
                .backoff_multiplier = 2.0,
                .max_backoff = 60 * sim::kSecond,
                .jitter = 0.5};
  util::Rng rng(7);
  const SimTime base = p.BackoffBeforeAttempt(3);  // 2 s
  const SimTime span = base / 2;
  std::set<SimTime> seen;
  for (int i = 0; i < 200; ++i) {
    const SimTime d = JitteredBackoff(p, 3, rng);
    EXPECT_GE(d, base - span);
    EXPECT_LE(d, base + span);
    seen.insert(d);
  }
  // The draws must actually spread, not collapse to the base.
  EXPECT_GT(seen.size(), 50u);
}

TEST(RetryPolicy, ZeroJitterIsDeterministic) {
  RetryPolicy p{.max_attempts = 4, .initial_backoff = 300 * sim::kMillisecond};
  util::Rng rng(9);
  EXPECT_EQ(JitteredBackoff(p, 2, rng), 300 * sim::kMillisecond);
  // No randomness may be consumed when jitter is off.
  util::Rng untouched(9);
  EXPECT_EQ(rng.Below(1000), untouched.Below(1000));
}

TEST(RetrySchedule, BudgetExhaustion) {
  RetryPolicy p{.max_attempts = 3, .initial_backoff = 0};
  RetrySchedule schedule(p);
  util::Rng rng(3);
  int attempts = 0;
  while (schedule.CanAttempt()) {
    schedule.NextDelay(rng);
    ++attempts;
  }
  EXPECT_EQ(attempts, 3);
  EXPECT_EQ(schedule.attempts_started(), 3);
  // Drawing past the budget is a contract violation.
  EXPECT_THROW(schedule.NextDelay(rng), std::logic_error);
}

TEST(RetrySchedule, SameSeedSameSchedule) {
  RetryPolicy p{.max_attempts = 6,
                .initial_backoff = 250 * sim::kMillisecond,
                .backoff_multiplier = 2.0,
                .max_backoff = 8 * sim::kSecond,
                .jitter = 0.4};
  std::vector<SimTime> a, b;
  for (auto* out : {&a, &b}) {
    RetrySchedule schedule(p);
    util::Rng rng(0xBEEF);
    while (schedule.CanAttempt()) out->push_back(schedule.NextDelay(rng));
  }
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.size(), 6u);
  EXPECT_EQ(a[0], 0);
}

// ---------------------------------------------------------- fault injector

TEST(FaultInjector, CertainLossDropsEverything) {
  FaultPlan plan;
  plan.LossEverywhere(1.0);
  FaultInjector inj(std::move(plan));
  util::Bytes payload{1, 2, 3};
  for (int i = 0; i < 20; ++i) {
    EXPECT_TRUE(inj.OnSend(1, 2, i, payload).drop);
  }
  EXPECT_EQ(inj.stats().drops_loss, 20u);
}

TEST(FaultInjector, LinkRulesMatchEndpoints) {
  FaultPlan plan;
  plan.Loss(1, 2, 1.0);  // only the 1 -> 2 direction
  FaultInjector inj(std::move(plan));
  util::Bytes payload{1};
  EXPECT_TRUE(inj.OnSend(1, 2, 0, payload).drop);
  EXPECT_FALSE(inj.OnSend(2, 1, 0, payload).drop);
  EXPECT_FALSE(inj.OnSend(3, 2, 0, payload).drop);
}

TEST(FaultInjector, OutageWindowCutsBothDirections) {
  FaultPlan plan;
  plan.Outage(5, 100, 200);
  FaultInjector inj(std::move(plan));
  util::Bytes payload{1};
  EXPECT_FALSE(inj.NodeDown(5, 99));
  EXPECT_TRUE(inj.NodeDown(5, 100));
  EXPECT_TRUE(inj.NodeDown(5, 199));
  EXPECT_FALSE(inj.NodeDown(5, 200));
  EXPECT_TRUE(inj.OnSend(1, 5, 150, payload).drop);   // toward the node
  EXPECT_TRUE(inj.OnSend(5, 1, 150, payload).drop);   // from the node
  EXPECT_FALSE(inj.OnSend(1, 5, 250, payload).drop);  // after recovery
  EXPECT_FALSE(inj.OnSend(1, 2, 150, payload).drop);  // unrelated link
  EXPECT_EQ(inj.stats().drops_outage, 2u);
}

TEST(FaultInjector, CrashWithoutRestartIsPermanent) {
  FaultPlan plan;
  plan.CrashRestart(7, 50, -1);
  FaultInjector inj(std::move(plan));
  util::Bytes payload{1};
  EXPECT_FALSE(inj.OnSend(1, 7, 49, payload).drop);
  EXPECT_TRUE(inj.OnSend(1, 7, 50, payload).drop);
  EXPECT_TRUE(inj.OnSend(7, 1, 1'000'000'000, payload).drop);
  EXPECT_TRUE(inj.NodeDown(7, 1'000'000'000));
  EXPECT_EQ(inj.stats().drops_crash, 2u);
}

TEST(FaultInjector, CrashRestartComesBack) {
  FaultPlan plan;
  plan.CrashRestart(7, 50, 80);
  FaultInjector inj(std::move(plan));
  EXPECT_TRUE(inj.NodeDown(7, 60));
  EXPECT_FALSE(inj.NodeDown(7, 80));
}

TEST(FaultInjector, PartitionSplitsGroupsOnly) {
  FaultPlan plan;
  plan.Partition2({1, 2}, {3, 4}, 10, 20);
  FaultInjector inj(std::move(plan));
  util::Bytes payload{1};
  EXPECT_TRUE(inj.Partitioned(1, 3, 15));
  EXPECT_TRUE(inj.Partitioned(4, 2, 15));
  EXPECT_FALSE(inj.Partitioned(1, 2, 15));   // same side
  EXPECT_FALSE(inj.Partitioned(1, 3, 25));   // healed
  EXPECT_FALSE(inj.Partitioned(1, 9, 15));   // outsider unaffected
  EXPECT_TRUE(inj.OnSend(1, 3, 15, payload).drop);
  EXPECT_FALSE(inj.OnSend(1, 2, 15, payload).drop);
  EXPECT_FALSE(inj.OnSend(1, 9, 15, payload).drop);
  EXPECT_EQ(inj.stats().drops_partition, 1u);
}

TEST(FaultInjector, CorruptionMutatesPayload) {
  FaultPlan plan;
  plan.Corrupt(FaultPlan::kAnyNode, FaultPlan::kAnyNode, 1.0);
  FaultInjector inj(std::move(plan));
  const util::Bytes original(64, 0xAB);
  util::Bytes payload = original;
  const auto verdict = inj.OnSend(1, 2, 0, payload);
  EXPECT_FALSE(verdict.drop);  // corruption delivers damaged bytes
  EXPECT_NE(payload, original);
  EXPECT_EQ(payload.size(), original.size());
  EXPECT_EQ(inj.stats().corruptions, 1u);
}

TEST(FaultInjector, JitterAddsBoundedLatency) {
  FaultPlan plan;
  plan.JitterEverywhere(5 * sim::kMillisecond);
  FaultInjector inj(std::move(plan));
  util::Bytes payload{1};
  bool any_extra = false;
  for (int i = 0; i < 100; ++i) {
    const auto verdict = inj.OnSend(1, 2, i, payload);
    EXPECT_FALSE(verdict.drop);
    EXPECT_GE(verdict.extra_latency, 0);
    EXPECT_LE(verdict.extra_latency, 5 * sim::kMillisecond);
    any_extra = any_extra || verdict.extra_latency > 0;
  }
  EXPECT_TRUE(any_extra);
  EXPECT_EQ(inj.stats().jitter_events, 100u);
}

TEST(FaultInjector, SameSeedSameVerdicts) {
  auto run = [](std::vector<int>& drops, std::vector<SimTime>& delays) {
    FaultPlan plan;
    plan.seed = 1234;
    plan.LossEverywhere(0.3).JitterEverywhere(2 * sim::kMillisecond);
    FaultInjector inj(std::move(plan));
    util::Bytes payload{1, 2, 3, 4};
    for (int i = 0; i < 300; ++i) {
      const auto verdict = inj.OnSend(i % 5, (i + 1) % 5, i, payload);
      drops.push_back(verdict.drop ? 1 : 0);
      delays.push_back(verdict.extra_latency);
    }
  };
  std::vector<int> drops_a, drops_b;
  std::vector<SimTime> delays_a, delays_b;
  run(drops_a, delays_a);
  run(drops_b, delays_b);
  EXPECT_EQ(drops_a, drops_b);
  EXPECT_EQ(delays_a, delays_b);
}

// --------------------------------------- end-to-end resolver determinism

struct LossyRunOutcome {
  int ok = 0;
  resolver::ResolverStats resolver;
  sim::FaultStats faults;
};

LossyRunOutcome RunLossyResolverScenario() {
  sim::Simulator sim;
  sim::Network net(sim, 99);
  topo::Topology registry;
  net.set_latency_fn(registry.LatencyFn());

  sim::FaultPlan plan;
  plan.seed = 99;
  plan.LossEverywhere(0.2).JitterEverywhere(3 * sim::kMillisecond);
  sim::FaultInjector faults(std::move(plan));
  net.set_fault_injector(&faults);

  const zone::RootZoneModel zone_model;
  auto root_zone =
      std::make_shared<zone::Zone>(zone_model.Snapshot({2018, 4, 11}));
  const zone::SnapshotPtr snapshot = zone::ZoneSnapshot::Build(*root_zone);
  rootsrv::RootServerFleet fleet(net, registry, snapshot);
  rootsrv::TldFarm farm(net, registry, *snapshot, 3);

  resolver::ResolverConfig config;
  config.mode = resolver::RootMode::kRootServers;
  config.seed = 99;
  config.retry = sim::RetryPolicy{.max_attempts = 4,
                                  .attempt_timeout = 2 * sim::kSecond,
                                  .initial_backoff = 100 * sim::kMillisecond,
                                  .backoff_multiplier = 2.0,
                                  .max_backoff = 5 * sim::kSecond,
                                  .jitter = 0.3};
  const topo::GeoPoint where{40.71, -74.0};
  resolver::RecursiveResolver r(sim, net, {config, where, nullptr, &registry});
  r.SetRootFleet(&fleet);
  r.SetTldFarm(&farm);

  std::vector<std::string> tlds;
  for (const auto& child : root_zone->DelegatedChildren())
    tlds.push_back(child.tld());

  LossyRunOutcome out;
  for (int i = 0; i < 60; ++i) {
    const std::string host =
        "h" + std::to_string(i) + ".example." + tlds[i % tlds.size()] + ".";
    auto name = dns::Name::Parse(host);
    r.Resolve(*name, dns::RRType::kA,
              [&](const resolver::ResolutionResult& rr) {
                if (!rr.failed) ++out.ok;
              });
    sim.Run();
  }
  out.resolver = r.stats();
  out.faults = faults.stats();
  return out;
}

TEST(FaultDeterminism, SameSeedSameScheduleAndStats) {
  const LossyRunOutcome a = RunLossyResolverScenario();
  const LossyRunOutcome b = RunLossyResolverScenario();
  EXPECT_EQ(a.ok, b.ok);
  EXPECT_EQ(a.resolver.resolutions, b.resolver.resolutions);
  EXPECT_EQ(a.resolver.root_transactions, b.resolver.root_transactions);
  EXPECT_EQ(a.resolver.tld_transactions, b.resolver.tld_transactions);
  EXPECT_EQ(a.resolver.timeouts, b.resolver.timeouts);
  EXPECT_EQ(a.resolver.failures, b.resolver.failures);
  EXPECT_EQ(a.resolver.retries, b.resolver.retries);
  EXPECT_EQ(a.faults.drops_loss, b.faults.drops_loss);
  EXPECT_EQ(a.faults.jitter_events, b.faults.jitter_events);
  // The injected loss must actually have bitten, and the retry policy must
  // have fired — otherwise this test exercises nothing.
  EXPECT_GT(a.faults.drops_loss, 0u);
  EXPECT_GT(a.resolver.retries, 0u);
  EXPECT_GT(a.ok, 0);
}

// ----------------------------------------- coded errors on distrib APIs

TEST(CodedErrors, FetchServiceOutageReportsUnreachable) {
  sim::Simulator sim;
  const zone::RootZoneModel model;
  const zone::SnapshotPtr snapshot =
      zone::ZoneSnapshot::Build(model.Snapshot({2018, 4, 11}));
  distrib::ZoneFetchService service(
      sim, {.config = {}, .provider = [&]() { return snapshot; }});
  service.AddOutage(0, sim::kHour);
  bool called = false;
  service.Fetch([&](util::Result<zone::SnapshotPtr> result) {
    called = true;
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.error().code(), ErrorCode::kUnreachable);
  });
  sim.Run();
  EXPECT_TRUE(called);
}

TEST(CodedErrors, FetchServiceRetriesThroughShortOutage) {
  sim::Simulator sim;
  const zone::RootZoneModel model;
  const zone::SnapshotPtr snapshot =
      zone::ZoneSnapshot::Build(model.Snapshot({2018, 4, 11}));
  distrib::ZoneFetchService service(
      sim,
      {.config = {.retry = sim::RetryPolicy{.max_attempts = 5,
                                            .initial_backoff = sim::kMinute}},
       .provider = [&]() { return snapshot; }});
  // Outage clears while the retry budget still has attempts left.
  service.AddOutage(0, 90 * sim::kSecond);
  bool ok = false;
  service.Fetch([&](util::Result<zone::SnapshotPtr> result) {
    ok = result.ok();
  });
  sim.Run();
  EXPECT_TRUE(ok);
  EXPECT_GT(service.stats().retries, 0u);
  EXPECT_GT(service.stats().failures, 0u);
}

TEST(CodedErrors, AxfrTimeoutAgainstDownedServer) {
  sim::Simulator sim;
  sim::Network net(sim, 5);
  const zone::RootZoneModel model;
  const zone::SnapshotPtr snapshot =
      zone::ZoneSnapshot::Build(model.Snapshot({2018, 4, 11}));
  distrib::AxfrServer server(net, [&]() { return snapshot; });
  sim::FaultPlan plan;
  plan.CrashRestart(server.node(), 0, -1);
  sim::FaultInjector faults(std::move(plan));
  net.set_fault_injector(&faults);
  distrib::AxfrClient client(
      sim, net,
      distrib::AxfrClient::Options{
          .retry = {.max_attempts = 2, .attempt_timeout = sim::kSecond,
                    .initial_backoff = 0}});
  bool called = false;
  client.Fetch(server.node(), 0,
               [&](util::Result<zone::SnapshotPtr> result) {
                 called = true;
                 ASSERT_FALSE(result.ok());
                 EXPECT_EQ(result.error().code(), ErrorCode::kTimeout);
               });
  sim.RunUntil(10 * sim::kMinute);
  EXPECT_TRUE(called);
}

TEST(CodedErrors, DiffChannelTruncationAndStaleChains) {
  const zone::RootZoneModel model;
  const zone::SnapshotPtr v1 =
      zone::ZoneSnapshot::Build(model.Snapshot({2018, 4, 11}));
  const zone::SnapshotPtr v2 =
      zone::ZoneSnapshot::Build(model.Snapshot({2018, 4, 13}));
  distrib::DiffPublisher publisher(v1);
  publisher.Publish(v2);

  {
    // Truncated diff payload.
    distrib::DiffSubscriber sub(v1);
    auto update = publisher.UpdatesSince(sub.serial());
    ASSERT_EQ(update.kind, distrib::DiffPublisher::Update::Kind::kDiffs);
    update.payload.resize(update.payload.size() / 2);
    const util::Status status = sub.Apply(update);
    ASSERT_FALSE(status.ok());
    EXPECT_EQ(status.error().code(), ErrorCode::kTruncated);
  }
  {
    // Replaying a chain the subscriber has already applied: the embedded
    // from-serial no longer matches ours.
    distrib::DiffSubscriber sub(v1);
    const auto update = publisher.UpdatesSince(sub.serial());
    ASSERT_EQ(update.kind, distrib::DiffPublisher::Update::Kind::kDiffs);
    ASSERT_TRUE(sub.Apply(update).ok());
    const util::Status status = sub.Apply(update);
    ASSERT_FALSE(status.ok());
    EXPECT_EQ(status.error().code(), ErrorCode::kStale);
  }
}

// -------------------------------------- serve-stale + fallback ladder

TEST(ServeStale, LadderFallsThroughAndServesStale) {
  sim::Simulator sim;
  const zone::RootZoneModel model;
  const zone::SnapshotPtr snapshot =
      zone::ZoneSnapshot::Build(model.Snapshot({2018, 4, 11}));

  // Rung 1 always fails; rung 2 fails during a long outage, then recovers.
  const sim::SimTime outage_end = 4 * sim::kDay;
  using FetchResult = resolver::RefreshDaemon::FetchResult;
  int diff_calls = 0;
  int full_calls = 0;
  resolver::RefreshConfig config;
  config.retry = sim::RetryPolicy{.max_attempts = 2,
                                  .initial_backoff = 10 * sim::kMinute};
  config.max_staleness = 36 * sim::kHour;
  resolver::RefreshDaemon daemon(
      sim,
      {config,
       {[&](std::function<void(FetchResult)> done) {  // the diff channel
          ++diff_calls;
          done(util::Error(ErrorCode::kUnreachable, "diff down"));
        },
        [&](std::function<void(FetchResult)> done) {  // a full fetch
          ++full_calls;
          if (sim.now() < outage_end) {
            done(util::Error(ErrorCode::kUnreachable, "mirror down"));
          } else {
            done(snapshot);
          }
        }},
       [](zone::SnapshotPtr) {}});

  daemon.Start(snapshot);
  EXPECT_EQ(daemon.state(), resolver::ZoneState::kFresh);

  // Validity is 48 h; the first round starts at 42 h and every rung fails.
  sim.RunUntil(47 * sim::kHour);
  EXPECT_EQ(daemon.state(), resolver::ZoneState::kFresh);
  EXPECT_TRUE(daemon.zone_valid());

  // Past expiry but inside the 36 h serve-stale window.
  sim.RunUntil(50 * sim::kHour);
  EXPECT_EQ(daemon.state(), resolver::ZoneState::kStale);
  EXPECT_FALSE(daemon.zone_valid());
  EXPECT_TRUE(daemon.zone_usable());

  // Past the staleness window: the copy is unusable.
  sim.RunUntil(90 * sim::kHour);
  EXPECT_EQ(daemon.state(), resolver::ZoneState::kExpired);
  EXPECT_FALSE(daemon.zone_usable());
  EXPECT_GE(daemon.stats().hard_expirations, 1u);

  // After the mirror recovers the daemon refreshes and the copy is fresh
  // again.
  sim.RunUntil(6 * sim::kDay);
  EXPECT_EQ(daemon.state(), resolver::ZoneState::kFresh);
  const auto stats = daemon.stats();
  EXPECT_GE(stats.refreshes, 1u);
  // Each failing round: two attempts on "diff" (one retry), ladder step to
  // "full", two attempts there.
  EXPECT_GT(stats.retries, 0u);
  EXPECT_GT(stats.fallbacks, 0u);
  EXPECT_GE(stats.expirations, 1u);
  EXPECT_GT(stats.stale_time, 0);
  EXPECT_GT(diff_calls, 0);
  EXPECT_GT(full_calls, 0);
  EXPECT_EQ(stats.hard_expirations, 1u);  // counted once per lapse
}

}  // namespace
}  // namespace rootless
