// Observability layer: metrics registry, histograms and the shared bench
// exporter — plus the stats transitions of the two distribution-side
// consumers (RefreshDaemon, ZoneFetchService) that ride on registry handles.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <string>
#include <vector>

#include "obs/counter_set.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "distrib/fetch_service.h"
#include "resolver/cache.h"
#include "resolver/refresh_daemon.h"
#include "rootsrv/pipeline.h"
#include "sim/simulator.h"
#include "util/result.h"
#include "zone/zone_snapshot.h"

namespace rootless {
namespace {

// ------------------------------------------------------------- registry

TEST(ObsRegistry, CounterHandleIsPreResolved) {
  obs::Registry reg;
  obs::Counter c = reg.counter("test.counter");
  c.Inc();
  c.Inc(41);
  EXPECT_EQ(c.value(), 42u);
  // Re-registering the same (name, labels) yields the same slot.
  obs::Counter again = reg.counter("test.counter");
  again.Inc(8);
  EXPECT_EQ(c.value(), 50u);
}

TEST(ObsRegistry, LabelsDistinguishSlots) {
  obs::Registry reg;
  obs::Counter a = reg.counter("test.c", obs::Labels{"0", "", ""});
  obs::Counter b = reg.counter("test.c", obs::Labels{"1", "", ""});
  a.Inc();
  EXPECT_EQ(a.value(), 1u);
  EXPECT_EQ(b.value(), 0u);
  EXPECT_EQ(reg.metric_count(), 2u);
}

TEST(ObsRegistry, DefaultHandlesAreSafeSinks) {
  obs::Counter c;
  obs::Gauge g;
  obs::Histogram h;
  c.Inc();
  g.Set(7);
  h.Record(3);  // must not crash; writes go to the sink
  SUCCEED();
}

TEST(ObsRegistry, KindMismatchReturnsSink) {
  obs::Registry reg;
  obs::Counter c = reg.counter("test.metric");
  c.Inc();
  // Asking for the same name as a gauge must not alias the counter slot.
  obs::Gauge g = reg.gauge("test.metric");
  g.Set(99);
  EXPECT_EQ(c.value(), 1u);
}

TEST(ObsRegistry, NextInstanceIsSequentialPerModule) {
  obs::Registry reg;
  EXPECT_EQ(reg.NextInstance("resolver"), "0");
  EXPECT_EQ(reg.NextInstance("resolver"), "1");
  EXPECT_EQ(reg.NextInstance("cache"), "0");
  EXPECT_EQ(reg.NextInstance("resolver"), "2");
}

TEST(ObsRegistry, ResetAllZeroesButKeepsHandles) {
  obs::Registry reg;
  obs::Counter c = reg.counter("test.c");
  obs::Gauge g = reg.gauge("test.g");
  obs::Histogram h = reg.histogram("test.h");
  c.Inc(5);
  g.Set(-3);
  h.Record(100);
  reg.ResetAll();
  EXPECT_EQ(c.value(), 0u);
  EXPECT_EQ(g.value(), 0);
  EXPECT_EQ(h.data().count, 0u);
  c.Inc();  // handle still live
  EXPECT_EQ(c.value(), 1u);
}

TEST(ObsRegistry, SnapshotIsSortedAndComplete) {
  obs::Registry reg;
  reg.counter("z.last").Inc(1);
  reg.counter("a.first", obs::Labels{"1", "", ""}).Inc(2);
  reg.counter("a.first", obs::Labels{"0", "", ""}).Inc(3);
  reg.gauge("m.middle").Set(4);
  const auto snap = reg.Snapshot();
  ASSERT_EQ(snap.size(), 4u);
  EXPECT_EQ(snap[0].name, "a.first");
  EXPECT_EQ(snap[0].labels.instance, "0");
  EXPECT_EQ(snap[0].counter, 3u);
  EXPECT_EQ(snap[1].labels.instance, "1");
  EXPECT_EQ(snap[2].name, "m.middle");
  EXPECT_EQ(snap[3].name, "z.last");
}

// ---------------------------------------------------------- counter sets

// rootsrv::AuthCounters' names, in ROOTLESS_AUTH_COUNTERS order.
const std::vector<std::string> kAuthNames = {
    "queries", "answers", "referrals", "nxdomain", "nodata", "refused",
    "malformed", "truncated", "edns_queries", "cache_hits", "bytes_in",
    "bytes_out"};

// A distinct value per field, in list order. Designated initializers must
// follow declaration order, so this compiles only while the snapshot's
// fields are in list order.
const rootsrv::AuthServerStats kDistinct{
    .queries = 1, .answers = 2, .referrals = 3, .nxdomain = 4, .nodata = 5,
    .refused = 6, .malformed = 7, .truncated = 8, .edns_queries = 9,
    .cache_hits = 10, .bytes_in = 11, .bytes_out = 12};

void BumpDistinct(rootsrv::AuthCounters& c) {
  c.queries.Inc(1);
  c.answers.Inc(2);
  c.referrals.Inc(3);
  c.nxdomain.Inc(4);
  c.nodata.Inc(5);
  c.refused.Inc(6);
  c.malformed.Inc(7);
  c.truncated.Inc(8);
  c.edns_queries.Inc(9);
  c.cache_hits.Inc(10);
  c.bytes_in.Inc(11);
  c.bytes_out.Inc(12);
}

// The registry value of every "rootsrv.auth.<name>", in list order.
std::vector<std::uint64_t> AuthValues(const obs::Registry& reg) {
  std::vector<std::uint64_t> values(kAuthNames.size(), 0);
  for (const obs::Sample& s : reg.Snapshot()) {
    for (std::size_t i = 0; i < kAuthNames.size(); ++i) {
      if (s.name == "rootsrv.auth." + kAuthNames[i]) values[i] += s.counter;
    }
  }
  return values;
}

TEST(ObsCounterSet, RegistersEveryNameUnderOneInstance) {
  obs::Registry reg;
  rootsrv::AuthCounters first;
  const obs::Labels labels = first.Register(&reg, "rootsrv.auth");
  EXPECT_EQ(labels, (obs::Labels{"0", "", ""}));
  std::vector<std::string> expected;
  for (const std::string& name : kAuthNames) {
    expected.push_back("rootsrv.auth." + name);
  }
  std::sort(expected.begin(), expected.end());  // Snapshot() sorts by name
  std::vector<std::string> names;
  for (const obs::Sample& s : reg.Snapshot()) {
    EXPECT_EQ(s.kind, obs::Kind::kCounter);
    EXPECT_EQ(s.labels, labels);
    names.push_back(s.name);
  }
  EXPECT_EQ(names, expected);
  rootsrv::AuthCounters second;
  EXPECT_EQ(second.Register(&reg, "rootsrv.auth").instance, "1");
  EXPECT_EQ(reg.metric_count(), 2 * kAuthNames.size());
}

TEST(ObsCounterSet, ReadMirrorsEveryField) {
  obs::Registry reg;
  rootsrv::AuthCounters c;
  c.Register(&reg, "rootsrv.auth");
  BumpDistinct(c);
  EXPECT_EQ(c.Read(), kDistinct);
  const std::vector<std::uint64_t> values = AuthValues(reg);
  for (std::size_t i = 0; i < values.size(); ++i) {
    EXPECT_EQ(values[i], i + 1) << kAuthNames[i];
  }
}

TEST(ObsCounterSet, SumAddsAndResetZeroesEveryField) {
  rootsrv::AuthServerStats sum = kDistinct;
  sum += kDistinct;
  EXPECT_EQ(sum, (rootsrv::AuthServerStats{
                     .queries = 2, .answers = 4, .referrals = 6,
                     .nxdomain = 8, .nodata = 10, .refused = 12,
                     .malformed = 14, .truncated = 16, .edns_queries = 18,
                     .cache_hits = 20, .bytes_in = 22, .bytes_out = 24}));
  obs::Registry reg;
  rootsrv::AuthCounters c;
  c.Register(&reg, "rootsrv.auth");
  BumpDistinct(c);
  c.Reset();
  EXPECT_EQ(c.Read(), rootsrv::AuthServerStats{});
  EXPECT_EQ(AuthValues(reg), std::vector<std::uint64_t>(kAuthNames.size(), 0));
}

// ------------------------------------------------------------ histogram

TEST(ObsHistogram, IdentityBucketsBelowCutoff) {
  obs::HistogramData h;
  for (std::uint64_t v = 0; v < 16; ++v) {
    EXPECT_EQ(obs::HistogramData::BucketFor(v), static_cast<int>(v));
  }
}

TEST(ObsHistogram, BucketsAreMonotone) {
  int prev = -1;
  for (std::uint64_t v : {0ull, 1ull, 15ull, 16ull, 17ull, 100ull, 1000ull,
                          65536ull, 1000000ull, (1ull << 40), ~0ull}) {
    const int b = obs::HistogramData::BucketFor(v);
    EXPECT_GE(b, prev) << "v=" << v;
    EXPECT_LT(b, obs::HistogramData::kBucketCount);
    EXPECT_GE(obs::HistogramData::BucketUpperBound(b), v) << "v=" << v;
    prev = b;
  }
}

TEST(ObsHistogram, RecordTracksMomentsAndPercentiles) {
  obs::HistogramData h;
  for (std::uint64_t v = 1; v <= 100; ++v) h.Record(v);
  EXPECT_EQ(h.count, 100u);
  EXPECT_EQ(h.sum, 5050u);
  EXPECT_EQ(h.min, 1u);
  EXPECT_EQ(h.max, 100u);
  EXPECT_DOUBLE_EQ(h.mean(), 50.5);
  // Percentiles land on bucket upper bounds; geometric buckets above 16 have
  // ≤25% relative width, so p50 of 1..100 is within [50, 64].
  EXPECT_GE(h.Percentile(50), 50u);
  EXPECT_LE(h.Percentile(50), 64u);
  EXPECT_GE(h.Percentile(99), 99u);
  EXPECT_LE(h.Percentile(99), 127u);
}

// ---------------------------------------------------------------- export

TEST(ObsExport, RunHeaderCarriesSeedAndConfig) {
  const obs::RunInfo info{"mybench", 42, "knob=3"};
  const std::string header = obs::RunHeader(info);
  EXPECT_NE(header.find("[run] bench=mybench"), std::string::npos);
  EXPECT_NE(header.find("seed=42"), std::string::npos);
  EXPECT_NE(header.find("config=\"knob=3\""), std::string::npos);
  EXPECT_NE(header.find("git="), std::string::npos);
}

TEST(ObsExport, TableAggregatesInstances) {
  obs::Registry reg;
  reg.counter("resolver.queries", obs::Labels{"0", "", ""}).Inc(10);
  reg.counter("resolver.queries", obs::Labels{"1", "", ""}).Inc(32);
  const std::string table = obs::RenderMetricsTable(reg);
  EXPECT_NE(table.find("resolver.queries"), std::string::npos);
  EXPECT_NE(table.find("42"), std::string::npos);
  EXPECT_NE(table.find("across 2 instances"), std::string::npos);
}

TEST(ObsExport, JsonSchemaAndValues) {
  obs::Registry reg;
  reg.counter("a.count").Inc(7);
  reg.gauge("b.level").Set(-2);
  reg.histogram("c.lat").Record(5);
  const obs::RunInfo info{"jbench", 9, "x=1"};
  const std::string json = obs::MetricsJson(info, reg);
  EXPECT_NE(json.find("\"schema\": \"rootless-obs-v1\""), std::string::npos);
  EXPECT_NE(json.find("\"bench\": \"jbench\""), std::string::npos);
  EXPECT_NE(json.find("\"seed\": 9"), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"a.count\", \"kind\": \"counter\", "
                      "\"value\": 7"),
            std::string::npos);
  EXPECT_NE(json.find("\"name\": \"b.level\", \"kind\": \"gauge\", "
                      "\"value\": -2"),
            std::string::npos);
  EXPECT_NE(json.find("\"name\": \"c.lat\", \"kind\": \"histogram\""),
            std::string::npos);
}

// ----------------------------------------------- snapshot-view stats ports

TEST(ObsPorts, CacheStatsSnapshotTracksRegistry) {
  obs::Registry reg;
  resolver::DnsCache cache(0, &reg);
  const dns::RRset rr{*dns::Name::Parse("com."),
                      dns::RRType::kNS,
                      dns::RRClass::kIN,
                      60,
                      {dns::NsData{*dns::Name::Parse("a.gtld.")}}};
  cache.Put(rr, 0);
  EXPECT_NE(cache.Get(rr.key(), 1), nullptr);
  EXPECT_EQ(cache.Get(dns::RRsetKey{*dns::Name::Parse("net."),
                                    dns::RRType::kNS, dns::RRClass::kIN},
                      1),
            nullptr);
  const resolver::CacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.insertions, 1u);
  // And the same numbers are visible through the registry.
  std::uint64_t hits = 0;
  for (const auto& s : reg.Snapshot()) {
    if (s.name == "resolver.cache.hits") hits += s.counter;
  }
  EXPECT_EQ(hits, 1u);
  cache.ResetStats();
  EXPECT_EQ(cache.stats().hits, 0u);
}

// --------------------------------------------- refresh daemon transitions

// Fetches succeed/fail on command; time is driven with RunUntil so each
// stats transition is observed at its scheduled moment.
TEST(ObsPorts, RefreshDaemonStatsTransitions) {
  sim::Simulator sim;
  resolver::RefreshConfig config;  // validity 48h, lead 6h, retry 1h
  bool fail = false;
  std::uint64_t applies = 0;
  auto zone_ptr = zone::ZoneSnapshot::Build(zone::Zone());
  resolver::RefreshDaemon daemon(
      sim,
      {config,
       {[&](std::function<void(resolver::RefreshDaemon::FetchResult)> done) {
         if (fail) {
           done(util::Error("mirror down"));
         } else {
           done(zone_ptr);
         }
       }},
       [&](zone::SnapshotPtr) { ++applies; }});

  daemon.Start(zone_ptr);
  EXPECT_EQ(applies, 1u);
  EXPECT_EQ(daemon.stats().fetch_attempts, 0u);

  // First refresh fires at validity - lead = 42h and succeeds.
  sim.RunUntil(42 * sim::kHour);
  {
    const resolver::RefreshStats s = daemon.stats();
    EXPECT_EQ(s.fetch_attempts, 1u);
    EXPECT_EQ(s.refreshes, 1u);
    EXPECT_EQ(s.fetch_failures, 0u);
    EXPECT_EQ(s.expirations, 0u);
  }
  EXPECT_EQ(applies, 2u);
  EXPECT_EQ(daemon.expiry(), 42 * sim::kHour + 48 * sim::kHour);

  // Now the mirror goes down: the next attempt at 84h fails and retries
  // hourly. 6 failures fit before the 90h expiry.
  fail = true;
  sim.RunUntil(89 * sim::kHour + 59 * sim::kMinute);
  {
    const resolver::RefreshStats s = daemon.stats();
    EXPECT_EQ(s.fetch_attempts, 7u);  // 1 success + 6 failures
    EXPECT_EQ(s.fetch_failures, 6u);
    EXPECT_EQ(s.expirations, 0u);     // still inside the lead window
  }
  EXPECT_TRUE(daemon.zone_valid());

  // The copy lapses at 90h; the first post-expiry failure records it.
  sim.RunUntil(90 * sim::kHour + 1);
  EXPECT_FALSE(daemon.zone_valid());
  sim.RunUntil(91 * sim::kHour);
  {
    const resolver::RefreshStats s = daemon.stats();
    EXPECT_EQ(s.expirations, 1u);
    EXPECT_GE(s.fetch_failures, 7u);
    EXPECT_EQ(s.stale_time, 0);  // accumulated only once service recovers
  }

  // Recovery: the next retry succeeds, stale time covers expiry → now.
  fail = false;
  sim.RunUntil(92 * sim::kHour);
  {
    const resolver::RefreshStats s = daemon.stats();
    EXPECT_EQ(s.refreshes, 2u);
    EXPECT_EQ(s.stale_time, 2 * sim::kHour);  // expired 90h, refetched 92h
    EXPECT_EQ(s.expirations, 1u);
  }
  EXPECT_TRUE(daemon.zone_valid());
  EXPECT_EQ(applies, 3u);
}

// ------------------------------------------- fetch service accounting

TEST(ObsPorts, FetchServiceOutageAccounting) {
  sim::Simulator sim;
  auto zone_ptr = zone::ZoneSnapshot::Build(zone::Zone());
  distrib::ZoneFetchService service(sim, {{}, [&]() { return zone_ptr; }});
  service.AddOutage(0, sim::kHour);

  int failures = 0, successes = 0;
  auto record = [&](distrib::ZoneFetchService::FetchResult result) {
    (result.ok() ? successes : failures)++;
  };
  service.Fetch(record);
  service.Fetch(record);
  sim.Run();
  EXPECT_EQ(failures, 2);

  // Outside the window the same service recovers; bytes accrue only for
  // fetches that actually transfer.
  sim.ScheduleAt(2 * sim::kHour, [&]() { service.Fetch(record); });
  sim.Run();
  EXPECT_EQ(successes, 1);
  const distrib::FetchServiceStats stats = service.stats();
  EXPECT_EQ(stats.fetches, 3u);
  EXPECT_EQ(stats.failures, 2u);
  EXPECT_EQ(stats.validation_failures, 0u);
  EXPECT_GT(stats.bytes_served, 0u);
}

TEST(ObsPorts, FetchServiceVerifyFailureAccounting) {
  sim::Simulator sim;
  util::Rng rng(77);
  const crypto::SigningKey zsk = crypto::GenerateKey(crypto::kZskFlags, rng);
  crypto::KeyStore store;
  store.AddKey(zsk);

  // An unsigned zone served through a verifying fetch service fails
  // validation (no RRSIGs at all), and the failure is accounted.
  zone::Zone plain;
  ASSERT_TRUE(plain
                  .AddRecord({*dns::Name::Parse("com."), dns::RRType::kNS,
                              dns::RRClass::kIN, 60,
                              dns::NsData{*dns::Name::Parse("a.gtld.")}})
                  .ok());
  distrib::FetchServiceConfig config;
  config.verify_signatures = true;
  config.validation_now = 500;
  distrib::ZoneFetchService service(
      sim, {config, [&]() { return zone::ZoneSnapshot::Build(plain); }});
  service.SetTrust(zsk.dnskey, store);

  bool ok = true;
  service.Fetch(
      [&](distrib::ZoneFetchService::FetchResult result) { ok = result.ok(); });
  sim.Run();
  EXPECT_FALSE(ok);
  const distrib::FetchServiceStats stats = service.stats();
  EXPECT_EQ(stats.fetches, 1u);
  EXPECT_EQ(stats.validation_failures, 1u);
  EXPECT_EQ(stats.failures, 0u);  // outage counter untouched
}

}  // namespace
}  // namespace rootless
