// Ablation F — fault tolerance of a rootless deployment (§5.2-style).
//
// Two experiments, each comparing a no-policy baseline against the shared
// retry/degradation machinery:
//
//   loss sweep    — resolver queries over a network with injected packet
//                   loss and jitter (sim/faults.h). Baseline makes a single
//                   attempt per leg; the policy arm retries with jittered
//                   exponential backoff. Curve: success rate and latency vs
//                   loss rate.
//   outage sweep  — the out-of-band refresh path loses its distribution
//                   points for increasing durations. Baseline is one full-
//                   fetch source, one attempt per round, copy unusable the
//                   moment validity lapses. The policy arm walks the §5.2
//                   fallback ladder (diff channel → AXFR → full fetch) with
//                   per-source retry budgets and serves stale within the
//                   staleness window. Curve: usable hours vs outage length.
//
// Every run is seeded and event-driven, so the emitted "[curve]" lines are
// bit-identical across runs; the bench re-runs the whole sweep twice and
// checks that itself. `--check <file>` additionally compares the lines
// against a committed baseline and fails on drift (the CI gate);
// `--out <file>` writes the lines for (re)generating that baseline.
#include <cstdio>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/report.h"
#include "baseline_gate.h"
#include "distrib/axfr.h"
#include "distrib/diff_channel.h"
#include "distrib/fetch_service.h"
#include "obs/export.h"
#include "resolver/recursive.h"
#include "resolver/refresh_daemon.h"
#include "rootsrv/fleet.h"
#include "rootsrv/tld_farm.h"
#include "sim/faults.h"
#include "sim/retry.h"
#include "topo/topology.h"
#include "util/zipf.h"
#include "zone/evolution.h"

namespace {

using namespace rootless;

constexpr std::uint64_t kSeed = 42;

// ------------------------------------------------------------- loss sweep

struct LossPoint {
  std::string line;
  int ok = 0;
};

LossPoint RunLossPoint(double loss, bool with_policy) {
  sim::Simulator sim;
  sim::Network net(sim, kSeed);
  topo::Topology topology;
  net.set_latency_fn(topology.LatencyFn());

  // The injected impairment: symmetric loss plus up to 5 ms of jitter on
  // every link, from the injector's own seeded stream.
  sim::FaultPlan plan;
  plan.seed = kSeed ^ static_cast<std::uint64_t>(loss * 1000.0);
  plan.LossEverywhere(loss).JitterEverywhere(5 * sim::kMillisecond);
  sim::FaultInjector faults(std::move(plan));
  net.set_fault_injector(&faults);

  const zone::RootZoneModel zone_model;
  const zone::SnapshotPtr root_snapshot =
      zone::ZoneSnapshot::Build(zone_model.Snapshot({2018, 4, 11}));
  rootsrv::RootServerFleet fleet(net, topology, root_snapshot);
  rootsrv::TldFarm farm(net, topology, *root_snapshot, 5);

  resolver::ResolverConfig config;
  config.mode = resolver::RootMode::kRootServers;
  config.seed = kSeed;
  if (with_policy) {
    config.retry = sim::RetryPolicy{.max_attempts = 4,
                                    .attempt_timeout = 2 * sim::kSecond,
                                    .initial_backoff = 200 * sim::kMillisecond,
                                    .backoff_multiplier = 2.0,
                                    .max_backoff = 10 * sim::kSecond,
                                    .jitter = 0.3};
  } else {
    config.retry = sim::RetryPolicy::None();  // the no-policy arm
  }
  const topo::GeoPoint where{40.71, -74.0};
  resolver::RecursiveResolver r(sim, net, {config, where, nullptr, &topology});
  r.SetRootFleet(&fleet);
  r.SetTldFarm(&farm);

  std::vector<std::string> tlds;
  for (const auto& child : root_snapshot->DelegatedChildren())
    tlds.push_back(child.tld());
  util::ZipfSampler zipf(tlds.size(), 0.95);
  util::Rng rng(kSeed);

  const int kLookups = 400;
  int ok = 0;
  long long ok_latency_us = 0;
  for (int i = 0; i < kLookups; ++i) {
    const std::string host =
        "host" + std::to_string(i) + ".example." + tlds[zipf.Sample(rng)] +
        ".";
    auto name = dns::Name::Parse(host);
    bool failed = true;
    sim::SimTime latency = 0;
    r.Resolve(*name, dns::RRType::kA,
              [&](const resolver::ResolutionResult& rr) {
                failed = rr.failed;
                latency = rr.latency;
              });
    sim.Run();
    if (!failed) {
      ++ok;
      ok_latency_us += latency;
    }
  }

  const auto stats = r.stats();
  const auto fstats = faults.stats();
  char line[256];
  std::snprintf(line, sizeof(line),
                "[curve] exp=loss arm=%s loss=%.2f ok=%d/%d rate=%.4f "
                "mean_ms=%.3f retries=%llu timeouts=%llu drops=%llu",
                with_policy ? "retry-backoff" : "no-retry", loss, ok,
                kLookups, static_cast<double>(ok) / kLookups,
                ok > 0 ? static_cast<double>(ok_latency_us) / (1000.0 * ok)
                       : 0.0,
                static_cast<unsigned long long>(stats.retries),
                static_cast<unsigned long long>(stats.timeouts),
                static_cast<unsigned long long>(fstats.drops_loss));
  return LossPoint{line, ok};
}

// ----------------------------------------------------------- outage sweep

struct OutagePoint {
  std::string line;
  int usable_hours = 0;
};

OutagePoint RunOutagePoint(int outage_hours, bool with_ladder) {
  sim::Simulator sim;
  sim::Network net(sim, kSeed ^ 17);

  const zone::RootZoneModel zone_model;
  const zone::SnapshotPtr snapshot =
      zone::ZoneSnapshot::Build(zone_model.Snapshot({2018, 4, 11}));

  const sim::SimTime start = 41 * sim::kHour;
  const sim::SimTime dur = outage_hours * sim::kHour;

  // Rung 3 (both arms): the full-fetch mirror. Its outage clears first —
  // mirrors recover before the fancier channels in this scenario.
  distrib::ZoneFetchService full(
      sim, {.config = {}, .provider = [snapshot]() { return snapshot; }});
  full.AddOutage(start, start + dur / 2);

  // Rung 2 (ladder only): real AXFR over the simulated network, its server
  // taken down by the fault injector for 3/4 of the outage.
  sim::FaultPlan plan;
  plan.seed = kSeed ^ static_cast<std::uint64_t>(outage_hours);
  distrib::AxfrServer axfr_server(net, [snapshot]() { return snapshot; });
  plan.Outage(axfr_server.node(), start, start + (3 * dur) / 4);
  sim::FaultInjector faults(std::move(plan));
  net.set_fault_injector(&faults);
  distrib::AxfrClient axfr_client(
      sim, net,
      distrib::AxfrClient::Options{
          .window = 8,
          .retry = {.max_attempts = 2, .attempt_timeout = 20 * sim::kSecond,
                    .initial_backoff = 0}});

  // Rung 1 (ladder only): the diff channel, down for the whole outage.
  distrib::DiffPublisher publisher(snapshot);
  auto subscriber = std::make_shared<distrib::DiffSubscriber>(snapshot);

  resolver::RefreshConfig config;  // validity 48h, lead 6h, retry 1h
  std::vector<resolver::RefreshDaemon::FetchFn> sources;
  using FetchResult = resolver::RefreshDaemon::FetchResult;
  if (with_ladder) {
    config.retry = sim::RetryPolicy{.max_attempts = 2,
                                    .initial_backoff = 10 * sim::kMinute,
                                    .backoff_multiplier = 2.0,
                                    .max_backoff = 30 * sim::kMinute,
                                    .jitter = 0.25};
    sources.push_back(  // rung 1: the diff channel
        [&, start, dur](std::function<void(FetchResult)> done) {
          if (sim.now() >= start && sim.now() < start + dur) {
            sim.Schedule(5 * sim::kSecond, [done = std::move(done)]() {
              done(util::Error(ErrorCode::kUnreachable,
                               "diff endpoint unreachable"));
            });
            return;
          }
          sim.Schedule(200 * sim::kMillisecond, [&, done = std::move(
                                                       done)]() {
            auto status =
                subscriber->Apply(publisher.UpdatesSince(subscriber->serial()));
            if (!status.ok()) {
              done(util::Error(status.error()));
              return;
            }
            done(subscriber->snapshot());
          });
        });
    sources.push_back([&](std::function<void(FetchResult)> done) {  // rung 2
      axfr_client.Fetch(
          axfr_server.node(), 0,
          [done = std::move(done)](util::Result<zone::SnapshotPtr> r) {
            done(std::move(r));
          });
    });
  }
  sources.push_back([&](std::function<void(FetchResult)> done) {  // rung 3
    full.Fetch(std::move(done));
  });

  resolver::RefreshDaemon daemon(
      sim, {config, std::move(sources), [](zone::SnapshotPtr) {}});
  daemon.Start(snapshot);

  // Sample usability every hour on the half hour for ten days: the baseline
  // can only serve a valid copy, the ladder arm serves stale too.
  const int kHours = 240;
  int usable = 0;
  for (int h = 1; h <= kHours; ++h) {
    sim.Schedule(h * sim::kHour + 30 * sim::kMinute, [&, with_ladder]() {
      if (with_ladder ? daemon.zone_usable() : daemon.zone_valid()) ++usable;
    });
  }
  sim.RunUntil(11 * sim::kDay);

  const auto stats = daemon.stats();
  char line[320];
  std::snprintf(
      line, sizeof(line),
      "[curve] exp=outage arm=%s dur_h=%d usable_h=%d/%d refreshes=%llu "
      "retries=%llu fallbacks=%llu expirations=%llu hard_expirations=%llu "
      "stale_h=%lld",
      with_ladder ? "ladder-stale" : "no-policy", outage_hours, usable,
      kHours, static_cast<unsigned long long>(stats.refreshes),
      static_cast<unsigned long long>(stats.retries),
      static_cast<unsigned long long>(stats.fallbacks),
      static_cast<unsigned long long>(stats.expirations),
      static_cast<unsigned long long>(stats.hard_expirations),
      static_cast<long long>(stats.stale_time / sim::kHour));
  return OutagePoint{line, usable};
}

// ----------------------------------------------------------------- driver

struct SweepResult {
  std::vector<std::string> lines;
  int baseline_ok = 0;
  int policy_ok = 0;
  int baseline_usable = 0;
  int policy_usable = 0;
};

SweepResult RunSweeps() {
  SweepResult out;
  for (const double loss : {0.0, 0.05, 0.1, 0.2, 0.3}) {
    const LossPoint base = RunLossPoint(loss, false);
    const LossPoint policy = RunLossPoint(loss, true);
    out.baseline_ok += base.ok;
    out.policy_ok += policy.ok;
    out.lines.push_back(base.line);
    out.lines.push_back(policy.line);
  }
  for (const int dur : {2, 8, 24, 80}) {
    const OutagePoint base = RunOutagePoint(dur, false);
    const OutagePoint policy = RunOutagePoint(dur, true);
    out.baseline_usable += base.usable_hours;
    out.policy_usable += policy.usable_hours;
    out.lines.push_back(base.line);
    out.lines.push_back(policy.line);
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const auto gate = rootless::bench::BaselineGate::FromArgs(argc, argv);

  std::printf("%s", analysis::Banner(
                        "Ablation F: fault injection, retry policy, and the "
                        "serve-stale fallback ladder")
                        .c_str());
  const obs::RunInfo run_info{
      "ablation_fault_tolerance", kSeed,
      "loss=0..0.3 outage_h=2..80 arms=no-policy,retry+ladder+stale"};
  std::printf("%s", obs::RunHeader(run_info).c_str());

  const SweepResult first = RunSweeps();
  // Determinism gate: the whole sweep, re-run in-process, must reproduce
  // every curve line bit-for-bit.
  const SweepResult second = RunSweeps();
  if (first.lines != second.lines) {
    std::fprintf(stderr,
                 "FAIL: sweep is not deterministic across two runs\n");
    return 1;
  }

  for (const auto& line : first.lines) std::printf("%s\n", line.c_str());

  // Dominance gate: the policy arm must strictly beat the no-policy
  // baseline across the sweep (and never lose a single point — checked by
  // the committed baseline lines).
  if (first.policy_ok <= first.baseline_ok) {
    std::fprintf(stderr, "FAIL: retry policy did not improve success rate "
                         "(%d <= %d)\n",
                 first.policy_ok, first.baseline_ok);
    return 1;
  }
  if (first.policy_usable <= first.baseline_usable) {
    std::fprintf(stderr, "FAIL: ladder+serve-stale did not improve usable "
                         "hours (%d <= %d)\n",
                 first.policy_usable, first.baseline_usable);
    return 1;
  }
  std::printf("summary: success %d -> %d lookups, usable %d -> %d hours "
              "(no-policy -> policy)\n",
              first.baseline_ok, first.policy_ok, first.baseline_usable,
              first.policy_usable);

  if (!gate.Run(first.lines, "curve")) return 1;

  obs::ExportRun(run_info);
  return 0;
}
