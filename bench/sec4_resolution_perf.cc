// §4 "Performance" — resolution latency with root servers vs a local copy.
//
// Part 1 drives the full simulated stack (anycast root fleet of the
// 2018-04-11 deployment, TLD farm, geographic latencies) with a
// Zipf-popular lookup workload through four resolver configurations:
//   classic root-hints, cache-preload, on-demand zone file, RFC 7706
//   loopback.
// Reports cold-start and steady-state latency distributions and how many
// root transactions each mode needed. The paper's expectation — the local
// copy wins exactly on the (rare) root-touching lookups, so the steady-state
// advantage is modest because TLD referrals cache so well — is the shape to
// look for.
//
// Part 2 sweeps the planetary topology: every region × deployment date
// {2015-03-15, 2018-04-11} × {classic, local} arm runs a private stack with
// resolvers sampled inside the region (BGP-perturbed catchments decide which
// root instance classic mode actually reaches) and emits the root-touching
// latency CDF per arm plus the classic-minus-local delta per (region, date).
// Every `[cdf]`/`[delta]` line is a pure integer-microsecond function of the
// topology seed: the grid is run twice — once on a worker pool, once on a
// single thread — and must agree line-for-line. `--check <file>` compares
// the lines against the committed baseline (bench/sec4_perf_baseline.txt,
// the CI drift gate); `--out <file>` (re)generates it.
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "analysis/report.h"
#include "analysis/stats.h"
#include "baseline_gate.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "resolver/recursive.h"
#include "rootsrv/fleet.h"
#include "rootsrv/tld_farm.h"
#include "sim/parallel.h"
#include "topo/topology.h"
#include "util/strings.h"
#include "util/zipf.h"
#include "zone/evolution.h"

namespace {

using namespace rootless;

// ---------------------------------------------------------------------------
// Part 1: four resolver modes from one Paris vantage.

struct ModeResult {
  std::string mode;
  analysis::Histogram cold{10, 1.25};    // us
  analysis::Histogram steady{10, 1.25};  // us
  std::uint64_t root_transactions = 0;
  std::uint64_t local_lookups = 0;
  double cache_hit_rate = 0;
};

ModeResult RunMode(resolver::RootMode mode, double extra_db_latency_us = 0) {
  sim::Simulator sim;
  sim::Network net(sim, 1);
  topo::Topology topology;
  net.set_latency_fn(topology.LatencyFn());

  const zone::RootZoneModel zone_model;
  const zone::SnapshotPtr root_snapshot =
      zone::ZoneSnapshot::Build(zone_model.Snapshot({2018, 4, 11}));
  rootsrv::RootServerFleet fleet(net, topology, root_snapshot);
  rootsrv::TldFarm farm(net, topology, *root_snapshot, 5);

  resolver::ResolverConfig config;
  config.mode = mode;
  config.seed = 42;
  if (extra_db_latency_us > 0) {
    config.db_lookup_latency = static_cast<sim::SimTime>(extra_db_latency_us);
  }
  const topo::GeoPoint where{48.85, 2.35};
  resolver::RecursiveResolver r(sim, net,
                                {config, where, nullptr, &topology});
  r.SetTldFarm(&farm);
  std::unique_ptr<rootsrv::AuthServer> loopback;
  switch (mode) {
    case resolver::RootMode::kRootServers:
      r.SetRootFleet(&fleet);
      break;
    case resolver::RootMode::kLoopbackAuth:
      loopback = std::make_unique<rootsrv::AuthServer>(
          &net, root_snapshot, rootsrv::AuthServer::Options{});
      topology.PlaceNode(loopback->node(), where);
      r.SetLoopbackNode(loopback->node());
      r.SetLocalZone(root_snapshot);
      break;
    default:
      r.SetLocalZone(root_snapshot);
      break;
  }

  // Workload: Zipf over TLDs, many names per TLD.
  std::vector<std::string> tlds;
  for (const auto& child : root_snapshot->DelegatedChildren()) {
    tlds.push_back(child.tld());
  }
  util::ZipfSampler zipf(tlds.size(), 0.95);
  util::Rng rng(7);

  ModeResult result;
  result.mode = resolver::RootModeName(mode);

  const int kCold = 300;
  const int kSteady = 3000;
  for (int i = 0; i < kCold + kSteady; ++i) {
    const std::string& tld = tlds[zipf.Sample(rng)];
    const std::string host =
        "host" + std::to_string(rng.Below(2000)) + ".example." + tld + ".";
    auto name = dns::Name::Parse(host);
    bool done = false;
    sim::SimTime latency = 0;
    r.Resolve(*name, dns::RRType::kA,
              [&](const resolver::ResolutionResult& rr) {
                done = true;
                latency = rr.latency;
              });
    sim.Run();
    if (!done) continue;
    if (i < kCold) {
      result.cold.Add(static_cast<double>(latency));
    } else {
      result.steady.Add(static_cast<double>(latency));
    }
  }
  result.root_transactions = r.stats().root_transactions;
  result.local_lookups = r.stats().local_root_lookups;
  result.cache_hit_rate = r.cache().stats().hit_rate();
  return result;
}

std::string Ms(double us) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.2f ms", us / 1000.0);
  return buf;
}

// ---------------------------------------------------------------------------
// Part 2: region × deployment-date × mode grid over the anycast topology.

constexpr util::CivilDate kDates[] = {{2015, 3, 15}, {2018, 4, 11}};
constexpr int kDateCount = 2;
constexpr int kResolversPerArm = 16;
constexpr int kQueriesPerResolver = 40;
constexpr std::uint64_t kGridSeed = 0x5EC4C0FFEEULL;

struct ArmSpec {
  int date_idx = 0;
  int region = 0;
  bool classic = false;
};

struct ArmResult {
  // Latencies (integer sim microseconds) of the root-touching resolutions —
  // the lookups where the two deployments actually differ.
  std::vector<sim::SimTime> root_lat;
  std::uint64_t total = 0;
  std::uint64_t root_transactions = 0;  // packets to root servers
  std::uint64_t local_lookups = 0;      // local-zone consultations
};

// Shared immutable per-date state, built once and read by every arm.
struct DateCtx {
  zone::SnapshotPtr snapshot;
  std::vector<std::string> tlds;
};

sim::SimTime Pct(const std::vector<sim::SimTime>& sorted, int pct) {
  if (sorted.empty()) return 0;
  return sorted[(sorted.size() - 1) * static_cast<std::size_t>(pct) / 100];
}

ArmResult RunArm(const ArmSpec& spec, const DateCtx& ctx) {
  ArmResult out;
  const std::uint64_t arm_salt =
      kGridSeed ^ (static_cast<std::uint64_t>(spec.date_idx) << 40) ^
      (static_cast<std::uint64_t>(spec.region) << 8) ^
      (spec.classic ? 1u : 0u);

  // A complete private stack per arm: nothing mutable is shared between
  // concurrently running arms (the fleet's AuthServers and the resolvers
  // register into this arm's registry, not the process default).
  obs::Registry reg;
  sim::Simulator sim;
  sim::Network net(sim, arm_salt, &reg);
  topo::Topology topology({.date = kDates[spec.date_idx]});
  net.set_latency_fn(topology.LatencyFn());
  rootsrv::TldFarm farm(net, topology, *ctx.snapshot, 5);
  std::unique_ptr<rootsrv::RootServerFleet> fleet;
  if (spec.classic) {
    rootsrv::AuthServer::Options opts;
    opts.registry = &reg;
    fleet = std::make_unique<rootsrv::RootServerFleet>(net, topology,
                                                       ctx.snapshot, opts);
  }

  std::vector<std::unique_ptr<resolver::RecursiveResolver>> resolvers;
  resolvers.reserve(kResolversPerArm);
  for (int i = 0; i < kResolversPerArm; ++i) {
    resolver::ResolverConfig config;
    config.mode = spec.classic ? resolver::RootMode::kRootServers
                               : resolver::RootMode::kOnDemandZoneFile;
    // The resolver's seed doubles as its catchment identity: two resolvers
    // at the same spot can be routed to different instances of a letter.
    config.seed = arm_salt * 0x9E3779B97F4A7C15ULL +
                  static_cast<std::uint64_t>(i + 1);
    const topo::GeoPoint where = topology.SampleInRegion(
        spec.region, static_cast<std::uint64_t>(i + 1));
    auto r = std::make_unique<resolver::RecursiveResolver>(
        sim, net,
        resolver::RecursiveResolver::Options{config, where, &reg, &topology});
    r->SetTldFarm(&farm);
    if (spec.classic) {
      r->SetRootFleet(fleet.get());
    } else {
      r->SetLocalZone(ctx.snapshot);
    }
    resolvers.push_back(std::move(r));
  }

  util::ZipfSampler zipf(ctx.tlds.size(), 0.95);
  for (int i = 0; i < kResolversPerArm; ++i) {
    util::Rng rng(arm_salt ^ (0xABCDULL + static_cast<std::uint64_t>(i)));
    resolver::RecursiveResolver& r = *resolvers[static_cast<std::size_t>(i)];
    for (int q = 0; q < kQueriesPerResolver; ++q) {
      const std::string& tld = ctx.tlds[zipf.Sample(rng)];
      const std::string host =
          "host" + std::to_string(rng.Below(500)) + ".example." + tld + ".";
      auto name = dns::Name::Parse(host);
      bool used_root = false;
      sim::SimTime latency = 0;
      bool done = false;
      r.Resolve(*name, dns::RRType::kA,
                [&](const resolver::ResolutionResult& rr) {
                  done = true;
                  used_root = rr.used_root;
                  latency = rr.latency;
                });
      sim.Run();
      if (!done) continue;
      ++out.total;
      if (used_root) out.root_lat.push_back(latency);
    }
  }
  for (const auto& r : resolvers) {
    out.root_transactions += r->stats().root_transactions;
    out.local_lookups += r->stats().local_root_lookups;
  }
  std::sort(out.root_lat.begin(), out.root_lat.end());
  return out;
}

struct GridResult {
  std::vector<std::string> lines;  // the [cdf] and [delta] baseline lines
  // Structural-gate inputs, indexed [date][region].
  std::vector<std::vector<sim::SimTime>> classic_p50;
  std::vector<std::vector<sim::SimTime>> local_p50;
  std::uint64_t local_root_transactions = 0;  // must stay 0
};

GridResult RunGrid(int num_threads, const std::vector<DateCtx>& dates,
                   const topo::Topology& reference) {
  const int regions = static_cast<int>(reference.region_count());
  std::vector<ArmSpec> specs;
  for (int d = 0; d < kDateCount; ++d) {
    for (int g = 0; g < regions; ++g) {
      specs.push_back({d, g, /*classic=*/true});
      specs.push_back({d, g, /*classic=*/false});
    }
  }
  std::vector<ArmResult> results(specs.size());
  sim::RunShards(static_cast<int>(specs.size()), num_threads, [&](int arm) {
    const auto i = static_cast<std::size_t>(arm);
    results[i] = RunArm(specs[i], dates[static_cast<std::size_t>(
                                      specs[i].date_idx)]);
  });

  GridResult out;
  out.classic_p50.assign(kDateCount, std::vector<sim::SimTime>(
                                         static_cast<std::size_t>(regions)));
  out.local_p50 = out.classic_p50;
  char buf[256];
  for (std::size_t i = 0; i < specs.size(); i += 2) {
    const ArmSpec& spec = specs[i];
    const ArmResult& classic = results[i];
    const ArmResult& local = results[i + 1];
    const util::CivilDate& date = kDates[spec.date_idx];
    const std::string& region =
        reference.region(static_cast<std::size_t>(spec.region)).name;
    for (int m = 0; m < 2; ++m) {
      const ArmResult& a = m == 0 ? classic : local;
      std::uint64_t sum = 0;
      for (const sim::SimTime t : a.root_lat) {
        sum += static_cast<std::uint64_t>(t);
      }
      const std::uint64_t mean =
          a.root_lat.empty() ? 0 : sum / a.root_lat.size();
      std::snprintf(
          buf, sizeof buf,
          "[cdf] region=%s date=%04d-%02d-%02d mode=%s n=%llu root_n=%zu "
          "p10=%llu p50=%llu p90=%llu p99=%llu mean=%llu",
          region.c_str(), date.year, date.month, date.day,
          m == 0 ? "classic" : "local",
          static_cast<unsigned long long>(a.total), a.root_lat.size(),
          static_cast<unsigned long long>(Pct(a.root_lat, 10)),
          static_cast<unsigned long long>(Pct(a.root_lat, 50)),
          static_cast<unsigned long long>(Pct(a.root_lat, 90)),
          static_cast<unsigned long long>(Pct(a.root_lat, 99)),
          static_cast<unsigned long long>(mean));
      out.lines.emplace_back(buf);
    }
    const auto cp50 = Pct(classic.root_lat, 50);
    const auto lp50 = Pct(local.root_lat, 50);
    const auto cp90 = Pct(classic.root_lat, 90);
    const auto lp90 = Pct(local.root_lat, 90);
    std::snprintf(buf, sizeof buf,
                  "[delta] region=%s date=%04d-%02d-%02d dp50=%lld dp90=%lld",
                  region.c_str(), date.year, date.month, date.day,
                  static_cast<long long>(cp50) - static_cast<long long>(lp50),
                  static_cast<long long>(cp90) - static_cast<long long>(lp90));
    out.lines.emplace_back(buf);
    out.classic_p50[static_cast<std::size_t>(spec.date_idx)]
                   [static_cast<std::size_t>(spec.region)] = cp50;
    out.local_p50[static_cast<std::size_t>(spec.date_idx)]
                 [static_cast<std::size_t>(spec.region)] = lp50;
    out.local_root_transactions += local.root_transactions;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const auto gate = rootless::bench::BaselineGate::FromArgs(argc, argv);

  std::printf("%s",
              analysis::Banner("Sec 4: resolution latency, root servers vs "
                               "local root zone copy")
                  .c_str());

  const obs::RunInfo run_info{
      "sec4_resolution_perf", 42,
      "modes=root-servers,preload,on-demand,loopback "
      "grid=8-regions,2-dates,classic-vs-local"};
  std::printf("%s", obs::RunHeader(run_info).c_str());

  std::vector<ModeResult> results;
  results.push_back(RunMode(resolver::RootMode::kRootServers));
  results.push_back(RunMode(resolver::RootMode::kCachePreload));
  results.push_back(RunMode(resolver::RootMode::kOnDemandZoneFile));
  results.push_back(RunMode(resolver::RootMode::kLoopbackAuth));

  analysis::Table table({"mode", "cold p50", "cold p90", "steady p50",
                         "steady p90", "steady mean", "root txns",
                         "local lookups"});
  for (const auto& r : results) {
    table.AddRow({r.mode, Ms(r.cold.Percentile(50)), Ms(r.cold.Percentile(90)),
                  Ms(r.steady.Percentile(50)), Ms(r.steady.Percentile(90)),
                  Ms(r.steady.mean()), std::to_string(r.root_transactions),
                  std::to_string(r.local_lookups)});
  }
  std::printf("%s\n", table.Render().c_str());

  const double classic = results[0].steady.mean();
  const double preload = results[1].steady.mean();
  std::printf("steady-state speedup of cache-preload over classic: %.2fx\n",
              classic / preload);
  std::printf("paper's expectation: modest steady-state benefit (2-day TLD "
              "TTLs cache well), large benefit only on root-touching "
              "lookups.\n\n");

  // The naive on-demand variant the paper timed: a 37 ms compressed-file
  // scan per root consultation instead of an indexed store.
  ModeResult naive = RunMode(resolver::RootMode::kOnDemandZoneFile, 37000.0);
  analysis::Table naive_table({"on-demand store", "steady mean", "cold p50"});
  naive_table.AddRow({"indexed db (200 us)", Ms(results[2].steady.mean()),
                      Ms(results[2].cold.Percentile(50))});
  naive_table.AddRow({"compressed-file scan (37 ms, paper Sec 5.1)",
                      Ms(naive.steady.mean()), Ms(naive.cold.Percentile(50))});
  std::printf("%s\n", naive_table.Render().c_str());

  // --- Part 2: the planetary grid -------------------------------------
  std::printf("per-region root-touching latency, classic fleet vs local "
              "copy (us, integer CDF):\n");
  const topo::Topology reference;
  const zone::RootZoneModel zone_model;
  std::vector<DateCtx> dates(kDateCount);
  for (int d = 0; d < kDateCount; ++d) {
    auto& ctx = dates[static_cast<std::size_t>(d)];
    ctx.snapshot =
        zone::ZoneSnapshot::Build(zone_model.Snapshot(kDates[d]));
    for (const auto& child : ctx.snapshot->DelegatedChildren()) {
      ctx.tlds.push_back(child.tld());
    }
  }

  const GridResult pooled = RunGrid(/*num_threads=*/0, dates, reference);
  // Determinism gate: the grid on one thread must reproduce the pooled
  // grid's every line bit-for-bit (this also exercises a full second
  // in-process run).
  const GridResult serial = RunGrid(/*num_threads=*/1, dates, reference);
  if (pooled.lines != serial.lines) {
    std::fprintf(stderr,
                 "FAIL: grid differs between thread pool and serial run\n");
    for (std::size_t i = 0; i < pooled.lines.size(); ++i) {
      if (pooled.lines[i] != serial.lines[i]) {
        std::fprintf(stderr, "  pooled: %s\n  serial: %s\n",
                     pooled.lines[i].c_str(), serial.lines[i].c_str());
      }
    }
    return 1;
  }
  for (const auto& line : pooled.lines) std::printf("%s\n", line.c_str());

  // Structural gates (exact values are pinned by the committed baseline;
  // these keep regenerated baselines honest):
  //  - local-root arms must never send a packet to a root server;
  //  - in every (region, date) the classic fleet's root-touching median
  //    must not beat the local copy's (the local consultation is a 200 us
  //    db hit; the classic path pays a real catchment RTT).
  if (pooled.local_root_transactions != 0) {
    std::fprintf(stderr, "FAIL: local-root arms sent %llu root packets\n",
                 static_cast<unsigned long long>(
                     pooled.local_root_transactions));
    return 1;
  }
  for (int d = 0; d < kDateCount; ++d) {
    for (std::size_t g = 0; g < reference.region_count(); ++g) {
      const auto cp = pooled.classic_p50[static_cast<std::size_t>(d)][g];
      const auto lp = pooled.local_p50[static_cast<std::size_t>(d)][g];
      if (cp < lp) {
        std::fprintf(stderr,
                     "FAIL: classic p50 %llu beat local p50 %llu in "
                     "region=%s date=%04d\n",
                     static_cast<unsigned long long>(cp),
                     static_cast<unsigned long long>(lp),
                     reference.region(g).name.c_str(), kDates[d].year);
        return 1;
      }
    }
  }

  if (!gate.Run(pooled.lines, "region grid")) return 1;

  obs::ExportRun(run_info);
  return 0;
}
