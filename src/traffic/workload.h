// DITL-style workload configuration — the substitute for the DNS-OARC
// Day-In-The-Life j-root capture (DESIGN.md §2).
//
// ShardTraceGenerator (traffic/shard.h) streams the synthetic day of
// root-directed queries this config describes. Its marginal statistics are
// calibrated to the paper's §2.2 measurements:
//   * 5.7B queries from 4.1M resolvers (scaled by `scale`),
//   * 61.0% of queries carry bogus TLDs,
//   * 723K resolvers (17.6%) query only bogus TLDs,
//   * valid traffic concentrated on few TLDs (Zipf) with per-(resolver,TLD)
//     repetition such that the ideal-cache model leaves ~0.5% of queries
//     valid and the 15-minute-budget model ~3.3%,
//   * a just-added TLD (".llc") queried by <0.1% of resolvers and <0.0002%
//     of queries (§5.3).
#pragma once

#include <cstdint>
#include <string>

#include "util/rng.h"

namespace rootless::traffic {

struct WorkloadConfig {
  std::uint64_t seed = 2018;

  // Scale factor relative to the real DITL day (1.0 = 5.7B queries).
  // The default 1/1000 keeps a full analysis run in seconds.
  double scale = 0.001;

  // Paper-calibrated shape parameters (fractions of the full-scale day).
  std::uint64_t full_scale_queries = 5'700'000'000ULL;
  std::uint64_t full_scale_resolvers = 4'100'000ULL;
  double bogus_query_fraction = 0.610;     // §2.2: 61.0% bogus TLDs
  double bogus_only_resolver_fraction = 0.176;  // 723K / 4.1M
  // Share of the bogus volume emitted by the bogus-only population (the
  // rest is leaked suffixes / misconfiguration from regular resolvers).
  double bogus_only_volume_share = 0.35;

  // Valid-traffic repetition: mean queries per (resolver,TLD) pair and mean
  // number of distinct 15-minute slots those queries occupy.
  double queries_per_pair_mean = 78.0;
  double slots_per_pair_mean = 6.6;

  // TLD popularity skew across the valid stream.
  double tld_zipf_s = 0.95;

  // §5.3 new-TLD adoption (".llc", 47 days old at collection time).
  std::string new_tld = "llc";
  double new_tld_resolver_fraction = 0.00044;  // 1,817 / 4.1M
  double new_tld_queries_per_resolver = 3.6;   // 6.5K / 1,817

  // Collection window (the DITL day).
  std::uint32_t window_sec = 86400;
};

// The classic junk observed at the roots: RFC 6762-adjacent suffixes,
// vendor defaults and search-list leakage.
inline constexpr const char* kCommonJunk[] = {
    "local",   "home",        "lan",    "internal",  "corp",
    "domain",  "localdomain", "belkin", "dlink",     "workgroup",
    "invalid", "test",        "router", "localhost", "intranet"};

// A random garbage label (typo squat / chromium-style probe): 6 to 15
// lowercase letters.
std::string GarbageLabel(util::Rng& rng);

// The bogus-TLD label pool observed at roots: a kCommonJunk suffix 70% of
// the time, else a GarbageLabel. Deterministic per rng stream.
std::string SampleBogusTld(util::Rng& rng);

}  // namespace rootless::traffic
