// The §2.2 traffic classifier.
//
// Applies the paper's three-way decomposition to a trace:
//   1. bogus-TLD queries (the TLD is not delegated in the root zone),
//   2. queries a caching resolver should not have sent, under either
//      a) the *ideal* model — one query per (resolver, TLD) per window, or
//      b) the *budget* model — one per (resolver, TLD) per 15 minutes
//         (96/day),
//   3. the remaining valid queries.
// Also reports the resolver-population facts the paper quotes (total
// resolvers, bogus-only resolvers).
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <unordered_set>

#include "traffic/trace.h"

namespace rootless::traffic {

struct TrafficMixReport {
  std::uint64_t total_queries = 0;
  std::uint64_t bogus_tld_queries = 0;

  // Ideal-cache model.
  std::uint64_t cache_spurious_ideal = 0;
  std::uint64_t valid_ideal = 0;

  // 15-minute budget model.
  std::uint64_t cache_spurious_budget = 0;
  std::uint64_t valid_budget = 0;

  std::uint32_t resolvers_total = 0;
  std::uint32_t resolvers_bogus_only = 0;

  double bogus_fraction() const {
    return total_queries ? static_cast<double>(bogus_tld_queries) /
                               static_cast<double>(total_queries)
                         : 0;
  }
  double spurious_ideal_fraction() const {
    return total_queries ? static_cast<double>(cache_spurious_ideal) /
                               static_cast<double>(total_queries)
                         : 0;
  }
  double valid_ideal_fraction() const {
    return total_queries ? static_cast<double>(valid_ideal) /
                               static_cast<double>(total_queries)
                         : 0;
  }
  double spurious_budget_fraction() const {
    return total_queries ? static_cast<double>(cache_spurious_budget) /
                               static_cast<double>(total_queries)
                         : 0;
  }
  double valid_budget_fraction() const {
    return total_queries ? static_cast<double>(valid_budget) /
                               static_cast<double>(total_queries)
                         : 0;
  }
};

struct ClassifyOptions {
  // Budget-model window (the paper: 15 minutes = 96 windows/day).
  std::uint32_t budget_window_sec = 900;
};

// `is_real_tld` decides delegation membership (e.g. a lookup against the
// root zone snapshot for the collection day). The generated day classifies
// itself while it streams (ShardTally, traffic/shard.h); this whole-trace
// classifier is the reference that tally is tested against.
TrafficMixReport ClassifyTrace(
    const Trace& trace,
    const std::function<bool(const std::string&)>& is_real_tld,
    const ClassifyOptions& options = {});

}  // namespace rootless::traffic
