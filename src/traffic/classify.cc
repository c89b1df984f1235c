#include "traffic/classify.h"

#include <unordered_map>
#include <vector>

namespace rootless::traffic {

namespace {

// (resolver, tld) packed key: resolver in the high bits, interned TLD id in
// the low 20 (the table never approaches 2^20 labels in practice; checked).
std::uint64_t PairKey(std::uint32_t resolver, TldId tld) {
  return (static_cast<std::uint64_t>(resolver) << 20) |
         (tld & 0xFFFFFu);
}

}  // namespace

TrafficMixReport ClassifyTrace(
    const Trace& trace,
    const std::function<bool(const std::string&)>& is_real_tld,
    const ClassifyOptions& options) {
  TrafficMixReport report;
  report.total_queries = trace.events.size();

  // Precompute per-TLD validity.
  std::vector<std::uint8_t> tld_real(trace.tlds.size(), 0);
  for (TldId id = 0; id < trace.tlds.size(); ++id) {
    tld_real[id] = is_real_tld(trace.tlds.LabelOf(id)) ? 1 : 0;
  }

  // Resolver population bookkeeping: bit0 = sent any query, bit1 = sent a
  // real-TLD query.
  std::unordered_map<std::uint32_t, std::uint8_t> resolver_bits;

  std::unordered_set<std::uint64_t> pairs_seen;                    // ideal
  std::unordered_map<std::uint64_t, std::unordered_set<std::uint32_t>>
      pair_slots;                                                  // budget

  for (const auto& e : trace.events) {
    auto& bits = resolver_bits[e.resolver_id];
    bits |= 1;
    if (!tld_real[e.tld]) {
      ++report.bogus_tld_queries;
      continue;
    }
    bits |= 2;

    const std::uint64_t key = PairKey(e.resolver_id, e.tld);
    // Ideal model: only the first query for the pair is valid.
    if (pairs_seen.insert(key).second) {
      ++report.valid_ideal;
    } else {
      ++report.cache_spurious_ideal;
    }
    // Budget model: one valid query per pair per window.
    const std::uint32_t slot = e.time_sec / options.budget_window_sec;
    if (pair_slots[key].insert(slot).second) {
      ++report.valid_budget;
    } else {
      ++report.cache_spurious_budget;
    }
  }

  report.resolvers_total = static_cast<std::uint32_t>(resolver_bits.size());
  for (const auto& [resolver, bits] : resolver_bits) {
    if ((bits & 2) == 0) ++report.resolvers_bogus_only;
  }
  return report;
}

}  // namespace rootless::traffic
