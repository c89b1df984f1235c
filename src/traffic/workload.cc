#include "traffic/workload.h"

#include <algorithm>

#include "util/check.h"
#include "util/zipf.h"

namespace rootless::traffic {

TldId TldTable::Intern(const std::string& label) {
  auto it = index_.find(label);
  if (it != index_.end()) return it->second;
  const TldId id = static_cast<TldId>(labels_.size());
  labels_.push_back(label);
  index_.emplace(label, id);
  return id;
}

std::string SampleBogusTld(util::Rng& rng) {
  // The classic junk observed at the roots: RFC 6762-adjacent suffixes,
  // vendor defaults, search-list leakage, and random garbage.
  static constexpr const char* kCommonJunk[] = {
      "local",   "home",     "lan",      "internal", "corp",
      "domain",  "localdomain", "belkin", "dlink",    "workgroup",
      "invalid", "test",     "router",   "localhost", "intranet"};
  if (rng.Chance(0.7)) {
    return kCommonJunk[rng.Below(std::size(kCommonJunk))];
  }
  // Random garbage label (typo squat / chromium-style probe).
  std::string label;
  const std::size_t len = 6 + rng.Below(10);
  for (std::size_t i = 0; i < len; ++i) {
    label.push_back(static_cast<char>('a' + rng.Below(26)));
  }
  return label;
}

Trace GenerateDitlTrace(const WorkloadConfig& config,
                        const std::vector<std::string>& real_tlds,
                        WorkloadSummary* out_summary) {
  ROOTLESS_CHECK(!real_tlds.empty());
  ROOTLESS_CHECK(config.scale > 0);
  util::Rng rng(config.seed);

  Trace trace;
  WorkloadSummary summary;

  const auto total_queries = static_cast<std::uint64_t>(
      static_cast<double>(config.full_scale_queries) * config.scale);
  const auto resolver_count = static_cast<std::uint32_t>(std::max<std::uint64_t>(
      10, static_cast<std::uint64_t>(
              static_cast<double>(config.full_scale_resolvers) * config.scale)));
  const auto bogus_only_count = static_cast<std::uint32_t>(
      config.bogus_only_resolver_fraction * resolver_count);
  summary.resolver_count = resolver_count;
  summary.bogus_only_resolvers = bogus_only_count;

  // Resolver ids [0, bogus_only_count) are bogus-only; the rest are regular.
  const std::uint32_t first_regular = bogus_only_count;
  const std::uint32_t regular_count = resolver_count - bogus_only_count;

  // Intern the real TLD labels, excluding the new TLD (injected explicitly).
  std::vector<TldId> real_ids;
  real_ids.reserve(real_tlds.size());
  TldId new_tld_id = 0;
  bool new_tld_known = false;
  for (const auto& label : real_tlds) {
    const TldId id = trace.tlds.Intern(label);
    if (label == config.new_tld) {
      new_tld_id = id;
      new_tld_known = true;
      continue;
    }
    real_ids.push_back(id);
  }

  // Diurnal timestamp sampler: a day with a mild day/night swing.
  auto sample_time = [&]() -> std::uint32_t {
    for (;;) {
      const double t = rng.UnitDouble() * config.window_sec;
      const double phase = 6.283185307179586 * t / config.window_sec;
      const double accept = 0.75 + 0.25 * std::sin(phase - 1.2);
      if (rng.UnitDouble() < accept) return static_cast<std::uint32_t>(t);
    }
  };

  // ---- bogus stream --------------------------------------------------
  const auto bogus_target = static_cast<std::uint64_t>(
      config.bogus_query_fraction * static_cast<double>(total_queries));
  // Bogus-only resolvers each use a small fixed junk vocabulary (their
  // search list); regular resolvers emit one-off junk.
  std::vector<std::vector<TldId>> junk_vocab(bogus_only_count);
  for (auto& vocab : junk_vocab) {
    const std::size_t n = 1 + rng.Below(3);
    for (std::size_t i = 0; i < n; ++i) {
      vocab.push_back(trace.tlds.Intern(SampleBogusTld(rng)));
    }
  }
  for (std::uint64_t q = 0; q < bogus_target; ++q) {
    QueryEvent e;
    e.time_sec = sample_time();
    // A fixed share of the bogus volume comes from the bogus-only
    // population, the rest from regular resolvers (leaked suffixes,
    // misconfigurations).
    if (bogus_only_count > 0 && rng.Chance(config.bogus_only_volume_share)) {
      e.resolver_id = static_cast<std::uint32_t>(rng.Below(bogus_only_count));
      const auto& vocab = junk_vocab[e.resolver_id];
      e.tld = vocab[rng.Below(vocab.size())];
    } else {
      e.resolver_id =
          first_regular + static_cast<std::uint32_t>(rng.Below(regular_count));
      e.tld = trace.tlds.Intern(SampleBogusTld(rng));
    }
    trace.events.push_back(e);
    ++summary.bogus_queries;
  }

  // ---- valid stream ---------------------------------------------------
  // Fill the remaining budget with (resolver, TLD) pair bursts.
  const std::uint64_t valid_budget = total_queries - bogus_target;
  util::ZipfSampler tld_zipf(real_ids.size(), config.tld_zipf_s);
  const std::uint32_t slot_sec = 900;
  const std::uint32_t slots_in_window =
      std::max<std::uint32_t>(1, config.window_sec / slot_sec);

  std::uint64_t emitted = 0;
  while (emitted < valid_budget) {
    ++summary.valid_pairs;
    const std::uint32_t resolver =
        first_regular + static_cast<std::uint32_t>(rng.Below(regular_count));
    const TldId tld = real_ids[tld_zipf.Sample(rng)];

    // Number of distinct 15-minute slots this pair touches, then total
    // queries across them (>= one per slot).
    const std::uint64_t slots = std::min<std::uint64_t>(
        slots_in_window,
        1 + rng.Poisson(std::max(0.0, config.slots_per_pair_mean - 1)));
    std::uint64_t queries = slots + static_cast<std::uint64_t>(rng.Exponential(
                                        std::max(1.0, config.queries_per_pair_mean -
                                                          config.slots_per_pair_mean)));
    queries = std::min(queries, valid_budget - emitted);
    if (queries == 0) break;

    // Pick the slots and spread the queries across them.
    std::vector<std::uint32_t> slot_choices(slots);
    for (auto& s : slot_choices)
      s = static_cast<std::uint32_t>(rng.Below(slots_in_window));
    for (std::uint64_t q = 0; q < queries; ++q) {
      const std::uint32_t slot =
          slot_choices[q < slots ? q : rng.Below(slots)];
      QueryEvent e;
      e.time_sec = slot * slot_sec +
                   static_cast<std::uint32_t>(rng.Below(slot_sec));
      if (e.time_sec >= config.window_sec) e.time_sec = config.window_sec - 1;
      e.resolver_id = resolver;
      e.tld = tld;
      trace.events.push_back(e);
    }
    emitted += queries;
  }
  summary.valid_stream_queries = emitted;

  // ---- new-TLD adoption (§5.3) ---------------------------------------
  if (new_tld_known || !config.new_tld.empty()) {
    if (!new_tld_known) new_tld_id = trace.tlds.Intern(config.new_tld);
    const auto adopters = static_cast<std::uint32_t>(std::max<std::uint64_t>(
        1, static_cast<std::uint64_t>(config.new_tld_resolver_fraction *
                                      resolver_count)));
    for (std::uint32_t a = 0; a < adopters; ++a) {
      const std::uint32_t resolver =
          first_regular + static_cast<std::uint32_t>(rng.Below(regular_count));
      const std::uint64_t queries =
          1 + rng.Poisson(std::max(0.0, config.new_tld_queries_per_resolver - 1));
      for (std::uint64_t q = 0; q < queries; ++q) {
        QueryEvent e;
        e.time_sec = sample_time();
        e.resolver_id = resolver;
        e.tld = new_tld_id;
        trace.events.push_back(e);
        ++summary.new_tld_queries;
      }
    }
  }

  std::vector<QueryEvent> scratch;
  SortEvents(trace.events, scratch);

  summary.total_queries = trace.events.size();
  if (out_summary != nullptr) *out_summary = summary;
  return trace;
}

}  // namespace rootless::traffic
