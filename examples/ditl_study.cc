// A DITL-style traffic study: stream a scaled day of root traffic through
// the paper's §2.2 classifier. Use the scale argument to trade runtime for
// statistical tightness.
//
//   $ ./ditl_study [scale]       (default 0.0005 ~ 2.85M queries)
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <set>
#include <string>
#include <vector>

#include "traffic/shard.h"
#include "util/strings.h"
#include "zone/evolution.h"

int main(int argc, char** argv) {
  using namespace rootless;

  traffic::WorkloadConfig config;
  config.scale = argc > 1 ? std::atof(argv[1]) : 0.0005;

  const zone::RootZoneModel model;
  std::vector<std::string> tlds;
  std::set<std::string> tld_set;
  for (const auto* tld : model.ActiveTlds({2018, 4, 11})) {
    tlds.push_back(tld->label);
    tld_set.insert(tld->label);
  }

  // One shard streams the whole day and classifies it as it goes; the
  // junk table below needs only the query count per label.
  const traffic::ShardPlan plan = traffic::MakeShardPlan(config, 1);
  const traffic::ShardLabelSpace labels(config, tlds);
  traffic::ShardTraceGenerator gen(config, plan, 0, labels);
  std::vector<std::uint64_t> label_queries(labels.tlds().size(), 0);
  traffic::ShardChunk chunk;
  while (gen.NextChunk(chunk)) {
    for (const traffic::QueryEvent& e : chunk.events) ++label_queries[e.tld];
  }
  const traffic::TrafficMixReport report = gen.tally().ToReport();
  std::printf("generated %llu queries from %u resolvers (scale %.4f)\n",
              static_cast<unsigned long long>(report.total_queries),
              plan.resolver_count, config.scale);

  std::printf("\nquery decomposition (paper Sec 2.2):\n");
  std::printf("  bogus TLDs:                 %6.1f%%  (paper 61.0%%)\n",
              report.bogus_fraction() * 100);
  std::printf("  ideal cache — spurious:     %6.1f%%  (paper 38.4%%)\n",
              report.spurious_ideal_fraction() * 100);
  std::printf("  ideal cache — valid:        %6.1f%%  (paper  0.5%%)\n",
              report.valid_ideal_fraction() * 100);
  std::printf("  15-min budget — spurious:   %6.1f%%  (paper 35.7%%)\n",
              report.spurious_budget_fraction() * 100);
  std::printf("  15-min budget — valid:      %6.1f%%  (paper  3.3%%)\n",
              report.valid_budget_fraction() * 100);
  std::printf("  bogus-only resolvers:       %6.1f%%  (paper 17.6%%)\n",
              100.0 * report.resolvers_bogus_only /
                  std::max(1u, report.resolvers_total));

  // Top junk labels, the way root-traffic studies tabulate them.
  std::vector<std::pair<std::uint64_t, std::string>> top;
  for (traffic::TldId id = 0; id < label_queries.size(); ++id) {
    const std::string& label = labels.tlds().LabelOf(id);
    if (label_queries[id] > 0 && tld_set.count(label) == 0) {
      top.push_back({label_queries[id], label});
    }
  }
  std::sort(top.rbegin(), top.rend());
  std::printf("\ntop bogus TLDs:\n");
  for (std::size_t i = 0; i < std::min<std::size_t>(top.size(), 8); ++i) {
    std::printf("  %-14s %8llu (%s)\n", top[i].second.c_str(),
                static_cast<unsigned long long>(top[i].first),
                util::FormatPercent(static_cast<double>(top[i].first) /
                                    static_cast<double>(report.total_queries))
                    .c_str());
  }
  return 0;
}
