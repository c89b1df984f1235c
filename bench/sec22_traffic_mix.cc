// §2.2 — "Root Nameserver Traffic": the in-text DITL-2018 analysis.
//
// Streams a scaled DITL day against the root zone of 2018-04-11 through the
// paper's classifier, and prints the decomposition next to the published
// numbers:
//   * 5.7B queries (~66K qps) from 4.1M resolvers, 723K bogus-only,
//   * 61.0% bogus TLDs,
//   * ideal cache: +38.4% spurious -> 0.5% valid,
//   * 15-min budget: +35.7% spurious -> 3.3% valid (~187M; ~15 valid
//     qps per j-root instance across 142 instances).
// Also distributes the day across the j-root anycast catchment to report
// per-instance load.
#include <cstdio>
#include <vector>

#include "analysis/report.h"
#include "topo/topology.h"
#include "traffic/shard.h"
#include "util/strings.h"
#include "zone/evolution.h"
#include "obs/export.h"

int main() {
  using namespace rootless;

  std::printf("%s",
              analysis::Banner("Sec 2.2: DITL j-root traffic decomposition")
                  .c_str());

  const rootless::obs::RunInfo run_info{"sec22_traffic_mix", 0,
                                       "workload=ditl-jroot"};
  std::printf("%s", rootless::obs::RunHeader(run_info).c_str());

  const zone::RootZoneModel zone_model;
  std::vector<std::string> real_tlds;
  for (const auto* tld : zone_model.ActiveTlds({2018, 4, 11})) {
    real_tlds.push_back(tld->label);
  }

  traffic::WorkloadConfig config;
  config.scale = 0.001;  // 5.7M queries, 4.1K resolvers
  // One shard streams the whole day and classifies it as it goes; the
  // per-instance table below needs only each resolver's query count.
  const traffic::ShardPlan plan = traffic::MakeShardPlan(config, 1);
  const traffic::ShardLabelSpace labels(config, real_tlds);
  traffic::ShardTraceGenerator gen(config, plan, 0, labels);
  std::vector<std::uint64_t> resolver_queries(plan.resolver_count, 0);
  traffic::ShardChunk chunk;
  while (gen.NextChunk(chunk)) {
    for (const traffic::QueryEvent& e : chunk.events) {
      ++resolver_queries[e.resolver_id];
    }
  }
  const traffic::TrafficMixReport report = gen.tally().ToReport();

  const double scale_up = 1.0 / config.scale;
  std::printf("generated %llu queries at scale %.4f (models %s full-scale)\n\n",
              static_cast<unsigned long long>(report.total_queries),
              config.scale,
              util::FormatCount(static_cast<double>(report.total_queries) *
                                scale_up)
                  .c_str());

  analysis::Table table({"metric", "paper (DITL 2018)", "measured (scaled)"});
  table.AddRow({"total queries / day", "5.7B",
                util::FormatCount(static_cast<double>(report.total_queries) *
                                  scale_up)});
  table.AddRow({"queries / second", "~66K",
                util::FormatCount(static_cast<double>(report.total_queries) *
                                  scale_up / 86400.0)});
  table.AddRow({"distinct resolvers", "4.1M",
                util::FormatCount(static_cast<double>(report.resolvers_total) *
                                  scale_up)});
  table.AddRow({"bogus-only resolvers", "723K",
                util::FormatCount(
                    static_cast<double>(report.resolvers_bogus_only) *
                    scale_up)});
  table.AddSeparator();
  table.AddRow({"bogus-TLD queries", "61.0%",
                util::FormatPercent(report.bogus_fraction())});
  table.AddRow({"ideal cache: spurious", "38.4%",
                util::FormatPercent(report.spurious_ideal_fraction())});
  table.AddRow({"ideal cache: valid", "0.5%",
                util::FormatPercent(report.valid_ideal_fraction())});
  table.AddRow({"15-min budget: spurious", "35.7%",
                util::FormatPercent(report.spurious_budget_fraction())});
  table.AddRow({"15-min budget: valid", "3.3%",
                util::FormatPercent(report.valid_budget_fraction())});
  table.AddRow({"valid queries (budget model)", "187M",
                util::FormatCount(static_cast<double>(report.valid_budget) *
                                  scale_up)});
  std::printf("%s\n", table.Render().c_str());

  // Per-instance load: spread the day across j-root's anycast catchment.
  const topo::Topology topology;  // defaults to the DITL collection day
  const auto j_sites = topology.deployment().SitesOn('j', topology.date());
  std::vector<std::uint64_t> per_instance(j_sites.size(), 0);
  {
    std::vector<topo::DeploymentModel::Instance> instances;
    for (std::size_t i = 0; i < j_sites.size(); ++i) {
      instances.push_back({'j', static_cast<int>(i), j_sites[i]});
    }
    // One location per resolver; its whole query volume lands on one site.
    util::Rng rng(17);
    for (const std::uint64_t queries : resolver_queries) {
      per_instance[topo::NearestInstance(
          instances, topo::SamplePopulationPoint(rng))] += queries;
    }
  }
  std::uint64_t max_load = 0, nonzero = 0;
  for (auto q : per_instance) {
    max_load = std::max(max_load, q);
    nonzero += q > 0;
  }
  const double mean_valid_qps_per_instance =
      static_cast<double>(report.valid_budget) * scale_up / 86400.0 /
      static_cast<double>(j_sites.size());

  analysis::Table load({"per-instance metric", "paper", "measured"});
  load.AddRow({"j-root instances modelled", "142-160",
               std::to_string(j_sites.size())});
  load.AddRow({"instances receiving traffic", "-", std::to_string(nonzero)});
  load.AddRow({"mean valid qps / instance", "~15",
               util::FormatCount(mean_valid_qps_per_instance)});
  load.AddRow({"hottest instance share", "-",
               util::FormatPercent(static_cast<double>(max_load) /
                                   static_cast<double>(report.total_queries))});
  std::printf("%s\n", load.Render().c_str());
  rootless::obs::ExportRun(run_info);
  return 0;
}
