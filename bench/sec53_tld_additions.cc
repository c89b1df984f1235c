// §5.3 "TLD Additions" — how urgently do resolvers need a fresh zone?
//
// Reproduces the ".llc" case study: the TLD was added 2018-02-23, 47 days
// before the DITL collection, yet drew <0.0002% of j-root queries from
// <0.1% of resolvers. Prints that analysis on the generated day, then an
// adoption-lag model: for a TTL/refresh interval T, a resolver first learns
// about a new TLD T/2 later on average — quantifying the §5.2 TTL trade-off
// and the paper's "recent additions diff file" mitigation.
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "analysis/report.h"
#include "traffic/shard.h"
#include "util/strings.h"
#include "zone/evolution.h"
#include "zone/snapshot.h"
#include "zone/zone_diff.h"
#include "obs/export.h"

int main() {
  using namespace rootless;

  std::printf("%s",
              analysis::Banner("Sec 5.3: new-TLD adoption (.llc)").c_str());

  const rootless::obs::RunInfo run_info{"sec53_tld_additions", 0,
                                       "tld=.llc ttl-sweep=1,2,7,14d"};
  std::printf("%s", rootless::obs::RunHeader(run_info).c_str());

  const zone::RootZoneModel model;
  const zone::TldRecord* llc = model.FindTld("llc");
  if (llc == nullptr) return 1;
  const std::int64_t ditl_day = util::DaysFromCivil({2018, 4, 11});
  std::printf("llc added %s, DITL collection %s: %lld days later\n\n",
              util::FormatDate(util::CivilFromDays(llc->add_day)).c_str(),
              "2018-04-11",
              static_cast<long long>(ditl_day - llc->add_day));

  std::vector<std::string> real_tlds;
  for (const auto* tld : model.ActiveTlds({2018, 4, 11})) {
    real_tlds.push_back(tld->label);
  }
  // Scale 0.01 (57M queries, 41K resolvers): each regular resolver adopts
  // .llc with probability floor(0.00044 * resolvers) / regulars, so scale
  // 0.001 expects a single adopter and can draw none.
  traffic::WorkloadConfig config;
  config.scale = 0.01;
  const traffic::ShardPlan plan = traffic::MakeShardPlan(config, 1);
  const traffic::ShardLabelSpace labels(config, real_tlds);
  traffic::ShardTraceGenerator gen(config, plan, 0, labels);
  traffic::TldId llc_id = 0;
  while (labels.tlds().LabelOf(llc_id) != "llc") ++llc_id;
  std::uint64_t llc_queries = 0;
  std::vector<bool> queried_llc(plan.resolver_count, false);
  traffic::ShardChunk chunk;
  while (gen.NextChunk(chunk)) {
    for (const traffic::QueryEvent& e : chunk.events) {
      if (e.tld != llc_id) continue;
      ++llc_queries;
      queried_llc[e.resolver_id] = true;
    }
  }
  const traffic::ShardTally& tally = gen.tally();
  const auto llc_resolvers = static_cast<std::uint64_t>(
      std::count(queried_llc.begin(), queried_llc.end(), true));

  analysis::Table table({"metric", "paper (DITL 2018)", "measured (scaled)"});
  char buf[64];
  table.AddRow({"queries for .llc", "6.5K of 5.7B",
                std::to_string(llc_queries) + " of " +
                    std::to_string(tally.total_queries)});
  std::snprintf(buf, sizeof(buf), "%.5f%%",
                100.0 * static_cast<double>(llc_queries) /
                    static_cast<double>(tally.total_queries));
  table.AddRow({"query share", "<0.0002%", buf});
  table.AddRow({"resolvers querying .llc", "1,817 of 4.1M",
                std::to_string(llc_resolvers) + " of " +
                    std::to_string(tally.resolvers_total)});
  std::snprintf(buf, sizeof(buf), "%.3f%%",
                100.0 * static_cast<double>(llc_resolvers) /
                    static_cast<double>(tally.resolvers_total));
  table.AddRow({"resolver share", "<0.1%", buf});
  std::printf("%s\n", table.Render().c_str());

  // ---- adoption lag under TTL choices ---------------------------------
  analysis::Table lag({"refresh interval", "mean lag until visible",
                       "worst-case lag", "queries lost in lag window*"});
  const double llc_qps = static_cast<double>(llc_queries) / 86400.0;
  for (const double days : {1.0, 2.0, 7.0, 14.0}) {
    std::snprintf(buf, sizeof(buf), "%.1f days", days / 2.0);
    char worst[32];
    std::snprintf(worst, sizeof(worst), "%.0f days", days);
    char lost[48];
    std::snprintf(lost, sizeof(lost), "%.1f (of %llu/day observed)",
                  llc_qps * 86400.0 * days / 2.0,
                  static_cast<unsigned long long>(llc_queries));
    char label[32];
    std::snprintf(label, sizeof(label), "%.0f days", days);
    lag.AddRow({label, buf, worst, lost});
  }
  std::printf("%s", lag.Render().c_str());
  std::printf("(*scaled trace; the paper's point: demand for a 47-day-old "
              "TLD is so small that even week-long TTLs cost almost "
              "nothing)\n\n");

  // ---- the "diffs file" mitigation ------------------------------------
  // The paper suggests a small "recent additions" diff so resolvers learn
  // about new TLDs cheaply between full refreshes.
  const zone::SnapshotPtr before =
      zone::ZoneSnapshot::Build(model.Snapshot({2018, 2, 22}));
  const zone::SnapshotPtr after =
      zone::ZoneSnapshot::Build(model.Snapshot({2018, 2, 24}));
  const zone::ZoneDiff diff = zone::DiffSnapshots(*before, *after);
  const auto diff_wire = zone::SerializeDiff(diff);
  std::printf("additions-diff across the .llc add date: %zu RRset changes, "
              "%s on the wire (vs %s for the full zone) — the paper's "
              "cheap \"recent additions\" channel.\n",
              diff.change_count(),
              util::FormatBytes(static_cast<double>(diff_wire.size())).c_str(),
              util::FormatBytes(static_cast<double>(
                                    zone::SerializeSnapshot(*after).size()))
                  .c_str());
  rootless::obs::ExportRun(run_info);
  return 0;
}
