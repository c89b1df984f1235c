// Remaining edge-path coverage: hints parsing failures, signed-zone
// serving through AuthServer, report rendering, evolution config bounds,
// and interceptor accounting.
#include <gtest/gtest.h>

#include <memory>

#include "analysis/report.h"
#include "rootsrv/auth_server.h"
#include "sim/network.h"
#include "zone/evolution.h"
#include "zone/master_file.h"
#include "zone/root_hints.h"
#include "zone/sign.h"
#include "zone/zone_diff.h"
#include "zone/zone_snapshot.h"

namespace rootless {
namespace {

using dns::Name;
using dns::RRClass;
using dns::RRType;

Name N(std::string_view s) { return *Name::Parse(s); }

TEST(RootHintsEdge, FromRecordsRejectsEmptyAndIncomplete) {
  EXPECT_FALSE(zone::RootHints::FromRecords({}).ok());
  // NS without the matching A record.
  std::vector<dns::ResourceRecord> records;
  records.push_back({Name(), RRType::kNS, RRClass::kIN, 3600000,
                     dns::NsData{N("a.root-servers.net.")}});
  EXPECT_FALSE(zone::RootHints::FromRecords(records).ok());
}

TEST(RootHintsEdge, HintsFileParsesAsMasterFile) {
  // The hints serialization must round-trip through the zone parser, the
  // way real resolvers consume named.root.
  const auto hints = zone::RootHints::Standard();
  const std::string text = zone::SerializeMasterFile(hints.ToRecords());
  auto parsed = zone::ParseMasterFile(text);
  ASSERT_TRUE(parsed.ok()) << parsed.error().message();
  auto rebuilt = zone::RootHints::FromRecords(*parsed);
  ASSERT_TRUE(rebuilt.ok()) << rebuilt.error().message();
  EXPECT_EQ(rebuilt->servers().size(), 13u);
}

TEST(AuthServerEdge, ServesSignedZoneWithDnssecSections) {
  util::Rng rng(9);
  const crypto::SigningKey zsk = crypto::GenerateKey(crypto::kZskFlags, rng);
  zone::Zone plain;
  dns::SoaData soa;
  soa.minimum = 3600;
  ASSERT_TRUE(plain.AddRecord({Name(), RRType::kSOA, RRClass::kIN, 3600, soa})
                  .ok());
  ASSERT_TRUE(plain
                  .AddRecord({N("com."), RRType::kNS, RRClass::kIN, 172800,
                              dns::NsData{N("ns.nic.com.")}})
                  .ok());
  ASSERT_TRUE(plain
                  .AddRecord({N("com."), RRType::kDS, RRClass::kIN, 86400,
                              dns::DsData{1, 8, 2, {0xAB}}})
                  .ok());
  const zone::SnapshotPtr signed_zone =
      zone::ZoneSnapshot::Build(zone::SignZone(plain, zsk, {0, 10000}));
  rootsrv::AuthServer server(nullptr, signed_zone, {.include_dnssec = true});
  // The whole answer, decoded: over TCP, so never truncated.
  const auto ask = [&server](const dns::Message& query) {
    auto decoded =
        dns::DecodeMessage(server.AnswerWire(query, rootsrv::Channel::kTcp));
    EXPECT_TRUE(decoded.ok());
    return decoded.ok() ? *decoded : dns::Message{};
  };

  // Referral carries DS + RRSIG(DS).
  const auto referral = ask(dns::MakeQuery(1, N("www.x.com."), RRType::kA));
  bool has_ds = false, has_rrsig = false;
  for (const auto& rr : referral.authority) {
    has_ds |= rr.type == RRType::kDS;
    has_rrsig |= rr.type == RRType::kRRSIG;
  }
  EXPECT_TRUE(has_ds);
  EXPECT_TRUE(has_rrsig);

  // NXDOMAIN carries a signed covering NSEC.
  const auto denial = ask(dns::MakeQuery(2, N("junk.bogus."), RRType::kA));
  EXPECT_EQ(denial.header.rcode, dns::RCode::kNXDomain);
  bool has_nsec = false;
  for (const auto& rr : denial.authority) has_nsec |= rr.type == RRType::kNSEC;
  EXPECT_TRUE(has_nsec);
}

TEST(InterceptorEdge, DropAndReplaceAreCounted) {
  sim::Simulator sim;
  sim::Network net(sim, 3);
  int delivered = 0;
  util::Bytes last;
  const sim::NodeId a = net.AddNode(nullptr);
  const sim::NodeId b = net.AddNode([&](const sim::Datagram& d) {
    ++delivered;
    last = d.payload;
  });
  int seen = 0;
  net.set_interceptor([&](const sim::Datagram& d) -> sim::InterceptVerdict {
    ++seen;
    if (d.payload[0] == 1) return sim::InterceptVerdict::Drop();
    if (d.payload[0] == 2) {
      return sim::InterceptVerdict::Replace(
          sim::Datagram{.src = d.src, .dst = d.dst, .payload = util::Bytes{99}});
    }
    return sim::InterceptVerdict::Pass();
  });
  net.Send(a, b, {1});  // dropped
  net.Send(a, b, {2});  // replaced
  net.Send(a, b, {3});  // passed
  sim.Run();
  EXPECT_EQ(seen, 3);
  EXPECT_EQ(delivered, 2);
  EXPECT_EQ(net.stats().datagrams_intercepted, 2u);
  EXPECT_EQ(last, (util::Bytes{3}));
}

TEST(EvolutionEdge, ExtremeConfigsStayConsistent) {
  // One-TLD world.
  zone::EvolutionConfig tiny;
  tiny.seed = 1;
  tiny.legacy_tld_count = 1;
  tiny.peak_tld_count = 1;
  tiny.rotating_tld_count = 0;
  const zone::RootZoneModel tiny_model(tiny);
  // Before the new-gTLD era only the single legacy TLD exists (the model
  // always schedules ".llc" and a post-ramp trickle later on).
  EXPECT_EQ(tiny_model.TldCountOn({2013, 1, 1}), 1);
  const zone::Zone z = tiny_model.Snapshot({2013, 1, 1});
  EXPECT_EQ(z.DelegatedChildren().size(), 1u);
  EXPECT_NE(z.soa(), nullptr);

  // Heavy churn still yields valid, parseable zones.
  zone::EvolutionConfig churny;
  churny.seed = 2;
  churny.legacy_tld_count = 30;
  churny.peak_tld_count = 40;
  churny.daily_churn_events = 100.0;
  const zone::RootZoneModel churny_model(churny);
  const zone::Zone day1 = churny_model.Snapshot({2019, 5, 1});
  const zone::Zone day2 = churny_model.Snapshot({2019, 5, 2});
  const auto diff = zone::DiffSnapshots(*zone::ZoneSnapshot::Build(day1),
                                       *zone::ZoneSnapshot::Build(day2));
  EXPECT_GT(diff.change_count(), 1u);
  auto reparsed = zone::ParseMasterFile(
      zone::SerializeMasterFile(day2.AllRecords()));
  ASSERT_TRUE(reparsed.ok());
  EXPECT_EQ(reparsed->size(), day2.record_count());
}

TEST(ReportEdge, SeriesAndBannerHandleEmptyAndZero) {
  analysis::TimeSeries empty;
  const std::string out = analysis::RenderSeries(empty, "nothing");
  EXPECT_NE(out.find("(no data)"), std::string::npos);

  analysis::TimeSeries zeros;
  zeros.Set({2019, 1, 15}, 0.0);
  EXPECT_FALSE(analysis::RenderSeries(zeros, "zeros").empty());

  EXPECT_FALSE(analysis::Banner("").empty());
}

TEST(ZoneSignEdge, ResigningAfterChangeRevalidates) {
  util::Rng rng(12);
  const crypto::SigningKey zsk = crypto::GenerateKey(crypto::kZskFlags, rng);
  crypto::KeyStore store;
  store.AddKey(zsk);

  zone::EvolutionConfig config;
  config.legacy_tld_count = 10;
  config.peak_tld_count = 12;
  const zone::RootZoneModel model(config);
  const zone::Zone v1 = model.Snapshot({2019, 4, 1});
  const zone::Zone v2 = model.Snapshot({2019, 4, 10});

  const auto validate = [&](const zone::Zone& z) {
    return crypto::ValidateZoneRRsets(z.AllRRsets(), zsk.dnskey, store, 500);
  };
  const zone::Zone signed1 = zone::SignZone(v1, zsk, {0, 10000});
  const zone::Zone signed2 = zone::SignZone(v2, zsk, {0, 10000});
  EXPECT_TRUE(validate(signed1).ok());
  EXPECT_TRUE(validate(signed2).ok());
  // Mixing v2 data with v1 signatures must fail: splice one v2 RRset in.
  zone::Zone frankenstein = signed1;
  const auto children = v2.DelegatedChildren();
  const dns::RRset* donor = v2.Find(children.front(), RRType::kNS);
  ASSERT_NE(donor, nullptr);
  dns::RRset mutated = *donor;
  mutated.rdatas.push_back(dns::NsData{N("ns-injected.example.")});
  ASSERT_TRUE(frankenstein.RemoveRRset(mutated.key()));
  ASSERT_TRUE(frankenstein.AddRRset(mutated).ok());
  EXPECT_FALSE(validate(frankenstein).ok());
}

}  // namespace
}  // namespace rootless
