// Tests for the zone container, master-file parser, root hints, diff, RZC.
#include <gtest/gtest.h>

#include "util/rng.h"
#include "zone/master_file.h"
#include "zone/root_hints.h"
#include "zone/rzc.h"
#include "zone/zone.h"
#include "zone/zone_diff.h"
#include "zone/zone_snapshot.h"

namespace rootless::zone {
namespace {

using dns::Name;
using dns::ResourceRecord;
using dns::RRClass;
using dns::RRType;

Name N(std::string_view s) { return *Name::Parse(s); }

Zone SampleRootZone() {
  Zone zone;  // apex = "."
  dns::SoaData soa;
  soa.mname = N("a.root-servers.net.");
  soa.rname = N("nstld.verisign-grs.com.");
  soa.serial = 2019060700;
  EXPECT_TRUE(zone.AddRecord({Name(), RRType::kSOA, RRClass::kIN, 86400, soa})
                  .ok());
  EXPECT_TRUE(zone.AddRecord({Name(), RRType::kNS, RRClass::kIN, 518400,
                              dns::NsData{N("a.root-servers.net.")}})
                  .ok());
  // com. delegation with in-zone glue.
  EXPECT_TRUE(zone.AddRecord({N("com."), RRType::kNS, RRClass::kIN, 172800,
                              dns::NsData{N("a.gtld-servers.net.")}})
                  .ok());
  EXPECT_TRUE(zone.AddRecord({N("com."), RRType::kNS, RRClass::kIN, 172800,
                              dns::NsData{N("ns.nic.com.")}})
                  .ok());
  EXPECT_TRUE(zone.AddRecord({N("ns.nic.com."), RRType::kA, RRClass::kIN,
                              172800, dns::AData{*dns::Ipv4::Parse("192.0.2.9")}})
                  .ok());
  EXPECT_TRUE(zone.AddRecord({N("com."), RRType::kDS, RRClass::kIN, 86400,
                              dns::DsData{1, 8, 2, {0xAA}}})
                  .ok());
  // org. delegation without glue.
  EXPECT_TRUE(zone.AddRecord({N("org."), RRType::kNS, RRClass::kIN, 172800,
                              dns::NsData{N("a0.org.afilias-nst.info.")}})
                  .ok());
  return zone;
}

// ------------------------------------------------------------------ zone

TEST(Zone, AddAndFind) {
  const Zone zone = SampleRootZone();
  ASSERT_NE(zone.Find(N("com."), RRType::kNS), nullptr);
  EXPECT_EQ(zone.Find(N("com."), RRType::kNS)->size(), 2u);
  EXPECT_EQ(zone.Find(N("com."), RRType::kA), nullptr);
  EXPECT_TRUE(zone.HasName(N("com.")));
  EXPECT_FALSE(zone.HasName(N("net.")));
  EXPECT_EQ(zone.Serial(), 2019060700u);
}

TEST(Zone, RejectsOutOfZoneRecord) {
  Zone zone(N("com."));
  EXPECT_FALSE(
      zone.AddRecord({N("org."), RRType::kNS, RRClass::kIN, 60,
                      dns::NsData{N("ns.example.")}})
          .ok());
}

TEST(Zone, LookupReferral) {
  const Zone zone = SampleRootZone();
  const auto result = zone.Lookup(N("www.sigcomm.com."), RRType::kA);
  EXPECT_EQ(result.disposition, LookupDisposition::kReferral);
  ASSERT_EQ(result.authority.size(), 1u);
  EXPECT_EQ(result.authority[0].type, RRType::kNS);
  EXPECT_TRUE(result.authority[0].name == N("com."));
  // Glue for the in-zone nameserver only.
  ASSERT_EQ(result.additional.size(), 1u);
  EXPECT_TRUE(result.additional[0].name == N("ns.nic.com."));
}

TEST(Zone, LookupReferralAtDelegationName) {
  const Zone zone = SampleRootZone();
  // Query for com./NS at the root is a referral, not an answer: the root is
  // not authoritative for com.
  const auto result = zone.Lookup(N("com."), RRType::kNS);
  EXPECT_EQ(result.disposition, LookupDisposition::kReferral);
}

TEST(Zone, LookupDsAtDelegationIsAuthoritative) {
  const Zone zone = SampleRootZone();
  const auto result = zone.Lookup(N("com."), RRType::kDS);
  EXPECT_EQ(result.disposition, LookupDisposition::kAnswer);
  ASSERT_EQ(result.answers.size(), 1u);
  EXPECT_EQ(result.answers[0].type, RRType::kDS);
}

TEST(Zone, LookupReferralWithDnssecIncludesDs) {
  const Zone zone = SampleRootZone();
  const auto result = zone.Lookup(N("shop.example.com."), RRType::kA, true);
  EXPECT_EQ(result.disposition, LookupDisposition::kReferral);
  bool has_ds = false;
  for (const auto& s : result.authority) has_ds |= (s.type == RRType::kDS);
  EXPECT_TRUE(has_ds);
}

TEST(Zone, LookupNxDomain) {
  const Zone zone = SampleRootZone();
  const auto result = zone.Lookup(N("bogus-tld-query."), RRType::kA);
  EXPECT_EQ(result.disposition, LookupDisposition::kNxDomain);
  ASSERT_EQ(result.authority.size(), 1u);
  EXPECT_EQ(result.authority[0].type, RRType::kSOA);
}

TEST(Zone, LookupNoData) {
  const Zone zone = SampleRootZone();
  // org. exists (NS) but has no DS.
  const auto result = zone.Lookup(N("org."), RRType::kDS);
  EXPECT_EQ(result.disposition, LookupDisposition::kNoData);
}

TEST(Zone, LookupApexAnswer) {
  const Zone zone = SampleRootZone();
  const auto result = zone.Lookup(Name(), RRType::kSOA);
  EXPECT_EQ(result.disposition, LookupDisposition::kAnswer);
}

TEST(Zone, LookupOutOfZone) {
  Zone zone(N("com."));
  const auto result = zone.Lookup(N("example.org."), RRType::kA);
  EXPECT_EQ(result.disposition, LookupDisposition::kOutOfZone);
}

TEST(Zone, DelegatedChildren) {
  const Zone zone = SampleRootZone();
  const auto children = zone.DelegatedChildren();
  ASSERT_EQ(children.size(), 2u);
  EXPECT_TRUE(children[0] == N("com."));
  EXPECT_TRUE(children[1] == N("org."));
}

TEST(Zone, RecordAndRRsetCounts) {
  const Zone zone = SampleRootZone();
  EXPECT_EQ(zone.rrset_count(), 6u);
  EXPECT_EQ(zone.record_count(), 7u);  // com. NS set has 2 records
}

TEST(Zone, RemoveRRset) {
  Zone zone = SampleRootZone();
  EXPECT_TRUE(zone.RemoveRRset({N("com."), RRType::kDS, RRClass::kIN}));
  EXPECT_FALSE(zone.RemoveRRset({N("com."), RRType::kDS, RRClass::kIN}));
  EXPECT_EQ(zone.Find(N("com."), RRType::kDS), nullptr);
}

// ----------------------------------------------------------- master file

TEST(MasterFile, ParsesDirectivesAndRecords) {
  const std::string text = R"(
$ORIGIN .
$TTL 86400
.            518400  IN  NS  a.root-servers.net.
com.         172800  IN  NS  a.gtld-servers.net.
; comment line
org.                 IN  NS  a0.org.afilias-nst.info. ; trailing comment
)";
  auto records = ParseMasterFile(text);
  ASSERT_TRUE(records.ok()) << records.error().message();
  ASSERT_EQ(records->size(), 3u);
  EXPECT_EQ((*records)[0].ttl, 518400u);
  EXPECT_EQ((*records)[2].ttl, 86400u);  // $TTL default
  EXPECT_TRUE((*records)[1].name == N("com."));
}

TEST(MasterFile, OwnerInheritance) {
  const std::string text =
      "example.com. 300 IN NS ns1.example.com.\n"
      "             300 IN NS ns2.example.com.\n";
  auto records = ParseMasterFile(text);
  ASSERT_TRUE(records.ok()) << records.error().message();
  ASSERT_EQ(records->size(), 2u);
  EXPECT_TRUE((*records)[1].name == N("example.com."));
}

TEST(MasterFile, AtSignAndRelativeNames) {
  const std::string text =
      "$ORIGIN example.com.\n"
      "@   300 IN NS ns1\n"
      "www 300 IN CNAME @\n";
  auto records = ParseMasterFile(text);
  ASSERT_TRUE(records.ok()) << records.error().message();
  ASSERT_EQ(records->size(), 2u);
  EXPECT_TRUE((*records)[0].name == N("example.com."));
  EXPECT_TRUE(std::get<dns::NsData>((*records)[0].rdata).nameserver ==
              N("ns1.example.com."));
  EXPECT_TRUE((*records)[1].name == N("www.example.com."));
}

TEST(MasterFile, ParenthesesJoinLines) {
  const std::string text = R"(
example.com. 300 IN SOA ns1.example.com. admin.example.com. (
    2019060700 ; serial
    1800       ; refresh
    900        ; retry
    604800     ; expire
    86400 )    ; minimum
)";
  auto records = ParseMasterFile(text);
  ASSERT_TRUE(records.ok()) << records.error().message();
  ASSERT_EQ(records->size(), 1u);
  const auto& soa = std::get<dns::SoaData>((*records)[0].rdata);
  EXPECT_EQ(soa.serial, 2019060700u);
  EXPECT_EQ(soa.minimum, 86400u);
}

TEST(MasterFile, QuotedTxt) {
  const std::string text =
      "example.com. 60 IN TXT \"hello world\" \"and more\"\n";
  auto records = ParseMasterFile(text);
  ASSERT_TRUE(records.ok()) << records.error().message();
  const auto& txt = std::get<dns::TxtData>((*records)[0].rdata);
  ASSERT_EQ(txt.strings.size(), 2u);
  EXPECT_EQ(txt.strings[0], "hello world");
}

TEST(MasterFile, TtlAndClassInEitherOrder) {
  auto a = ParseMasterFile("example.com. IN 300 NS ns.example.com.\n");
  ASSERT_TRUE(a.ok()) << a.error().message();
  EXPECT_EQ((*a)[0].ttl, 300u);
  auto b = ParseMasterFile("example.com. 300 IN NS ns.example.com.\n");
  ASSERT_TRUE(b.ok());
  EXPECT_EQ((*a)[0].ttl, (*b)[0].ttl);
}

// Text that ends inside parentheses or a quoted string is truncated; every
// other failure, down to the rdata parsers the record loop calls, is
// corrupted text.
TEST(MasterFile, Errors) {
  for (const std::string_view text :
       {"com. 300 IN NS ( a.gtld-servers.net.\n", "( unbalanced\n",
        "x 1 IN TXT \"unterminated"}) {
    const auto result = ParseMasterFile(text);
    ASSERT_FALSE(result.ok()) << text;
    EXPECT_EQ(result.error().code(), ErrorCode::kTruncated)
        << text << ": " << result.error().message();
  }
  for (const std::string_view text : {
           "com. 300 IN NS a.gtld-servers.net. )\n",
           "x 1 IN TXT \"unterminated\n",
           "$ORIGIN\n",
           "$TTL forever\n",
           "$BOGUS directive\n",
           "bad..name. 300 IN A 192.0.2.1\n",
           "example.com. 99999999999 IN A 192.0.2.1\n",
           "example.com. 300 IN\n",
           "example.com. 300 IN BOGUSTYPE data\n",
           "example.com. 300 IN A 1.2.3\n",
           "example.com. 300 IN AAAA 2001:db8::1::2\n",
           "example.com. 300 IN MX ten mail.example.com.\n",
       }) {
    const auto result = ParseMasterFile(text);
    ASSERT_FALSE(result.ok()) << text;
    EXPECT_EQ(result.error().code(), ErrorCode::kCorrupted)
        << text << ": " << result.error().message();
  }
}

TEST(MasterFile, SerializeParseRoundTrip) {
  const Zone zone = SampleRootZone();
  const auto records = zone.AllRecords();
  const std::string text = SerializeMasterFile(records);
  auto reparsed = ParseMasterFile(text);
  ASSERT_TRUE(reparsed.ok()) << reparsed.error().message();
  ASSERT_EQ(reparsed->size(), records.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    EXPECT_TRUE((*reparsed)[i] == records[i]) << records[i].ToString();
  }
}

// ------------------------------------------------------------ root hints

TEST(RootHints, StandardHas13ServersAnd39Entries) {
  const RootHints hints = RootHints::Standard();
  EXPECT_EQ(hints.servers().size(), 13u);
  EXPECT_EQ(hints.entry_count(), 39u);  // the paper's count
  EXPECT_EQ(hints.ToRecords().size(), 39u);
}

TEST(RootHints, FileSizeIsRoughly3KB) {
  // The paper: "roughly 3KB".
  const std::size_t size = RootHints::Standard().FileSizeBytes();
  EXPECT_GT(size, 1500u);
  EXPECT_LT(size, 5000u);
}

TEST(RootHints, FindByLetter) {
  const RootHints hints = RootHints::Standard();
  const auto* j = hints.FindByLetter('j');
  ASSERT_NE(j, nullptr);
  EXPECT_EQ(j->ipv4.ToString(), "192.58.128.30");
  EXPECT_EQ(hints.FindByLetter('z'), nullptr);
}

TEST(RootHints, RoundTripThroughRecords) {
  const RootHints hints = RootHints::Standard();
  auto rebuilt = RootHints::FromRecords(hints.ToRecords());
  ASSERT_TRUE(rebuilt.ok()) << rebuilt.error().message();
  EXPECT_EQ(rebuilt->servers().size(), 13u);
  EXPECT_EQ(rebuilt->FindByLetter('m')->ipv4.ToString(), "202.12.27.33");
}

TEST(RootHints, AllRecordsUseHintsTtl) {
  for (const auto& rr : RootHints::Standard().ToRecords()) {
    EXPECT_EQ(rr.ttl, kRootHintsTtl);
  }
}

// ------------------------------------------------------------------ diff

ZoneDiff Diff(const Zone& old_zone, const Zone& new_zone) {
  return DiffSnapshots(*ZoneSnapshot::Build(old_zone),
                       *ZoneSnapshot::Build(new_zone));
}

// Applies `diff` to `base` and checks the result has `want`'s content.
void ExpectApplyGives(const Zone& base, const ZoneDiff& diff,
                      const Zone& want) {
  auto patched = ZoneSnapshot::Apply(ZoneSnapshot::Build(base), diff);
  ASSERT_TRUE(patched.ok()) << patched.error().message();
  EXPECT_TRUE((*patched)->SameContent(*ZoneSnapshot::Build(want)));
}

TEST(ZoneDiff, DetectsAddRemoveChange) {
  Zone old_zone = SampleRootZone();
  Zone new_zone = SampleRootZone();
  // add net.
  ASSERT_TRUE(new_zone
                  .AddRecord({N("net."), RRType::kNS, RRClass::kIN, 172800,
                              dns::NsData{N("a.gtld-servers.net.")}})
                  .ok());
  // remove org.
  ASSERT_TRUE(new_zone.RemoveRRset({N("org."), RRType::kNS, RRClass::kIN}));
  // change com. NS
  ASSERT_TRUE(new_zone.RemoveRRset({N("com."), RRType::kNS, RRClass::kIN}));
  ASSERT_TRUE(new_zone
                  .AddRecord({N("com."), RRType::kNS, RRClass::kIN, 172800,
                              dns::NsData{N("c.gtld-servers.net.")}})
                  .ok());

  const ZoneDiff diff = Diff(old_zone, new_zone);
  EXPECT_EQ(diff.added.size(), 1u);
  EXPECT_EQ(diff.removed.size(), 1u);
  EXPECT_EQ(diff.changed.size(), 1u);
  EXPECT_EQ(diff.change_count(), 3u);
  EXPECT_FALSE(diff.empty());
}

TEST(ZoneDiff, IdenticalZonesProduceEmptyDiff) {
  const Zone zone = SampleRootZone();
  EXPECT_TRUE(Diff(zone, zone).empty());
}

TEST(ZoneDiff, ApplyReconstructsNewZone) {
  Zone old_zone = SampleRootZone();
  Zone new_zone = SampleRootZone();
  ASSERT_TRUE(new_zone
                  .AddRecord({N("dev."), RRType::kNS, RRClass::kIN, 172800,
                              dns::NsData{N("ns1.nic.dev.")}})
                  .ok());
  ASSERT_TRUE(new_zone.RemoveRRset({N("com."), RRType::kDS, RRClass::kIN}));

  ExpectApplyGives(old_zone, Diff(old_zone, new_zone), new_zone);
}

TEST(ZoneDiff, ApplyFailsOnMissingKey) {
  ZoneDiff diff;
  diff.removed.push_back({N("nonexistent."), RRType::kNS, RRClass::kIN});
  EXPECT_FALSE(
      ZoneSnapshot::Apply(ZoneSnapshot::Build(SampleRootZone()), diff).ok());
}

TEST(ZoneDiff, SerializationRoundTrip) {
  Zone old_zone = SampleRootZone();
  Zone new_zone = SampleRootZone();
  ASSERT_TRUE(new_zone
                  .AddRecord({N("app."), RRType::kNS, RRClass::kIN, 172800,
                              dns::NsData{N("ns1.nic.app.")}})
                  .ok());
  ASSERT_TRUE(new_zone.RemoveRRset({N("org."), RRType::kNS, RRClass::kIN}));

  const auto wire = SerializeDiff(Diff(old_zone, new_zone));
  auto decoded = DeserializeDiff(wire);
  ASSERT_TRUE(decoded.ok()) << decoded.error().message();
  ExpectApplyGives(old_zone, *decoded, new_zone);
}

TEST(ZoneDiff, DeserializeRejectsGarbage) {
  util::Bytes junk = {1, 2, 3, 4, 5};
  EXPECT_FALSE(DeserializeDiff(junk).ok());
}

// ------------------------------------------------------------------- rzc

TEST(Rzc, RoundTripText) {
  const std::string text =
      "com. 172800 IN NS a.gtld-servers.net.\n"
      "com. 172800 IN NS b.gtld-servers.net.\n"
      "net. 172800 IN NS a.gtld-servers.net.\n";
  const auto compressed = RzcCompressText(text);
  auto decompressed = RzcDecompressText(compressed);
  ASSERT_TRUE(decompressed.ok()) << decompressed.error().message();
  EXPECT_EQ(*decompressed, text);
}

TEST(Rzc, EmptyInput) {
  const auto compressed = RzcCompressText("");
  auto decompressed = RzcDecompressText(compressed);
  ASSERT_TRUE(decompressed.ok());
  EXPECT_EQ(*decompressed, "");
}

TEST(Rzc, CompressesRepetitiveZoneText) {
  // Zone files are highly repetitive; expect a solid ratio.
  std::string text;
  for (int i = 0; i < 2000; ++i) {
    text += "tld" + std::to_string(i) +
            ". 172800 IN NS ns1.dns-operator-shared.net.\n";
  }
  const auto compressed = RzcCompressText(text);
  EXPECT_LT(compressed.size(), text.size() / 3);
  auto decompressed = RzcDecompressText(compressed);
  ASSERT_TRUE(decompressed.ok());
  EXPECT_EQ(*decompressed, text);
}

TEST(Rzc, RejectsCorruptInput) {
  const auto compressed = RzcCompressText("some zone data some zone data");
  EXPECT_FALSE(RzcDecompress(util::Bytes{1, 2, 3, 4, 5, 6}).ok());
  auto truncated = compressed;
  truncated.resize(truncated.size() / 2);
  EXPECT_FALSE(RzcDecompress(truncated).ok());
  auto flipped = compressed;
  flipped[flipped.size() - 1] ^= 0xFF;
  // Either an error or a size mismatch — must not crash or return wrong data
  // silently claiming success with matching size.
  auto result = RzcDecompress(flipped);
  if (result.ok()) {
    EXPECT_EQ(result->size(), 29u);
  }
}

TEST(RzcProperty, RandomBuffersRoundTrip) {
  util::Rng rng(4242);
  for (int trial = 0; trial < 100; ++trial) {
    util::Bytes data(rng.Below(5000));
    // Mix of random and repetitive content.
    const bool repetitive = rng.Chance(0.5);
    for (std::size_t i = 0; i < data.size(); ++i) {
      data[i] = repetitive ? static_cast<std::uint8_t>(i % 17)
                           : static_cast<std::uint8_t>(rng.Below(256));
    }
    const auto compressed = RzcCompress(data);
    auto decompressed = RzcDecompress(compressed);
    ASSERT_TRUE(decompressed.ok());
    EXPECT_EQ(*decompressed, data);
  }
}

}  // namespace
}  // namespace rootless::zone
