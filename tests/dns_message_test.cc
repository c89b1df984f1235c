// Tests for rdata presentation/wire forms and the message codec.
#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "crypto/dnssec.h"
#include "dns/message.h"
#include "dns/rdata.h"
#include "dns/rr.h"
#include "util/base64.h"
#include "util/rng.h"
#include "util/strings.h"
#include "zone/evolution.h"
#include "zone/sign.h"
#include "zone/zone_snapshot.h"

namespace rootless::dns {
namespace {

Name N(std::string_view s) { return *Name::Parse(s); }

// ------------------------------------------------------------- addresses

TEST(Ipv4, ParseAndFormat) {
  auto a = Ipv4::Parse("198.41.0.4");
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(a->ToString(), "198.41.0.4");
  EXPECT_EQ(a->addr, 0xC6290004u);
  EXPECT_FALSE(Ipv4::Parse("1.2.3").ok());
  EXPECT_FALSE(Ipv4::Parse("1.2.3.256").ok());
  EXPECT_FALSE(Ipv4::Parse("a.b.c.d").ok());
}

TEST(Ipv6, ParseAndFormat) {
  auto a = Ipv6::Parse("2001:503:ba3e::2:30");
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(a->ToString(), "2001:503:ba3e::2:30");
  auto loopback = Ipv6::Parse("::1");
  ASSERT_TRUE(loopback.ok());
  EXPECT_EQ(loopback->ToString(), "::1");
  auto zero = Ipv6::Parse("::");
  ASSERT_TRUE(zero.ok());
  EXPECT_EQ(zero->ToString(), "::");
  auto full = Ipv6::Parse("2001:db8:1:2:3:4:5:6");
  ASSERT_TRUE(full.ok());
  EXPECT_EQ(full->ToString(), "2001:db8:1:2:3:4:5:6");
  EXPECT_FALSE(Ipv6::Parse("1::2::3").ok());
  EXPECT_FALSE(Ipv6::Parse("1:2:3").ok());
  EXPECT_FALSE(Ipv6::Parse("12345::").ok());
}

// ----------------------------------------------------------------- types

TEST(Types, RoundTrip) {
  EXPECT_EQ(RRTypeToString(RRType::kNS), "NS");
  EXPECT_EQ(*RRTypeFromString("aaaa"), RRType::kAAAA);
  EXPECT_EQ(RRTypeToString(static_cast<RRType>(999)), "TYPE999");
  EXPECT_EQ(*RRTypeFromString("TYPE999"), static_cast<RRType>(999));
  EXPECT_FALSE(RRTypeFromString("NOPE").ok());
  EXPECT_EQ(*RRClassFromString("in"), RRClass::kIN);
  EXPECT_EQ(RCodeToString(RCode::kNXDomain), "NXDOMAIN");
}

// ----------------------------------------------------------------- rdata

template <typename T>
void ExpectRdataRoundTrip(RRType type, const T& data) {
  const Rdata rdata(data);
  util::ByteWriter w;
  EncodeRdata(rdata, w);
  util::ByteReader r(w.span());
  auto decoded = DecodeRdata(type, w.size(), r);
  ASSERT_TRUE(decoded.ok()) << decoded.error().message();
  EXPECT_TRUE(rdata == *decoded);

  // Presentation round trip.
  const std::string text = RdataToString(rdata);
  std::vector<std::string_view> fields;
  for (auto f : util::SplitWhitespace(text)) fields.push_back(f);
  // TXT strings carry quotes that the zone parser strips; skip reparse.
  if (type != RRType::kTXT) {
    auto reparsed = RdataFromFields(type, fields);
    ASSERT_TRUE(reparsed.ok()) << text << ": " << reparsed.error().message();
    EXPECT_TRUE(rdata == *reparsed) << text;
  }
}

TEST(Rdata, RoundTrips) {
  ExpectRdataRoundTrip(RRType::kA, AData{*Ipv4::Parse("192.0.2.1")});
  ExpectRdataRoundTrip(RRType::kAAAA, AaaaData{*Ipv6::Parse("2001:db8::1")});
  ExpectRdataRoundTrip(RRType::kNS, NsData{N("a.root-servers.net")});
  ExpectRdataRoundTrip(RRType::kCNAME, CnameData{N("target.example.")});
  ExpectRdataRoundTrip(RRType::kSOA,
                       SoaData{N("a.root-servers.net"), N("nstld.verisign-grs.com"),
                               2019041100, 1800, 900, 604800, 86400});
  ExpectRdataRoundTrip(RRType::kMX, MxData{10, N("mail.example.com")});
  ExpectRdataRoundTrip(RRType::kTXT, TxtData{{"hello world", "second"}});
  ExpectRdataRoundTrip(RRType::kDS,
                       DsData{20326, 8, 2, util::Bytes{0xDE, 0xAD, 0xBE, 0xEF}});
  ExpectRdataRoundTrip(RRType::kDNSKEY,
                       DnskeyData{257, 3, 8, util::Bytes{1, 2, 3, 4, 5}});
  ExpectRdataRoundTrip(
      RRType::kRRSIG,
      RrsigData{RRType::kNS, 8, 1, 172800, 1555555555, 1554555555, 20326,
                Name(), util::Bytes{9, 9, 9}});
  ExpectRdataRoundTrip(RRType::kNSEC,
                       NsecData{N("aaa."), {RRType::kNS, RRType::kDS,
                                            RRType::kRRSIG}});
}

TEST(Rdata, RawRoundTrip) {
  const RawData raw{util::Bytes{0xCA, 0xFE}};
  util::ByteWriter w;
  EncodeRdata(Rdata(raw), w);
  util::ByteReader r(w.span());
  auto decoded = DecodeRdata(static_cast<RRType>(4242), 2, r);
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(Rdata(raw) == *decoded);
  EXPECT_EQ(RdataToString(*decoded), "\\# 2 cafe");
  auto reparsed = RdataFromFields(static_cast<RRType>(4242),
                                  {"\\#", "2", "cafe"});
  ASSERT_TRUE(reparsed.ok());
  EXPECT_TRUE(Rdata(raw) == *reparsed);
}

TEST(Rdata, DecodeRejectsTruncatedAndTrailing) {
  util::Bytes wire = {1, 2, 3};  // 3 bytes, A needs 4
  util::ByteReader r(wire);
  EXPECT_FALSE(DecodeRdata(RRType::kA, 3, r).ok());

  util::Bytes wire5 = {1, 2, 3, 4, 5};
  util::ByteReader r5(wire5);
  EXPECT_FALSE(DecodeRdata(RRType::kA, 5, r5).ok());
}

TEST(Rdata, RelativeNamesUseOrigin) {
  auto origin = N("com.");
  auto rdata = RdataFromFields(RRType::kNS, {"ns1.nic"}, origin);
  ASSERT_TRUE(rdata.ok());
  EXPECT_TRUE(std::get<NsData>(*rdata).nameserver == N("ns1.nic.com."));
  auto absolute = RdataFromFields(RRType::kNS, {"ns1.nic."}, origin);
  ASSERT_TRUE(absolute.ok());
  EXPECT_TRUE(std::get<NsData>(*absolute).nameserver == N("ns1.nic."));
}

TEST(Rdata, NsecTypeBitmapWindows) {
  // Type 4242 lives in window 16; exercises multi-window bitmaps.
  NsecData nsec{N("next."), {RRType::kA, static_cast<RRType>(4242)}};
  ExpectRdataRoundTrip(RRType::kNSEC, nsec);
}

// RDLENGTH is 16 bits, so no rdata may encode to more than 65,535 bytes:
// the decoder and the presentation parser refuse one that would.
TEST(Rdata, LongerThanRdlengthIsRefused) {
  const util::Bytes bytes(kMaxRdataLength + 1, 0xAB);
  util::ByteReader r(bytes);
  const auto raw = DecodeRdata(static_cast<RRType>(65280), bytes.size(), r);
  ASSERT_FALSE(raw.ok());
  EXPECT_EQ(raw.error().code(), ErrorCode::kCorrupted);

  const auto from_hex = [](RRType type, std::size_t n) {
    const std::string hex = util::HexEncode(util::Bytes(n, 0xAB));
    return RdataFromFields(type, {"\\#", std::to_string(n), hex});
  };
  EXPECT_TRUE(from_hex(static_cast<RRType>(65280), kMaxRdataLength).ok());
  EXPECT_FALSE(from_hex(static_cast<RRType>(65280), kMaxRdataLength + 1).ok());

  // DNSKEY: flags, protocol and algorithm take 4 bytes beside the key.
  const auto dnskey = [](std::size_t key_bytes) {
    const std::string key = util::Base64Encode(util::Bytes(key_bytes, 7));
    return RdataFromFields(RRType::kDNSKEY, {"256", "3", "8", key});
  };
  EXPECT_TRUE(dnskey(kMaxRdataLength - 4).ok());
  EXPECT_FALSE(dnskey(kMaxRdataLength - 3).ok());

  // TXT: 257 strings of 255 bytes take 257 * 256 bytes.
  const std::string part(255, 't');
  const std::vector<std::string_view> parts(257, part);
  EXPECT_FALSE(RdataFromFields(RRType::kTXT, parts).ok());
}

// ----------------------------------------------------------------- rrset

TEST(RRset, GroupIntoRRsets) {
  std::vector<ResourceRecord> records;
  records.push_back({N("com."), RRType::kNS, RRClass::kIN, 172800,
                     NsData{N("a.gtld-servers.net.")}});
  records.push_back({N("com."), RRType::kNS, RRClass::kIN, 172000,
                     NsData{N("b.gtld-servers.net.")}});
  records.push_back({N("org."), RRType::kNS, RRClass::kIN, 172800,
                     NsData{N("a0.org.afilias-nst.info.")}});
  // duplicate rdata dropped
  records.push_back({N("com."), RRType::kNS, RRClass::kIN, 172800,
                     NsData{N("a.gtld-servers.net.")}});

  const auto sets = GroupIntoRRsets(records);
  ASSERT_EQ(sets.size(), 2u);
  EXPECT_EQ(sets[0].size(), 2u);
  EXPECT_EQ(sets[0].ttl, 172000u);  // min TTL
  EXPECT_EQ(sets[1].size(), 1u);

  const auto expanded = sets[0].ToRecords();
  EXPECT_EQ(expanded.size(), 2u);
  EXPECT_EQ(expanded[0].ttl, 172000u);
}

// --------------------------------------------------------------- message

Message SampleReferral() {
  Message m;
  m.header.id = 4242;
  m.header.qr = true;
  m.header.aa = false;
  m.questions.push_back({N("www.sigcomm.org."), RRType::kA, RRClass::kIN});
  m.authority.push_back({N("org."), RRType::kNS, RRClass::kIN, 172800,
                         NsData{N("a0.org.afilias-nst.info.")}});
  m.authority.push_back({N("org."), RRType::kNS, RRClass::kIN, 172800,
                         NsData{N("b0.org.afilias-nst.org.")}});
  m.additional.push_back({N("a0.org.afilias-nst.info."), RRType::kA,
                          RRClass::kIN, 172800,
                          AData{*Ipv4::Parse("199.19.56.1")}});
  return m;
}

TEST(Message, RoundTrip) {
  const Message m = SampleReferral();
  const auto wire = EncodeMessage(m);
  auto decoded = DecodeMessage(wire);
  ASSERT_TRUE(decoded.ok()) << decoded.error().message();
  EXPECT_EQ(*decoded, m);
}

TEST(Message, HeaderFlagsRoundTrip) {
  Message m;
  m.header.id = 7;
  m.header.qr = true;
  m.header.aa = true;
  m.header.tc = false;
  m.header.rd = true;
  m.header.ra = true;
  m.header.opcode = Opcode::kNotify;
  m.header.rcode = RCode::kNXDomain;
  const auto wire = EncodeMessage(m);
  auto decoded = DecodeMessage(wire);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->header, m.header);
}

TEST(Message, CompressionShrinksRepeatedNames) {
  const Message m = SampleReferral();
  const auto wire = EncodeMessage(m);
  // Uncompressed lower bound: each "org." repetition costs 5 bytes; with
  // compression the second occurrence is a 2-byte pointer. Just assert the
  // encoded form is smaller than the naive sum of parts.
  std::size_t naive = 12;
  for (const auto& q : m.questions) naive += q.name.wire_length() + 4;
  auto record_size = [](const ResourceRecord& rr) {
    util::ByteWriter w;
    EncodeRdata(rr.rdata, w);
    return rr.name.wire_length() + 10 + w.size();
  };
  for (const auto& rr : m.authority) naive += record_size(rr);
  for (const auto& rr : m.additional) naive += record_size(rr);
  EXPECT_LT(wire.size(), naive);
}

TEST(Message, TruncationDropsRecordsAndSetsTc) {
  Message m = SampleReferral();
  const auto full = EncodeMessage(m);
  const auto truncated = EncodeMessage(m, full.size() - 1);
  ASSERT_LT(truncated.size(), full.size());
  auto decoded = DecodeMessage(truncated);
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(decoded->header.tc);
  EXPECT_LT(decoded->record_count(), m.record_count());
}

// The back-to-front re-encode loop EncodeMessage used before it learned to
// cut a single encoding at a record boundary, kept as the truncation oracle:
// encode everything; while the wire is over `max_size`, drop the last record
// (additional, then authority, then answers) and re-encode with TC set.
util::Bytes ReencodeTruncation(const Message& m, std::size_t max_size) {
  const auto encode = [&](std::size_t an, std::size_t ns, std::size_t ar,
                          bool tc) {
    Message prefix = m;
    prefix.header.tc = false;
    prefix.answers.erase(prefix.answers.begin() + an, prefix.answers.end());
    prefix.authority.erase(prefix.authority.begin() + ns,
                           prefix.authority.end());
    prefix.additional.erase(prefix.additional.begin() + ar,
                            prefix.additional.end());
    util::Bytes wire = EncodeMessage(prefix);
    if (tc) wire[2] |= 0x02;
    return wire;
  };
  std::size_t an = m.answers.size(), ns = m.authority.size(),
              ar = m.additional.size();
  util::Bytes wire = encode(an, ns, ar, false);
  if (max_size == 0 || wire.size() <= max_size) return wire;
  while (an + ns + ar > 0) {
    if (ar > 0) --ar;
    else if (ns > 0) --ns;
    else --an;
    wire = encode(an, ns, ar, true);
    if (wire.size() <= max_size) return wire;
  }
  return wire;
}

// Both encoders against the oracle at every size limit, on real responses
// from the signed model root zone: a DNSSEC referral (NS, DS, RRSIG, glue),
// an NXDOMAIN (SOA, NSEC and their RRSIGs) and the `. DNSKEY` answer, each
// with the OPT echo last in additional as the server sends it. The query's
// TC bit is set: the encoder must clear it whenever nothing is dropped.
TEST(Message, OnePassTruncationMatchesReencodeOracle) {
  const zone::RootZoneModel model;
  util::Rng rng(7);
  const crypto::SigningKey zsk = crypto::GenerateKey(crypto::kZskFlags, rng);
  const zone::SnapshotPtr snapshot = zone::ZoneSnapshot::Build(
      zone::SignZone(model.Snapshot({2018, 4, 11}), zsk, {0, 2'000'000'000}));
  const Name root;

  const std::pair<const char*, RRType> cases[] = {
      {"www.com.", RRType::kA},
      {"no-such-tld-xyzzy.", RRType::kA},
      {".", RRType::kDNSKEY},
  };
  for (const auto& [qname, qtype] : cases) {
    SCOPED_TRACE(qname);
    const zone::LookupView lookup = snapshot->Lookup(N(qname), qtype, true);
    MessageView view;
    view.header.id = 0xBEEF;
    view.header.qr = true;
    view.header.tc = true;
    view.header.rd = true;
    view.questions.push_back({N(qname), qtype, RRClass::kIN});
    view.answers = lookup.answers;
    view.authority = lookup.authority;
    view.additional = lookup.additional;
    view.additional.push_back(RRsetView{&root, RRType::kOPT,
                                        static_cast<RRClass>(1232), 0,
                                        RdataRun::OneEmpty()});

    Message owned;
    owned.header = view.header;
    owned.questions = view.questions;
    const auto expand = [](const std::vector<RRsetView>& sets,
                           std::vector<ResourceRecord>& out) {
      for (const auto& set : sets) {
        for (const auto wire : set.rdatas) {
          out.push_back({*set.name, set.type, set.rrclass, set.ttl,
                         RdataRun::Decode(set.type, wire)});
        }
      }
    };
    expand(view.answers, owned.answers);
    expand(view.authority, owned.authority);
    expand(view.additional, owned.additional);

    const util::Bytes full = ReencodeTruncation(owned, 0);
    ASSERT_EQ(full[2] & 0x02, 0);
    ASSERT_GE(owned.record_count(), 3u);
    std::size_t truncated = 0;
    // One writer kept across every limit, as a server keeps one: a shorter
    // encoding after a longer one leaves nothing of the longer behind.
    util::ByteWriter writer;
    for (std::size_t max = 12; max <= full.size() + 1; ++max) {
      const util::Bytes want = ReencodeTruncation(owned, max);
      ASSERT_EQ(EncodeMessage(owned, max), want) << "max_size=" << max;
      ASSERT_EQ(EncodeMessage(view, max), want) << "max_size=" << max;
      EncodeMessage(view, 0, writer);
      EncodeMessage(view, max, writer);
      ASSERT_EQ(writer.data(), want) << "max_size=" << max;
      if (want[2] & 0x02) ++truncated;
    }
    EXPECT_EQ(EncodeMessage(owned), full);
    EXPECT_EQ(EncodeMessage(view), full);
    EXPECT_EQ(truncated, full.size() - 12);  // every limit below full drops
  }
}

// Views of `sets` over rdatas stored in `arena`, back to back in set order,
// as a snapshot page stores them.
std::vector<RRsetView> StoredViews(const std::vector<RRset>& sets,
                                   util::ByteWriter& arena) {
  std::size_t count = 0;
  for (const RRset& set : sets) {
    for (const Rdata& rd : set.rdatas) RdataRun::Append(rd, arena);
    count += set.size();
  }
  std::vector<RRsetView> views;
  RdataRun rest(arena.span(), count);
  for (const RRset& set : sets) {
    views.push_back(RRsetView{&set.name, set.type, set.rrclass, set.ttl,
                              rest.first(set.size())});
    rest = rest.subspan(set.size());
  }
  return views;
}

// Encoded messages hold no spare capacity: a server keeps answers (the
// answer cache, a bench's reference set), so every byte of slack is resident.
TEST(Message, EncodeReturnsExactSizeBuffers) {
  const Message owned = SampleReferral();
  std::vector<RRset> sets;
  for (const auto* section : {&owned.authority, &owned.additional}) {
    for (const RRset& set : GroupIntoRRsets(*section)) sets.push_back(set);
  }
  util::ByteWriter arena;
  const std::vector<RRsetView> stored = StoredViews(sets, arena);
  MessageView view;
  view.header = owned.header;
  view.questions = owned.questions;
  view.authority = {stored[0]};
  view.additional = {stored[1]};

  const util::Bytes full = EncodeMessage(owned);
  for (const std::size_t max : {std::size_t{0}, std::size_t{512},
                                full.size() - 1, std::size_t{12}}) {
    SCOPED_TRACE(max);
    const util::Bytes from_owned = EncodeMessage(owned, max);
    const util::Bytes from_view = EncodeMessage(view, max);
    EXPECT_EQ(from_owned.capacity(), from_owned.size());
    EXPECT_EQ(from_view.capacity(), from_view.size());
    EXPECT_EQ(from_view, from_owned);
    util::ByteWriter writer;
    EncodeMessage(owned, max, writer);
    const util::Bytes copied = writer.Copy();
    EXPECT_EQ(copied, from_owned);
    EXPECT_EQ(copied.capacity(), copied.size());
  }
}

TEST(Message, DecodeRejectsGarbage) {
  util::Bytes junk = {1, 2, 3};
  EXPECT_FALSE(DecodeMessage(junk).ok());

  // Trailing bytes after a valid message.
  auto wire = EncodeMessage(SampleReferral());
  wire.push_back(0);
  EXPECT_FALSE(DecodeMessage(wire).ok());
}

TEST(Message, MakeQueryAndResponse) {
  const Message q = MakeQuery(99, N("example.com."), RRType::kA, true);
  EXPECT_FALSE(q.header.qr);
  EXPECT_TRUE(q.header.rd);
  ASSERT_EQ(q.questions.size(), 1u);

  const Message r = MakeResponse(q, RCode::kNoError);
  EXPECT_TRUE(r.header.qr);
  EXPECT_EQ(r.header.id, 99);
  EXPECT_EQ(r.questions, q.questions);
}

// Property test: random well-formed messages round-trip.
TEST(MessageProperty, RandomRoundTrips) {
  util::Rng rng(777);
  for (int trial = 0; trial < 200; ++trial) {
    Message m;
    m.header.id = static_cast<std::uint16_t>(rng.Below(65536));
    m.header.qr = rng.Chance(0.5);
    m.header.rd = rng.Chance(0.5);
    m.header.rcode = rng.Chance(0.2) ? RCode::kNXDomain : RCode::kNoError;

    auto random_name = [&rng]() {
      std::vector<std::string> labels;
      const std::size_t count = 1 + rng.Below(4);
      static const char* kPool[] = {"com", "net", "example", "www", "ns1",
                                    "nic", "a", "xn--abc", "long-label-here"};
      for (std::size_t i = 0; i < count; ++i) {
        labels.push_back(kPool[rng.Below(std::size(kPool))]);
      }
      return *Name::FromLabels(labels);
    };

    m.questions.push_back({random_name(), RRType::kA, RRClass::kIN});
    const std::size_t answers = rng.Below(4);
    for (std::size_t i = 0; i < answers; ++i) {
      switch (rng.Below(3)) {
        case 0:
          m.answers.push_back(
              {random_name(), RRType::kA, RRClass::kIN,
               static_cast<std::uint32_t>(rng.Below(172800)),
               AData{Ipv4{static_cast<std::uint32_t>(rng.Next())}}});
          break;
        case 1:
          m.answers.push_back({random_name(), RRType::kNS, RRClass::kIN, 3600,
                               NsData{random_name()}});
          break;
        default:
          m.answers.push_back({random_name(), RRType::kTXT, RRClass::kIN, 60,
                               TxtData{{"payload"}}});
      }
    }
    const auto wire = EncodeMessage(m);
    auto decoded = DecodeMessage(wire);
    ASSERT_TRUE(decoded.ok()) << decoded.error().message();
    EXPECT_EQ(*decoded, m);
  }
}

}  // namespace
}  // namespace rootless::dns
