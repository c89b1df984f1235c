// Robustness "fuzz" properties: every parser in the library must reject or
// accept arbitrary and mutated inputs without crashing, hanging, or reading
// out of bounds — malformed network input is data, not a programming error.
#include <gtest/gtest.h>

#include "crypto/dnssec.h"
#include "distrib/axfr_stream.h"
#include "distrib/diff_channel.h"
#include "rootsrv/auth_server.h"
#include "sim/network.h"
#include "sim/simulator.h"
#include "distrib/rsync.h"
#include "dns/message.h"
#include "util/rng.h"
#include "zone/evolution.h"
#include "zone/master_file.h"
#include "zone/rzc.h"
#include "zone/sign.h"
#include "zone/snapshot.h"
#include "zone/zone_snapshot.h"
#include "zone/zone_diff.h"

namespace rootless {
namespace {

util::Bytes RandomBytes(util::Rng& rng, std::size_t max_len) {
  util::Bytes out(rng.Below(max_len + 1));
  for (auto& b : out) b = static_cast<std::uint8_t>(rng.Below(256));
  return out;
}

// The model zone of 2019-04-`day`.
zone::SnapshotPtr ModelSnapshot(const zone::RootZoneModel& model, int day) {
  return zone::ZoneSnapshot::Build(model.Snapshot({2019, 4, day}));
}

// Flip/insert/delete a few bytes of a valid input.
util::Bytes Mutate(const util::Bytes& input, util::Rng& rng) {
  util::Bytes out = input;
  const int edits = 1 + static_cast<int>(rng.Below(8));
  for (int e = 0; e < edits && !out.empty(); ++e) {
    const std::size_t pos = rng.Below(out.size());
    switch (rng.Below(3)) {
      case 0: out[pos] ^= static_cast<std::uint8_t>(1 + rng.Below(255)); break;
      case 1:
        out.insert(out.begin() + pos,
                   static_cast<std::uint8_t>(rng.Below(256)));
        break;
      default: out.erase(out.begin() + pos);
    }
  }
  return out;
}

TEST(Fuzz, MessageDecoderNeverCrashes) {
  util::Rng rng(101);
  // Pure random buffers.
  for (int i = 0; i < 2000; ++i) {
    const auto junk = RandomBytes(rng, 300);
    auto result = dns::DecodeMessage(junk);
    if (result.ok()) {
      // If it decoded, re-encoding must not crash either.
      (void)dns::EncodeMessage(*result);
    }
  }
  // Mutations of a real message (much more likely to reach deep paths).
  dns::Message m = dns::MakeQuery(1, *dns::Name::Parse("www.example.com."),
                                  dns::RRType::kA);
  m.header.qr = true;
  m.answers.push_back({*dns::Name::Parse("www.example.com."), dns::RRType::kA,
                       dns::RRClass::kIN, 300,
                       dns::AData{*dns::Ipv4::Parse("192.0.2.1")}});
  const auto valid = dns::EncodeMessage(m);
  for (int i = 0; i < 3000; ++i) {
    const auto mutated = Mutate(valid, rng);
    auto result = dns::DecodeMessage(mutated);
    if (result.ok()) (void)dns::EncodeMessage(*result);
  }
}

// A decode failure says what went wrong: the input ended early
// (kTruncated) or is present but malformed (kCorrupted).
template <typename T>
void ExpectCodedFailure(const util::Result<T>& result) {
  if (result.ok()) return;
  const ErrorCode code = result.error().code();
  EXPECT_TRUE(code == ErrorCode::kTruncated || code == ErrorCode::kCorrupted)
      << ErrorCodeName(code) << ": " << result.error().message();
}

// Master-file text either fails with a code or parses to records that
// survive a serialize/parse round trip unchanged.
void ExpectMasterFileFixpoint(std::string_view text) {
  const auto parsed = zone::ParseMasterFile(text);
  if (!parsed.ok()) {
    ExpectCodedFailure(parsed);
    return;
  }
  const auto again = zone::ParseMasterFile(zone::SerializeMasterFile(*parsed));
  ASSERT_TRUE(again.ok()) << again.error().message();
  EXPECT_TRUE(*again == *parsed) << text;
}

TEST(Fuzz, MasterFileParserNeverCrashes) {
  util::Rng rng(103);
  const std::string valid =
      "$TTL 3600\ncom. 172800 IN NS a.gtld-servers.net.\n"
      "a.gtld-servers.net. IN A 192.5.6.30\n";
  for (int i = 0; i < 2000; ++i) {
    std::string text = valid;
    const int edits = 1 + static_cast<int>(rng.Below(6));
    for (int e = 0; e < edits && !text.empty(); ++e) {
      const std::size_t pos = rng.Below(text.size());
      switch (rng.Below(3)) {
        case 0: text[pos] = static_cast<char>(rng.Below(256)); break;
        case 1: text.insert(text.begin() + pos,
                            static_cast<char>(rng.Below(128))); break;
        default: text.erase(text.begin() + pos);
      }
    }
    ExpectMasterFileFixpoint(text);
  }
  // Random garbage text too.
  for (int i = 0; i < 500; ++i) {
    const auto junk = RandomBytes(rng, 200);
    ExpectMasterFileFixpoint(
        std::string_view(reinterpret_cast<const char*>(junk.data()),
                         junk.size()));
  }
}

TEST(Fuzz, SnapshotAndDiffDecodersNeverCrash) {
  util::Rng rng(107);
  zone::EvolutionConfig config;
  config.legacy_tld_count = 20;
  config.peak_tld_count = 25;
  const zone::RootZoneModel model(config);
  const auto snapshot = zone::SerializeSnapshot(*ModelSnapshot(model, 1));
  const auto diff = zone::SerializeDiff(zone::DiffSnapshots(
      *ModelSnapshot(model, 1), *ModelSnapshot(model, 5)));
  for (int i = 0; i < 1500; ++i) {
    ExpectCodedFailure(zone::DeserializeSnapshot(Mutate(snapshot, rng)));
    ExpectCodedFailure(zone::DeserializeDiff(Mutate(diff, rng)));
    ExpectCodedFailure(zone::DeserializeSnapshot(RandomBytes(rng, 100)));
    ExpectCodedFailure(zone::DeserializeDiff(RandomBytes(rng, 100)));
  }
}

// Every proper prefix of a valid snapshot or diff wire is a short read.
TEST(Fuzz, SnapshotAndDiffPrefixesAreTruncated) {
  zone::EvolutionConfig config;
  config.legacy_tld_count = 4;
  config.peak_tld_count = 6;
  const zone::RootZoneModel model(config);
  const auto snapshot = zone::SerializeSnapshot(*ModelSnapshot(model, 1));
  const auto diff = zone::SerializeDiff(zone::DiffSnapshots(
      *ModelSnapshot(model, 1), *ModelSnapshot(model, 5)));
  ASSERT_TRUE(zone::DeserializeSnapshot(snapshot).ok());
  ASSERT_TRUE(zone::DeserializeDiff(diff).ok());
  for (std::size_t n = 0; n < snapshot.size(); ++n) {
    const auto result =
        zone::DeserializeSnapshot(std::span(snapshot.data(), n));
    ASSERT_FALSE(result.ok()) << "snapshot prefix " << n;
    EXPECT_EQ(result.error().code(), ErrorCode::kTruncated)
        << "snapshot prefix " << n << ": " << result.error().message();
  }
  for (std::size_t n = 0; n < diff.size(); ++n) {
    const auto result = zone::DeserializeDiff(std::span(diff.data(), n));
    ASSERT_FALSE(result.ok()) << "diff prefix " << n;
    EXPECT_EQ(result.error().code(), ErrorCode::kTruncated)
        << "diff prefix " << n << ": " << result.error().message();
  }
}

// The snapshot and diff wires carry rdata lengths as varints, but an rdata
// ends at 65,535 bytes (RDLENGTH is 16 bits) and the snapshot arena stores
// no longer one. Every decoder must refuse a longer rdata as kCorrupted, as
// it must an RRSIG whose compressed signer expands past that, and nothing
// may throw on the way.
TEST(Fuzz, RdataLongerThanRdlengthIsCorrupted) {
  const auto expect_corrupted = [](const auto& result, const char* what) {
    ASSERT_FALSE(result.ok()) << what;
    EXPECT_EQ(result.error().code(), ErrorCode::kCorrupted)
        << what << ": " << result.error().message();
  };
  const auto dnskey_set = [](std::size_t rdata_bytes) {
    dns::RRset set;
    set.type = dns::RRType::kDNSKEY;
    set.ttl = 172800;
    set.rdatas.push_back(
        dns::DnskeyData{256, 3, 8, util::Bytes(rdata_bytes - 4, 7)});
    return set;
  };
  dns::RRset raw;
  raw.type = static_cast<dns::RRType>(65280);
  raw.rdatas.push_back(dns::RawData{util::Bytes(dns::kMaxRdataLength + 1, 9)});

  // The wire of an empty root-zone snapshot without its RRset count (a
  // single varint 0), so that a test can append RRsets of its own.
  util::Bytes empty =
      zone::SerializeSnapshot(*zone::ZoneSnapshot::Build(zone::Zone()));
  ASSERT_EQ(empty.back(), 0);
  empty.pop_back();
  const auto snapshot_with = [&empty](const dns::RRset& set) {
    util::ByteWriter w;
    w.WriteBytes(empty);
    w.WriteVarint(1);
    zone::WriteRRsetWire(set, w);
    return w.TakeData();
  };
  const auto diff_with = [](const dns::RRset& set) {
    zone::ZoneDiff diff;
    diff.added.push_back(set);
    return zone::SerializeDiff(diff);
  };

  ASSERT_TRUE(zone::DeserializeSnapshot(
                  snapshot_with(dnskey_set(dns::kMaxRdataLength)))
                  .ok());
  ASSERT_TRUE(
      zone::DeserializeDiff(diff_with(dnskey_set(dns::kMaxRdataLength))).ok());
  for (const dns::RRset& set : {dnskey_set(dns::kMaxRdataLength + 1), raw}) {
    expect_corrupted(zone::DeserializeSnapshot(snapshot_with(set)),
                     "snapshot");
    expect_corrupted(zone::DeserializeDiff(diff_with(set)), "diff");
  }

  // An RRSIG of RDLENGTH 65,535 whose signer is a pointer to the 255-byte
  // owner: it would store 253 bytes longer. One 253 bytes shorter fits.
  const dns::Name owner = *dns::Name::Parse(
      std::string(63, 'a') + "." + std::string(63, 'b') + "." +
      std::string(63, 'c') + "." + std::string(61, 'd') + ".");
  ASSERT_EQ(owner.wire_length(), 255u);
  const auto rrsig_snapshot = [&](std::size_t rdlength) {
    util::ByteWriter w;
    w.WriteBytes(empty);
    w.WriteVarint(1);
    const std::size_t owner_at = w.size();
    owner.EncodeWire(w);
    w.WriteU16(static_cast<std::uint16_t>(dns::RRType::kRRSIG));
    w.WriteU16(static_cast<std::uint16_t>(dns::RRClass::kIN));
    w.WriteU32(172800);
    w.WriteVarint(1);
    w.WriteVarint(rdlength);
    w.WriteU16(static_cast<std::uint16_t>(dns::RRType::kA));
    w.WriteU8(8);   // algorithm
    w.WriteU8(4);   // labels
    w.WriteU32(172800);
    w.WriteU32(2000000000);
    w.WriteU32(1000000000);
    w.WriteU16(20326);
    w.WriteU8(static_cast<std::uint8_t>(0xC0 | owner_at >> 8));
    w.WriteU8(static_cast<std::uint8_t>(owner_at & 0xFF));
    w.WriteBytes(util::Bytes(rdlength - 20, 5));
    return w.TakeData();
  };
  ASSERT_TRUE(
      zone::DeserializeSnapshot(rrsig_snapshot(dns::kMaxRdataLength - 253))
          .ok());
  expect_corrupted(
      zone::DeserializeSnapshot(rrsig_snapshot(dns::kMaxRdataLength)),
      "rrsig snapshot");

  // Through the diff channel: a full-zone answer and a diff chain.
  zone::EvolutionConfig config;
  config.legacy_tld_count = 4;
  config.peak_tld_count = 6;
  const zone::RootZoneModel model(config);
  const zone::SnapshotPtr base = ModelSnapshot(model, 1);
  distrib::DiffSubscriber subscriber(base);
  distrib::DiffPublisher::Update full;
  full.kind = distrib::DiffPublisher::Update::Kind::kFullZone;
  full.payload = snapshot_with(raw);
  EXPECT_FALSE(subscriber.Apply(full).ok());
  const util::Bytes diff = diff_with(raw);
  util::ByteWriter chain;
  chain.WriteVarint(1);
  chain.WriteU32(base->Serial());
  chain.WriteU32(base->Serial() + 1);
  chain.WriteVarint(diff.size());
  chain.WriteBytes(diff);
  distrib::DiffPublisher::Update diffs;
  diffs.kind = distrib::DiffPublisher::Update::Kind::kDiffs;
  diffs.payload = chain.TakeData();
  EXPECT_FALSE(subscriber.Apply(diffs).ok());
  EXPECT_EQ(subscriber.snapshot(), base);

  // A diff built in code skips the decoders; Apply refuses it all the same,
  // and one whose rdata does not match its RRset's type.
  zone::ZoneDiff oversized;
  oversized.added.push_back(raw);
  expect_corrupted(zone::ZoneSnapshot::Apply(base, oversized), "apply");
  dns::RRset mismatched;
  mismatched.name = *dns::Name::Parse("com.");
  mismatched.type = dns::RRType::kA;
  mismatched.rdatas.push_back(dns::NsData{*dns::Name::Parse("a.gtld.")});
  zone::ZoneDiff wrong_type;
  wrong_type.added.push_back(mismatched);
  expect_corrupted(zone::ZoneSnapshot::Apply(base, wrong_type), "apply type");
}

const util::Bytes kRzcSample = zone::RzcCompressText(
    "a perfectly ordinary zone file body that compresses somewhat, "
    "a perfectly ordinary zone file body that compresses somewhat");

// RZC failures are coded, and whatever the decoder accepts round-trips
// through the compressor.
TEST(Fuzz, RzcDecompressorNeverCrashes) {
  util::Rng rng(109);
  const auto check = [](const util::Bytes& wire) {
    const auto result = zone::RzcDecompress(wire);
    ExpectCodedFailure(result);
    if (!result.ok()) return;
    const auto again = zone::RzcDecompress(zone::RzcCompress(*result));
    ASSERT_TRUE(again.ok()) << again.error().message();
    EXPECT_EQ(*again, *result);
  };
  for (int i = 0; i < 3000; ++i) {
    check(Mutate(kRzcSample, rng));
    check(RandomBytes(rng, 120));
  }
}

// Magic plus a varint of 2^32: nine bytes that claim 4 GiB of output. The
// size exceeds what the (zero) bytes left could decode to, so the decoder
// refuses it before reserving anything.
TEST(Fuzz, RzcRejectsSizeBeyondItsStream) {
  util::ByteWriter w;
  w.WriteU32(0x525A4331);  // "RZC1"
  w.WriteVarint(1ULL << 32);
  const util::Bytes wire = w.TakeData();
  ASSERT_EQ(wire.size(), 9u);
  const auto result = zone::RzcDecompress(wire);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().code(), ErrorCode::kTruncated)
      << result.error().message();
}

// Every proper prefix of a valid RZC stream is a short read.
TEST(Fuzz, RzcPrefixesAreTruncated) {
  ASSERT_TRUE(zone::RzcDecompress(kRzcSample).ok());
  for (std::size_t n = 0; n < kRzcSample.size(); ++n) {
    const auto result = zone::RzcDecompress(std::span(kRzcSample.data(), n));
    ASSERT_FALSE(result.ok()) << "prefix " << n;
    EXPECT_EQ(result.error().code(), ErrorCode::kTruncated)
        << "prefix " << n << ": " << result.error().message();
  }
}

TEST(Fuzz, RsyncDeltaDecoderNeverCrashes) {
  util::Rng rng(113);
  util::Bytes base(5000);
  for (auto& b : base) b = static_cast<std::uint8_t>(rng.Below(256));
  util::Bytes target = base;
  target[100] ^= 1;
  const auto sig = distrib::ComputeSignature(base, 512);
  const auto delta = distrib::SerializeDelta(distrib::ComputeDelta(sig, target));
  for (int i = 0; i < 2000; ++i) {
    auto decoded = distrib::DeserializeDelta(Mutate(delta, rng));
    ExpectCodedFailure(decoded);
    if (decoded.ok()) {
      // Applying a structurally valid but semantically wrong delta must
      // fail with a coded error or produce some bytes — never crash.
      ExpectCodedFailure(distrib::ApplyDelta(base, *decoded));
      // What the decoder accepts re-encodes to a fixpoint.
      const auto wire = distrib::SerializeDelta(*decoded);
      const auto again = distrib::DeserializeDelta(wire);
      ASSERT_TRUE(again.ok());
      EXPECT_EQ(distrib::SerializeDelta(*again), wire);
    }
  }
}

// Two 14-byte deltas the decoder must refuse: block size 0 with one copy of
// 2^32-1 blocks (ApplyDelta would step through every one of them), and a
// copy from block 2^32, which CopyOp's 32-bit field cannot hold.
TEST(Fuzz, RsyncDeltaRejectsZeroBlockSizeAndWideFields) {
  const auto wire = [](std::uint64_t block_size, std::uint64_t block,
                       std::uint64_t count) {
    util::ByteWriter w;
    w.WriteU32(0x52445357);  // "RDSW"
    w.WriteVarint(block_size);
    w.WriteVarint(4);  // old file size
    w.WriteVarint(1);  // one op
    w.WriteU8(0x01);   // copy
    w.WriteVarint(block);
    w.WriteVarint(count);
    return w.TakeData();
  };
  const util::Bytes zero_block = wire(0, 0, 0xFFFFFFFFULL);
  const util::Bytes wide_block = wire(2, 1ULL << 32, 1);
  EXPECT_EQ(zero_block.size(), 14u);
  EXPECT_EQ(wide_block.size(), 14u);
  for (const util::Bytes& bad : {zero_block, wide_block, wire(2, 0, 1ULL << 32),
                                 wire(1ULL << 32, 0, 1)}) {
    const auto decoded = distrib::DeserializeDelta(bad);
    ASSERT_FALSE(decoded.ok());
    EXPECT_EQ(decoded.error().code(), ErrorCode::kCorrupted)
        << decoded.error().message();
  }
  ASSERT_TRUE(distrib::DeserializeDelta(wire(2, 1, 1)).ok());

  // The same shapes built in memory are refused by ApplyDelta up front.
  const util::Bytes old_file{1, 2, 3, 4};
  distrib::Delta delta;
  delta.old_file_size = old_file.size();
  delta.ops.push_back(distrib::CopyOp{0, 0xFFFFFFFFu});
  for (const std::size_t block_size : {0, 2}) {
    delta.block_size = block_size;
    const auto applied = distrib::ApplyDelta(old_file, delta);
    ASSERT_FALSE(applied.ok());
    EXPECT_EQ(applied.error().code(), ErrorCode::kCorrupted);
  }
  delta.ops = {distrib::CopyOp{1, 1}, distrib::CopyOp{0, 2}};
  const auto applied = distrib::ApplyDelta(old_file, delta);
  ASSERT_TRUE(applied.ok());
  EXPECT_EQ(*applied, (util::Bytes{3, 4, 1, 2, 3, 4}));
}

// Every proper prefix of a valid delta wire is a short read.
TEST(Fuzz, RsyncDeltaPrefixesAreTruncated) {
  util::Rng rng(131);
  util::Bytes base(3000);
  for (auto& b : base) b = static_cast<std::uint8_t>(rng.Below(256));
  util::Bytes target(base.begin(), base.begin() + 1000);
  for (int i = 0; i < 300; ++i) target.push_back(static_cast<std::uint8_t>(i));
  target.insert(target.end(), base.begin() + 1400, base.end());
  const auto delta = distrib::ComputeDelta(distrib::ComputeSignature(base, 200),
                                           target);
  const auto wire = distrib::SerializeDelta(delta);
  const auto full = distrib::DeserializeDelta(wire);
  ASSERT_TRUE(full.ok());
  ASSERT_GT(full->literal_bytes(), 0u);
  ASSERT_GT(full->copied_bytes(), 0u);
  for (std::size_t n = 0; n < wire.size(); ++n) {
    const auto result = distrib::DeserializeDelta(std::span(wire.data(), n));
    ASSERT_FALSE(result.ok()) << "prefix " << n;
    EXPECT_EQ(result.error().code(), ErrorCode::kTruncated)
        << "prefix " << n << ": " << result.error().message();
  }
}

TEST(Fuzz, DiffChannelApplyNeverCrashes) {
  util::Rng rng(127);
  zone::EvolutionConfig config;
  config.legacy_tld_count = 15;
  config.peak_tld_count = 20;
  const zone::RootZoneModel model(config);
  distrib::DiffPublisher publisher(ModelSnapshot(model, 1));
  publisher.Publish(ModelSnapshot(model, 2));
  auto update = publisher.UpdatesSince(
      zone::RootZoneModel::SerialFor({2019, 4, 1}));
  for (int i = 0; i < 1000; ++i) {
    auto mutated = update;
    mutated.payload = Mutate(update.payload, rng);
    distrib::DiffSubscriber subscriber(ModelSnapshot(model, 1));
    (void)subscriber.Apply(mutated);
  }
}

TEST(Fuzz, MessageDecodeErrorsAreCoded) {
  // Every decode failure must carry a structured code: kTruncated when the
  // wire ran out mid-structure, kCorrupted when bytes were present but
  // unparseable — wire front-ends branch on this to answer FORMERR.
  dns::Message m = dns::MakeQuery(9, *dns::Name::Parse("www.example.com."),
                                  dns::RRType::kA);
  m.answers.push_back({*dns::Name::Parse("www.example.com."), dns::RRType::kA,
                       dns::RRClass::kIN, 300,
                       dns::AData{*dns::Ipv4::Parse("192.0.2.1")}});
  const auto valid = dns::EncodeMessage(m);
  // Every strict prefix is a truncation.
  for (std::size_t len = 0; len < valid.size(); ++len) {
    auto result = dns::DecodeMessage({valid.data(), len});
    ASSERT_FALSE(result.ok()) << len;
    EXPECT_EQ(result.error().code(), ErrorCode::kTruncated) << len;
  }
  // Trailing garbage is corruption, not truncation.
  auto padded = valid;
  padded.push_back(0xAB);
  auto trailing = dns::DecodeMessage(padded);
  ASSERT_FALSE(trailing.ok());
  EXPECT_EQ(trailing.error().code(), ErrorCode::kCorrupted);
  // A forward compression pointer is corruption.
  auto forward = valid;
  forward[12] = 0xC0;  // qname becomes a pointer...
  forward[13] = 0xFF;  // ...aimed past the current offset
  auto fwd = dns::DecodeMessage(forward);
  ASSERT_FALSE(fwd.ok());
  EXPECT_EQ(fwd.error().code(), ErrorCode::kCorrupted);
  // And whatever a mutation produces, the code is always one of the two.
  util::Rng rng(137);
  for (int i = 0; i < 3000; ++i) {
    auto result = dns::DecodeMessage(Mutate(valid, rng));
    if (result.ok()) continue;
    const auto code = result.error().code();
    EXPECT_TRUE(code == ErrorCode::kTruncated ||
                code == ErrorCode::kCorrupted)
        << ErrorCodeName(code);
  }
}

// AssembleAxfrStream refuses a bad stream with the decoder's code
// (kTruncated, kCorrupted) or kProtocol (error rcode, broken SOA bracket,
// a record the zone refuses).
void ExpectCodedAxfrFailure(const util::Result<zone::SnapshotPtr>& result) {
  if (result.ok()) return;
  const ErrorCode code = result.error().code();
  EXPECT_TRUE(code == ErrorCode::kTruncated ||
              code == ErrorCode::kCorrupted || code == ErrorCode::kProtocol)
      << ErrorCodeName(code) << ": " << result.error().message();
}

// Decodes `wire`, lets `edit` change the message, and encodes it again.
template <typename Edit>
util::Bytes Reencode(const util::Bytes& wire, Edit edit) {
  auto message = dns::DecodeMessage(wire);
  EXPECT_TRUE(message.ok());
  if (!message.ok()) return wire;
  edit(*message);
  return dns::EncodeMessage(*message);
}

TEST(Fuzz, AxfrStreamAssemblerNeverCrashes) {
  zone::EvolutionConfig config;
  config.legacy_tld_count = 20;
  config.peak_tld_count = 25;
  const zone::RootZoneModel model(config);
  util::Rng rng(149);
  const crypto::SigningKey zsk = crypto::GenerateKey(crypto::kZskFlags, rng);
  const zone::SnapshotPtr snapshot = zone::ZoneSnapshot::Build(
      zone::SignZone(model.Snapshot({2019, 4, 1}), zsk, {0, 10000}));
  const dns::Message query =
      dns::MakeQuery(11, dns::Name(), dns::RRType::kAXFR);
  const std::vector<util::Bytes> stream =
      distrib::BuildAxfrStream(*snapshot, query);
  ASSERT_GE(stream.size(), 3u);
  const auto assemble = [](const std::vector<util::Bytes>& messages) {
    return distrib::AssembleAxfrStream(messages);
  };
  const auto expect_code = [](const util::Result<zone::SnapshotPtr>& result,
                              ErrorCode code) {
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.error().code(), code) << result.error().message();
  };

  // The stream as built assembles to the snapshot it came from.
  const auto whole = assemble(stream);
  ASSERT_TRUE(whole.ok()) << whole.error().message();
  EXPECT_TRUE((*whole)->SameContent(*snapshot));

  // Named cases: nothing, the opening message alone, an error rcode, a
  // closing SOA whose serial differs from the opening one, an SOA inside
  // the stream and records after the closing SOA.
  expect_code(assemble({}), ErrorCode::kProtocol);
  expect_code(assemble({stream.front()}), ErrorCode::kProtocol);
  for (const std::size_t i : {std::size_t{0}, stream.size() - 1}) {
    std::vector<util::Bytes> refused = stream;
    refused[i] = Reencode(stream[i], [](dns::Message& m) {
      m.header.rcode = dns::RCode::kRefused;
    });
    expect_code(assemble(refused), ErrorCode::kProtocol);
  }
  std::vector<util::Bytes> new_serial = stream;
  new_serial.back() = Reencode(stream.back(), [](dns::Message& m) {
    ASSERT_EQ(m.answers.back().type, dns::RRType::kSOA);
    ++std::get<dns::SoaData>(m.answers.back().rdata).serial;
  });
  expect_code(assemble(new_serial), ErrorCode::kProtocol);
  // A second SOA inside the stream would make a two-record SOA RRset that
  // a re-transfer could not reproduce.
  std::vector<util::Bytes> extra_soa = stream;
  extra_soa[1] = Reencode(stream[1], [&](dns::Message& m) {
    dns::ResourceRecord soa_record =
        dns::DecodeMessage(stream.front())->answers.front();
    ++std::get<dns::SoaData>(soa_record.rdata).serial;
    m.answers.push_back(soa_record);
  });
  expect_code(assemble(extra_soa), ErrorCode::kProtocol);
  // Records after the closing SOA, in its message or in one more message.
  const dns::ResourceRecord first_record =
      dns::DecodeMessage(stream[1])->answers.front();
  std::vector<util::Bytes> trailing_record = stream;
  trailing_record.back() = Reencode(stream.back(), [&](dns::Message& m) {
    m.answers.push_back(first_record);
  });
  expect_code(assemble(trailing_record), ErrorCode::kProtocol);
  std::vector<util::Bytes> trailing_message = stream;
  trailing_message.push_back(stream[1]);
  expect_code(assemble(trailing_message), ErrorCode::kProtocol);

  // A transfer of one message: a zone that fits in it assembles.
  zone::Zone tiny;
  dns::SoaData soa;
  soa.serial = 7;
  ASSERT_TRUE(tiny.AddRecord({dns::Name(), dns::RRType::kSOA,
                              dns::RRClass::kIN, 86400, soa})
                  .ok());
  ASSERT_TRUE(tiny.AddRecord({*dns::Name::Parse("com."), dns::RRType::kNS,
                              dns::RRClass::kIN, 172800,
                              dns::NsData{*dns::Name::Parse("a.nic.com.")}})
                  .ok());
  const zone::SnapshotPtr tiny_snapshot = zone::ZoneSnapshot::Build(tiny);
  const auto one = distrib::BuildAxfrStream(*tiny_snapshot, query);
  ASSERT_EQ(one.size(), 1u);
  const auto tiny_result = assemble(one);
  ASSERT_TRUE(tiny_result.ok()) << tiny_result.error().message();
  EXPECT_TRUE((*tiny_result)->SameContent(*tiny_snapshot));

  // Dropping trailing messages loses the closing SOA.
  for (std::size_t keep = 1; keep < stream.size(); ++keep) {
    const std::vector<util::Bytes> head(stream.begin(), stream.begin() + keep);
    expect_code(assemble(head), ErrorCode::kProtocol);
  }
  // Every proper prefix of the last message is a short read.
  for (std::size_t n = 0; n < stream.back().size(); ++n) {
    std::vector<util::Bytes> cut = stream;
    cut.back().resize(n);
    expect_code(assemble(cut), ErrorCode::kTruncated);
  }

  // Mutated messages: a coded error, or a zone that transfers again to
  // the same content.
  for (int i = 0; i < 600; ++i) {
    std::vector<util::Bytes> mutated = stream;
    auto& victim = mutated[rng.Below(mutated.size())];
    victim = Mutate(victim, rng);
    const auto result = assemble(mutated);
    ExpectCodedAxfrFailure(result);
    if (!result.ok()) continue;
    const auto again = assemble(distrib::BuildAxfrStream(**result, query));
    ASSERT_TRUE(again.ok()) << again.error().message();
    EXPECT_TRUE((*again)->SameContent(**result));
  }
}

TEST(Fuzz, AuthServerSurvivesHostileDatagrams) {
  // The full wire path: arbitrary bytes through HandleDatagram with the
  // front-end configuration (FORMERR for garbage). Every response must
  // decode, have qr set, and echo the id of its query; sub-header garbage
  // must draw no response at all.
  sim::Simulator sim;
  sim::Network net(sim, 5);
  auto zone = std::make_shared<zone::Zone>();
  dns::SoaData soa;
  soa.mname = *dns::Name::Parse("a.root-servers.net.");
  soa.serial = 1;
  ASSERT_TRUE(zone->AddRecord({dns::Name(), dns::RRType::kSOA,
                               dns::RRClass::kIN, 86400, soa})
                  .ok());
  rootsrv::AuthServer::Options options;
  options.respond_formerr_to_garbage = true;
  rootsrv::AuthServer server(&net, zone::ZoneSnapshot::Build(*zone), options);

  std::size_t responses = 0;
  const sim::NodeId client = net.AddNode([&](const sim::Datagram& d) {
    auto decoded = dns::DecodeMessage(d.payload);
    ASSERT_TRUE(decoded.ok());
    EXPECT_TRUE(decoded->header.qr);
    ++responses;
  });

  util::Rng rng(139);
  const auto valid = dns::EncodeMessage(
      dns::MakeQuery(7, *dns::Name::Parse("anything.example."),
                     dns::RRType::kA));
  std::size_t sub_header = 0;
  for (int i = 0; i < 2000; ++i) {
    auto payload = i % 2 == 0 ? RandomBytes(rng, 80) : Mutate(valid, rng);
    if (payload.size() < 12 || (payload.size() > 2 && (payload[2] & 0x80))) {
      ++sub_header;  // headerless or response-flagged: must stay silent
    }
    net.Send(client, server.node(), std::move(payload));
  }
  sim.Run();
  EXPECT_EQ(server.stats().queries, 2000u);
  // Everything with a readable non-response header was answered (FORMERR or
  // a real answer), everything else dropped.
  EXPECT_EQ(responses, 2000u - sub_header);
}

TEST(Fuzz, NameDecoderHandlesAdversarialPointers) {
  util::Rng rng(131);
  for (int i = 0; i < 5000; ++i) {
    // Buffers dense with pointer-looking bytes (0xC0 prefixes).
    util::Bytes data(2 + rng.Below(60));
    for (auto& b : data) {
      b = rng.Chance(0.4) ? 0xC0 : static_cast<std::uint8_t>(rng.Below(256));
    }
    util::ByteReader reader(data);
    (void)dns::Name::DecodeWire(reader);
  }
}

}  // namespace
}  // namespace rootless
