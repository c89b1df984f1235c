// Tests for the distribution mechanisms: snapshot format, the real rsync
// algorithm, cost models, swarm simulation, and the fetch service.
#include <gtest/gtest.h>

#include <string_view>

#include "crypto/sha256.h"
#include "distrib/axfr_stream.h"
#include "distrib/fetch_service.h"
#include "distrib/mechanisms.h"
#include "distrib/rsync.h"
#include "util/base64.h"
#include "util/rng.h"
#include "util/strings.h"
#include "zone/evolution.h"
#include "zone/sign.h"
#include "zone/snapshot.h"
#include "zone/zone_snapshot.h"

namespace rootless::distrib {
namespace {

// The serialized model zone of `date`.
util::Bytes ModelWire(const zone::RootZoneModel& model,
                      const util::CivilDate& date) {
  return zone::SerializeSnapshot(
      *zone::ZoneSnapshot::Build(model.Snapshot(date)));
}

util::Bytes RandomBytes(util::Rng& rng, std::size_t n) {
  util::Bytes out(n);
  for (auto& b : out) b = static_cast<std::uint8_t>(rng.Below(256));
  return out;
}

// ---------------------------------------------------------------- snapshot

TEST(Snapshot, ZoneRoundTrip) {
  const zone::RootZoneModel model;
  const zone::Zone original = model.Snapshot({2019, 4, 1});
  const auto wire = ModelWire(model, {2019, 4, 1});
  auto decoded = zone::DeserializeSnapshot(wire);
  ASSERT_TRUE(decoded.ok()) << decoded.error().message();
  EXPECT_EQ((*decoded)->Serial(), original.Serial());
  EXPECT_EQ((*decoded)->AllRRsets(), original.AllRRsets());
}

TEST(Snapshot, RejectsCorruption) {
  const zone::RootZoneModel model;
  auto wire = ModelWire(model, {2019, 4, 1});
  EXPECT_FALSE(zone::DeserializeSnapshot(util::Bytes{9, 9, 9, 9}).ok());
  wire.resize(wire.size() / 2);
  EXPECT_FALSE(zone::DeserializeSnapshot(wire).ok());
}

// ------------------------------------------------------------ axfr stream

// SHA-256 of BuildAxfrStream(SignedAxfrSnapshot(), MakeQuery(0x4242, ".",
// AXFR)), each message hashed as it travels on TCP: a 2-byte length, then
// the message.
constexpr std::string_view kAxfrStreamSha256 =
    "b4381fa36bc7a35ec8ed3f2a41811024ae3868d6f84bb81f52509063253c9889";

// A signed model root zone of 2019-06-07 (60 TLDs), signed with a fixed key.
zone::SnapshotPtr SignedAxfrSnapshot() {
  zone::EvolutionConfig config;
  config.legacy_tld_count = 60;
  config.peak_tld_count = 120;
  const zone::RootZoneModel model(config);
  util::Rng rng(0xA5F4);
  const crypto::SigningKey zsk = crypto::GenerateKey(crypto::kZskFlags, rng);
  return zone::ZoneSnapshot::Build(
      zone::SignZone(model.Snapshot({2019, 6, 7}), zsk, {0, 2'000'000'000}));
}

TEST(AxfrStream, WireIsPinned) {
  const zone::SnapshotPtr snapshot = SignedAxfrSnapshot();
  const std::vector<util::Bytes> stream = BuildAxfrStream(
      *snapshot, dns::MakeQuery(0x4242, dns::Name(), dns::RRType::kAXFR));
  ASSERT_GE(stream.size(), 3u);
  crypto::Sha256 sha;
  for (const util::Bytes& message : stream) {
    EXPECT_EQ(message.capacity(), message.size());
    const std::uint8_t prefix[2] = {
        static_cast<std::uint8_t>(message.size() >> 8),
        static_cast<std::uint8_t>(message.size() & 0xFF)};
    sha.Update(prefix);
    sha.Update(message);
  }
  EXPECT_EQ(util::HexEncode(sha.Finish()), kAxfrStreamSha256);

  // Some RRset straddles a message boundary: the last record of one message
  // and the first of the next share owner and type.
  bool straddles = false;
  for (std::size_t i = 0; i + 1 < stream.size(); ++i) {
    const auto left = dns::DecodeMessage(stream[i]);
    const auto right = dns::DecodeMessage(stream[i + 1]);
    ASSERT_TRUE(left.ok() && right.ok());
    const dns::ResourceRecord& last = left->answers.back();
    const dns::ResourceRecord& first = right->answers.front();
    straddles |= last.name == first.name && last.type == first.type;
  }
  EXPECT_TRUE(straddles);
}

// The assembler fed one message at a time, each dropped once added, gives
// what the whole-stream call gives, and says done() only after the last.
TEST(AxfrStream, AssemblerFedMessageByMessageMatchesWholeStream) {
  const zone::SnapshotPtr snapshot = SignedAxfrSnapshot();
  std::vector<util::Bytes> stream = BuildAxfrStream(
      *snapshot, dns::MakeQuery(7, dns::Name(), dns::RRType::kAXFR));
  const auto whole = AssembleAxfrStream(stream);
  ASSERT_TRUE(whole.ok()) << whole.error().message();
  EXPECT_TRUE((*whole)->SameContent(*snapshot));

  AxfrStreamAssembler assembler;
  for (util::Bytes& message : stream) {
    EXPECT_FALSE(assembler.done());
    ASSERT_TRUE(assembler.Add(message).ok());
    util::Bytes().swap(message);
  }
  EXPECT_TRUE(assembler.done());
  const auto streamed = assembler.Finish();
  ASSERT_TRUE(streamed.ok()) << streamed.error().message();
  EXPECT_TRUE((*streamed)->SameContent(**whole));
}

// Hand-encodes DNS messages the way another server may: names inside rdata
// compressed against names earlier in the message.
class ForeignMessage {
 public:
  // A response header with `answers` records and the `. AXFR IN` question.
  explicit ForeignMessage(std::uint16_t answers) {
    w_.WriteU16(0x4242);
    w_.WriteU16(0x8400);  // QR, AA
    w_.WriteU16(1);
    w_.WriteU16(answers);
    w_.WriteU16(0);
    w_.WriteU16(0);
    w_.WriteU8(0);  // .
    w_.WriteU16(static_cast<std::uint16_t>(dns::RRType::kAXFR));
    w_.WriteU16(static_cast<std::uint16_t>(dns::RRClass::kIN));
  }

  // Writes `labels` then a pointer to `suffix_at` (or the root octet if it
  // is 0); returns where the name starts.
  std::size_t Name(std::initializer_list<std::string_view> labels,
                   std::size_t suffix_at = 0) {
    const std::size_t at = w_.size();
    for (const std::string_view label : labels) {
      w_.WriteU8(static_cast<std::uint8_t>(label.size()));
      w_.WriteString(label);
    }
    if (suffix_at == 0) {
      w_.WriteU8(0);
    } else {
      w_.WriteU16(static_cast<std::uint16_t>(0xC000 | suffix_at));
    }
    return at;
  }
  // The fixed fields after a record's owner; RData() patches the length.
  void Fields(dns::RRType type) {
    w_.WriteU16(static_cast<std::uint16_t>(type));
    w_.WriteU16(static_cast<std::uint16_t>(dns::RRClass::kIN));
    w_.WriteU32(86400);
    length_at_ = w_.size();
    w_.WriteU16(0);
  }
  void RData() {
    w_.PatchU16(length_at_,
                static_cast<std::uint16_t>(w_.size() - length_at_ - 2));
  }
  util::ByteWriter& writer() { return w_; }
  util::Bytes Take() { return w_.Copy(); }

 private:
  util::ByteWriter w_;
  std::size_t length_at_ = 0;
};

// A transfer from a server that compresses names inside rdata (legal for
// NS and SOA, which RFC 1035 defines; BuildAxfrStream never does it). The
// snapshot stores each rdata uncompressed, so the rebuilt zone has the
// source's content, and re-serving it writes exactly the stream the source
// snapshot gives: no message byte, and so no pointer, reaches the arena.
TEST(AxfrStream, ForeignTransferWithCompressedRdataNames) {
  zone::Zone source;
  const auto add = [&source](std::string_view line) {
    const auto fields = util::SplitWhitespace(line);
    const dns::Name owner = *dns::Name::Parse(fields[0]);
    const dns::RRType type = *dns::RRTypeFromString(fields[1]);
    const std::vector<std::string_view> rdata(fields.begin() + 2,
                                              fields.end());
    auto parsed = dns::RdataFromFields(type, rdata);
    ASSERT_TRUE(parsed.ok()) << line;
    ASSERT_TRUE(source
                    .AddRRset(dns::RRset{owner, type, dns::RRClass::kIN,
                                         86400, {std::move(*parsed)}})
                    .ok());
  };
  add(". SOA a.root-servers.net. hostmaster.root-servers.net. 2018041100 "
      "1800 900 604800 86400");
  add(". NS a.root-servers.net.");
  add("a.root-servers.net. A 198.41.0.4");
  add("com. NS a.gtld-servers.net.");
  add("com. NS b.gtld-servers.net.");
  add("a.gtld-servers.net. A 192.5.6.30");
  const zone::SnapshotPtr want = zone::ZoneSnapshot::Build(source);

  const auto soa_numbers = [](util::ByteWriter& w) {
    for (const std::uint32_t v : {2018041100u, 1800u, 900u, 604800u, 86400u}) {
      w.WriteU32(v);
    }
  };
  ForeignMessage first(5);
  first.Name({});
  first.Fields(dns::RRType::kSOA);
  const std::size_t mname = first.Name({"a", "root-servers", "net"});
  first.Name({"hostmaster"}, mname + 2);  // into mname: root-servers.net.
  soa_numbers(first.writer());
  first.RData();
  const std::size_t gtld_host = first.Name({"a", "gtld-servers", "net"});
  first.Fields(dns::RRType::kA);
  first.writer().WriteU32(0xC005061E);
  first.RData();
  const std::size_t com = first.Name({"com"});
  first.Fields(dns::RRType::kNS);
  first.Name({}, gtld_host);  // the whole target: an earlier owner
  first.RData();
  first.Name({}, com);
  first.Fields(dns::RRType::kNS);
  first.Name({"b"}, gtld_host + 2);  // b. + the owner's gtld-servers.net.
  first.RData();
  first.Name({});
  first.Fields(dns::RRType::kNS);
  first.Name({}, mname);  // into the SOA's rdata
  first.RData();

  // The closing SOA's names point into the owner before it.
  ForeignMessage last(2);
  const std::size_t root_host = last.Name({"a", "root-servers", "net"});
  last.Fields(dns::RRType::kA);
  last.writer().WriteU32(0xC6290004);
  last.RData();
  last.Name({});
  last.Fields(dns::RRType::kSOA);
  last.Name({}, root_host);
  last.Name({"hostmaster"}, root_host + 2);
  soa_numbers(last.writer());
  last.RData();
  const std::vector<util::Bytes> stream = {first.Take(), last.Take()};

  const auto got = AssembleAxfrStream(stream);
  ASSERT_TRUE(got.ok()) << got.error().message();
  EXPECT_TRUE((*got)->SameContent(*want));
  const dns::Message query =
      dns::MakeQuery(9, dns::Name(), dns::RRType::kAXFR);
  EXPECT_EQ(BuildAxfrStream(**got, query), BuildAxfrStream(*want, query));
}

// ------------------------------------------------------------------ rsync

TEST(Rsync, RollingChecksumRolls) {
  util::Rng rng(1);
  const util::Bytes data = RandomBytes(rng, 300);
  const std::size_t window = 64;
  RollingChecksum rolling;
  rolling.Init(std::span(data).subspan(0, window));
  for (std::size_t i = 0; i + window < data.size(); ++i) {
    rolling.Roll(data[i], data[i + window], window);
    EXPECT_EQ(rolling.value(), RollingChecksum::Compute(
                                   std::span(data).subspan(i + 1, window)))
        << i;
  }
}

TEST(Rsync, IdenticalFilesProduceCopyOnlyDelta) {
  util::Rng rng(2);
  const util::Bytes file = RandomBytes(rng, 10000);
  const auto sig = ComputeSignature(file, 1024);
  const Delta delta = ComputeDelta(sig, file);
  EXPECT_EQ(delta.literal_bytes(), 0u);
  auto rebuilt = ApplyDelta(file, delta);
  ASSERT_TRUE(rebuilt.ok());
  EXPECT_EQ(*rebuilt, file);
  // A copy-only delta is tiny compared to the file.
  EXPECT_LT(delta.WireSize(), 100u);
}

TEST(Rsync, SmallEditProducesSmallDelta) {
  util::Rng rng(3);
  util::Bytes old_file = RandomBytes(rng, 200000);
  util::Bytes new_file = old_file;
  // A 100-byte splice in the middle (insertion shifts everything after).
  const util::Bytes insert = RandomBytes(rng, 100);
  new_file.insert(new_file.begin() + 100000, insert.begin(), insert.end());

  const auto sig = ComputeSignature(old_file, 2048);
  const Delta delta = ComputeDelta(sig, new_file);
  auto rebuilt = ApplyDelta(old_file, delta);
  ASSERT_TRUE(rebuilt.ok());
  EXPECT_EQ(*rebuilt, new_file);
  // The delta must be a small fraction of the file: literals are the splice
  // plus at most one block of misalignment.
  EXPECT_LT(delta.literal_bytes(), 4096u);
  EXPECT_LT(delta.WireSize(), new_file.size() / 10);
}

TEST(Rsync, CompletelyDifferentFilesFallBackToLiterals) {
  util::Rng rng(4);
  const util::Bytes old_file = RandomBytes(rng, 50000);
  const util::Bytes new_file = RandomBytes(rng, 50000);
  const auto sig = ComputeSignature(old_file, 2048);
  const Delta delta = ComputeDelta(sig, new_file);
  auto rebuilt = ApplyDelta(old_file, delta);
  ASSERT_TRUE(rebuilt.ok());
  EXPECT_EQ(*rebuilt, new_file);
  EXPECT_GT(delta.literal_bytes(), 49000u);
}

TEST(Rsync, ShortTailHandled) {
  util::Rng rng(5);
  // File sizes not divisible by the block size.
  const util::Bytes old_file = RandomBytes(rng, 10240 + 137);
  util::Bytes new_file = old_file;
  new_file[5000] ^= 0xFF;
  const auto sig = ComputeSignature(old_file, 1024);
  const Delta delta = ComputeDelta(sig, new_file);
  auto rebuilt = ApplyDelta(old_file, delta);
  ASSERT_TRUE(rebuilt.ok());
  EXPECT_EQ(*rebuilt, new_file);
}

TEST(Rsync, EmptyFiles) {
  const util::Bytes empty;
  const auto sig = ComputeSignature(empty, 1024);
  EXPECT_TRUE(sig.blocks.empty());
  util::Rng rng(6);
  const util::Bytes new_file = RandomBytes(rng, 500);
  const Delta delta = ComputeDelta(sig, new_file);
  auto rebuilt = ApplyDelta(empty, delta);
  ASSERT_TRUE(rebuilt.ok());
  EXPECT_EQ(*rebuilt, new_file);
}

TEST(Rsync, DeltaSerializationRoundTrip) {
  util::Rng rng(7);
  const util::Bytes old_file = RandomBytes(rng, 30000);
  util::Bytes new_file = old_file;
  new_file.resize(29000);
  new_file[100] ^= 1;
  const auto sig = ComputeSignature(old_file, 2048);
  const Delta delta = ComputeDelta(sig, new_file);
  const auto wire = SerializeDelta(delta);
  auto decoded = DeserializeDelta(wire);
  ASSERT_TRUE(decoded.ok()) << decoded.error().message();
  auto rebuilt = ApplyDelta(old_file, *decoded);
  ASSERT_TRUE(rebuilt.ok());
  EXPECT_EQ(*rebuilt, new_file);
  EXPECT_FALSE(DeserializeDelta(util::Bytes{1, 2, 3}).ok());
}

TEST(Rsync, ApplyRejectsWrongBase) {
  util::Rng rng(8);
  const util::Bytes old_file = RandomBytes(rng, 10000);
  const auto sig = ComputeSignature(old_file, 1024);
  const Delta delta = ComputeDelta(sig, old_file);
  const util::Bytes other = RandomBytes(rng, 9999);
  EXPECT_FALSE(ApplyDelta(other, delta).ok());
}

// Property: random mutations of a zone file always reconstruct exactly.
TEST(RsyncProperty, RandomZoneMutationsReconstruct) {
  util::Rng rng(9);
  const zone::RootZoneModel model;
  const auto base = ModelWire(model, {2019, 4, 1});
  for (int trial = 0; trial < 20; ++trial) {
    util::Bytes mutated = base;
    const int edits = 1 + static_cast<int>(rng.Below(20));
    for (int e = 0; e < edits; ++e) {
      const std::size_t pos = rng.Below(mutated.size());
      switch (rng.Below(3)) {
        case 0:
          mutated[pos] ^= static_cast<std::uint8_t>(1 + rng.Below(255));
          break;
        case 1:
          mutated.insert(mutated.begin() + pos,
                         static_cast<std::uint8_t>(rng.Below(256)));
          break;
        default:
          mutated.erase(mutated.begin() + pos);
      }
    }
    const auto sig = ComputeSignature(base, 2048);
    const Delta delta = ComputeDelta(sig, mutated);
    auto rebuilt = ApplyDelta(base, delta);
    ASSERT_TRUE(rebuilt.ok());
    EXPECT_EQ(*rebuilt, mutated) << trial;
  }
}

TEST(Rsync, DailyZoneDeltaIsTinyVersusFullFile) {
  // The §5.2 claim in miniature: consecutive daily snapshots differ little,
  // so the rsync delta is a small fraction of the full file.
  const zone::RootZoneModel model;
  const auto day1 = ModelWire(model, {2019, 4, 1});
  const auto day2 = ModelWire(model, {2019, 4, 2});
  const auto sig = ComputeSignature(day1, 2048);
  const Delta delta = ComputeDelta(sig, day2);
  auto rebuilt = ApplyDelta(day1, delta);
  ASSERT_TRUE(rebuilt.ok());
  EXPECT_EQ(*rebuilt, day2);
  EXPECT_LT(delta.WireSize() + sig.WireSize(), day2.size() / 4);
}

// ------------------------------------------------------------- mechanisms

TEST(Mechanisms, FullFileCostScalesWithPopulation) {
  const auto cost = FullFileCost(1'100'000, 2.0, 1000, 10);
  EXPECT_DOUBLE_EQ(cost.per_resolver_bytes_per_day, 550'000.0);
  EXPECT_DOUBLE_EQ(cost.total_bytes_per_day, 550'000.0 * 1000);
  EXPECT_DOUBLE_EQ(cost.origin_bytes_per_day, 550'000.0 * 100);
}

TEST(Mechanisms, RsyncBeatsFullFileForSmallDeltas) {
  const auto full = FullFileCost(1'100'000, 2.0, 1000, 1);
  const auto rsync = RsyncCost(13'000, 20'000, 2.0, 1000);
  EXPECT_LT(rsync.total_bytes_per_day, full.total_bytes_per_day / 10);
}

TEST(Mechanisms, LongerTtlReducesLoad) {
  const auto two_days = FullFileCost(1'100'000, 2.0, 1000, 1);
  const auto week = FullFileCost(1'100'000, 7.0, 1000, 1);
  EXPECT_LT(week.total_bytes_per_day, two_days.total_bytes_per_day);
}

TEST(Swarm, AllPeersComplete) {
  SwarmConfig config;
  config.file_bytes = 1'100'000;
  config.peer_count = 200;
  const SwarmResult result = SimulateSwarm(config);
  EXPECT_GT(result.rounds, 0u);
  // Every chunk each peer holds was transferred exactly once to it.
  const std::uint64_t chunk_count = (config.file_bytes + config.chunk_bytes - 1) /
                                    config.chunk_bytes;
  EXPECT_EQ(result.origin_chunks + result.peer_chunks,
            chunk_count * config.peer_count);
}

TEST(Swarm, OriginServesSmallFraction) {
  SwarmConfig config;
  config.file_bytes = 1'100'000;
  config.peer_count = 500;
  const SwarmResult result = SimulateSwarm(config);
  const double origin_fraction =
      static_cast<double>(result.origin_chunks) /
      static_cast<double>(result.origin_chunks + result.peer_chunks);
  // The swarm carries most of the load — the paper's point about P2P.
  EXPECT_LT(origin_fraction, 0.25);

  const auto cost = P2pCost(result, config.file_bytes, 2.0, 500);
  EXPECT_LT(cost.origin_bytes_per_day, cost.total_bytes_per_day * 0.25);
}

TEST(Swarm, ZeroByteFile) {
  SwarmConfig config;
  config.file_bytes = 0;
  config.peer_count = 10;
  const SwarmResult result = SimulateSwarm(config);
  EXPECT_EQ(result.rounds, 0u);
}

// ----------------------------------------------------------- fetch service

TEST(FetchService, DeliversZoneAfterTransferTime) {
  sim::Simulator sim;
  const zone::RootZoneModel model;
  auto zone_ptr = zone::ZoneSnapshot::Build(model.Snapshot({2019, 4, 1}));
  FetchServiceConfig config;
  ZoneFetchService service(sim, {config, [&]() { return zone_ptr; }});

  bool delivered = false;
  service.Fetch([&](ZoneFetchService::FetchResult result) {
    ASSERT_TRUE(result.ok());
    EXPECT_EQ((*result)->Serial(), zone_ptr->Serial());
    delivered = true;
  });
  sim.Run();
  EXPECT_TRUE(delivered);
  // Transfer took base latency + size/bandwidth > 50 ms.
  EXPECT_GT(sim.now(), 50 * sim::kMillisecond);
  EXPECT_EQ(service.stats().fetches, 1u);
  EXPECT_GT(service.stats().bytes_served, 0u);
}

TEST(FetchService, OutageWindowFails) {
  sim::Simulator sim;
  auto zone_ptr = zone::ZoneSnapshot::Build(zone::Zone());
  ZoneFetchService service(sim, {{}, [&]() { return zone_ptr; }});
  service.AddOutage(0, sim::kHour);

  bool failed = false;
  service.Fetch([&](ZoneFetchService::FetchResult result) {
    failed = !result.ok();
  });
  sim.Run();
  EXPECT_TRUE(failed);
  EXPECT_EQ(service.stats().failures, 1u);

  // After the outage, fetches succeed.
  sim::Simulator sim2;
  ZoneFetchService service2(sim2, {{}, [&]() { return zone_ptr; }});
  service2.AddOutage(sim::kHour, 2 * sim::kHour);
  bool ok = false;
  service2.Fetch(
      [&](ZoneFetchService::FetchResult result) { ok = result.ok(); });
  sim2.Run();
  EXPECT_TRUE(ok);
}

TEST(FetchService, ValidatesSignedZone) {
  sim::Simulator sim;
  util::Rng rng(31);
  const crypto::SigningKey zsk = crypto::GenerateKey(crypto::kZskFlags, rng);
  crypto::KeyStore store;
  store.AddKey(zsk);

  // Sign a small zone.
  const zone::RootZoneModel model(
      [] {
        zone::EvolutionConfig config;
        config.legacy_tld_count = 20;
        config.peak_tld_count = 30;
        return config;
      }());
  const zone::Zone plain = model.Snapshot({2019, 4, 1});
  auto signed_zone = std::make_shared<zone::Zone>(plain.apex());
  for (const auto& rrset :
       crypto::SignZoneRRsets(plain.AllRRsets(), zsk, dns::Name(), 0, 1000)) {
    ASSERT_TRUE(signed_zone->AddRRset(rrset).ok());
  }

  FetchServiceConfig config;
  config.verify_signatures = true;
  config.validation_now = 500;
  ZoneFetchService service(
      sim,
      {config, [&]() { return zone::ZoneSnapshot::Build(*signed_zone); }});
  service.SetTrust(zsk.dnskey, store);

  bool ok = false;
  service.Fetch(
      [&](ZoneFetchService::FetchResult result) { ok = result.ok(); });
  sim.Run();
  EXPECT_TRUE(ok);
  EXPECT_EQ(service.stats().validation_failures, 0u);

  // A tampered (unsigned extra RRset) zone fails validation.
  ASSERT_TRUE(signed_zone
                  ->AddRecord({*dns::Name::Parse("evil."), dns::RRType::kNS,
                               dns::RRClass::kIN, 60,
                               dns::NsData{*dns::Name::Parse("ns.evil.")}})
                  .ok());
  bool second_ok = true;
  service.Fetch([&](ZoneFetchService::FetchResult result) {
    second_ok = result.ok();
  });
  sim.Run();
  EXPECT_FALSE(second_ok);
  EXPECT_EQ(service.stats().validation_failures, 1u);
}

}  // namespace
}  // namespace rootless::distrib
