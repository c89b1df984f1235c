// Parameterized property tests (TEST_P) sweeping configuration axes:
// RR types through the wire codec, cache capacities, rsync block sizes,
// Zipf skews, RZC content classes, message size limits, and evolution seeds.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "crypto/dnssec.h"
#include "distrib/rsync.h"
#include "dns/message.h"
#include "resolver/cache.h"
#include "resolver/refresh_daemon.h"
#include "util/rng.h"
#include "util/zipf.h"
#include "zone/evolution.h"
#include "zone/rzc.h"

namespace rootless {
namespace {

using dns::Name;
using dns::RRType;

Name N(std::string_view s) { return *Name::Parse(s); }

// ----------------------------------------------------- wire codec sweep

class WireCodecProperty : public ::testing::TestWithParam<RRType> {
 protected:
  dns::Rdata RandomRdata(RRType type, util::Rng& rng) {
    auto random_name = [&rng]() {
      std::vector<std::string> labels;
      const std::size_t count = 1 + rng.Below(3);
      for (std::size_t i = 0; i < count; ++i) {
        std::string label;
        const std::size_t len = 1 + rng.Below(10);
        for (std::size_t k = 0; k < len; ++k)
          label.push_back(static_cast<char>('a' + rng.Below(26)));
        labels.push_back(std::move(label));
      }
      return *Name::FromLabels(labels);
    };
    auto random_bytes = [&rng](std::size_t n) {
      util::Bytes out(n);
      for (auto& b : out) b = static_cast<std::uint8_t>(rng.Below(256));
      return out;
    };
    switch (type) {
      case RRType::kA:
        return dns::AData{dns::Ipv4{static_cast<std::uint32_t>(rng.Next())}};
      case RRType::kAAAA: {
        dns::AaaaData d;
        for (auto& b : d.address.addr)
          b = static_cast<std::uint8_t>(rng.Below(256));
        return d;
      }
      case RRType::kNS:
        return dns::NsData{random_name()};
      case RRType::kCNAME:
        return dns::CnameData{random_name()};
      case RRType::kSOA: {
        dns::SoaData d;
        d.mname = random_name();
        d.rname = random_name();
        d.serial = static_cast<std::uint32_t>(rng.Next());
        d.refresh = static_cast<std::uint32_t>(rng.Below(100000));
        d.retry = static_cast<std::uint32_t>(rng.Below(100000));
        d.expire = static_cast<std::uint32_t>(rng.Below(100000));
        d.minimum = static_cast<std::uint32_t>(rng.Below(100000));
        return d;
      }
      case RRType::kMX:
        return dns::MxData{static_cast<std::uint16_t>(rng.Below(65536)),
                           random_name()};
      case RRType::kTXT: {
        dns::TxtData d;
        d.strings.push_back("payload" + std::to_string(rng.Below(1000)));
        return d;
      }
      case RRType::kDS:
        return dns::DsData{static_cast<std::uint16_t>(rng.Below(65536)),
                           static_cast<std::uint8_t>(rng.Below(256)),
                           static_cast<std::uint8_t>(rng.Below(256)),
                           random_bytes(32)};
      case RRType::kDNSKEY:
        return dns::DnskeyData{257, 3,
                               static_cast<std::uint8_t>(rng.Below(256)),
                               random_bytes(32)};
      case RRType::kRRSIG: {
        dns::RrsigData d;
        d.type_covered = RRType::kNS;
        d.algorithm = static_cast<std::uint8_t>(rng.Below(256));
        d.labels = static_cast<std::uint8_t>(rng.Below(10));
        d.original_ttl = static_cast<std::uint32_t>(rng.Below(172800));
        d.expiration = static_cast<std::uint32_t>(rng.Next());
        d.inception = static_cast<std::uint32_t>(rng.Next());
        d.key_tag = static_cast<std::uint16_t>(rng.Below(65536));
        d.signer = random_name();
        d.signature = random_bytes(32);
        return d;
      }
      case RRType::kNSEC: {
        dns::NsecData d;
        d.next = random_name();
        d.types = {RRType::kNS, RRType::kDS, RRType::kRRSIG};
        return d;
      }
      default:
        return dns::RawData{random_bytes(1 + rng.Below(40))};
    }
  }
};

TEST_P(WireCodecProperty, RandomRdataRoundTripsThroughMessages) {
  const RRType type = GetParam();
  util::Rng rng(static_cast<std::uint64_t>(type) * 7919 + 13);
  for (int trial = 0; trial < 50; ++trial) {
    dns::ResourceRecord rr;
    rr.name = N("owner.example.");
    rr.type = type;
    rr.ttl = static_cast<std::uint32_t>(rng.Below(172800));
    rr.rdata = RandomRdata(type, rng);

    dns::Message m = dns::MakeQuery(1, N("q.example."), RRType::kA);
    m.header.qr = true;
    m.answers.push_back(rr);
    const auto wire = dns::EncodeMessage(m);
    auto decoded = dns::DecodeMessage(wire);
    ASSERT_TRUE(decoded.ok()) << decoded.error().message();
    ASSERT_EQ(decoded->answers.size(), 1u);
    EXPECT_TRUE(decoded->answers[0] == rr)
        << dns::RRTypeToString(type) << " trial " << trial;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllTypes, WireCodecProperty,
    ::testing::Values(RRType::kA, RRType::kAAAA, RRType::kNS, RRType::kCNAME,
                      RRType::kSOA, RRType::kMX, RRType::kTXT, RRType::kDS,
                      RRType::kDNSKEY, RRType::kRRSIG, RRType::kNSEC,
                      static_cast<RRType>(4242)),
    [](const ::testing::TestParamInfo<RRType>& info) {
      std::string name = dns::RRTypeToString(info.param);
      for (char& c : name) {
        if (c < 'A' || (c > 'Z' && c < 'a') || c > 'z') c = '_';
      }
      return name;
    });

// ------------------------------------------------- cache capacity sweep

class CacheCapacityProperty : public ::testing::TestWithParam<std::size_t> {};

TEST_P(CacheCapacityProperty, InvariantsHoldUnderRandomWorkload) {
  const std::size_t capacity = GetParam();
  resolver::DnsCache cache(capacity);
  util::Rng rng(capacity * 31 + 7);

  std::uint64_t gets = 0;
  for (int i = 0; i < 3000; ++i) {
    const sim::SimTime now = static_cast<sim::SimTime>(i) * sim::kSecond;
    const std::string owner =
        "n" + std::to_string(rng.Below(500)) + ".example.";
    dns::RRsetKey key{N(owner), RRType::kA, dns::RRClass::kIN};
    if (rng.Chance(0.5)) {
      dns::RRset s;
      s.name = key.name;
      s.type = key.type;
      s.ttl = 1 + static_cast<std::uint32_t>(rng.Below(600));
      s.rdatas.push_back(
          dns::AData{dns::Ipv4{static_cast<std::uint32_t>(rng.Next())}});
      cache.Put(s, now);
    } else {
      const dns::RRset* hit = cache.Get(key, now);
      ++gets;
      if (hit != nullptr) {
        EXPECT_TRUE(hit->name == key.name);
      }
    }
    // Core invariant: capacity is never exceeded.
    if (capacity != 0) {
      ASSERT_LE(cache.size(), capacity);
    }
  }
  const auto& stats = cache.stats();
  // Every Get is accounted for exactly once.
  EXPECT_EQ(stats.hits + stats.misses + stats.expired, gets);
  if (capacity == 0) {
    EXPECT_EQ(stats.evictions, 0u);
  }
}

TEST_P(CacheCapacityProperty, MostRecentEntrySurvives) {
  const std::size_t capacity = GetParam();
  if (capacity == 0) GTEST_SKIP() << "unbounded cache never evicts";
  resolver::DnsCache cache(capacity);
  for (std::size_t i = 0; i < capacity * 3; ++i) {
    dns::RRset s;
    s.name = N("n" + std::to_string(i) + ".example.");
    s.type = RRType::kA;
    s.ttl = 3600;
    s.rdatas.push_back(dns::AData{dns::Ipv4{static_cast<std::uint32_t>(i)}});
    cache.Put(s, 0);
    // The just-inserted entry must always be present.
    ASSERT_TRUE(cache.Contains(s.key(), 1)) << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Capacities, CacheCapacityProperty,
                         ::testing::Values(1, 2, 16, 256, 4096, 0),
                         [](const ::testing::TestParamInfo<std::size_t>& info) {
                           return info.param == 0
                                      ? std::string("unbounded")
                                      : "cap" + std::to_string(info.param);
                         });

// ------------------------------------------------ rsync block-size sweep

class RsyncBlockSizeProperty : public ::testing::TestWithParam<std::size_t> {};

TEST_P(RsyncBlockSizeProperty, RandomEditsAlwaysReconstruct) {
  const std::size_t block_size = GetParam();
  util::Rng rng(block_size);
  for (int trial = 0; trial < 10; ++trial) {
    util::Bytes base(20000 + rng.Below(20000));
    for (auto& b : base) b = static_cast<std::uint8_t>(rng.Below(64));
    util::Bytes target = base;
    const int edits = static_cast<int>(rng.Below(10));
    for (int e = 0; e < edits; ++e) {
      const std::size_t pos = rng.Below(target.size());
      switch (rng.Below(3)) {
        case 0: target[pos] ^= 0x5A; break;
        case 1:
          target.insert(target.begin() + pos,
                        static_cast<std::uint8_t>(rng.Below(256)));
          break;
        default: target.erase(target.begin() + pos);
      }
    }
    const auto sig = distrib::ComputeSignature(base, block_size);
    const auto delta = distrib::ComputeDelta(sig, target);
    auto rebuilt = distrib::ApplyDelta(base, delta);
    ASSERT_TRUE(rebuilt.ok());
    EXPECT_EQ(*rebuilt, target) << "block " << block_size << " trial " << trial;

    // Wire round trip preserves semantics at every block size.
    auto decoded = distrib::DeserializeDelta(distrib::SerializeDelta(delta));
    ASSERT_TRUE(decoded.ok());
    auto rebuilt2 = distrib::ApplyDelta(base, *decoded);
    ASSERT_TRUE(rebuilt2.ok());
    EXPECT_EQ(*rebuilt2, target);
  }
}

INSTANTIATE_TEST_SUITE_P(BlockSizes, RsyncBlockSizeProperty,
                         ::testing::Values(128, 512, 2048, 8192),
                         [](const ::testing::TestParamInfo<std::size_t>& info) {
                           return "bs" + std::to_string(info.param);
                         });

// ------------------------------------------------------ zipf skew sweep

class ZipfSkewProperty : public ::testing::TestWithParam<double> {};

TEST_P(ZipfSkewProperty, PmfIsNormalizedAndMonotone) {
  const double s = GetParam();
  util::ZipfSampler zipf(200, s);
  double sum = 0;
  double prev = 1.0;
  for (std::size_t r = 0; r < 200; ++r) {
    const double p = zipf.Pmf(r);
    EXPECT_LE(p, prev + 1e-12);
    prev = p;
    sum += p;
  }
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST_P(ZipfSkewProperty, EmpiricalHeadMassMatchesPmf) {
  const double s = GetParam();
  util::ZipfSampler zipf(200, s);
  util::Rng rng(static_cast<std::uint64_t>(s * 1000) + 3);
  const int kN = 100000;
  int head = 0;
  for (int i = 0; i < kN; ++i) head += zipf.Sample(rng) < 10;
  double expected = 0;
  for (std::size_t r = 0; r < 10; ++r) expected += zipf.Pmf(r);
  EXPECT_NEAR(static_cast<double>(head) / kN, expected, 0.01) << "s=" << s;
}

INSTANTIATE_TEST_SUITE_P(Skews, ZipfSkewProperty,
                         ::testing::Values(0.0, 0.5, 0.95, 1.5),
                         [](const ::testing::TestParamInfo<double>& info) {
                           return "s" + std::to_string(static_cast<int>(
                                            info.param * 100));
                         });

// ---------------------------------------------------- rzc content sweep

enum class RzcContent { kRandom, kRepetitive, kZoneText, kZeros };

class RzcContentProperty : public ::testing::TestWithParam<RzcContent> {};

TEST_P(RzcContentProperty, RoundTripsAcrossSizes) {
  util::Rng rng(77);
  for (const std::size_t size : {0ul, 1ul, 100ul, 4096ul, 100000ul}) {
    util::Bytes data(size);
    switch (GetParam()) {
      case RzcContent::kRandom:
        for (auto& b : data) b = static_cast<std::uint8_t>(rng.Below(256));
        break;
      case RzcContent::kRepetitive:
        for (std::size_t i = 0; i < size; ++i)
          data[i] = static_cast<std::uint8_t>("abcabcab"[i % 8]);
        break;
      case RzcContent::kZoneText: {
        std::string text;
        while (text.size() < size) {
          text += "tld" + std::to_string(text.size() % 977) +
                  ". 172800 IN NS ns1.dns-operator.net.\n";
        }
        text.resize(size);
        data.assign(text.begin(), text.end());
        break;
      }
      case RzcContent::kZeros:
        break;  // already zeroed
    }
    const auto compressed = zone::RzcCompress(data);
    auto decompressed = zone::RzcDecompress(compressed);
    ASSERT_TRUE(decompressed.ok()) << size;
    EXPECT_EQ(*decompressed, data) << size;
    if (GetParam() != RzcContent::kRandom && size >= 4096) {
      EXPECT_LT(compressed.size(), data.size()) << size;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Contents, RzcContentProperty,
                         ::testing::Values(RzcContent::kRandom,
                                           RzcContent::kRepetitive,
                                           RzcContent::kZoneText,
                                           RzcContent::kZeros),
                         [](const ::testing::TestParamInfo<RzcContent>& info) {
                           switch (info.param) {
                             case RzcContent::kRandom: return "random";
                             case RzcContent::kRepetitive: return "repetitive";
                             case RzcContent::kZoneText: return "zonetext";
                             case RzcContent::kZeros: return "zeros";
                           }
                           return "unknown";
                         });

// ----------------------------------------------- message size-limit sweep

class MessageSizeProperty : public ::testing::TestWithParam<std::size_t> {};

TEST_P(MessageSizeProperty, TruncationInvariants) {
  const std::size_t max_size = GetParam();
  util::Rng rng(max_size);
  for (int trial = 0; trial < 30; ++trial) {
    dns::Message m = dns::MakeQuery(7, N("www.example.com."), RRType::kA);
    m.header.qr = true;
    const std::size_t answers = rng.Below(20);
    for (std::size_t i = 0; i < answers; ++i) {
      m.answers.push_back(
          {N("host" + std::to_string(i) + ".example.com."), RRType::kA,
           dns::RRClass::kIN, 300,
           dns::AData{dns::Ipv4{static_cast<std::uint32_t>(rng.Next())}}});
    }
    const auto full = dns::EncodeMessage(m);
    const auto wire = dns::EncodeMessage(m, max_size);
    if (full.size() > max_size) {
      EXPECT_LE(wire.size(), max_size);
    }
    auto decoded = dns::DecodeMessage(wire);
    ASSERT_TRUE(decoded.ok()) << decoded.error().message();
    EXPECT_EQ(decoded->header.tc, wire.size() < full.size());
    EXPECT_LE(decoded->answers.size(), m.answers.size());
  }
}

INSTANTIATE_TEST_SUITE_P(Limits, MessageSizeProperty,
                         ::testing::Values(64, 128, 256, 512, 1232),
                         [](const ::testing::TestParamInfo<std::size_t>& info) {
                           return "max" + std::to_string(info.param);
                         });

// ---------------------------------------------- evolution seed stability

class EvolutionSeedProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EvolutionSeedProperty, CalibrationHoldsAcrossSeeds) {
  zone::EvolutionConfig config;
  config.seed = GetParam();
  const zone::RootZoneModel model(config);

  // The published anchors must hold for any seed, not just the default.
  EXPECT_EQ(model.TldCountOn({2013, 6, 15}), 317);
  const int peak = model.TldCountOn({2017, 6, 15});
  EXPECT_GE(peak, 1500);
  EXPECT_LE(peak, 1545);
  int rotating = 0;
  for (const auto& tld : model.roster()) rotating += tld.rotating;
  EXPECT_EQ(rotating, 5);
  ASSERT_NE(model.FindTld("llc"), nullptr);
  EXPECT_EQ(model.FindTld("llc")->add_day,
            util::DaysFromCivil({2018, 2, 23}));

  // Deterministic for equal seeds.
  const zone::RootZoneModel again(config);
  EXPECT_EQ(model.Snapshot({2018, 4, 11}).AllRRsets(),
            again.Snapshot({2018, 4, 11}).AllRRsets());
}

INSTANTIATE_TEST_SUITE_P(Seeds, EvolutionSeedProperty,
                         ::testing::Values(1u, 42u, 2019u, 31337u),
                         [](const ::testing::TestParamInfo<std::uint64_t>& info) {
                           return "seed" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace rootless

namespace rootless {
namespace {

// --------------------------------------------- signing window sweep

struct WindowCase {
  std::uint32_t inception;
  std::uint32_t expiration;
  std::uint32_t now;
  bool expect_valid;
};

class SigningWindowProperty : public ::testing::TestWithParam<WindowCase> {};

TEST_P(SigningWindowProperty, ValidityWindowEnforced) {
  const WindowCase& c = GetParam();
  util::Rng rng(55);
  const crypto::SigningKey key = crypto::GenerateKey(crypto::kZskFlags, rng);
  crypto::KeyStore store;
  store.AddKey(key);

  dns::RRset s;
  s.name = *dns::Name::Parse("com.");
  s.type = dns::RRType::kNS;
  s.ttl = 172800;
  s.rdatas.push_back(dns::NsData{*dns::Name::Parse("a.gtld-servers.net.")});

  const auto sig =
      crypto::SignRRset(s, key, dns::Name(), c.inception, c.expiration);
  const auto status = crypto::VerifyRRset(s, sig, key.dnskey, store, c.now);
  EXPECT_EQ(status.ok(), c.expect_valid)
      << "[" << c.inception << "," << c.expiration << "] at " << c.now << ": "
      << status.message();
}

INSTANTIATE_TEST_SUITE_P(
    Windows, SigningWindowProperty,
    ::testing::Values(WindowCase{100, 200, 150, true},
                      WindowCase{100, 200, 100, true},   // inclusive start
                      WindowCase{100, 200, 200, true},   // inclusive end
                      WindowCase{100, 200, 99, false},   // not yet valid
                      WindowCase{100, 200, 201, false},  // expired
                      WindowCase{0, 0xFFFFFFFF, 1'700'000'000, true}),
    [](const ::testing::TestParamInfo<WindowCase>& info) {
      return "w" + std::to_string(info.index);
    });

// ------------------------------------------ refresh lead-time sweep

class RefreshLeadProperty : public ::testing::TestWithParam<int> {};

TEST_P(RefreshLeadProperty, OutageShorterThanLeadNeverExpires) {
  // The paper's robustness window: any outage shorter than the refresh lead
  // is absorbed without lookup impact, for every lead setting.
  const int lead_hours = GetParam();
  sim::Simulator sim;
  resolver::RefreshConfig config;
  config.refresh_lead = lead_hours * sim::kHour;
  config.retry_interval = 30 * sim::kMinute;
  const sim::SimTime outage_start = (48 - lead_hours) * sim::kHour;
  const sim::SimTime outage_end =
      outage_start + (lead_hours - 1) * sim::kHour;  // shorter than the lead
  resolver::RefreshDaemon daemon(
      sim,
      {config,
       {[&](std::function<void(resolver::RefreshDaemon::FetchResult)> done) {
         if (sim.now() >= outage_start && sim.now() < outage_end) {
           done(util::Error("outage"));
         } else {
           done(zone::ZoneSnapshot::Build(zone::Zone()));
         }
       }},
       [](zone::SnapshotPtr) {}});
  daemon.Start(zone::ZoneSnapshot::Build(zone::Zone()));
  sim.RunUntil(4 * sim::kDay);
  EXPECT_EQ(daemon.stats().expirations, 0u) << lead_hours;
  EXPECT_GE(daemon.stats().refreshes, 1u);
}

INSTANTIATE_TEST_SUITE_P(Leads, RefreshLeadProperty,
                         ::testing::Values(2, 6, 12, 24),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return "lead" + std::to_string(info.param) + "h";
                         });

}  // namespace
}  // namespace rootless
