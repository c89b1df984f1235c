// Tests for SHA-256 (FIPS vectors), HMAC (RFC 4231 vectors), and the
// DNSSEC-shaped signing substrate.
#include <gtest/gtest.h>

#include "crypto/dnssec.h"
#include "crypto/sha256.h"
#include "util/base64.h"
#include "util/rng.h"

namespace rootless::crypto {
namespace {

using dns::Name;
using dns::RRset;
using dns::RRType;

std::string HexOf(const Digest256& d) {
  return util::HexEncode(std::span<const std::uint8_t>(d.data(), d.size()));
}

// ---------------------------------------------------------------- SHA-256

TEST(Sha256, Fips180Vectors) {
  EXPECT_EQ(HexOf(Sha256::Hash("abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
  EXPECT_EQ(HexOf(Sha256::Hash("")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
  EXPECT_EQ(
      HexOf(Sha256::Hash(
          "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")),
      "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, MillionAs) {
  Sha256 h;
  const std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.Update(chunk);
  EXPECT_EQ(HexOf(h.Finish()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, IncrementalMatchesOneShot) {
  const std::string data = "the quick brown fox jumps over the lazy dog";
  for (std::size_t split = 0; split <= data.size(); split += 7) {
    Sha256 h;
    h.Update(data.substr(0, split));
    h.Update(data.substr(split));
    EXPECT_EQ(HexOf(h.Finish()), HexOf(Sha256::Hash(data)));
  }
}

TEST(Hmac, Rfc4231Vector1) {
  std::vector<std::uint8_t> key(20, 0x0b);
  const std::string msg = "Hi There";
  const Digest256 mac = HmacSha256(
      key, std::span<const std::uint8_t>(
               reinterpret_cast<const std::uint8_t*>(msg.data()), msg.size()));
  EXPECT_EQ(HexOf(mac),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

TEST(Hmac, Rfc4231Vector2) {
  const std::string key = "Jefe";
  const std::string msg = "what do ya want for nothing?";
  const Digest256 mac = HmacSha256(
      std::span<const std::uint8_t>(
          reinterpret_cast<const std::uint8_t*>(key.data()), key.size()),
      std::span<const std::uint8_t>(
          reinterpret_cast<const std::uint8_t*>(msg.data()), msg.size()));
  EXPECT_EQ(HexOf(mac),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

TEST(Hmac, LongKeyIsHashedFirst) {
  std::vector<std::uint8_t> key(131, 0xaa);  // RFC 4231 test 6 key shape
  const std::string msg = "Test Using Larger Than Block-Size Key - Hash Key First";
  const Digest256 mac = HmacSha256(
      key, std::span<const std::uint8_t>(
               reinterpret_cast<const std::uint8_t*>(msg.data()), msg.size()));
  EXPECT_EQ(HexOf(mac),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

std::span<const std::uint8_t> AsBytes(std::string_view text) {
  return {reinterpret_cast<const std::uint8_t*>(text.data()), text.size()};
}

// HMAC by its definition, H((K ^ opad) || H((K ^ ipad) || m)), with K the
// key zero-padded to a block (hashed first when longer than one).
Digest256 DefinitionHmac(std::span<const std::uint8_t> key,
                         std::span<const std::uint8_t> message) {
  std::vector<std::uint8_t> k(key.begin(), key.end());
  if (k.size() > 64) {
    const Digest256 hashed = Sha256::Hash(key);
    k.assign(hashed.begin(), hashed.end());
  }
  k.resize(64, 0);
  std::vector<std::uint8_t> inner, outer;
  for (const std::uint8_t b : k) inner.push_back(b ^ 0x36);
  inner.insert(inner.end(), message.begin(), message.end());
  const Digest256 inner_digest = Sha256::Hash(inner);
  for (const std::uint8_t b : k) outer.push_back(b ^ 0x5c);
  outer.insert(outer.end(), inner_digest.begin(), inner_digest.end());
  return Sha256::Hash(outer);
}

TEST(Hmac, KeyStateMatchesRfc4231Vectors) {
  struct Vector {
    std::vector<std::uint8_t> key;
    std::string message;
    std::string mac;
  };
  const std::string jefe = "Jefe";
  const std::vector<Vector> vectors = {
      {std::vector<std::uint8_t>(20, 0x0b), "Hi There",
       "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"},
      {std::vector<std::uint8_t>(jefe.begin(), jefe.end()),
       "what do ya want for nothing?",
       "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"},
      {std::vector<std::uint8_t>(131, 0xaa),
       "Test Using Larger Than Block-Size Key - Hash Key First",
       "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"},
  };
  for (const Vector& v : vectors) {
    const HmacSha256Key key(v.key);
    const Digest256 mac = key.Mac(AsBytes(v.message));
    EXPECT_EQ(HexOf(mac), v.mac);
    EXPECT_EQ(mac, HmacSha256(v.key, AsBytes(v.message)));
    EXPECT_EQ(mac, DefinitionHmac(v.key, AsBytes(v.message)));
  }
}

// One key state serves any number of messages: its MACs equal fresh
// HmacSha256 calls and the definition, for keys below, at and above the
// block size and messages crossing the padding and block boundaries.
TEST(Hmac, ReusedKeyStateMatchesFreshCalls) {
  util::Rng rng(4231);
  for (const std::size_t key_size : {0, 20, 32, 64, 65, 131}) {
    std::vector<std::uint8_t> secret(key_size);
    for (auto& b : secret) b = static_cast<std::uint8_t>(rng.Below(256));
    const HmacSha256Key key(secret);
    for (std::size_t size = 0; size <= 200; ++size) {
      std::vector<std::uint8_t> message(size);
      for (auto& b : message) b = static_cast<std::uint8_t>(rng.Below(256));
      const Digest256 reused = key.Mac(message);
      EXPECT_EQ(reused, HmacSha256(secret, message))
          << "key " << key_size << " message " << size;
      EXPECT_EQ(reused, DefinitionHmac(secret, message))
          << "key " << key_size << " message " << size;
    }
  }
}

// ----------------------------------------------------------------- dnssec

RRset SampleRRset() {
  RRset s;
  s.name = *Name::Parse("com.");
  s.type = RRType::kNS;
  s.ttl = 172800;
  s.rdatas.push_back(dns::NsData{*Name::Parse("a.gtld-servers.net.")});
  s.rdatas.push_back(dns::NsData{*Name::Parse("b.gtld-servers.net.")});
  return s;
}

struct Env {
  util::Rng rng{99};
  SigningKey zsk = GenerateKey(kZskFlags, rng);
  SigningKey ksk = GenerateKey(kKskFlags, rng);
  KeyStore store;

  Env() {
    store.AddKey(zsk);
    store.AddKey(ksk);
  }
};

TEST(Dnssec, KeyGeneration) {
  Env env;
  EXPECT_EQ(env.zsk.dnskey.flags, kZskFlags);
  EXPECT_TRUE(env.ksk.dnskey.is_ksk());
  EXPECT_FALSE(env.zsk.dnskey.is_ksk());
  EXPECT_EQ(env.zsk.dnskey.public_key.size(), 32u);
  EXPECT_NE(env.zsk.secret, env.ksk.secret);
}

TEST(Dnssec, KeyTagIsStable) {
  Env env;
  EXPECT_EQ(ComputeKeyTag(env.zsk.dnskey), ComputeKeyTag(env.zsk.dnskey));
  EXPECT_NE(ComputeKeyTag(env.zsk.dnskey), ComputeKeyTag(env.ksk.dnskey));
}

TEST(Dnssec, SignAndVerify) {
  Env env;
  const RRset s = SampleRRset();
  const auto sig = SignRRset(s, env.zsk, Name(), 1000, 2000);
  EXPECT_EQ(sig.type_covered, RRType::kNS);
  EXPECT_EQ(sig.labels, 1);
  EXPECT_EQ(sig.key_tag, env.zsk.key_tag());
  EXPECT_TRUE(VerifyRRset(s, sig, env.zsk.dnskey, env.store, 1500).ok());
}

TEST(Dnssec, VerifyRejectsTampering) {
  Env env;
  RRset s = SampleRRset();
  const auto sig = SignRRset(s, env.zsk, Name(), 1000, 2000);
  // Tamper with the data: point com. at an attacker's server.
  std::get<dns::NsData>(s.rdatas[0]).nameserver =
      *Name::Parse("evil.example.");
  EXPECT_FALSE(VerifyRRset(s, sig, env.zsk.dnskey, env.store, 1500).ok());
}

TEST(Dnssec, VerifyRejectsTtlStretchButAllowsCanonicalTtl) {
  // The signature covers original_ttl, so verification is TTL-independent as
  // long as the RRSIG's original_ttl is used — which our canonical form does.
  Env env;
  RRset s = SampleRRset();
  const auto sig = SignRRset(s, env.zsk, Name(), 1000, 2000);
  s.ttl = 60;  // cache-decremented TTL must not break validation
  EXPECT_TRUE(VerifyRRset(s, sig, env.zsk.dnskey, env.store, 1500).ok());
}

TEST(Dnssec, VerifyRejectsOutsideValidityWindow) {
  Env env;
  const RRset s = SampleRRset();
  const auto sig = SignRRset(s, env.zsk, Name(), 1000, 2000);
  EXPECT_FALSE(VerifyRRset(s, sig, env.zsk.dnskey, env.store, 999).ok());
  EXPECT_FALSE(VerifyRRset(s, sig, env.zsk.dnskey, env.store, 2001).ok());
  EXPECT_TRUE(VerifyRRset(s, sig, env.zsk.dnskey, env.store, 2000).ok());
}

TEST(Dnssec, VerifyRejectsWrongKey) {
  Env env;
  const RRset s = SampleRRset();
  const auto sig = SignRRset(s, env.zsk, Name(), 1000, 2000);
  EXPECT_FALSE(VerifyRRset(s, sig, env.ksk.dnskey, env.store, 1500).ok());
}

TEST(Dnssec, VerifyRejectsUnknownKey) {
  Env env;
  const RRset s = SampleRRset();
  const auto sig = SignRRset(s, env.zsk, Name(), 1000, 2000);
  KeyStore empty;
  EXPECT_FALSE(VerifyRRset(s, sig, env.zsk.dnskey, empty, 1500).ok());
}

TEST(Dnssec, RdataOrderDoesNotAffectSignature) {
  Env env;
  RRset a = SampleRRset();
  RRset b = SampleRRset();
  std::swap(b.rdatas[0], b.rdatas[1]);
  const auto sig_a = SignRRset(a, env.zsk, Name(), 1000, 2000);
  const auto sig_b = SignRRset(b, env.zsk, Name(), 1000, 2000);
  EXPECT_EQ(sig_a.signature, sig_b.signature);
  EXPECT_TRUE(VerifyRRset(b, sig_a, env.zsk.dnskey, env.store, 1500).ok());
}

TEST(Dnssec, OwnerCaseDoesNotAffectSignature) {
  Env env;
  RRset a = SampleRRset();
  RRset b = SampleRRset();
  b.name = *Name::Parse("CoM.");
  const auto sig_a = SignRRset(a, env.zsk, Name(), 1000, 2000);
  EXPECT_TRUE(VerifyRRset(b, sig_a, env.zsk.dnskey, env.store, 1500).ok());
}

TEST(Dnssec, DsMatchesKey) {
  Env env;
  const Name owner = *Name::Parse("com.");
  const auto ds = MakeDs(owner, env.ksk.dnskey);
  EXPECT_TRUE(DsMatchesKey(ds, owner, env.ksk.dnskey));
  EXPECT_FALSE(DsMatchesKey(ds, owner, env.zsk.dnskey));
  EXPECT_FALSE(DsMatchesKey(ds, *Name::Parse("org."), env.ksk.dnskey));
}

TEST(Dnssec, ZoneDigestDetectsAnyChange) {
  std::vector<RRset> zone = {SampleRRset()};
  const Digest256 d1 = ZoneDigest(zone);
  std::get<dns::NsData>(zone[0].rdatas[0]).nameserver =
      *Name::Parse("x.example.");
  const Digest256 d2 = ZoneDigest(zone);
  EXPECT_NE(HexOf(d1), HexOf(d2));
}

TEST(Dnssec, ZoneDigestIsOrderIndependent) {
  RRset a = SampleRRset();
  RRset b = SampleRRset();
  b.name = *Name::Parse("org.");
  const Digest256 d1 = ZoneDigest({a, b});
  const Digest256 d2 = ZoneDigest({b, a});
  EXPECT_EQ(HexOf(d1), HexOf(d2));
}

TEST(Dnssec, SignAndValidateWholeZone) {
  Env env;
  RRset com = SampleRRset();
  RRset org = SampleRRset();
  org.name = *Name::Parse("org.");
  const auto signed_zone = SignZoneRRsets({com, org}, env.zsk, Name(), 0, 10000);
  EXPECT_EQ(signed_zone.size(), 4u);  // 2 data + 2 RRSIG
  auto validated = ValidateZoneRRsets(signed_zone, env.zsk.dnskey, env.store,
                                      5000);
  ASSERT_TRUE(validated.ok()) << validated.error().message();
  EXPECT_EQ(*validated, 2u);
}

TEST(Dnssec, ValidateZoneRejectsTamperedRRset) {
  Env env;
  auto signed_zone = SignZoneRRsets({SampleRRset()}, env.zsk, Name(), 0, 10000);
  for (auto& s : signed_zone) {
    if (s.type == RRType::kNS) {
      std::get<dns::NsData>(s.rdatas[0]).nameserver =
          *Name::Parse("evil.example.");
    }
  }
  EXPECT_FALSE(
      ValidateZoneRRsets(signed_zone, env.zsk.dnskey, env.store, 5000).ok());
}

TEST(Dnssec, ValidateZoneRejectsUnsignedRRset) {
  Env env;
  auto signed_zone = SignZoneRRsets({SampleRRset()}, env.zsk, Name(), 0, 10000);
  RRset extra = SampleRRset();
  extra.name = *Name::Parse("injected.");
  signed_zone.push_back(extra);
  EXPECT_FALSE(
      ValidateZoneRRsets(signed_zone, env.zsk.dnskey, env.store, 5000).ok());
}

}  // namespace
}  // namespace rootless::crypto
