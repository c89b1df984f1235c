#include "crypto/dnssec.h"

#include <algorithm>

#include "dns/message.h"

namespace rootless::crypto {

using dns::DnskeyData;
using dns::DsData;
using dns::Name;
using dns::RRset;
using dns::RrsigData;
using dns::RRType;
using util::Bytes;
using util::ByteWriter;
using util::Error;

namespace {

Bytes DnskeyRdataWire(const DnskeyData& dnskey) {
  ByteWriter w;
  dns::EncodeRdata(dns::Rdata(dnskey), w);
  return w.TakeData();
}

// Canonical RRset form (RFC 4034 §6.3) at `ttl`: one RR per rdata, rdatas
// sorted by their wire forms, each RR led by the owner's canonical wire
// (encoded once per RRset).
void AppendCanonicalRRset(const RRset& rrset, std::uint32_t ttl,
                          ByteWriter& w) {
  std::vector<Bytes> wires;
  wires.reserve(rrset.rdatas.size());
  for (const auto& rd : rrset.rdatas) {
    ByteWriter rw;
    dns::EncodeRdata(rd, rw);
    wires.push_back(rw.TakeData());
  }
  std::sort(wires.begin(), wires.end());
  const Bytes owner = rrset.name.CanonicalWire();
  for (const auto& rdata_wire : wires) {
    w.WriteBytes(owner);
    w.WriteU16(static_cast<std::uint16_t>(rrset.type));
    w.WriteU16(static_cast<std::uint16_t>(rrset.rrclass));
    w.WriteU32(ttl);
    w.WriteU16(static_cast<std::uint16_t>(rdata_wire.size()));
    w.WriteBytes(rdata_wire);
  }
}

// A SigningKey with its per-key work done once: the HMAC key state and the
// key tag (which encodes the DNSKEY).
struct PreparedKey {
  explicit PreparedKey(const SigningKey& key)
      : mac(key.secret),
        key_tag(key.key_tag()),
        algorithm(key.dnskey.algorithm) {}

  HmacSha256Key mac;
  std::uint16_t key_tag;
  std::uint8_t algorithm;
};

RrsigData SignWith(const RRset& rrset, const PreparedKey& key,
                   const Name& signer, std::uint32_t inception,
                   std::uint32_t expiration) {
  RrsigData sig;
  sig.type_covered = rrset.type;
  sig.algorithm = key.algorithm;
  sig.labels = static_cast<std::uint8_t>(rrset.name.label_count());
  sig.original_ttl = rrset.ttl;
  sig.expiration = expiration;
  sig.inception = inception;
  sig.key_tag = key.key_tag;
  sig.signer = signer;
  const Digest256 mac = key.mac.Mac(CanonicalSigningForm(sig, rrset));
  sig.signature.assign(mac.begin(), mac.end());
  return sig;
}

}  // namespace

std::uint16_t SigningKey::key_tag() const { return ComputeKeyTag(dnskey); }

SigningKey GenerateKey(std::uint16_t flags, util::Rng& rng) {
  SigningKey key;
  key.secret.resize(32);
  for (auto& b : key.secret) b = static_cast<std::uint8_t>(rng.Below(256));
  const Digest256 id = Sha256::Hash(key.secret);
  key.dnskey.flags = flags;
  key.dnskey.protocol = 3;
  key.dnskey.algorithm = kSimSigAlgorithm;
  key.dnskey.public_key.assign(id.begin(), id.end());
  return key;
}

std::uint16_t ComputeKeyTag(const DnskeyData& dnskey) {
  const Bytes wire = DnskeyRdataWire(dnskey);
  std::uint32_t acc = 0;
  for (std::size_t i = 0; i < wire.size(); ++i) {
    acc += (i & 1) ? wire[i] : static_cast<std::uint32_t>(wire[i]) << 8;
  }
  acc += (acc >> 16) & 0xFFFF;
  return static_cast<std::uint16_t>(acc & 0xFFFF);
}

Bytes CanonicalSigningForm(const RrsigData& t, const RRset& rrset) {
  ByteWriter w;
  // RRSIG RDATA minus the signature field.
  w.WriteU16(static_cast<std::uint16_t>(t.type_covered));
  w.WriteU8(t.algorithm);
  w.WriteU8(t.labels);
  w.WriteU32(t.original_ttl);
  w.WriteU32(t.expiration);
  w.WriteU32(t.inception);
  w.WriteU16(t.key_tag);
  w.WriteBytes(t.signer.CanonicalWire());

  AppendCanonicalRRset(rrset, t.original_ttl, w);
  return w.TakeData();
}

RrsigData SignRRset(const RRset& rrset, const SigningKey& key,
                    const Name& signer, std::uint32_t inception,
                    std::uint32_t expiration) {
  return SignWith(rrset, PreparedKey(key), signer, inception, expiration);
}

void KeyStore::AddKey(const SigningKey& key) {
  keys_[key.dnskey.public_key] = key;
}

const SigningKey* KeyStore::Find(const DnskeyData& dnskey) const {
  auto it = keys_.find(dnskey.public_key);
  if (it == keys_.end()) return nullptr;
  return &it->second;
}

util::Status VerifyRRset(const RRset& rrset, const RrsigData& rrsig,
                         const DnskeyData& dnskey, const KeyStore& store,
                         std::uint32_t now) {
  if (rrsig.algorithm != kSimSigAlgorithm)
    return Error("rrsig: unsupported algorithm");
  if (dnskey.algorithm != kSimSigAlgorithm)
    return Error("dnskey: unsupported algorithm");
  if (rrsig.type_covered != rrset.type)
    return Error("rrsig: type covered mismatch");
  if (rrsig.key_tag != ComputeKeyTag(dnskey))
    return Error("rrsig: key tag mismatch");
  if (now < rrsig.inception) return Error("rrsig: not yet valid");
  if (now > rrsig.expiration) return Error("rrsig: expired");
  if (!rrset.name.IsSubdomainOf(rrsig.signer))
    return Error("rrsig: owner not under signer");

  const SigningKey* key = store.Find(dnskey);
  if (key == nullptr) return Error("dnskey: unknown key identifier");

  const Bytes form = CanonicalSigningForm(rrsig, rrset);
  const Digest256 mac = HmacSha256(key->secret, form);
  if (rrsig.signature.size() != mac.size() ||
      !std::equal(mac.begin(), mac.end(), rrsig.signature.begin()))
    return Error("rrsig: signature mismatch");
  return util::Status::Ok();
}

DsData MakeDs(const Name& owner, const DnskeyData& dnskey) {
  Sha256 h;
  const Bytes owner_wire = owner.CanonicalWire();
  h.Update(owner_wire);
  h.Update(DnskeyRdataWire(dnskey));
  const Digest256 digest = h.Finish();
  DsData ds;
  ds.key_tag = ComputeKeyTag(dnskey);
  ds.algorithm = dnskey.algorithm;
  ds.digest_type = kDigestTypeSha256;
  ds.digest.assign(digest.begin(), digest.end());
  return ds;
}

bool DsMatchesKey(const DsData& ds, const Name& owner,
                  const DnskeyData& dnskey) {
  if (ds.key_tag != ComputeKeyTag(dnskey)) return false;
  if (ds.algorithm != dnskey.algorithm) return false;
  if (ds.digest_type != kDigestTypeSha256) return false;
  const DsData expected = MakeDs(owner, dnskey);
  return expected.digest == ds.digest;
}

Digest256 ZoneDigest(const std::vector<RRset>& rrsets) {
  // Canonical order over (owner, type, class), then hash each RRset's
  // canonical wire form.
  std::vector<const RRset*> ordered;
  ordered.reserve(rrsets.size());
  for (const auto& s : rrsets) ordered.push_back(&s);
  std::sort(ordered.begin(), ordered.end(),
            [](const RRset* a, const RRset* b) { return a->key() < b->key(); });
  Sha256 h;
  for (const RRset* s : ordered) {
    ByteWriter w;
    AppendCanonicalRRset(*s, s->ttl, w);
    h.Update(w.span());
  }
  return h.Finish();
}

std::vector<RRset> SignZoneRRsets(std::vector<RRset> rrsets,
                                  const SigningKey& zsk, const Name& apex,
                                  std::uint32_t inception,
                                  std::uint32_t expiration) {
  const PreparedKey key(zsk);
  const std::size_t count = rrsets.size();
  rrsets.reserve(2 * count);
  for (std::size_t i = 0; i < count; ++i) {
    if (rrsets[i].type == RRType::kRRSIG) continue;
    RRset sig_set;
    sig_set.name = rrsets[i].name;
    sig_set.type = RRType::kRRSIG;
    sig_set.rrclass = rrsets[i].rrclass;
    sig_set.ttl = rrsets[i].ttl;
    sig_set.rdatas.push_back(
        dns::Rdata(SignWith(rrsets[i], key, apex, inception, expiration)));
    rrsets.push_back(std::move(sig_set));
  }
  return rrsets;
}

util::Result<std::size_t> ValidateZoneRRsets(const std::vector<RRset>& rrsets,
                                             const DnskeyData& dnskey,
                                             const KeyStore& store,
                                             std::uint32_t now) {
  // Index RRSIGs by (owner, covered type).
  struct SigRef {
    const RRset* owner_set;
    const RrsigData* sig;
  };
  std::vector<SigRef> sigs;
  for (const auto& s : rrsets) {
    if (s.type != RRType::kRRSIG) continue;
    for (const auto& rd : s.rdatas) {
      sigs.push_back(SigRef{&s, &std::get<RrsigData>(rd)});
    }
  }
  std::size_t validated = 0;
  for (const auto& s : rrsets) {
    if (s.type == RRType::kRRSIG) continue;
    const RrsigData* found = nullptr;
    for (const auto& ref : sigs) {
      if (ref.sig->type_covered == s.type && ref.owner_set->name == s.name) {
        found = ref.sig;
        break;
      }
    }
    if (found == nullptr)
      return Error("zone: unsigned RRset " + s.name.ToString() + " " +
                   dns::RRTypeToString(s.type));
    auto status = VerifyRRset(s, *found, dnskey, store, now);
    if (!status.ok())
      return Error("zone: " + s.name.ToString() + " " +
                   dns::RRTypeToString(s.type) + ": " + status.message());
    ++validated;
  }
  return validated;
}

}  // namespace rootless::crypto

namespace rootless::crypto {

std::vector<RRset> BuildNsecChain(const std::vector<RRset>& rrsets,
                                  const Name& apex, std::uint32_t ttl) {
  // Collect the distinct owner names in canonical order with their types.
  // Owners arriving in canonical order append with no search.
  std::map<Name, std::vector<RRType>> owners;
  for (const auto& s : rrsets) {
    if (s.type == RRType::kRRSIG || s.type == RRType::kNSEC) continue;
    auto last = owners.empty() ? owners.end() : std::prev(owners.end());
    if (last == owners.end() || !(last->first == s.name)) {
      last = owners.try_emplace(owners.end(), s.name);
    }
    last->second.push_back(s.type);
  }
  std::vector<RRset> chain;
  if (owners.empty()) return chain;
  // Make sure the apex participates even if it owns no plain records.
  owners.try_emplace(apex);

  for (auto it = owners.begin(); it != owners.end(); ++it) {
    auto next_it = std::next(it);
    const Name& next_owner =
        next_it == owners.end() ? owners.begin()->first : next_it->first;
    dns::NsecData nsec;
    nsec.next = next_owner;
    nsec.types = it->second;
    nsec.types.push_back(RRType::kNSEC);
    nsec.types.push_back(RRType::kRRSIG);
    std::sort(nsec.types.begin(), nsec.types.end());
    nsec.types.erase(std::unique(nsec.types.begin(), nsec.types.end()),
                     nsec.types.end());

    RRset set;
    set.name = it->first;
    set.type = RRType::kNSEC;
    set.ttl = ttl;
    set.rdatas.push_back(dns::Rdata(std::move(nsec)));
    chain.push_back(std::move(set));
  }
  return chain;
}

bool NsecCovers(const Name& nsec_owner, const dns::NsecData& nsec,
                const Name& qname, const Name& apex) {
  const bool after_owner = qname > nsec_owner;
  const bool wraps = nsec.next == apex || !(nsec_owner < nsec.next);
  if (wraps) {
    // Last NSEC in the chain: covers everything after the owner (and, for a
    // query below the apex, anything before the first owner).
    return after_owner || qname < nsec.next;
  }
  return after_owner && qname < nsec.next;
}

util::Status ValidateDenial(const Name& qname,
                            const std::vector<RRset>& authority,
                            const DnskeyData& dnskey, const KeyStore& store,
                            std::uint32_t now, const Name& apex) {
  for (const auto& s : authority) {
    if (s.type != RRType::kNSEC) continue;
    for (const auto& rd : s.rdatas) {
      const auto& nsec = std::get<dns::NsecData>(rd);
      if (!NsecCovers(s.name, nsec, qname, apex)) continue;
      // Found a covering NSEC; it must carry a valid signature.
      for (const auto& sig_set : authority) {
        if (sig_set.type != RRType::kRRSIG || !(sig_set.name == s.name))
          continue;
        for (const auto& sig_rd : sig_set.rdatas) {
          const auto& sig = std::get<dns::RrsigData>(sig_rd);
          if (sig.type_covered != RRType::kNSEC) continue;
          return VerifyRRset(s, sig, dnskey, store, now);
        }
      }
      return util::Error("denial: covering NSEC has no RRSIG");
    }
  }
  return util::Error("denial: no covering NSEC for " + qname.ToString());
}

}  // namespace rootless::crypto
