// DNSSEC-shaped signing and validation (RFC 4033-4035 record formats).
//
// SUBSTITUTION (documented in DESIGN.md): the public-key algorithms the real
// root zone uses (RSA/ECDSA) are replaced by a deterministic keyed-MAC
// scheme, `SimSig` (algorithm number 250, from the private-use range 253±).
// A key's "public key" field carries a 32-byte key identifier; signatures
// are HMAC-SHA256 over the RFC 4034 §3.1.8.1 canonical signing form. The
// verifying side resolves the key identifier through a KeyStore, which plays
// the role of the public-key math. Everything else — canonical RRset form,
// key tags, RRSIG validity windows, DS digests, the chain of trust, and
// tamper detection — is implemented exactly as specified, which is what the
// paper relies on ("the zone can be validated offline").
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "crypto/sha256.h"
#include "dns/rr.h"
#include "util/bytes.h"
#include "util/result.h"
#include "util/rng.h"

namespace rootless::crypto {

// Private-use algorithm number for the simulated scheme.
inline constexpr std::uint8_t kSimSigAlgorithm = 250;
// SHA-256 DS digest type (RFC 4509).
inline constexpr std::uint8_t kDigestTypeSha256 = 2;

// DNSKEY flag values.
inline constexpr std::uint16_t kZskFlags = 0x0100;  // zone key
inline constexpr std::uint16_t kKskFlags = 0x0101;  // zone key + SEP

// A signing key: the DNSKEY record data plus the secret. The public_key
// field of the DNSKEY holds the key identifier (SHA-256 of the secret).
struct SigningKey {
  dns::DnskeyData dnskey;
  util::Bytes secret;

  std::uint16_t key_tag() const;
};

// Deterministically generates a key from an RNG stream.
SigningKey GenerateKey(std::uint16_t flags, util::Rng& rng);

// RFC 4034 Appendix B key tag over the DNSKEY RDATA wire form.
std::uint16_t ComputeKeyTag(const dns::DnskeyData& dnskey);

// RFC 4034 §3.1.8.1 canonical signing form: RRSIG RDATA (minus signature)
// followed by the canonicalized RRset (owner lowercased, rdatas sorted by
// wire form, TTL = original_ttl).
util::Bytes CanonicalSigningForm(const dns::RrsigData& rrsig_template,
                                 const dns::RRset& rrset);

// Signs an RRset, producing the RRSIG rdata. `signer` is the zone apex name.
// Derives the key's HMAC state and key tag on every call; SignZoneRRsets
// derives them once for a whole zone.
dns::RrsigData SignRRset(const dns::RRset& rrset, const SigningKey& key,
                         const dns::Name& signer, std::uint32_t inception,
                         std::uint32_t expiration);

// Resolves key identifiers to secrets — the simulation's stand-in for
// public-key verification. A resolver's trust anchor is an entry here.
class KeyStore {
 public:
  void AddKey(const SigningKey& key);
  // Looks up by the identifier embedded in a DNSKEY's public_key field.
  const SigningKey* Find(const dns::DnskeyData& dnskey) const;

 private:
  std::map<util::Bytes, SigningKey> keys_;
};

// Verifies a signature made by SignRRset. Checks: algorithm, key tag, signer,
// validity window (against `now`, unix seconds), and the MAC itself.
util::Status VerifyRRset(const dns::RRset& rrset, const dns::RrsigData& rrsig,
                         const dns::DnskeyData& dnskey, const KeyStore& store,
                         std::uint32_t now);

// DS record for a child zone's DNSKEY (RFC 4034 §5: digest over
// canonical owner name || DNSKEY RDATA).
dns::DsData MakeDs(const dns::Name& owner, const dns::DnskeyData& dnskey);

bool DsMatchesKey(const dns::DsData& ds, const dns::Name& owner,
                  const dns::DnskeyData& dnskey);

// Whole-zone digest in the spirit of ZONEMD (RFC 8976): SHA-256 over the
// canonically ordered RRset wire forms, excluding any ZONEMD-style TXT
// placeholder. The paper suggests signing the whole zone "so it can be
// validated quickly rather than validating each component individually".
Digest256 ZoneDigest(const std::vector<dns::RRset>& rrsets);

// Signs every RRset in a zone (skipping RRSIGs themselves), appending one
// single-signature RRSIG RRset per signed RRset, in input order, at the
// covered RRset's TTL. Returns the signed zone's RRsets: the input, moved
// through, then the signatures. The key's HMAC state and key tag are derived
// once per call, not per signature.
std::vector<dns::RRset> SignZoneRRsets(std::vector<dns::RRset> rrsets,
                                       const SigningKey& zsk,
                                       const dns::Name& apex,
                                       std::uint32_t inception,
                                       std::uint32_t expiration);

// Validates every RRset in a signed zone against the given DNSKEY + store.
// Returns the number of validated RRsets, or an error on the first failure.
util::Result<std::size_t> ValidateZoneRRsets(
    const std::vector<dns::RRset>& rrsets, const dns::DnskeyData& dnskey,
    const KeyStore& store, std::uint32_t now);

// Builds the zone's NSEC chain (RFC 4034 §4): owner names in canonical
// order, each NSEC naming the next owner and the types present at its own
// owner (plus NSEC and RRSIG). The last owner wraps to the apex. The chain
// is what lets an NXDOMAIN be *proven* rather than asserted — the property
// the §4 root-manipulation defence needs.
std::vector<dns::RRset> BuildNsecChain(const std::vector<dns::RRset>& rrsets,
                                       const dns::Name& apex,
                                       std::uint32_t ttl);

// True if `nsec_owner`'s NSEC with bound `next` covers `qname` (owner <
// qname < next in canonical order, with wrap-around at the apex).
bool NsecCovers(const dns::Name& nsec_owner, const dns::NsecData& nsec,
                const dns::Name& qname, const dns::Name& apex);

// Validates an authenticated denial of existence for `qname`: the authority
// section must contain an NSEC RRset covering `qname` and a valid RRSIG for
// it. A spoofed NXDOMAIN (no signable NSEC) fails here.
util::Status ValidateDenial(const dns::Name& qname,
                            const std::vector<dns::RRset>& authority,
                            const dns::DnskeyData& dnskey,
                            const KeyStore& store, std::uint32_t now,
                            const dns::Name& apex = dns::Name());

}  // namespace rootless::crypto
