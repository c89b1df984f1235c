// Producing a fully signed root zone: DNSKEY at the apex, an NSEC chain for
// authenticated denial, and RRSIGs over every RRset — the artifact the
// paper's proposal distributes ("the entire root zone file could be
// cryptographically signed such that it can be validated quickly").
#pragma once

#include "crypto/dnssec.h"
#include "zone/zone.h"

namespace rootless::zone {

struct SigningWindow {
  std::uint32_t inception = 0;
  std::uint32_t expiration = 0xFFFFFFFF;
};

// Returns a new zone containing everything in `plain` plus the apex DNSKEY,
// the NSEC chain, and RRSIGs signed with `zsk`. Validate the result with
// crypto::ValidateZoneRRsets over its AllRRsets().
//
// One pass: `plain`'s RRsets are copied once, signed by one
// crypto::SignZoneRRsets call (one HMAC key schedule), and handed to the
// output zone in canonical order, so every insert appends. Each owner's
// RRSIG RRset holds, in order, the signatures of its own RRsets (by type),
// at the apex the DNSKEY's, then its NSEC's; its TTL is the least covered
// TTL. RRsets `plain` already has (re-signing a signed zone) come first and
// merge by Zone::AddRRset's rules.
Zone SignZone(const Zone& plain, const crypto::SigningKey& zsk,
              const SigningWindow& window);

}  // namespace rootless::zone
