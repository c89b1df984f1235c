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
Zone SignZone(const Zone& plain, const crypto::SigningKey& zsk,
              const SigningWindow& window);

}  // namespace rootless::zone
