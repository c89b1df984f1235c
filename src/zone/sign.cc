#include "zone/sign.h"

namespace rootless::zone {

Zone SignZone(const Zone& plain, const crypto::SigningKey& zsk,
              const SigningWindow& window) {
  std::vector<dns::RRset> rrsets = plain.AllRRsets();

  // Apex DNSKEY.
  dns::RRset dnskey_set;
  dnskey_set.name = plain.apex();
  dnskey_set.type = dns::RRType::kDNSKEY;
  dnskey_set.ttl = 172800;
  dnskey_set.rdatas.push_back(dns::Rdata(zsk.dnskey));
  rrsets.push_back(std::move(dnskey_set));

  // NSEC chain, then signatures over everything.
  auto chain = crypto::BuildNsecChain(rrsets, plain.apex(), 86400);
  rrsets.insert(rrsets.end(), chain.begin(), chain.end());
  const auto signed_rrsets = crypto::SignZoneRRsets(
      rrsets, zsk, plain.apex(), window.inception, window.expiration);

  Zone out(plain.apex());
  for (const auto& rrset : signed_rrsets) {
    // By construction all owners are in-zone; AddRRset cannot fail here.
    (void)out.AddRRset(rrset);
  }
  return out;
}

}  // namespace rootless::zone
