#include "zone/sign.h"

#include <algorithm>
#include <iterator>

namespace rootless::zone {

namespace {

constexpr std::uint32_t kDnskeyTtl = 172800;
constexpr std::uint32_t kNsecTtl = 86400;

}  // namespace

Zone SignZone(const Zone& plain, const crypto::SigningKey& zsk,
              const SigningWindow& window) {
  const dns::Name& apex = plain.apex();

  // What gets signed, in the order its signatures merge into each owner's
  // RRSIG RRset: the plain RRsets (canonical order), the apex DNSKEY, the
  // NSEC chain (canonical order). The one copy of the plain RRsets is made
  // here; from then on they are moved.
  std::vector<dns::RRset> rrsets = plain.AllRRsets();
  const std::size_t dnskey_at = rrsets.size();
  dns::RRset dnskey_set;
  dnskey_set.name = apex;
  dnskey_set.type = dns::RRType::kDNSKEY;
  dnskey_set.ttl = kDnskeyTtl;
  dnskey_set.rdatas.push_back(dns::Rdata(zsk.dnskey));
  rrsets.push_back(std::move(dnskey_set));
  std::vector<dns::RRset> chain =
      crypto::BuildNsecChain(rrsets, apex, kNsecTtl);
  const std::size_t chain_begin = rrsets.size();
  std::move(chain.begin(), chain.end(), std::back_inserter(rrsets));
  const std::size_t chain_end = rrsets.size();
  rrsets = crypto::SignZoneRRsets(std::move(rrsets), zsk, apex,
                                  window.inception, window.expiration);

  // SignZoneRRsets appended one RRSIG RRset per non-RRSIG input, in input
  // order: the plain RRsets' signatures, the DNSKEY's, then the chain's.
  const auto is_signed = [](const dns::RRset& s) {
    return s.type != dns::RRType::kRRSIG;
  };
  std::size_t plain_sig = chain_end;
  const std::size_t dnskey_sig =
      chain_end + static_cast<std::size_t>(std::count_if(
                      rrsets.begin(), rrsets.begin() + dnskey_at, is_signed));

  // Feed the zone in canonical (owner, type) order so every insert appends.
  // Per owner, its plain RRsets (by type) merge with what signing added, which
  // is already in type order: its signatures (RRSIG, each merging into the
  // previous), its NSEC, and at the apex the DNSKEY. On equal keys the plain
  // RRset goes first, so the merges match adding everything in signing order.
  Zone out(apex);
  // By construction every owner is in zone; AddRRset cannot fail here.
  const auto add = [&](std::size_t i) {
    (void)out.AddRRset(std::move(rrsets[i]));
  };
  std::vector<std::size_t> added;
  std::size_t p = 0, c = chain_begin;
  while (p < dnskey_at || c < chain_end) {
    const bool chain_first =
        p == dnskey_at || (c < chain_end && rrsets[c].name < rrsets[p].name);
    const dns::Name owner = rrsets[chain_first ? c : p].name;
    std::size_t owner_end = p;
    while (owner_end < dnskey_at && rrsets[owner_end].name == owner) {
      ++owner_end;
    }
    const bool at_apex = owner == apex;
    const bool has_nsec = c < chain_end && rrsets[c].name == owner;

    added.clear();
    for (std::size_t i = p; i < owner_end; ++i) {
      if (is_signed(rrsets[i])) added.push_back(plain_sig++);
    }
    if (at_apex) added.push_back(dnskey_sig);
    if (has_nsec) {
      added.push_back(dnskey_sig + 1 + (c - chain_begin));
      added.push_back(c++);
    }
    if (at_apex) added.push_back(dnskey_at);

    for (const std::size_t a : added) {
      while (p < owner_end && rrsets[p].type <= rrsets[a].type) add(p++);
      add(a);
    }
    while (p < owner_end) add(p++);
  }
  return out;
}

}  // namespace rootless::zone
