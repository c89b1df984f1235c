// TLD nameserver farm: one synthetic authoritative server per TLD delegated
// in a root-zone snapshot.
//
// SUBSTITUTION (DESIGN.md §2): below the TLD cut the real DNS has millions of
// second-level zones; for the resolution-latency experiments only the path
// *to* the TLD matters (the paper's proposal changes nothing below it). Each
// farm server therefore answers any in-domain query authoritatively with a
// deterministic address, standing in for the whole subtree.
#pragma once

#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "dns/message.h"
#include "sim/network.h"
#include "topo/topology.h"
#include "util/bytes.h"
#include "util/rng.h"
#include "util/strings.h"
#include "zone/zone_snapshot.h"

namespace rootless::rootsrv {

class TldFarm {
 public:
  // Builds one server node per TLD delegated in `root_zone`, registers the
  // TLD's glue addresses to that node, and places it at a population-
  // weighted location in `topology` (which must outlive the farm).
  TldFarm(sim::Network& network, topo::Topology& topology,
          const zone::ZoneSnapshot& root_zone, std::uint64_t seed);

  // Node serving a TLD ("" lookups fail; matching is case-insensitive).
  // Returns false if unknown.
  bool FindTldNode(std::string_view tld, sim::NodeId& node) const;

  // Node owning a glue address from the root zone (how a resolver "routes"
  // to an address it learned from a referral).
  bool FindByAddress(const dns::Ipv4& address, sim::NodeId& node) const;

  std::size_t tld_count() const { return by_tld_.size(); }
  std::uint64_t queries_served() const { return *queries_; }

  // Re-registers addressing from a newer root zone version (rotating TLD
  // addresses move; the nodes stay) and creates servers for TLDs delegated
  // since construction (new-TLD additions, §5.3).
  void RefreshAddresses(const zone::ZoneSnapshot& root_zone);

  // Turns `tld`'s server hostile (NXNSAttack, Afek et al.): every in-domain
  // query is answered with a glueless referral delegating the queried name
  // to `fanout` nameservers under a garbage TLD that is unique per response
  // — the resolver learns nothing it can cache, and each victim NS name it
  // chases costs a fresh root (or local-root) lookup that ends NXDOMAIN.
  // fanout <= 0 restores honest behaviour.
  void SetMaliciousDelegation(const std::string& tld, int fanout);
  // Referral responses produced by malicious servers so far.
  std::uint64_t malicious_referrals() const { return mal_referrals_; }

 private:
  void HandleQuery(sim::NodeId node, const std::string& tld,
                   const sim::Datagram& datagram);
  // Creates the server node for a TLD if it does not exist yet.
  void EnsureTld(const std::string& tld);

  sim::Network& network_;
  topo::Topology& topology_;
  util::Rng placement_rng_;
  std::unordered_map<std::string, sim::NodeId, util::CaseInsensitiveHash,
                     util::CaseInsensitiveEqual>
      by_tld_;
  std::unordered_map<std::uint32_t, sim::NodeId> by_address_;
  std::shared_ptr<std::uint64_t> queries_ = std::make_shared<std::uint64_t>(0);
  // TLD → delegation fan-out for servers turned hostile; serial numbers the
  // garbage NS target zones so every referral is cache-bypassing.
  std::unordered_map<std::string, int, util::CaseInsensitiveHash,
                     util::CaseInsensitiveEqual>
      malicious_;
  std::uint64_t mal_serial_ = 0;
  std::uint64_t mal_referrals_ = 0;
  // Encode scratch kept across queries; each response leaves it as one
  // exact-size copy.
  util::ByteWriter wire_;
};

}  // namespace rootless::rootsrv
