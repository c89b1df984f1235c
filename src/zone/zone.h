// Zone container with authoritative lookup semantics.
//
// A Zone holds the RRsets of one zone cut (e.g. the root zone), keyed by
// (owner, type, class) in canonical order, and implements the decision logic
// an authoritative server applies to a query: answer, referral (delegation),
// NODATA or NXDOMAIN (RFC 1034 §4.3.2 restricted to the in-zone cases).
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "dns/rr.h"
#include "util/result.h"

namespace rootless::zone {

enum class LookupDisposition {
  kAnswer,     // qname/qtype found
  kReferral,   // delegation NS found below the apex
  kNoData,     // qname exists, qtype does not
  kNxDomain,   // qname does not exist
  kOutOfZone,  // qname not under the apex
};

struct LookupResult {
  LookupDisposition disposition = LookupDisposition::kOutOfZone;
  // kAnswer: the matching RRset (plus covering RRSIG if the zone is signed).
  std::vector<dns::RRset> answers;
  // kReferral: delegation NS RRset; kNoData/kNxDomain: the SOA.
  std::vector<dns::RRset> authority;
  // Glue A/AAAA for referral nameservers that are in-zone.
  std::vector<dns::RRset> additional;
};

// Merges records of `into`'s key into it: TTL = min(into.ttl, ttl), and
// each of `rdatas` not already present appended in order (duplicates
// dropped).
void MergeRdatas(dns::RRset& into, std::uint32_t ttl,
                 std::span<const dns::Rdata> rdatas);

class Zone {
 public:
  explicit Zone(dns::Name apex = dns::Name()) : apex_(std::move(apex)) {}

  const dns::Name& apex() const { return apex_; }

  // Adds an RRset, merging into an existing one with the same key by
  // MergeRdatas' rules. Fails if the owner is out of zone.
  //
  // Cost: the key is compared with the last key first. A greater key (the
  // input arrives in canonical order, as from AssembleAxfrStream,
  // DeserializeSnapshot, a master file or SignZone) is appended with no
  // search; an equal key merges into the last RRset; only an out-of-order
  // key pays one map search. The content never depends on which case ran.
  util::Status AddRRset(dns::RRset rrset);
  // Adds one record the same way; a record whose key equals the last key
  // merges straight into that RRset. The record is moved in, so a caller
  // done with it (AxfrStreamAssembler) passes it by std::move and nothing
  // is copied.
  util::Status AddRecord(dns::ResourceRecord record);

  // Removes an entire RRset; returns false if absent.
  bool RemoveRRset(const dns::RRsetKey& key);
  void Clear();

  const dns::RRset* Find(const dns::Name& name, dns::RRType type) const;
  bool HasName(const dns::Name& name) const;

  // The zone's SOA, if present.
  const dns::RRset* soa() const;
  // SOA serial, 0 if no SOA.
  std::uint32_t Serial() const;

  // Authoritative query logic. `include_dnssec` attaches covering RRSIGs and
  // the DS RRset at delegation points.
  LookupResult Lookup(const dns::Name& qname, dns::RRType qtype,
                      bool include_dnssec = false) const;

  // Names that own an NS RRset strictly below the apex — for the root zone,
  // the TLDs. Canonically ordered.
  std::vector<dns::Name> DelegatedChildren() const;

  // All RRsets in canonical order.
  std::vector<dns::RRset> AllRRsets() const;
  // Flat record list in canonical order.
  std::vector<dns::ResourceRecord> AllRecords() const;

  // Read-only view of the canonical (owner, type, class) → RRset map. Lets
  // ZoneSnapshot::Build fill its arena in one ordered pass without the
  // intermediate deep copy AllRRsets() would make.
  const std::map<dns::RRsetKey, dns::RRset>& rrset_map() const {
    return rrsets_;
  }

  std::size_t rrset_count() const { return rrsets_.size(); }
  std::size_t record_count() const;

 private:
  // Finds the closest delegation point at or above `name` (strictly below
  // the apex). Returns nullptr if none.
  const dns::RRset* FindDelegation(const dns::Name& name) const;

  // Finds the NSEC RRset covering a nonexistent name (nullptr if the zone
  // carries no NSEC chain).
  const dns::RRset* FindCoveringNsec(const dns::Name& qname) const;

  void AppendGlue(const dns::RRset& ns_set, LookupResult& result) const;
  void AppendRrsig(const dns::Name& name, dns::RRType covered,
                   std::vector<dns::RRset>& out) const;

  dns::Name apex_;
  std::map<dns::RRsetKey, dns::RRset> rrsets_;
};

}  // namespace rootless::zone
