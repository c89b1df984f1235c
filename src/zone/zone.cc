#include "zone/zone.h"

#include <algorithm>
#include <iterator>
#include <span>

namespace rootless::zone {

using dns::Name;
using dns::NsData;
using dns::RRset;
using dns::RRsetKey;
using dns::RRType;
using util::Error;

void MergeRdatas(RRset& into, std::uint32_t ttl,
                 std::span<const dns::Rdata> rdatas) {
  into.ttl = std::min(into.ttl, ttl);
  for (const auto& rd : rdatas) {
    if (std::find(into.rdatas.begin(), into.rdatas.end(), rd) ==
        into.rdatas.end()) {
      into.rdatas.push_back(rd);
    }
  }
}

util::Status Zone::AddRecord(dns::ResourceRecord record) {
  if (!rrsets_.empty()) {
    // The last RRset's owner already passed the in-zone check.
    RRset& last = std::prev(rrsets_.end())->second;
    if (record.type == last.type && record.rrclass == last.rrclass &&
        record.name == last.name) {
      // MergeRdatas' rules, with the rdata moved in.
      last.ttl = std::min(last.ttl, record.ttl);
      if (std::find(last.rdatas.begin(), last.rdatas.end(), record.rdata) ==
          last.rdatas.end()) {
        last.rdatas.push_back(std::move(record.rdata));
      }
      return util::Status::Ok();
    }
  }
  RRset set;
  set.name = std::move(record.name);
  set.type = record.type;
  set.rrclass = record.rrclass;
  set.ttl = record.ttl;
  set.rdatas.push_back(std::move(record.rdata));
  return AddRRset(std::move(set));
}

util::Status Zone::AddRRset(RRset rrset) {
  if (!rrset.name.IsSubdomainOf(apex_))
    return Error("zone: owner " + rrset.name.ToString() + " out of zone " +
                 apex_.ToString());
  RRsetKey key = rrset.key();
  auto pos = rrsets_.end();
  if (!rrsets_.empty()) {
    const auto last = std::prev(pos);
    const auto order = key <=> last->first;
    if (order == 0) {
      MergeRdatas(last->second, rrset.ttl, rrset.rdatas);
      return util::Status::Ok();
    }
    if (order < 0) {
      pos = rrsets_.lower_bound(key);
      if (pos->first == key) {
        MergeRdatas(pos->second, rrset.ttl, rrset.rdatas);
        return util::Status::Ok();
      }
    }
  }
  rrsets_.emplace_hint(pos, std::move(key), std::move(rrset));
  return util::Status::Ok();
}

bool Zone::RemoveRRset(const RRsetKey& key) {
  return rrsets_.erase(key) > 0;
}

void Zone::Clear() { rrsets_.clear(); }

const RRset* Zone::Find(const Name& name, RRType type) const {
  auto it = rrsets_.find(RRsetKey{name, type, dns::RRClass::kIN});
  if (it == rrsets_.end()) return nullptr;
  return &it->second;
}

bool Zone::HasName(const Name& name) const {
  // Any type at this exact owner name?
  auto it = rrsets_.lower_bound(
      RRsetKey{name, static_cast<RRType>(0), dns::RRClass::kIN});
  return it != rrsets_.end() && it->first.name == name;
}

const RRset* Zone::soa() const { return Find(apex_, RRType::kSOA); }

std::uint32_t Zone::Serial() const {
  const RRset* s = soa();
  if (s == nullptr || s->rdatas.empty()) return 0;
  return std::get<dns::SoaData>(s->rdatas.front()).serial;
}

const RRset* Zone::FindDelegation(const Name& name) const {
  if (!name.IsSubdomainOf(apex_) || name == apex_) return nullptr;
  // Walk from the name up to (but excluding) the apex looking for NS.
  Name current = name;
  const RRset* found = nullptr;
  while (current != apex_) {
    const RRset* ns = Find(current, RRType::kNS);
    // Keep the *highest* (closest-to-apex) delegation point below the apex:
    // a zone cut hides everything beneath it.
    if (ns != nullptr) found = ns;
    if (current.is_root()) break;
    current = current.Parent();
  }
  return found;
}

void Zone::AppendGlue(const RRset& ns_set, LookupResult& result) const {
  for (const auto& rd : ns_set.rdatas) {
    const Name& target = std::get<NsData>(rd).nameserver;
    if (!target.IsSubdomainOf(apex_)) continue;
    if (const RRset* a = Find(target, RRType::kA)) result.additional.push_back(*a);
    if (const RRset* aaaa = Find(target, RRType::kAAAA))
      result.additional.push_back(*aaaa);
  }
}

void Zone::AppendRrsig(const Name& name, RRType covered,
                       std::vector<RRset>& out) const {
  const RRset* sigs = Find(name, RRType::kRRSIG);
  if (sigs == nullptr) return;
  RRset matching;
  matching.name = sigs->name;
  matching.type = RRType::kRRSIG;
  matching.rrclass = sigs->rrclass;
  matching.ttl = sigs->ttl;
  for (const auto& rd : sigs->rdatas) {
    if (std::get<dns::RrsigData>(rd).type_covered == covered) {
      matching.rdatas.push_back(rd);
    }
  }
  if (!matching.empty()) out.push_back(std::move(matching));
}

LookupResult Zone::Lookup(const Name& qname, RRType qtype,
                          bool include_dnssec) const {
  LookupResult result;
  if (!qname.IsSubdomainOf(apex_)) {
    result.disposition = LookupDisposition::kOutOfZone;
    return result;
  }

  // Delegation check first: a zone cut takes precedence over data below it —
  // except at the cut point itself where a DS query is answered
  // authoritatively.
  const RRset* delegation = FindDelegation(qname);
  const bool ds_at_cut = delegation != nullptr && qname == delegation->name &&
                         qtype == RRType::kDS;
  if (delegation != nullptr && !ds_at_cut) {
    result.disposition = LookupDisposition::kReferral;
    result.authority.push_back(*delegation);
    if (include_dnssec) {
      // DS proves (or its absence disproves) the child's chain of trust.
      if (const RRset* ds = Find(delegation->name, RRType::kDS)) {
        result.authority.push_back(*ds);
        AppendRrsig(delegation->name, RRType::kDS, result.authority);
      }
    }
    AppendGlue(*delegation, result);
    return result;
  }

  if (const RRset* match = Find(qname, qtype)) {
    result.disposition = LookupDisposition::kAnswer;
    result.answers.push_back(*match);
    if (include_dnssec) AppendRrsig(qname, qtype, result.answers);
    return result;
  }

  // CNAME at the owner redirects any type (except CNAME itself, handled
  // above when qtype == kCNAME).
  if (const RRset* cname = Find(qname, RRType::kCNAME)) {
    result.disposition = LookupDisposition::kAnswer;
    result.answers.push_back(*cname);
    if (include_dnssec) AppendRrsig(qname, RRType::kCNAME, result.answers);
    return result;
  }

  result.disposition =
      HasName(qname) ? LookupDisposition::kNoData : LookupDisposition::kNxDomain;
  if (const RRset* s = soa()) {
    result.authority.push_back(*s);
    if (include_dnssec) AppendRrsig(apex_, RRType::kSOA, result.authority);
  }
  if (include_dnssec && result.disposition == LookupDisposition::kNxDomain) {
    // Authenticated denial: attach the covering NSEC and its signature.
    if (const RRset* nsec = FindCoveringNsec(qname)) {
      result.authority.push_back(*nsec);
      AppendRrsig(nsec->name, RRType::kNSEC, result.authority);
    }
  }
  return result;
}

const RRset* Zone::FindCoveringNsec(const Name& qname) const {
  // Walk backwards from the insertion point for (qname, NSEC) to the
  // nearest owner that carries an NSEC; the chain's canonical ordering
  // makes that the covering record (wrap-around handled by falling back to
  // the last NSEC in the zone).
  auto it = rrsets_.lower_bound(
      RRsetKey{qname, RRType::kNSEC, dns::RRClass::kIN});
  while (it != rrsets_.begin()) {
    --it;
    // Every key here sorts before (qname, NSEC); a nonexistent qname owns
    // no records, so the first NSEC encountered belongs to the greatest
    // owner preceding qname — the covering record.
    if (it->first.type == RRType::kNSEC) return &it->second;
  }
  // qname precedes every owner: the wrap-around NSEC (last in the chain)
  // covers it.
  const RRset* last_nsec = nullptr;
  for (const auto& [key, rrset] : rrsets_) {
    if (key.type == RRType::kNSEC) last_nsec = &rrset;
  }
  return last_nsec;
}

std::vector<Name> Zone::DelegatedChildren() const {
  std::vector<Name> out;
  for (const auto& [key, rrset] : rrsets_) {
    if (key.type == RRType::kNS && !(key.name == apex_)) {
      out.push_back(key.name);
    }
  }
  return out;
}

std::vector<RRset> Zone::AllRRsets() const {
  std::vector<RRset> out;
  out.reserve(rrsets_.size());
  for (const auto& [key, rrset] : rrsets_) out.push_back(rrset);
  return out;
}

std::vector<dns::ResourceRecord> Zone::AllRecords() const {
  std::vector<dns::ResourceRecord> out;
  for (const auto& [key, rrset] : rrsets_) {
    auto records = rrset.ToRecords();
    out.insert(out.end(), records.begin(), records.end());
  }
  return out;
}

std::size_t Zone::record_count() const {
  std::size_t n = 0;
  for (const auto& [key, rrset] : rrsets_) n += rrset.size();
  return n;
}

}  // namespace rootless::zone
