#include "zone/zone_snapshot.h"

#include <algorithm>
#include <map>
#include <set>

#include "util/check.h"

namespace rootless::zone {

using dns::Name;
using dns::NsData;
using dns::RRset;
using dns::RRsetKey;
using dns::RRsetView;
using dns::RRType;
using util::Error;

namespace {

// Canonical (name, type, class) ordering shared with RRsetKey::operator<=>.
std::weak_ordering CompareKey(const Name& an, RRType at, dns::RRClass ac,
                              const Name& bn, RRType bt, dns::RRClass bc) {
  if (auto c = an <=> bn; c != 0) return c;
  if (auto c = at <=> bt; c != 0) return c;
  return ac <=> bc;
}

// Typed rdata equality, in which names inside rdata compare
// case-insensitively. Equal stored bytes settle it for the whole run;
// otherwise each differing pair of rdatas is decoded and compared.
bool SameRdatas(RRType type, const dns::RdataRun& a, const dns::RdataRun& b) {
  if (a.size() != b.size()) return false;
  if (std::ranges::equal(a.stored(), b.stored())) return true;
  auto bi = b.begin();
  for (const auto wa : a) {
    const auto wb = *bi++;
    if (!std::ranges::equal(wa, wb) &&
        !(dns::RdataRun::Decode(type, wa) == dns::RdataRun::Decode(type, wb))) {
      return false;
    }
  }
  return true;
}

}  // namespace

LookupResult LookupView::Materialize() const {
  LookupResult out;
  out.disposition = disposition;
  out.answers.reserve(answers.size());
  for (const auto& v : answers) out.answers.push_back(v.Materialize());
  out.authority.reserve(authority.size());
  for (const auto& v : authority) out.authority.push_back(v.Materialize());
  out.additional.reserve(additional.size());
  for (const auto& v : additional) out.additional.push_back(v.Materialize());
  return out;
}

void ZoneSnapshot::StoreRRset(const RRset& set, const Name& apex, Page& page,
                              util::ByteWriter& arena) {
  StoredRRset s;
  s.name = set.name;
  s.name.Hash();  // cached now, so readers never write the page
  s.type = set.type;
  s.rrclass = set.rrclass;
  s.ttl = set.ttl;
  s.rdata_offset = static_cast<std::uint32_t>(arena.size());
  s.rdata_count = static_cast<std::uint32_t>(set.rdatas.size());
  const bool rrsig = set.type == RRType::kRRSIG;
  // RRSIG sets: where each element starts, and where the last one ends.
  std::vector<std::uint32_t> starts;
  for (const auto& rd : set.rdatas) {
    ROOTLESS_CHECK(dns::RdataMatchesType(rd, set.type));
    if (rrsig) starts.push_back(static_cast<std::uint32_t>(arena.size()));
    dns::RdataRun::Append(rd, arena);
  }
  s.rdata_bytes = static_cast<std::uint32_t>(arena.size()) - s.rdata_offset;

  if (rrsig) {
    starts.push_back(static_cast<std::uint32_t>(arena.size()));
    // Pre-split the signature set by type_covered so serving never filters.
    // Groups keep first-seen order; members keep original rdata order.
    const auto covered_by = [&set](std::uint32_t i) {
      return std::get<dns::RrsigData>(set.rdatas[i]).type_covered;
    };
    struct Bucket {
      RRType covered;
      std::uint32_t first, last, count;
    };
    std::vector<Bucket> buckets;
    for (std::uint32_t i = 0; i < s.rdata_count; ++i) {
      auto it = std::find_if(buckets.begin(), buckets.end(), [&](const auto& b) {
        return b.covered == covered_by(i);
      });
      if (it == buckets.end()) {
        buckets.push_back({covered_by(i), i, i, 1});
      } else {
        it->last = i;
        ++it->count;
      }
    }
    s.aux_offset = static_cast<std::uint32_t>(page.sig_groups.size());
    for (const Bucket& b : buckets) {
      SigGroup g;
      g.covered = b.covered;
      g.rdata_count = b.count;
      if (b.last - b.first + 1 == b.count) {
        // Contiguous: alias the parent set's run directly.
        g.rdata_offset = starts[b.first];
        g.rdata_bytes = starts[b.last + 1] - g.rdata_offset;
      } else {
        // Scattered: store the members again as their own run.
        g.rdata_offset = static_cast<std::uint32_t>(arena.size());
        for (std::uint32_t i = b.first; i <= b.last; ++i) {
          if (covered_by(i) == b.covered) {
            dns::RdataRun::Append(set.rdatas[i], arena);
          }
        }
        g.rdata_bytes =
            static_cast<std::uint32_t>(arena.size()) - g.rdata_offset;
      }
      page.sig_groups.push_back(g);
    }
    s.sig_count =
        static_cast<std::uint32_t>(page.sig_groups.size()) - s.aux_offset;
  } else if (set.type == RRType::kNS) {
    s.aux_offset = static_cast<std::uint32_t>(page.ns_targets.size());
    for (const auto& rd : set.rdatas) {
      const Name& target = std::get<NsData>(rd).nameserver;
      page.ns_targets.push_back(
          NsTarget{target.Hash(),
                   static_cast<std::uint8_t>(target.label_count()),
                   target.IsSubdomainOf(apex)});
    }
  }

  page.rrsets.push_back(std::move(s));
}

std::vector<ZoneSnapshot::Entry> ZoneSnapshot::FinishPage(
    Page& page, const util::ByteWriter& arena) {
  page.arena = arena.Copy();
  page.sig_groups.shrink_to_fit();
  page.ns_targets.shrink_to_fit();
  std::vector<Entry> entries;
  entries.reserve(page.rrsets.size());
  for (const StoredRRset& s : page.rrsets) entries.push_back({&s, &page});
  return entries;
}

void ZoneSnapshot::FinishInit() {
  record_count_ = 0;
  for (const auto& e : index_) record_count_ += e.set->rdata_count;

  // Canonical order keeps each owner's RRsets adjacent: the owners are the
  // runs of equal names in index_.
  owner_starts_.reserve(index_.size() + 1);
  for (std::size_t i = 0; i < index_.size(); ++i) {
    if (i == 0 || !(index_[i].set->name == index_[i - 1].set->name)) {
      owner_starts_.push_back(static_cast<std::uint32_t>(i));
    }
  }
  const auto owners = static_cast<std::uint32_t>(owner_starts_.size());
  owner_starts_.push_back(static_cast<std::uint32_t>(index_.size()));
  const auto hash_of = [this](std::uint32_t k) -> std::uint64_t {
    return index_[owner_starts_[k]].set->name.Hash();
  };
  owner_index_.Reserve(owners);
  for (std::uint32_t k = 0; k < owners; ++k) {
    owner_index_.Insert(hash_of(k), k, hash_of);
  }

  serial_ = 0;
  if (const Entry* s = FindEntry(apex_, RRType::kSOA);
      s != nullptr && s->set->rdata_count > 0) {
    serial_ = std::get<dns::SoaData>(
                  dns::RdataRun::Decode(RRType::kSOA,
                                        ViewOf(*s).rdatas.front()))
                  .serial;
  }
}

SnapshotPtr ZoneSnapshot::Build(const Zone& zone) {
  auto snap = std::make_shared<ZoneSnapshot>();
  snap->apex_ = zone.apex();
  auto page = std::make_shared<Page>();
  page->rrsets.reserve(zone.rrset_count());
  util::ByteWriter arena;
  for (const auto& [key, set] : zone.rrset_map()) {
    StoreRRset(set, snap->apex_, *page, arena);
  }
  snap->index_ = FinishPage(*page, arena);
  snap->pages_.push_back(std::move(page));
  snap->FinishInit();
  return snap;
}

util::Result<SnapshotPtr> ZoneSnapshot::Apply(const SnapshotPtr& base,
                                              const ZoneDiff& diff) {
  if (base == nullptr) return Error("snapshot: apply on null base");
  const Name& apex = base->apex_;

  auto base_has = [&](const RRsetKey& key) {
    const Entry* e = base->FindEntry(key.name, key.type);
    return e != nullptr && e->set->rrclass == key.rrclass;
  };

  // Replays the removed → changed → added order against a key-level
  // overlay: `erased` marks base keys deleted, `delta` holds new content.
  // The final index keeps a base entry iff its key is in neither.
  std::set<RRsetKey> erased;
  std::map<RRsetKey, RRset> delta;

  // The decoders only return storable rdata; a diff built in code may not.
  const auto storable = [](const RRset& set) {
    return std::all_of(set.rdatas.begin(), set.rdatas.end(),
                       [&set](const dns::Rdata& rd) {
                         return dns::RdataMatchesType(rd, set.type) &&
                                dns::RdataFitsRdlength(rd);
                       });
  };
  const auto unstorable = [](const RRset& set) {
    return Error(ErrorCode::kCorrupted,
                 "diff: rdata of " + set.name.ToString() + " " +
                     dns::RRTypeToString(set.type) +
                     " does not fit its type or RDLENGTH");
  };

  for (const auto& key : diff.removed) {
    if (!base_has(key) || erased.count(key) > 0 || delta.count(key) > 0) {
      return Error("diff: removed key not present: " + key.name.ToString());
    }
    erased.insert(key);
  }
  for (const auto& set : diff.changed) {
    const RRsetKey key = set.key();
    const bool present =
        delta.count(key) > 0 || (base_has(key) && erased.count(key) == 0);
    if (!present) {
      return Error("diff: changed key not present: " + set.name.ToString());
    }
    if (!set.name.IsSubdomainOf(apex)) {
      return Error("zone: owner " + set.name.ToString() + " out of zone " +
                   apex.ToString());
    }
    if (!storable(set)) return unstorable(set);
    delta[key] = set;
  }
  for (const auto& set : diff.added) {
    const RRsetKey key = set.key();
    if (!set.name.IsSubdomainOf(apex)) {
      return Error("zone: owner " + set.name.ToString() + " out of zone " +
                   apex.ToString());
    }
    if (!storable(set)) return unstorable(set);
    auto it = delta.find(key);
    if (it == delta.end() && base_has(key) && erased.count(key) == 0) {
      // Merging against live base content: lift it into the delta first.
      const Entry* e = base->FindEntry(key.name, key.type);
      it = delta.emplace(key, ViewOf(*e).Materialize()).first;
    }
    if (it == delta.end()) {
      erased.erase(key);
      delta.emplace(key, set);
      continue;
    }
    MergeRdatas(it->second, set.ttl, set.rdatas);
  }

  auto snap = std::make_shared<ZoneSnapshot>();
  snap->apex_ = apex;

  // One delta page holds deep copies of only the added/changed RRsets —
  // everything else is shared with the parent by page refcount.
  auto page = std::make_shared<Page>();
  page->rrsets.reserve(delta.size());
  util::ByteWriter arena;
  for (const auto& [key, set] : delta) StoreRRset(set, apex, *page, arena);
  const std::vector<Entry> delta_entries = FinishPage(*page, arena);

  // Sorted merge of the surviving parent entries with the delta entries.
  // O(index) pointer copies; the only data copied is the delta page above.
  snap->index_.reserve(base->index_.size() + delta_entries.size());
  auto bi = base->index_.begin();
  auto di = delta_entries.begin();
  auto entry_cmp = [](const Entry& a, const Entry& b) {
    return CompareKey(a.set->name, a.set->type, a.set->rrclass, b.set->name,
                      b.set->type, b.set->rrclass);
  };
  // `erased` iterates in index order (RRsetKey orders like CompareKey), so
  // one forward cursor tells whether each base entry was removed, without
  // building a key per entry.
  auto ei = erased.begin();
  auto keep_base = [&](const Entry& e) {
    auto cmp = [&] {
      return CompareKey(ei->name, ei->type, ei->rrclass, e.set->name,
                        e.set->type, e.set->rrclass);
    };
    while (ei != erased.end() && cmp() < 0) ++ei;
    if (ei == erased.end() || cmp() != 0) snap->index_.push_back(e);
  };
  while (bi != base->index_.end() || di != delta_entries.end()) {
    if (bi == base->index_.end()) {
      snap->index_.push_back(*di++);
      continue;
    }
    if (di == delta_entries.end()) {
      keep_base(*bi++);
      continue;
    }
    const auto c = entry_cmp(*bi, *di);
    if (c == 0) {
      snap->index_.push_back(*di++);  // delta overrides the parent entry
      ++bi;
    } else if (c < 0) {
      keep_base(*bi++);
    } else {
      snap->index_.push_back(*di++);
    }
  }

  snap->pages_ = base->pages_;
  snap->pages_.push_back(std::move(page));
  snap->FinishInit();
  return SnapshotPtr(std::move(snap));
}

ZoneSnapshot::Run ZoneSnapshot::OwnerRun(const dns::NameView& name,
                                         std::uint64_t hash) const {
  const std::uint32_t k = owner_index_.Find(hash, [&](std::uint32_t owner) {
    return index_[owner_starts_[owner]].set->name == name;
  });
  if (k == util::FlatHashIndex::kNpos) return {};
  return Run(index_.data() + owner_starts_[k],
             owner_starts_[k + 1] - owner_starts_[k]);
}

const ZoneSnapshot::Entry* ZoneSnapshot::FindType(Run run, RRType type) {
  for (const Entry& e : run) {
    if (e.set->type == type && e.set->rrclass == dns::RRClass::kIN) return &e;
  }
  return nullptr;
}

const ZoneSnapshot::Entry* ZoneSnapshot::FindEntry(const Name& name,
                                                   RRType type) const {
  return FindType(OwnerRun(name), type);
}

bool ZoneSnapshot::HasName(const Name& name) const {
  return !OwnerRun(name).empty();
}

std::optional<RRsetView> ZoneSnapshot::Find(const Name& name,
                                            RRType type) const {
  const Entry* e = FindEntry(name, type);
  if (e == nullptr) return std::nullopt;
  return ViewOf(*e);
}

std::optional<RRsetView> ZoneSnapshot::soa() const {
  return Find(apex_, RRType::kSOA);
}

ZoneSnapshot::Run ZoneSnapshot::FindDelegation(const Name& name,
                                               Run own) const {
  // Only names strictly below the apex can sit under a cut. Probe from the
  // first label below the apex downwards: the *highest* delegation point
  // wins, because a zone cut hides everything beneath it.
  const std::size_t labels = name.label_count();
  for (std::size_t k = apex_.label_count() + 1; k < labels; ++k) {
    const dns::NameView suffix = name.SuffixView(k);
    const Run run = OwnerRun(suffix, suffix.Hash());
    if (FindType(run, RRType::kNS) != nullptr) return run;
  }
  if (labels > apex_.label_count() && FindType(own, RRType::kNS) != nullptr) {
    return own;
  }
  return {};
}

void ZoneSnapshot::AppendGlue(const Entry& ns_set, LookupView& out) const {
  const auto targets = std::span<const NsTarget>(ns_set.page->ns_targets)
                           .subspan(ns_set.set->aux_offset,
                                    ns_set.set->rdata_count);
  auto wire = ViewOf(ns_set).rdatas.begin();
  for (const NsTarget& target : targets) {
    const std::span<const std::uint8_t> name = *wire++;
    if (!target.in_zone) continue;
    const Run run =
        OwnerRun(dns::NameView::OfWire(name, target.label_count), target.hash);
    if (const Entry* a = FindType(run, RRType::kA)) {
      out.additional.push_back(ViewOf(*a));
    }
    if (const Entry* aaaa = FindType(run, RRType::kAAAA)) {
      out.additional.push_back(ViewOf(*aaaa));
    }
  }
}

void ZoneSnapshot::AppendRrsig(Run run, RRType covered,
                               std::vector<RRsetView>& out) {
  const Entry* sigs = FindType(run, RRType::kRRSIG);
  if (sigs == nullptr) return;
  const Page& page = *sigs->page;
  for (const SigGroup& g : std::span<const SigGroup>(page.sig_groups)
                               .subspan(sigs->set->aux_offset,
                                        sigs->set->sig_count)) {
    if (g.covered != covered) continue;
    out.push_back(RRsetView{
        &sigs->set->name, RRType::kRRSIG, sigs->set->rrclass, sigs->set->ttl,
        page.Run(g.rdata_offset, g.rdata_bytes, g.rdata_count)});
    return;
  }
}

void ZoneSnapshot::Lookup(const Name& qname, RRType qtype, bool include_dnssec,
                          LookupView& out) const {
  out.clear();
  if (!qname.IsSubdomainOf(apex_)) {
    out.disposition = LookupDisposition::kOutOfZone;
    return;
  }

  // One owner-index probe serves the qtype, CNAME and NODATA-vs-NXDOMAIN
  // checks below (and the last step of the cut search).
  const Run own = OwnerRun(qname);

  // Delegation check first: a zone cut takes precedence over data below it —
  // except at the cut point itself where a DS query is answered
  // authoritatively.
  const Run cut = FindDelegation(qname, own);
  const bool ds_at_cut =
      !cut.empty() && cut.data() == own.data() && qtype == RRType::kDS;
  if (!cut.empty() && !ds_at_cut) {
    out.disposition = LookupDisposition::kReferral;
    const Entry& ns = *FindType(cut, RRType::kNS);
    out.authority.push_back(ViewOf(ns));
    if (include_dnssec) {
      // DS proves (or its absence disproves) the child's chain of trust.
      if (const Entry* ds = FindType(cut, RRType::kDS)) {
        out.authority.push_back(ViewOf(*ds));
        AppendRrsig(cut, RRType::kDS, out.authority);
      }
    }
    AppendGlue(ns, out);
    return;
  }

  if (const Entry* match = FindType(own, qtype)) {
    out.disposition = LookupDisposition::kAnswer;
    out.answers.push_back(ViewOf(*match));
    if (include_dnssec) AppendRrsig(own, qtype, out.answers);
    return;
  }

  // CNAME at the owner redirects any type (except CNAME itself, handled
  // above when qtype == kCNAME).
  if (const Entry* cname = FindType(own, RRType::kCNAME)) {
    out.disposition = LookupDisposition::kAnswer;
    out.answers.push_back(ViewOf(*cname));
    if (include_dnssec) AppendRrsig(own, RRType::kCNAME, out.answers);
    return;
  }

  out.disposition = own.empty() ? LookupDisposition::kNxDomain
                                : LookupDisposition::kNoData;
  const Run apex_run = OwnerRun(apex_);
  if (const Entry* s = FindType(apex_run, RRType::kSOA)) {
    out.authority.push_back(ViewOf(*s));
    if (include_dnssec) AppendRrsig(apex_run, RRType::kSOA, out.authority);
  }
  if (include_dnssec && out.disposition == LookupDisposition::kNxDomain) {
    // Authenticated denial: attach the covering NSEC and its signature.
    if (const Entry* nsec = FindCoveringNsec(qname)) {
      out.authority.push_back(ViewOf(*nsec));
      AppendRrsig(OwnerRun(nsec->set->name), RRType::kNSEC, out.authority);
    }
  }
}

LookupView ZoneSnapshot::Lookup(const Name& qname, RRType qtype,
                                bool include_dnssec) const {
  LookupView out;
  Lookup(qname, qtype, include_dnssec, out);
  return out;
}

const ZoneSnapshot::Entry* ZoneSnapshot::FindCoveringNsec(
    const Name& qname) const {
  // Walk backwards from the insertion point for (qname, NSEC) to the
  // nearest owner that carries an NSEC; the chain's canonical ordering
  // makes that the covering record (wrap-around handled by falling back to
  // the last NSEC in the zone).
  auto it = std::lower_bound(
      index_.begin(), index_.end(), nullptr, [&](const Entry& e, std::nullptr_t) {
        return CompareKey(e.set->name, e.set->type, e.set->rrclass, qname,
                          RRType::kNSEC, dns::RRClass::kIN) < 0;
      });
  while (it != index_.begin()) {
    --it;
    if (it->set->type == RRType::kNSEC) return &*it;
  }
  // qname precedes every owner: the wrap-around NSEC (last in the chain)
  // covers it.
  const Entry* last_nsec = nullptr;
  for (const auto& e : index_) {
    if (e.set->type == RRType::kNSEC) last_nsec = &e;
  }
  return last_nsec;
}

std::vector<Name> ZoneSnapshot::DelegatedChildren() const {
  std::vector<Name> out;
  for (const auto& e : index_) {
    if (e.set->type == RRType::kNS && !(e.set->name == apex_)) {
      out.push_back(e.set->name);
    }
  }
  return out;
}

void ZoneSnapshot::ForEachRRset(
    const std::function<void(const RRsetView&)>& fn) const {
  for (const auto& e : index_) fn(ViewOf(e));
}

std::vector<RRset> ZoneSnapshot::AllRRsets() const {
  std::vector<RRset> out;
  out.reserve(index_.size());
  for (const auto& e : index_) out.push_back(ViewOf(e).Materialize());
  return out;
}

bool ZoneSnapshot::SameContent(const ZoneSnapshot& other) const {
  if (!(apex_ == other.apex_) || index_.size() != other.index_.size()) {
    return false;
  }
  for (std::size_t i = 0; i < index_.size(); ++i) {
    const StoredRRset& a = *index_[i].set;
    const StoredRRset& b = *other.index_[i].set;
    if (!(a.name == b.name) || a.type != b.type || a.rrclass != b.rrclass ||
        a.ttl != b.ttl ||
        !SameRdatas(a.type, ViewOf(index_[i]).rdatas,
                    ViewOf(other.index_[i]).rdatas)) {
      return false;
    }
  }
  return true;
}

std::size_t ZoneSnapshot::newest_page_rrset_count() const {
  return pages_.empty() ? 0 : pages_.back()->rrsets.size();
}

std::size_t ZoneSnapshot::SharedPageCount(const ZoneSnapshot& other) const {
  std::size_t shared = 0;
  for (const auto& p : pages_) {
    for (const auto& q : other.pages_) {
      if (p == q) {
        ++shared;
        break;
      }
    }
  }
  return shared;
}

ZoneDiff DiffSnapshots(const ZoneSnapshot& old_snapshot,
                       const ZoneSnapshot& new_snapshot) {
  // Lockstep walk over the two canonical indexes, without building key
  // maps.
  ZoneDiff diff;
  const auto& oi = old_snapshot.index_;
  const auto& ni = new_snapshot.index_;
  std::size_t o = 0, n = 0;
  auto key_of = [](const ZoneSnapshot::Entry& e) {
    return RRsetKey{e.set->name, e.set->type, e.set->rrclass};
  };
  auto same_content = [](const ZoneSnapshot::Entry& a,
                         const ZoneSnapshot::Entry& b) {
    return a.set->ttl == b.set->ttl &&
           SameRdatas(a.set->type, ZoneSnapshot::ViewOf(a).rdatas,
                      ZoneSnapshot::ViewOf(b).rdatas);
  };
  while (o < oi.size() || n < ni.size()) {
    if (o == oi.size()) {
      diff.added.push_back(ZoneSnapshot::ViewOf(ni[n]).Materialize());
      ++n;
      continue;
    }
    if (n == ni.size()) {
      diff.removed.push_back(key_of(oi[o]));
      ++o;
      continue;
    }
    const auto c = CompareKey(oi[o].set->name, oi[o].set->type,
                              oi[o].set->rrclass, ni[n].set->name,
                              ni[n].set->type, ni[n].set->rrclass);
    if (c == 0) {
      if (!same_content(oi[o], ni[n])) {
        diff.changed.push_back(ZoneSnapshot::ViewOf(ni[n]).Materialize());
      }
      ++o;
      ++n;
    } else if (c < 0) {
      diff.removed.push_back(key_of(oi[o]));
      ++o;
    } else {
      diff.added.push_back(ZoneSnapshot::ViewOf(ni[n]).Materialize());
      ++n;
    }
  }
  return diff;
}

}  // namespace rootless::zone
