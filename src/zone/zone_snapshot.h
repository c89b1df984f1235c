// Immutable, arena-backed zone snapshot shared zero-copy across layers.
//
// A ZoneSnapshot is the one form in which a root-zone version reaches a
// component: it is built once from a Zone (the builder: master-file parser,
// RootZoneModel, SignZone) or derived from a parent snapshot plus a ZoneDiff,
// and then handed around as a cheap refcounted value (SnapshotPtr). All
// names and rdata live in contiguous per-page arenas: owner names in the
// page's RRset descriptors, and every rdata as the wire bytes
// dns::EncodeRdata writes, back to back in one byte arena per page
// (dns::RdataRun's stored form). The snapshot's sorted index stores borrowed
// pointers into those pages, and every read API hands out dns::RRsetView
// runs over the same memory. Serving copies the stored bytes into the
// answer (rootsrv::AuthServer, distrib's AXFR stream, the snapshot wire);
// only a consumer that needs a field decodes the rdata it reads (a
// resolver's cache, its NXDOMAIN TTL, TldFarm's addresses, AllRRsets).
// The signed 2018-04-11 model zone (52,734 records) takes 5.66 MB of heap,
// 107 B a record (ZoneSnapshot.BuildFootprint).
//
// Everything a lookup needs beyond the bytes is taken when a page is built:
// the SOA serial, each RRSIG's covered type (pre-split SigGroups), and each
// NS target's owner hash and label count for the glue probe. No lookup
// decodes or hashes rdata, and nothing in a page is written after it is
// built. Content comparisons (SameContent, DiffSnapshots, Apply's merge)
// keep typed equality, in which names inside rdata compare
// case-insensitively: equal bytes settle it, and only differing rdatas are
// decoded and compared.
//
// Structural sharing: Apply() does not rebuild the arena. It allocates ONE new
// delta page holding only the added/changed RRsets, each rdata encoded once,
// shares every parent page by refcount, and merges the two sorted indexes —
// an O(index) pointer merge with O(changed-RRsets) data movement. That is
// what makes the paper's §5.2 every-two-days refresh cheap at population
// scale: a fleet of simulated resolvers swaps a pointer, not a zone copy.
//
// Owner index: beside the canonical sorted index (which AXFR order, the Apply
// merge, DiffSnapshots, SameContent and the covering-NSEC search walk), every
// snapshot carries a util::FlatHashIndex from an owner name's case-folded
// Name::Hash() to that owner's contiguous run of index entries. Exact-name
// reads (Find, HasName, glue, RRSIG attach) are one hash probe plus a scan of
// a run of a few entries; the zone-cut search probes borrowed suffix views
// (NameView hashes equal Name hashes) from the first label below the apex
// down, with no Parent() copies. The index is rebuilt in O(index) by both
// Build and Apply and is read-only afterwards, so one snapshot serves any
// number of threads.
//
// Lookup() is the one root-zone lookup, run by root servers and local-root
// resolvers alike. It mirrors zone::Zone::Lookup decision-for-decision
// (answer / referral / NODATA / NXDOMAIN, DS-at-cut, CNAME, covering NSEC);
// zone_snapshot_test sweeps both with Zone::Lookup as the oracle.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "dns/rr.h"
#include "util/flat_hash.h"
#include "util/result.h"
#include "zone/zone.h"
#include "zone/zone_diff.h"

namespace rootless::zone {

class ZoneSnapshot;
using SnapshotPtr = std::shared_ptr<const ZoneSnapshot>;

// Borrowed analogue of LookupResult: sections are views into the snapshot's
// arenas, valid while the snapshot is alive. Designed to be reused as
// per-server scratch (clear + refill, capacity retained).
struct LookupView {
  LookupDisposition disposition = LookupDisposition::kOutOfZone;
  std::vector<dns::RRsetView> answers;
  std::vector<dns::RRsetView> authority;
  std::vector<dns::RRsetView> additional;

  void clear() {
    disposition = LookupDisposition::kOutOfZone;
    answers.clear();
    authority.clear();
    additional.clear();
  }

  // Decoded copy in the owning LookupResult form (tests, loopback compat).
  LookupResult Materialize() const;
};

class ZoneSnapshot {
 public:
  // Builds a snapshot from a Zone: one pass over the canonical map into a
  // single new page, encoding each rdata once. O(zone size). Every rdata
  // must match its RRset's type (dns::RdataMatchesType) and encode to at
  // most dns::kMaxRdataLength bytes (both checked), as every parser and
  // decoder in the library guarantees.
  static SnapshotPtr Build(const Zone& zone);

  // Derives a new snapshot from `base` by applying `diff`. Parent pages are
  // shared by refcount; only added/changed RRsets are encoded into one new
  // delta page. The lists apply in order removed, changed, added:
  //  - a removed key must be present (and is then gone);
  //  - a changed key must be present, and its RRset is replaced whole;
  //  - an added RRset whose key is absent is inserted; one whose key is
  //    present merges into it: TTL = min of the two, and rdatas it lacks
  //    (by typed equality) are appended in the diff's order;
  //  - changed and added owners must lie under the apex;
  //  - every changed and added rdata must match its RRset's type and fit
  //    RDLENGTH, as for Build (kCorrupted otherwise).
  // Any violation fails the whole Apply; `base` is never modified.
  static util::Result<SnapshotPtr> Apply(const SnapshotPtr& base,
                                         const ZoneDiff& diff);

  const dns::Name& apex() const { return apex_; }
  std::uint32_t Serial() const { return serial_; }

  std::size_t rrset_count() const { return index_.size(); }
  std::size_t record_count() const { return record_count_; }

  // Exact-match lookup; the view borrows from this snapshot's arena.
  std::optional<dns::RRsetView> Find(const dns::Name& name,
                                     dns::RRType type) const;
  bool HasName(const dns::Name& name) const;
  std::optional<dns::RRsetView> soa() const;

  // Authoritative query logic, identical to Zone::Lookup but emitting views.
  // `out` is caller-owned scratch (cleared first).
  void Lookup(const dns::Name& qname, dns::RRType qtype, bool include_dnssec,
              LookupView& out) const;
  LookupView Lookup(const dns::Name& qname, dns::RRType qtype,
                    bool include_dnssec = false) const;

  // Names owning an NS RRset strictly below the apex, canonical order.
  std::vector<dns::Name> DelegatedChildren() const;

  // Visits every RRset in canonical order as a borrowed view.
  void ForEachRRset(
      const std::function<void(const dns::RRsetView&)>& fn) const;

  // Decoded copies, canonical order — cold paths only (crypto validation).
  std::vector<dns::RRset> AllRRsets() const;

  // Content equality (same apex and identical RRsets in canonical order,
  // rdatas by typed equality), regardless of page structure.
  bool SameContent(const ZoneSnapshot& other) const;

  // --- structural-sharing introspection (tests and benches) ---
  // Number of arena pages backing this snapshot (1 after Build, parent+1
  // after Apply).
  std::size_t page_count() const { return pages_.size(); }
  // RRsets owned by the newest page — after Apply this is exactly the number
  // of added+changed RRsets (the O(changed) data cost of the swap).
  std::size_t newest_page_rrset_count() const;
  // Pages this snapshot shares (same object) with `other`.
  std::size_t SharedPageCount(const ZoneSnapshot& other) const;

  // Internal storage — public only so std::make_shared can construct; use
  // Build()/Apply().
  struct StoredRRset {
    dns::Name name;  // hashed when stored
    dns::RRType type = dns::RRType::kA;
    dns::RRClass rrclass = dns::RRClass::kIN;
    std::uint32_t ttl = 0;
    // The set's rdatas: `rdata_count` stored rdatas in the `rdata_bytes`
    // bytes at `rdata_offset` of the owning page's arena.
    std::uint32_t rdata_offset = 0;
    std::uint32_t rdata_bytes = 0;
    std::uint32_t rdata_count = 0;
    // RRSIG owners: `sig_count` covering groups from
    // page.sig_groups[aux_offset]. NS owners: one target per rdata from
    // page.ns_targets[aux_offset].
    std::uint32_t aux_offset = 0;
    std::uint32_t sig_count = 0;
  };

  // RRSIG rdatas bucketed by type_covered at build time, so AppendRrsig is a
  // pointer lookup instead of a per-query filter-and-copy. Groups whose
  // members are contiguous in the parent set alias its run; others get a
  // duplicated run at the end of the arena.
  struct SigGroup {
    dns::RRType covered = dns::RRType::kA;
    std::uint32_t rdata_offset = 0;
    std::uint32_t rdata_bytes = 0;
    std::uint32_t rdata_count = 0;
  };

  // What glue lookup needs of one NS target, taken at build time so that no
  // lookup parses or hashes rdata.
  struct NsTarget {
    std::uint64_t hash = 0;  // the target's Name::Hash()
    std::uint8_t label_count = 0;
    bool in_zone = false;  // at or below the apex: glue may exist
  };

  // One immutable arena page. A Build snapshot has one; each Apply adds one
  // delta page and shares the rest. Nothing in a page changes once it is
  // built.
  struct Page {
    std::vector<StoredRRset> rrsets;
    // Every rdata of the page, in dns::RdataRun's stored form: the bytes
    // dns::EncodeRdata writes, each behind a two-byte length.
    util::Bytes arena;
    std::vector<SigGroup> sig_groups;
    std::vector<NsTarget> ns_targets;

    dns::RdataRun Run(std::uint32_t offset, std::uint32_t bytes,
                      std::uint32_t count) const {
      return dns::RdataRun(std::span<const std::uint8_t>(arena).subspan(
                               offset, bytes),
                           count);
    }
  };

  ZoneSnapshot() = default;

 private:
  friend ZoneDiff DiffSnapshots(const ZoneSnapshot& old_snapshot,
                                const ZoneSnapshot& new_snapshot);
  // Sorted-index entry: one stored RRset and the page that owns it.
  struct Entry {
    const StoredRRset* set = nullptr;
    const Page* page = nullptr;
  };

  // Every RRset of one owner: a contiguous slice of index_ in type order.
  using Run = std::span<const Entry>;

  static dns::RRsetView ViewOf(const Entry& e) {
    return dns::RRsetView{&e.set->name, e.set->type, e.set->rrclass,
                          e.set->ttl,
                          e.page->Run(e.set->rdata_offset, e.set->rdata_bytes,
                                      e.set->rdata_count)};
  }

  // The owner's run (empty if the name owns nothing): one owner-index probe
  // with `hash` = the name's Name::Hash().
  Run OwnerRun(const dns::NameView& name, std::uint64_t hash) const;
  Run OwnerRun(const dns::Name& name) const {
    return OwnerRun(dns::NameView(name), name.Hash());  // hash is cached
  }
  // The run's class-IN RRset of `type`, or nullptr.
  static const Entry* FindType(Run run, dns::RRType type);

  const Entry* FindEntry(const dns::Name& name, dns::RRType type) const;
  // The run of the highest owner strictly below the apex, at or above
  // `name`, that holds an NS RRset; `own` is `name`'s own run.
  Run FindDelegation(const dns::Name& name, Run own) const;
  const Entry* FindCoveringNsec(const dns::Name& qname) const;
  void AppendGlue(const Entry& ns_set, LookupView& out) const;
  static void AppendRrsig(Run run, dns::RRType covered,
                          std::vector<dns::RRsetView>& out);

  // Encodes `set` into `page`: its rdatas into `arena` (which becomes the
  // page's arena once every set is stored), its sig groups or NS targets
  // beside them. `apex` decides which NS targets can have glue.
  static void StoreRRset(const dns::RRset& set, const dns::Name& apex,
                         Page& page, util::ByteWriter& arena);
  // Copies the arena into the page at exact size and trims its vectors;
  // returns the page's index entries, in page order.
  static std::vector<Entry> FinishPage(Page& page,
                                       const util::ByteWriter& arena);

  // Builds the owner index and caches serial / record count; called once
  // index_ is final.
  void FinishInit();

  dns::Name apex_;
  std::uint32_t serial_ = 0;
  std::size_t record_count_ = 0;
  std::vector<std::shared_ptr<const Page>> pages_;
  std::vector<Entry> index_;  // canonical (name, type, class) order
  // Owner k's run is index_[owner_starts_[k], owner_starts_[k + 1]); the
  // last element is index_.size().
  std::vector<std::uint32_t> owner_starts_;
  // Owner name's Name::Hash() → owner number k.
  util::FlatHashIndex owner_index_;
};

// Computes new - old by lockstep walk over the two sorted indexes. O(n) with
// no maps. Each list is in canonical key order: `added` holds the new
// RRsets whose key the old snapshot lacks, `removed` the old keys the new
// one lacks, and `changed` the new content of keys both hold with different
// TTL or rdatas. Apply(old, DiffSnapshots(old, new)) has new's content.
ZoneDiff DiffSnapshots(const ZoneSnapshot& old_snapshot,
                       const ZoneSnapshot& new_snapshot);

}  // namespace rootless::zone
