// Indexed local root-zone store — the §3 "load the root zone into a
// database" option, and the fast path the paper's §5.1 suggests beyond
// scanning the compressed file.
//
// The db is an index *over* an immutable zone::ZoneSnapshot, not a copy of
// it: each TLD entry holds borrowed views (NS + glue + DS) into the
// snapshot's arena, and the map is keyed by string_views into the
// snapshot-owned owner names. Loading a new snapshot rebuilds only the index
// (pointers), never the RRset data, and a fleet of resolvers can share one
// snapshot with per-resolver ZoneDb indexes.
#pragma once

#include <span>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "dns/rr.h"
#include "util/strings.h"
#include "zone/zone_snapshot.h"

namespace rootless::resolver {

struct TldEntry {
  dns::RRsetView ns;                       // delegation NS RRset
  std::span<const dns::RRsetView> glue;    // A/AAAA for in-bailiwick servers
  std::span<const dns::RRsetView> ds;      // DS RRset(s), if the TLD is signed
};

class ZoneDb {
 public:
  ZoneDb() = default;
  explicit ZoneDb(zone::SnapshotPtr snapshot) { Load(std::move(snapshot)); }

  // (Re)builds the index over `snapshot`. The snapshot is retained (it backs
  // every view handed out); the previous one is released.
  void Load(zone::SnapshotPtr snapshot);

  // Looks up a TLD label (without dot, any case; matching is ASCII
  // case-insensitive so a view straight out of dns::Name::tld_view() works
  // without building a temporary string). Returns nullptr for unknown TLDs
  // — the local equivalent of a root NXDOMAIN.
  const TldEntry* Lookup(std::string_view tld) const;

  std::size_t tld_count() const { return entries_.size(); }
  std::uint32_t serial() const { return serial_; }

  // Total RRsets indexed (NS + glue + DS across all TLDs).
  std::size_t rrset_count() const { return entries_.size() + views_.size(); }

  // The snapshot backing the index (nullptr before the first Load).
  const zone::SnapshotPtr& snapshot() const { return snapshot_; }

 private:
  zone::SnapshotPtr snapshot_;
  // Flat pool of glue/DS views; TldEntry spans point into it.
  std::vector<dns::RRsetView> views_;
  // Keys are tld_view()s of snapshot-owned names — alive as long as
  // snapshot_ is.
  std::unordered_map<std::string_view, TldEntry, util::CaseInsensitiveHash,
                     util::CaseInsensitiveEqual>
      entries_;
  std::uint32_t serial_ = 0;
};

}  // namespace rootless::resolver
