// Resource records, owning RRsets, and RRsetView: an RRset borrowed from
// storage that keeps its rdatas as wire bytes.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "dns/name.h"
#include "dns/rdata.h"
#include "dns/types.h"

namespace rootless::dns {

// A single resource record.
struct ResourceRecord {
  Name name;
  RRType type = RRType::kA;
  RRClass rrclass = RRClass::kIN;
  std::uint32_t ttl = 0;
  Rdata rdata = AData{};

  bool operator==(const ResourceRecord& other) const {
    return name == other.name && type == other.type &&
           rrclass == other.rrclass && ttl == other.ttl &&
           rdata == other.rdata;
  }

  // "<name> <ttl> <class> <type> <rdata>" — one master-file line.
  std::string ToString() const;
};

// Key identifying an RRset: (owner, type, class).
struct RRsetKey {
  Name name;
  RRType type = RRType::kA;
  RRClass rrclass = RRClass::kIN;

  bool operator==(const RRsetKey& other) const {
    return type == other.type && rrclass == other.rrclass &&
           name == other.name;
  }
  std::weak_ordering operator<=>(const RRsetKey& other) const {
    if (auto c = name <=> other.name; c != 0) return c;
    if (auto c = type <=> other.type; c != 0) return c;
    return rrclass <=> other.rrclass;
  }
};

// Borrowed key for heterogeneous hash-map probes: lets a cache lookup hash
// and compare against stored RRsetKeys without copying the Name.
struct RRsetKeyView {
  const Name* name;
  RRType type = RRType::kA;
  RRClass rrclass = RRClass::kIN;
};

// Key whose owner is itself borrowed (a NameView into another name's
// buffer): lets the resolver probe "is <tld> cached?" straight out of the
// qname — no Name copy, no per-probe allocation, no hash-cache slot.
struct RRsetSuffixKey {
  NameView name;
  RRType type = RRType::kA;
  RRClass rrclass = RRClass::kIN;
};

struct RRsetKeyHash {
  using is_transparent = void;
  std::size_t operator()(const RRsetKey& k) const {
    return Mix(k.name.Hash(), k.type, k.rrclass);
  }
  std::size_t operator()(const RRsetKeyView& k) const {
    return Mix(k.name->Hash(), k.type, k.rrclass);
  }
  std::size_t operator()(const RRsetSuffixKey& k) const {
    return Mix(k.name.Hash(), k.type, k.rrclass);
  }

 private:
  static std::size_t Mix(std::size_t h, RRType type, RRClass rrclass) {
    h ^= static_cast<std::size_t>(type) * 0x9E3779B97F4A7C15ULL;
    h ^= static_cast<std::size_t>(rrclass) * 0xC2B2AE3D27D4EB4FULL;
    return h;
  }
};

struct RRsetKeyEqual {
  using is_transparent = void;
  bool operator()(const RRsetKey& a, const RRsetKey& b) const {
    return a == b;
  }
  bool operator()(const RRsetKeyView& a, const RRsetKey& b) const {
    return a.type == b.type && a.rrclass == b.rrclass && *a.name == b.name;
  }
  bool operator()(const RRsetKey& a, const RRsetKeyView& b) const {
    return (*this)(b, a);
  }
};

// All records sharing (owner, type, class). The TTL applies to the whole set
// (RFC 2181 §5.2).
struct RRset {
  Name name;
  RRType type = RRType::kA;
  RRClass rrclass = RRClass::kIN;
  std::uint32_t ttl = 0;
  std::vector<Rdata> rdatas;

  RRsetKey key() const { return RRsetKey{name, type, rrclass}; }
  bool empty() const { return rdatas.empty(); }
  std::size_t size() const { return rdatas.size(); }

  // Expands to individual records.
  std::vector<ResourceRecord> ToRecords() const;

  bool operator==(const RRset& other) const {
    return name == other.name && type == other.type &&
           rrclass == other.rrclass && ttl == other.ttl &&
           rdatas == other.rdatas;
  }
};

// Groups a flat record list into RRsets (keeping first-seen order; the TTL of
// the set is the minimum of the member TTLs per RFC 2181 guidance).
std::vector<RRset> GroupIntoRRsets(const std::vector<ResourceRecord>& records);

// Borrowed RRset: points at a Name and a run of stored rdatas owned by
// someone else (a zone::ZoneSnapshot arena page). The rdatas are wire bytes,
// not typed Rdata: an encoder copies them as they stand, and a consumer that
// needs a field decodes just that rdata (RdataRun::Decode) or the whole set
// (Materialize). The view is only valid while its backing storage is alive —
// consumers that outlive the source (e.g. a cache) must decode what they
// keep. Owning RRsets have their own typed paths (a Message, and
// zone::WriteRRsetWire's RRset overload) and are never viewed.
struct RRsetView {
  const Name* name = nullptr;
  RRType type = RRType::kA;
  RRClass rrclass = RRClass::kIN;
  std::uint32_t ttl = 0;
  RdataRun rdatas;

  bool empty() const { return rdatas.empty(); }
  std::size_t size() const { return rdatas.size(); }

  // Decodes into an owning RRset.
  RRset Materialize() const;
};

}  // namespace rootless::dns
