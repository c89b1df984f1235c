// Binary zone snapshot format (AXFR-like) shared by the diff format and the
// distribution mechanisms: magic | apex | serial | rrset-count | rrsets,
// with each RRset as owner | type | class | ttl | rdata-count | (len rdata)*.
#pragma once

#include <span>

#include "dns/rr.h"
#include "util/bytes.h"
#include "util/result.h"
#include "zone/zone_snapshot.h"

namespace rootless::zone {

// Low-level RRset wire helpers (no compression; rdata names uncompressed),
// shared with the diff format. A view's stored rdatas are copied as they
// stand; an owning RRset's are encoded; both write the same bytes for the
// same content. Decode failures carry kTruncated (the wire ended early) or
// kCorrupted (it is present but malformed), as do DeserializeSnapshot's and
// DeserializeDiff's.
void WriteRRsetWire(const dns::RRsetView& rrset, util::ByteWriter& writer);
void WriteRRsetWire(const dns::RRset& rrset, util::ByteWriter& writer);
util::Result<dns::RRset> ReadRRsetWire(util::ByteReader& reader);

// Whole-zone snapshot. Serialization walks the snapshot's canonical index;
// deserialization reads the wire into a Zone (which merges and orders the
// RRsets) and builds the snapshot from it.
util::Bytes SerializeSnapshot(const ZoneSnapshot& snapshot);
util::Result<SnapshotPtr> DeserializeSnapshot(
    std::span<const std::uint8_t> wire);

}  // namespace rootless::zone
