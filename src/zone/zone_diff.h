// Structural diff between two zone snapshots — the basis of the §5.2
// incremental-distribution analysis (rsync-style deltas, IXFR-like updates)
// and the staleness experiments. zone::DiffSnapshots computes one and
// ZoneSnapshot::Apply applies it (zone_snapshot.h).
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "dns/rr.h"
#include "util/bytes.h"
#include "util/result.h"

namespace rootless::zone {

struct ZoneDiff {
  // RRsets present only in the new zone.
  std::vector<dns::RRset> added;
  // RRset keys present only in the old zone.
  std::vector<dns::RRsetKey> removed;
  // RRsets whose key exists in both but whose content (ttl/rdatas) changed;
  // carries the new content.
  std::vector<dns::RRset> changed;

  bool empty() const {
    return added.empty() && removed.empty() && changed.empty();
  }
  std::size_t change_count() const {
    return added.size() + removed.size() + changed.size();
  }
};

// Compact binary serialization of a diff (the "diffs file" the paper floats
// in §5.3 as a cheap way to learn about new TLDs).
util::Bytes SerializeDiff(const ZoneDiff& diff);
util::Result<ZoneDiff> DeserializeDiff(std::span<const std::uint8_t> wire);

}  // namespace rootless::zone
