// The paper's §5.3 mitigation, made concrete: a "recent additions / diffs"
// channel. The publisher records the structural diff of every zone version;
// a subscriber at serial S asks for "updates since S" and receives either
// nothing (up to date), a chain of diffs (cheap, the common case), or a
// full-zone fallback when it is too far behind for the retained history.
//
// Both ends hold immutable snapshots: the publisher diffs consecutive
// snapshots without materializing zones, and the subscriber applies diff
// chains via ZoneSnapshot::Apply, so each update allocates only the changed
// RRsets and shares every untouched arena page with the previous version.
#pragma once

#include <cstdint>
#include <deque>

#include "util/bytes.h"
#include "util/result.h"
#include "zone/zone_diff.h"
#include "zone/zone_snapshot.h"

namespace rootless::distrib {

class DiffPublisher {
 public:
  struct Update {
    enum class Kind { kUpToDate, kDiffs, kFullZone };
    Kind kind = Kind::kUpToDate;
    util::Bytes payload;
    std::uint32_t from_serial = 0;
    std::uint32_t to_serial = 0;
  };

  // Retains at most `max_history` consecutive diffs before falling back to
  // full-zone answers for older subscribers.
  DiffPublisher(zone::SnapshotPtr initial, std::size_t max_history = 64);

  // Publishes a new version (serial must advance). Returns the diff size in
  // bytes for accounting.
  std::size_t Publish(zone::SnapshotPtr next);

  std::uint32_t latest_serial() const { return latest_->Serial(); }
  const zone::SnapshotPtr& latest() const { return latest_; }

  // Builds the update for a subscriber currently at `have_serial`.
  Update UpdatesSince(std::uint32_t have_serial) const;

 private:
  struct Entry {
    std::uint32_t from_serial;
    std::uint32_t to_serial;
    util::Bytes diff_wire;
  };

  zone::SnapshotPtr latest_;
  std::size_t max_history_;
  std::deque<Entry> history_;
};

class DiffSubscriber {
 public:
  explicit DiffSubscriber(zone::SnapshotPtr initial)
      : snapshot_(std::move(initial)) {}

  const zone::SnapshotPtr& snapshot() const { return snapshot_; }
  std::uint32_t serial() const { return snapshot_->Serial(); }

  // Applies an update from the publisher. Rejects diff chains that do not
  // start at the subscriber's serial (protects against replay/gaps). Diff
  // application swaps in a new snapshot that structurally shares all
  // unchanged pages with the old one.
  util::Status Apply(const DiffPublisher::Update& update);

  // Accounting for the §5.2/§5.3 cost comparison.
  std::uint64_t diff_bytes_received() const { return diff_bytes_; }
  std::uint64_t full_bytes_received() const { return full_bytes_; }
  std::uint64_t updates_applied() const { return applied_; }

 private:
  zone::SnapshotPtr snapshot_;
  std::uint64_t diff_bytes_ = 0;
  std::uint64_t full_bytes_ = 0;
  std::uint64_t applied_ = 0;
};

}  // namespace rootless::distrib
