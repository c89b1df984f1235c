// Root-zone refresh daemon — the §4 robustness mechanism.
//
// A fetched zone copy is valid for the records' TTL (two days for TLD NS
// sets). The daemon re-fetches with a lead window before expiry (the paper's
// example: try at X+42h, leaving 6 hours of retries before the copy expires
// and lookups are actually impacted), retrying periodically on failure and
// recording whether the zone ever lapsed.
//
// Graceful degradation (§5.2): each refresh round walks a fallback ladder of
// sources in order (e.g. diff channel → AXFR → full fetch), giving every
// source a RetryPolicy budget of backoff-spaced attempts before falling to
// the next. When the whole ladder fails, the round is rescheduled at the
// retry cadence and the copy degrades through three states: fresh (within
// validity), stale (expired but inside the serve-stale window — the paper's
// observation that a month-old root zone still resolves nearly all names),
// and expired (past max_staleness; answers must not be served from it).
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "obs/counter_set.h"
#include "obs/metrics.h"
#include "sim/retry.h"
#include "sim/simulator.h"
#include "util/result.h"
#include "util/rng.h"
#include "zone/zone_snapshot.h"

namespace rootless::resolver {

struct RefreshConfig {
  // How long a fetched copy remains usable (TLD record TTLs).
  sim::SimTime zone_validity = 48 * sim::kHour;
  // Start refreshing this long before expiry.
  sim::SimTime refresh_lead = 6 * sim::kHour;
  // Retry cadence between rounds while the whole ladder keeps failing.
  sim::SimTime retry_interval = 1 * sim::kHour;
  // Per-source attempt budget and backoff spacing within a round. The
  // default makes a single attempt per source per round (historical
  // behavior).
  sim::RetryPolicy retry = sim::RetryPolicy::None();
  // Serve-stale window: an expired copy may still be served this long past
  // its validity (§5.2: a month-stale root zone misdirects almost nothing).
  sim::SimTime max_staleness = 30 * sim::kDay;
  std::uint64_t seed = 0xD4E3;  // jitter stream for in-round backoff
};

// Freshness of the local copy, for serve-stale decisions.
enum class ZoneState {
  kFresh,    // within validity
  kStale,    // expired, but inside the serve-stale window
  kExpired,  // past max_staleness; unusable
};

// The daemon's counters (module "resolver.refresh"): RefreshCounts is the
// plain snapshot, RefreshCounters the registry handles.
#define ROOTLESS_REFRESH_COUNTERS(X)                                          \
  X(fetch_attempts)                                                           \
  X(fetch_failures)                                                           \
  X(refreshes)         /* successful rounds, "up to date" included */         \
  X(expirations)       /* times the copy lapsed before a refresh */           \
  X(retries)           /* extra same-source attempts within rounds */         \
  X(fallbacks)         /* ladder steps to a lower-preference source */        \
  X(hard_expirations)  /* copy aged past the serve-stale window */
ROOTLESS_COUNTER_SET(RefreshCounts, RefreshCounters,
                     ROOTLESS_REFRESH_COUNTERS);

// What stats() returns: the counts plus the stale-time gauge.
struct RefreshStats : RefreshCounts {
  sim::SimTime stale_time = 0;  // total simulated time spent expired
};

class RefreshDaemon {
 public:
  // Fetch is asynchronous: call the continuation with a new snapshot, an
  // ok null snapshot, or an error. A null snapshot means "the copy you hold
  // is current" (what AxfrClient::Fetch and net::FetchZoneTcp answer when
  // asked with the held serial): the round succeeds and renews the copy's
  // validity, but apply is not called. Apply installs a fetched snapshot into
  // the resolver — the same zone::SnapshotPtr RecursiveResolver::SetLocalZone
  // takes, so a refresh is an atomic pointer swap end-to-end.
  using FetchResult = util::Result<zone::SnapshotPtr>;
  using FetchFn = std::function<void(std::function<void(FetchResult)>)>;
  using ApplyFn = std::function<void(zone::SnapshotPtr)>;

  // Aggregate options (designated-initializer friendly).
  struct Options {
    RefreshConfig config;
    // The fallback ladder, one fetch per rung; rounds try the rungs in
    // order.
    std::vector<FetchFn> sources;
    ApplyFn apply;
    obs::Registry* registry = nullptr;
  };

  RefreshDaemon(sim::Simulator& sim, Options options);

  // Installs the initial copy (fetched out of band) and schedules refreshes.
  void Start(zone::SnapshotPtr initial);

  bool zone_valid() const { return sim_.now() < expiry_; }
  // True while the copy may still be served, counting the stale window.
  bool zone_usable() const {
    return sim_.now() < expiry_ + config_.max_staleness;
  }
  ZoneState state() const {
    if (zone_valid()) return ZoneState::kFresh;
    return zone_usable() ? ZoneState::kStale : ZoneState::kExpired;
  }
  sim::SimTime expiry() const { return expiry_; }
  // Snapshot of the registry-backed metrics.
  RefreshStats stats() const {
    return RefreshStats{c_.Read(),
                        static_cast<sim::SimTime>(stale_time_.value())};
  }

 private:
  void ScheduleNextAttempt(sim::SimTime delay);
  void Attempt();     // starts a round at ladder rung 0
  void IssueNow();    // fires one fetch on the current source
  void OnFetched(FetchResult result);
  void RoundFailed();

  sim::Simulator& sim_;
  RefreshConfig config_;
  std::vector<FetchFn> sources_;
  ApplyFn apply_;
  util::Rng rng_;
  sim::SimTime expiry_ = 0;
  sim::SimTime lapsed_since_ = -1;  // >= 0 while running expired
  bool hard_lapsed_ = false;        // already counted past the stale window
  // In-round state (one round in flight at a time).
  std::size_t round_source_ = 0;
  int round_attempts_ = 0;
  sim::RetrySchedule schedule_;
  // Registry handles (module "resolver.refresh"). stale_time is a gauge:
  // it accumulates simulated microseconds, not a monotone event count.
  RefreshCounters c_;
  obs::Gauge stale_time_;
  obs::Histogram attempts_per_refresh_;
};

}  // namespace rootless::resolver
