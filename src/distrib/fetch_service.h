// Simulated zone-fetch service: the out-of-band channel a resolver uses to
// obtain the root zone (mirror / rsync endpoint). Models transfer time
// (latency + size/bandwidth), verification (DNSSEC-shaped zone validation),
// injectable outage windows for the §4 robustness experiments, and an
// optional RetryPolicy that re-attempts outage failures with exponential
// backoff before reporting an error.
//
// All fallible results flow through util::Result with the shared
// rootless::ErrorCode vocabulary: outage exhaustion is kUnreachable,
// validation rejection is kVerifyFailed.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "crypto/dnssec.h"
#include "obs/counter_set.h"
#include "sim/retry.h"
#include "sim/simulator.h"
#include "util/result.h"
#include "zone/zone_snapshot.h"

namespace rootless::distrib {

struct FetchServiceConfig {
  sim::SimTime base_latency = 50 * sim::kMillisecond;
  double bandwidth_bytes_per_sec = 10e6;  // 10 MB/s effective
  // If set, fetched zones are validated against this key before delivery.
  bool verify_signatures = false;
  std::uint32_t validation_now = 0;  // unix seconds for RRSIG windows
  // Failure handling for outage-window fetches. The default makes a single
  // attempt (historical behavior); widen it to ride through short outages.
  sim::RetryPolicy retry = sim::RetryPolicy::None();
  std::uint64_t seed = 0xF37C;  // jitter stream for the retry backoff
};

// The service's counters (module "distrib.fetch"): FetchServiceStats is the
// snapshot stats() reads, FetchServiceCounters the registry handles.
#define ROOTLESS_FETCH_COUNTERS(X)                         \
  X(fetches)                                               \
  X(failures)             /* outage-window failures */     \
  X(validation_failures)                                   \
  X(bytes_served)                                          \
  X(retries)              /* backoff re-attempts */
ROOTLESS_COUNTER_SET(FetchServiceStats, FetchServiceCounters,
                     ROOTLESS_FETCH_COUNTERS);

class ZoneFetchService {
 public:
  using ZoneProvider = std::function<zone::SnapshotPtr()>;
  using FetchResult = util::Result<zone::SnapshotPtr>;
  using FetchCallback = std::function<void(FetchResult)>;

  // Aggregate options (designated-initializer friendly).
  struct Options {
    FetchServiceConfig config;
    ZoneProvider provider;
    obs::Registry* registry = nullptr;
  };

  ZoneFetchService(sim::Simulator& sim, Options options);

  // Fetches fail while sim-time is inside any outage window.
  void AddOutage(sim::SimTime from, sim::SimTime to) {
    outages_.push_back({from, to});
  }

  // For verify_signatures: key material the validation should trust.
  void SetTrust(dns::DnskeyData dnskey, crypto::KeyStore store) {
    dnskey_ = std::move(dnskey);
    store_ = std::move(store);
  }

  // Asynchronous fetch: the callback fires after the simulated transfer,
  // or after the retry budget is exhausted (Error kUnreachable) or the
  // fetched zone fails validation (Error kVerifyFailed).
  void Fetch(FetchCallback callback);

  // Snapshot of the registry-backed counters.
  FetchServiceStats stats() const { return c_.Read(); }

 private:
  struct Outage {
    sim::SimTime from;
    sim::SimTime to;
  };

  bool InOutage(sim::SimTime t) const {
    for (const auto& o : outages_) {
      if (t >= o.from && t < o.to) return true;
    }
    return false;
  }

  // One attempt of an in-flight fetch operation; retries reschedule it.
  void Attempt(std::shared_ptr<sim::RetrySchedule> schedule,
               FetchCallback callback);

  sim::Simulator& sim_;
  FetchServiceConfig config_;
  ZoneProvider provider_;
  std::vector<Outage> outages_;
  dns::DnskeyData dnskey_;
  crypto::KeyStore store_;
  util::Rng rng_;
  FetchServiceCounters c_;
};

}  // namespace rootless::distrib
