#include "distrib/fetch_service.h"

#include <string>

#include "zone/snapshot.h"

namespace rootless::distrib {

ZoneFetchService::ZoneFetchService(sim::Simulator& sim, Options options)
    : sim_(sim),
      config_(options.config),
      provider_(std::move(options.provider)),
      rng_(config_.seed) {
  c_.Register(options.registry, "distrib.fetch");
}

void ZoneFetchService::Fetch(FetchCallback callback) {
  auto schedule = std::make_shared<sim::RetrySchedule>(config_.retry);
  (void)schedule->NextDelay(rng_);  // first attempt starts immediately
  Attempt(std::move(schedule), std::move(callback));
}

void ZoneFetchService::Attempt(std::shared_ptr<sim::RetrySchedule> schedule,
                               FetchCallback callback) {
  c_.fetches.Inc();
  if (InOutage(sim_.now())) {
    c_.failures.Inc();
    // Failure is detected after a timeout-ish delay.
    const sim::SimTime detect = config_.base_latency * 4;
    if (schedule->CanAttempt()) {
      c_.retries.Inc();
      const sim::SimTime backoff = schedule->NextDelay(rng_);
      sim_.Schedule(detect + backoff,
                    [this, schedule = std::move(schedule),
                     callback = std::move(callback)]() mutable {
                      Attempt(std::move(schedule), std::move(callback));
                    });
      return;
    }
    const int attempts = schedule->attempts_started();
    sim_.Schedule(detect, [attempts, callback = std::move(callback)]() {
      callback(util::Error(ErrorCode::kUnreachable,
                           "fetch: service unavailable (" +
                               std::to_string(attempts) + " attempts)"));
    });
    return;
  }
  zone::SnapshotPtr z = provider_();
  const std::size_t size = SerializeSnapshot(*z).size();
  c_.bytes_served.Inc(size);
  const sim::SimTime transfer =
      config_.base_latency +
      static_cast<sim::SimTime>(static_cast<double>(size) /
                                config_.bandwidth_bytes_per_sec * sim::kSecond);
  const bool verify = config_.verify_signatures;
  sim_.Schedule(transfer, [this, z = std::move(z), verify,
                           callback = std::move(callback)]() {
    if (verify) {
      auto validated = crypto::ValidateZoneRRsets(
          z->AllRRsets(), dnskey_, store_, config_.validation_now);
      if (!validated.ok()) {
        c_.validation_failures.Inc();
        callback(util::Error(ErrorCode::kVerifyFailed,
                             "fetch: validation failed: " +
                                 validated.error().message()));
        return;
      }
    }
    callback(z);
  });
}

}  // namespace rootless::distrib
