#include "resolver/refresh_daemon.h"

#include "util/check.h"

namespace rootless::resolver {

RefreshDaemon::RefreshDaemon(sim::Simulator& sim, Options options)
    : sim_(sim),
      config_(options.config),
      sources_(std::move(options.sources)),
      apply_(std::move(options.apply)),
      rng_(config_.seed) {
  ROOTLESS_CHECK(config_.refresh_lead < config_.zone_validity);
  ROOTLESS_CHECK(config_.retry_interval > 0);
  ROOTLESS_CHECK(config_.max_staleness >= 0);
  ROOTLESS_CHECK(!sources_.empty());
  obs::Registry& reg = obs::RegistryOrDefault(options.registry);
  const obs::Labels labels = c_.Register(&reg, "resolver.refresh");
  stale_time_ = reg.gauge("resolver.refresh.stale_time_us", labels);
  attempts_per_refresh_ =
      reg.histogram("resolver.refresh.attempts_per_refresh", labels);
}

void RefreshDaemon::Start(zone::SnapshotPtr initial) {
  expiry_ = sim_.now() + config_.zone_validity;
  apply_(std::move(initial));
  ScheduleNextAttempt(config_.zone_validity - config_.refresh_lead);
}

void RefreshDaemon::ScheduleNextAttempt(sim::SimTime delay) {
  sim_.Schedule(delay, [this]() { Attempt(); });
}

void RefreshDaemon::Attempt() {
  // A round starts at the top of the ladder with a fresh per-source budget.
  round_source_ = 0;
  round_attempts_ = 0;
  schedule_ = sim::RetrySchedule(config_.retry);
  (void)schedule_.NextDelay(rng_);  // first attempt starts immediately
  IssueNow();
}

void RefreshDaemon::IssueNow() {
  c_.fetch_attempts.Inc();
  ++round_attempts_;
  sources_[round_source_](
      [this](FetchResult result) { OnFetched(std::move(result)); });
}

void RefreshDaemon::OnFetched(FetchResult result) {
  if (!result.ok()) {
    c_.fetch_failures.Inc();
    if (schedule_.CanAttempt()) {
      // Same source, next attempt, spaced by the policy's backoff.
      c_.retries.Inc();
      const sim::SimTime backoff = schedule_.NextDelay(rng_);
      sim_.Schedule(backoff, [this]() { IssueNow(); });
      return;
    }
    if (round_source_ + 1 < sources_.size()) {
      // Budget exhausted: fall down the ladder to the next source.
      c_.fallbacks.Inc();
      ++round_source_;
      schedule_ = sim::RetrySchedule(config_.retry);
      (void)schedule_.NextDelay(rng_);
      IssueNow();
      return;
    }
    RoundFailed();
    return;
  }
  if (lapsed_since_ >= 0) {
    stale_time_.Add(sim_.now() - lapsed_since_);
    lapsed_since_ = -1;
  }
  hard_lapsed_ = false;
  c_.refreshes.Inc();
  attempts_per_refresh_.Record(static_cast<std::uint64_t>(round_attempts_));
  expiry_ = sim_.now() + config_.zone_validity;
  // A null snapshot is "up to date": the copy already installed stays.
  if (*result != nullptr) apply_(std::move(*result));
  ScheduleNextAttempt(config_.zone_validity - config_.refresh_lead);
}

void RefreshDaemon::RoundFailed() {
  if (sim_.now() >= expiry_ && lapsed_since_ < 0) {
    // The copy lapsed while we were still failing to refresh: the §4
    // scenario where the out-of-band process ran out of runway.
    c_.expirations.Inc();
    lapsed_since_ = expiry_;
  }
  if (sim_.now() >= expiry_ + config_.max_staleness && !hard_lapsed_) {
    // Aged past the serve-stale window too: the copy is now unusable.
    c_.hard_expirations.Inc();
    hard_lapsed_ = true;
  }
  ScheduleNextAttempt(config_.retry_interval);
}

}  // namespace rootless::resolver
