// Discrete-event simulator.
//
// Simulation time is in microseconds; nothing reads the wall clock, so every
// run is deterministic for a given seed. Events scheduled at equal times fire
// in scheduling order (a strict FIFO tiebreak keeps runs reproducible).
//
// Callbacks are EventFn (sim/event.h): a move-only callable with 48 bytes of
// inline storage, so scheduling a typical network delivery does not allocate.
// The event queue (sim/event_queue.h) is either a binary heap — whose pop
// moves the top element out legitimately, unlike std::priority_queue — or an
// optional two-level calendar queue for dense million-event runs; both yield
// the same execution order.
#pragma once

#include <cstdint>

#include "sim/event.h"
#include "sim/event_queue.h"
#include "util/check.h"

namespace rootless::sim {

inline constexpr SimTime kMicrosecond = 1;
inline constexpr SimTime kMillisecond = 1000;
inline constexpr SimTime kSecond = 1000 * 1000;
inline constexpr SimTime kMinute = 60 * kSecond;
inline constexpr SimTime kHour = 60 * kMinute;
inline constexpr SimTime kDay = 24 * kHour;

class Simulator {
 public:
  explicit Simulator(QueuePolicy policy = QueuePolicy::kBinaryHeap)
      : queue_(policy) {}
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  SimTime now() const { return now_; }

  // Schedules `fn` to run `delay` from now. Precondition: delay >= 0.
  void Schedule(SimTime delay, EventFn fn) {
    ROOTLESS_CHECK(delay >= 0);
    queue_.push(now_ + delay, next_seq_++, std::move(fn));
  }

  // Schedules at an absolute time >= now().
  void ScheduleAt(SimTime when, EventFn fn) {
    ROOTLESS_CHECK(when >= now_);
    queue_.push(when, next_seq_++, std::move(fn));
  }

  bool empty() const { return queue_.empty(); }
  std::size_t pending_events() const { return queue_.size(); }
  std::uint64_t events_executed() const { return executed_; }

  // Pre-sizes the event queue's slot pool for `n` simultaneously pending
  // events (see EventQueue::Reserve). Purely an allocation hint.
  void ReserveEvents(std::size_t n) { queue_.Reserve(n); }

  // Runs a single event; returns false if none remain.
  bool Step() {
    if (queue_.empty()) return false;
    Event e = queue_.pop();
    now_ = e.when;
    ++executed_;
    e.fn();
    return true;
  }

  // Runs until the queue drains.
  void Run() {
    while (Step()) {
    }
  }

  // Runs events with time <= deadline; leaves later events queued and
  // advances the clock to the deadline.
  void RunUntil(SimTime deadline) {
    while (!queue_.empty() && queue_.MinTime() <= deadline) Step();
    if (now_ < deadline) now_ = deadline;
  }

 private:
  EventQueue queue_;
  SimTime now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
};

}  // namespace rootless::sim
