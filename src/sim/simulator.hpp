// The simulation clock and run loop.
//
// A Simulator owns an EventQueue and a current time; components schedule
// relative ("after") or absolute ("at") events. The loop runs until the
// queue drains, a step budget trips (runaway-protocol guard), or an
// explicit stop. Time never goes backwards.
#pragma once

#include <cstdint>

#include "common/types.hpp"
#include "sim/event_queue.hpp"

namespace fastnet::sim {

class Simulator {
public:
    Tick now() const { return now_; }

    /// Schedules fn at absolute time `at` >= now().
    EventId at(Tick when, InlineFn fn);

    /// Schedules fn `delay` ticks from now (delay >= 0).
    EventId after(Tick delay, InlineFn fn);

    /// Schedules fn at `when` >= now() with a caller-supplied tie-break
    /// priority (see EventQueue::schedule_keyed). Used by the parallel
    /// kernel, where event order must not depend on schedule-call order.
    EventId at_keyed(Tick when, std::uint64_t pri, InlineFn fn);

    void cancel(EventId id) { queue_.cancel(id); }

    /// Runs until the queue is empty or `max_events` have executed.
    /// Returns the number of events executed.
    std::uint64_t run(std::uint64_t max_events = kDefaultEventBudget);

    /// Runs until simulated time would exceed `until` (events at exactly
    /// `until` still run). Returns the number of events executed.
    std::uint64_t run_until(Tick until, std::uint64_t max_events = kDefaultEventBudget);

    /// Requests the run loop to return after the current event.
    void stop() { stopped_ = true; }

    /// Advances the clock to `t` >= now() without running anything.
    /// Requires that no pending event is earlier than `t`. The parallel
    /// kernel uses this at window barriers so control actions applied
    /// between windows schedule against the barrier time.
    void advance_to(Tick t);

    bool idle() const { return queue_.empty(); }

    /// Time of the earliest pending event; kNever when idle.
    Tick next_time() const { return queue_.next_time(); }

    static constexpr std::uint64_t kDefaultEventBudget = 200'000'000ULL;

private:
    EventQueue queue_;
    Tick now_ = 0;
    bool stopped_ = false;
};

}  // namespace fastnet::sim
