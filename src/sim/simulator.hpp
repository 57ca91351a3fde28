// Deterministic discrete-event simulation kernel.
//
// Every run-time experiment in this repository (fault injection campaigns,
// the Fig. 6 adaptation trace, the Fig. 7 long run) executes on this kernel:
// a logical clock plus an ordered event queue.  Determinism rule: two events
// scheduled for the same tick fire in scheduling order (FIFO tie-break via a
// monotonically increasing sequence number), so a given seed always produces
// the same trace.
//
// Hot-path contract (bench/perf_sim defends it): scheduling and dispatching
// an event never touches the heap once the queue's backing storage is warm.
// Entries hold a util::InlineFn (64-byte in-object callable storage) inside
// a util::DHeap whose pop() moves the minimum out — the std::function +
// std::priority_queue predecessor paid one allocation per schedule and a
// full entry copy (another allocation) per dispatch, because
// priority_queue::top() is const.
//
// Cancellation: schedule_at()/schedule_in() return a Handle, and cancel()
// withdraws the entry it names.  A cancelled entry is dead: it never
// dispatches, is not counted in executed() or pending(), and — since the
// clock only moves when a live entry dispatches — no longer advances now()
// at run_all().  (run_until(t) still ends with the clock at t.)  Cancelling
// is cheap (a tombstone in the queue, see util/dheap.hpp) and never changes
// the order in which the remaining entries dispatch.  Clients that arm a
// timer which usually turns out moot — an RPC deadline whose call already
// completed — cancel it instead of leaving a no-op in the queue for every
// other entry to sift past.
#pragma once

#include <cstdint>

#include "util/dheap.hpp"
#include "util/inline_fn.hpp"

namespace aft::obs {
class TraceSink;
class FlightRecorder;
class MetricsRegistry;
class Stat;
}  // namespace aft::obs

namespace aft::sim {

/// Logical simulation time in abstract ticks.
using SimTime = std::uint64_t;

class Simulator {
 public:
  /// Scheduled continuation.  Move-only; callables up to 64 bytes of capture
  /// are stored inline (larger ones overflow to the heap — a correctness
  /// fallback no in-tree client takes; see fits_inline).
  using Action = util::InlineFn<void(), 64>;

  /// True when a callable of type F schedules without any heap allocation.
  /// Scheduling clients static_assert this on their continuation lambdas so
  /// a capture that grows past the inline budget is a compile error, not a
  /// silent perf regression.
  template <typename F>
  static constexpr bool fits_inline = Action::template stores_inline<F>;

  /// Names one scheduled entry for cancel().  Default-constructed handles
  /// name nothing; a handle goes stale once its entry dispatches or is
  /// cancelled.
  using Handle = util::DHeapHandle;

  /// Current logical time.  Starts at 0.
  [[nodiscard]] SimTime now() const noexcept { return now_; }

  /// Schedules `action` to fire at absolute time `when`.
  /// `when` must not lie in the past.
  ///
  /// Causality: the trace sink's current cause id is snapshotted into the
  /// entry and reinstated when the entry is dispatched, so every event the
  /// action emits records which event scheduled it (obs/trace.hpp).
  /// Returns the entry's handle for cancel().
  Handle schedule_at(SimTime when, Action action);

  /// Schedules `action` to fire `delay` ticks from now.
  Handle schedule_in(SimTime delay, Action action);

  /// Withdraws the entry `handle` names, releasing its action unrun.
  /// Returns false, changing nothing, for a stale or default handle (the
  /// entry already ran or was already cancelled).
  bool cancel(Handle handle) { return queue_.erase(handle); }

  /// Runs events until the queue is empty or `until` is reached (events at
  /// exactly `until` are still executed).  Returns the number of events run.
  std::uint64_t run_until(SimTime until);

  /// Runs all pending events.  Returns the number of events run.  The
  /// clock stops at the last event run (a cancelled entry never moves it).
  std::uint64_t run_all();

  /// Executes the single next event, if any.  Returns true when one ran.
  bool step();

  /// No live entry is pending (cancelled ones do not count).
  [[nodiscard]] bool idle() const noexcept { return queue_.empty(); }
  /// Live entries scheduled but not yet dispatched.
  [[nodiscard]] std::size_t pending() const noexcept { return queue_.size(); }

  /// Pre-sizes the event pool/heap/freelist for `n` concurrently pending
  /// actions, so a run whose peak backlog is known (or bounded) up front
  /// never grows the queue mid-flight — the same contract as
  /// obs::Timeline::reserve for the metrics plane.
  void reserve(std::size_t n) { queue_.reserve(n); }

  /// Events executed since construction (lifetime counter; the obs layer
  /// reads it for the "sim.events" metric).  Cancelled entries never run
  /// and are not counted.
  [[nodiscard]] std::uint64_t executed() const noexcept { return executed_; }

  /// Advances the clock without executing anything (for driving the kernel
  /// from an external loop, as the long-run benches do).
  void advance_to(SimTime when);

 private:
  /// step() with the observability lookups hoisted by the caller.  The
  /// thread-local sink lookups (obs::trace()/obs::flight()) are out-of-line
  /// calls; run_until/run_all fetch them once per loop instead of once per
  /// dispatched event (the hoisting idiom obs.hpp prescribes for hot paths).
  /// Sinks are installed by RAII scopes around whole runs, never from inside
  /// a scheduled action, so the pointers cannot go stale mid-loop.
  bool step_with(obs::TraceSink* sink, obs::FlightRecorder* recorder,
                 obs::MetricsRegistry* registry);

  /// Heap node key.  `cause` is dispatch metadata riding along in the
  /// compact node (the comparator ignores it): the trace event id current
  /// when the entry was scheduled (obs::EventId; ~0 = none), kept a plain
  /// integer so this header stays obs-free.  The queue's values are the
  /// bare Actions — sifting shuffles these 32-byte nodes while each
  /// callable is written into its pool slot once and moved out once.
  struct EventKey {
    SimTime when = 0;
    std::uint64_t seq = 0;
    std::uint64_t cause = 0;
  };
  /// Strict TOTAL order on keys ((when, seq) pairs are unique), so the
  /// heap's pop sequence — and therefore dispatch order — is exactly the
  /// FIFO-tie-broken time order, independent of heap arity or layout.
  struct Earlier {
    bool operator()(const EventKey& a, const EventKey& b) const noexcept {
      if (a.when != b.when) return a.when < b.when;
      return a.seq < b.seq;
    }
  };

  SimTime now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  util::DHeap<Action, EventKey, Earlier> queue_;

  // Cached handle for the "sim.dispatch_lag" stat (schedule_at is the
  // hottest instrumentation site in the tree; a map lookup per schedule
  // would be measurable).  The (registry, uid) pair detects both a swapped
  // registry and a fresh registry constructed at a recycled address.
  obs::Stat* lag_stat_ = nullptr;
  const obs::MetricsRegistry* lag_registry_ = nullptr;
  std::uint64_t lag_registry_uid_ = 0;
};

}  // namespace aft::sim
