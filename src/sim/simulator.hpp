// Deterministic discrete-event simulation kernel.
//
// Every run-time experiment in this repository (fault injection campaigns,
// the Fig. 6 adaptation trace, the Fig. 7 long run) executes on this kernel:
// a logical clock plus an ordered event queue.  Determinism rule: two events
// scheduled for the same tick fire in scheduling order (FIFO tie-break via a
// monotonically increasing sequence number), so a given seed always produces
// the same trace.
//
// Queue layout: a tick calendar.  Sim time is integer ticks and almost every
// entry is due within a few ticks (link hops, heartbeat periods), so the
// queue is a ring of kWindow per-tick FIFO buckets covering [now, now +
// kWindow), plus a small binary heap ("overflow") of the entries due later —
// in practice the 5,000-tick RPC deadlines.  Each bucket is an intrusive
// list threaded through the slot slab, so an append never allocates, and a
// 256-bit occupancy mask finds the next non-empty bucket in a few word scans.
//
// Why FIFO-per-bucket is (when, seq) order: every time the clock moves,
// overflow entries that now fall inside the window migrate into their
// buckets in (when, seq) order, before any action can run.  A tick enters
// the window exactly once, so everything scheduled for it before that moment
// was in the overflow heap (and lands in its bucket first, in seq order),
// and everything scheduled for it afterwards is appended directly with a
// larger seq.  Dispatch order is therefore exactly the FIFO-tie-broken time
// order, by construction.
//
// Hot-path contract (bench/perf_sim defends it): scheduling and dispatching
// an event never allocates once the slab is warm.  Each slab slot
// holds a util::InlineFn (64-byte in-object callable storage), written once
// on schedule and moved out once on dispatch — the std::function +
// std::priority_queue predecessor paid one allocation per schedule and a
// full entry copy (another allocation) per dispatch, because
// priority_queue::top() is const.
//
// Cancellation: schedule_at()/schedule_in() return a Handle, and cancel()
// withdraws the entry it names.  A cancelled entry is dead: it never
// dispatches, is not counted in executed() or pending(), and — since the
// clock only moves when a live entry dispatches — no longer advances now()
// at run_all().  (run_until(t) still ends with the clock at t.)  Cancelling
// is O(1) for an entry in the ring (it is unlinked from its bucket and its
// slot recycled at once) and leaves a tombstone for one in the overflow heap
// (dropped when it surfaces at the top, or by a rebuild once dead nodes
// outnumber live ones).  A handle stays valid when its entry migrates from
// the overflow heap into the ring.  Cancelling never changes the order in
// which the remaining entries dispatch.  Clients that arm a timer which
// usually turns out moot — an RPC deadline whose call already completed —
// cancel it instead of leaving a no-op in the queue.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

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
  /// cancelled.  Stale handles are rejected by the slot's generation (odd
  /// while its entry is pending), which is 32 bits wide: a handle kept
  /// across 2^31 reuses of its slot could alias a newer entry.
  struct Handle {
    std::uint32_t slot = ~std::uint32_t{0};
    std::uint32_t generation = 0;
  };

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
  bool cancel(Handle handle);

  /// Runs events until the queue is empty or `until` is reached (events at
  /// exactly `until` are still executed).  Returns the number of events run.
  std::uint64_t run_until(SimTime until);

  /// Runs all pending events.  Returns the number of events run.  The
  /// clock stops at the last event run (a cancelled entry never moves it).
  std::uint64_t run_all();

  /// Executes the single next event, if any.  Returns true when one ran.
  bool step();

  /// No live entry is pending (cancelled ones do not count).
  [[nodiscard]] bool idle() const noexcept { return pending_ == 0; }
  /// Live entries scheduled but not yet dispatched.
  [[nodiscard]] std::size_t pending() const noexcept { return pending_; }

  /// Pre-sizes the slot slab and the overflow heap for `n` concurrently
  /// pending actions, so a run whose peak backlog is known (or bounded) up
  /// front never grows the queue mid-flight — the same contract as
  /// obs::Timeline::reserve for the metrics plane.
  void reserve(std::size_t n) {
    slots_.reserve(n);
    overflow_.reserve(n);
  }

  /// Events executed since construction (lifetime counter; the obs layer
  /// reads it for the "sim.events" metric).  Cancelled entries never run
  /// and are not counted.
  [[nodiscard]] std::uint64_t executed() const noexcept { return executed_; }

  /// Advances the clock without executing anything (for driving the kernel
  /// from an external loop, as the long-run benches do).
  void advance_to(SimTime when);

 private:
  /// Ticks covered by the ring, [now, now + kWindow).  A power of two, so a
  /// tick's bucket is its low bits.
  static constexpr SimTime kWindow = 256;
  static constexpr std::uint32_t kNoSlot = ~std::uint32_t{0};

  /// Per-entry metadata.  `cause` is the trace event id current when the
  /// entry was scheduled (obs::EventId; ~0 = none), kept a plain integer so
  /// this header stays obs-free; `scheduled` is the tick it was scheduled
  /// at, for the "sim.dispatch_lag" stat.
  struct EventKey {
    SimTime when = 0;
    std::uint64_t seq = 0;
    std::uint64_t cause = 0;
    SimTime scheduled = 0;
  };

  /// One slab slot.  `next` is the freelist link while the slot is free and
  /// the bucket link while its entry sits in the ring; `prev` (ring only;
  /// never read for a bucket's head) lets cancel() unlink in O(1).
  struct Slot {
    EventKey key;
    std::uint32_t generation = 0;  ///< odd while the slot's entry is pending
    std::uint32_t next = kNoSlot;
    std::uint32_t prev = kNoSlot;
    Action action;
  };

  struct Bucket {
    std::uint32_t head = kNoSlot;
    std::uint32_t tail = kNoSlot;
  };

  /// Overflow heap node.  (when, seq) pairs are unique, so the heap's pop
  /// sequence — and therefore migration order — is a strict total order.
  struct Far {
    SimTime when = 0;
    std::uint64_t seq = 0;
    std::uint32_t slot = 0;
  };

  /// Dispatches the first entry of `tick`'s bucket, moving the clock there
  /// first.  The caller found `tick` with next_tick(); the observability
  /// pointers are hoisted by the caller too.  The thread-local sink lookups
  /// (obs::trace()/obs::flight()) are out-of-line calls; run_until/run_all
  /// fetch them once per loop instead of once per dispatched event (the
  /// hoisting idiom obs.hpp prescribes for hot paths).  Sinks are installed
  /// by RAII scopes around whole runs, never from inside a scheduled action,
  /// so the pointers cannot go stale mid-loop.
  void dispatch(SimTime tick, obs::TraceSink* sink,
                obs::FlightRecorder* recorder, obs::MetricsRegistry* registry);

  /// The tick of the earliest live entry; false when nothing is pending.
  bool next_tick(SimTime& tick) const noexcept;

  /// Moves the clock to `when` (>= now_) and migrates the overflow entries
  /// that now fall inside the window.
  void move_clock(SimTime when);

  [[nodiscard]] bool in_window(SimTime when) const noexcept {
    return when - now_ < kWindow;  // when >= now_: cannot wrap
  }
  void append(std::uint32_t slot);
  void unlink(std::uint32_t slot);
  void release(std::uint32_t slot) noexcept {
    slots_[slot].next = free_head_;
    free_head_ = slot;
  }
  [[nodiscard]] bool dead(const Far& node) const noexcept {
    return (slots_[node.slot].generation & 1u) == 0;
  }
  void drop_dead_overflow_tops();
  void rebuild_overflow();

  SimTime now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  std::size_t pending_ = 0;

  std::vector<Slot> slots_;
  std::uint32_t free_head_ = kNoSlot;  ///< LIFO: recycled slots stay cache-hot
  std::array<Bucket, kWindow> ring_{};
  /// Bit b set <=> bucket b is non-empty.
  std::array<std::uint64_t, kWindow / 64> occupied_{};
  std::vector<Far> overflow_;          ///< min-heap on (when, seq); top live
  std::size_t overflow_dead_ = 0;      ///< cancelled nodes still in overflow_

  // Cached handle for the "sim.dispatch_lag" stat (dispatch is the hottest
  // instrumentation site in the tree; a map lookup per dispatch would be
  // measurable).  The (registry, uid) pair detects both a swapped registry
  // and a fresh registry constructed at a recycled address.
  obs::Stat* lag_stat_ = nullptr;
  const obs::MetricsRegistry* lag_registry_ = nullptr;
  std::uint64_t lag_registry_uid_ = 0;
};

}  // namespace aft::sim
