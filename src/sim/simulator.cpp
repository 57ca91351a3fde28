#include "sim/simulator.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>
#include <utility>

#include "obs/obs.hpp"

namespace aft::sim {

namespace {

// The std:: heap algorithms build max-heaps, so "later" on top makes the
// overflow heap a min-heap on (when, seq).
constexpr auto kLater = [](const auto& a, const auto& b) noexcept {
  if (a.when != b.when) return a.when > b.when;
  return a.seq > b.seq;
};

constexpr std::uint64_t bucket_bit(std::size_t b) noexcept {
  return std::uint64_t{1} << (b & 63);
}

}  // namespace

Simulator::Handle Simulator::schedule_at(SimTime when, Action action) {
  if (when < now_) throw std::invalid_argument("Simulator: event in the past");
  std::uint64_t cause = obs::kNoEvent;
#if !defined(AFT_OBS_DISABLED)
  if (const obs::TraceSink* sink = obs::trace(); sink != nullptr) {
    cause = sink->cause();
  }
#endif
  std::uint32_t slot = free_head_;
  if (slot != kNoSlot) {
    free_head_ = slots_[slot].next;
  } else {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  }
  Slot& s = slots_[slot];
  s.key = EventKey{when, next_seq_++, cause, now_};
  s.action = std::move(action);
  const std::uint32_t generation = ++s.generation;
  ++pending_;
  if (in_window(when)) {
    append(slot);
  } else {
    overflow_.push_back(Far{when, s.key.seq, slot});
    std::push_heap(overflow_.begin(), overflow_.end(), kLater);
  }
  return Handle{slot, generation};
}

Simulator::Handle Simulator::schedule_in(SimTime delay, Action action) {
  return schedule_at(now_ + delay, std::move(action));
}

bool Simulator::cancel(Handle handle) {
  if (handle.slot >= slots_.size() || (handle.generation & 1u) == 0 ||
      slots_[handle.slot].generation != handle.generation) {
    return false;
  }
  Slot& s = slots_[handle.slot];
  ++s.generation;
  s.action = nullptr;
  --pending_;
  if (in_window(s.key.when)) {
    unlink(handle.slot);
    release(handle.slot);
    return true;
  }
  ++overflow_dead_;
  if (2 * overflow_dead_ > overflow_.size()) {
    rebuild_overflow();
  } else {
    drop_dead_overflow_tops();
  }
  return true;
}

void Simulator::append(std::uint32_t slot) {
  Slot& s = slots_[slot];
  const auto b = static_cast<std::size_t>(s.key.when & (kWindow - 1));
  Bucket& bucket = ring_[b];
  s.next = kNoSlot;
  s.prev = bucket.tail;
  if (bucket.tail == kNoSlot) {
    bucket.head = slot;
    occupied_[b >> 6] |= bucket_bit(b);
  } else {
    slots_[bucket.tail].next = slot;
  }
  bucket.tail = slot;
}

void Simulator::unlink(std::uint32_t slot) {
  const Slot& s = slots_[slot];
  const auto b = static_cast<std::size_t>(s.key.when & (kWindow - 1));
  Bucket& bucket = ring_[b];
  if (bucket.head == slot) {
    bucket.head = s.next;
  } else {
    slots_[s.prev].next = s.next;
  }
  if (bucket.tail == slot) {
    bucket.tail = bucket.head == kNoSlot ? kNoSlot : s.prev;
  } else {
    slots_[s.next].prev = s.prev;
  }
  if (bucket.head == kNoSlot) occupied_[b >> 6] &= ~bucket_bit(b);
}

void Simulator::drop_dead_overflow_tops() {
  while (!overflow_.empty() && dead(overflow_.front())) {
    release(overflow_.front().slot);
    std::pop_heap(overflow_.begin(), overflow_.end(), kLater);
    overflow_.pop_back();
    --overflow_dead_;
  }
}

void Simulator::rebuild_overflow() {
  std::size_t kept = 0;
  for (const Far& node : overflow_) {
    if (dead(node)) {
      release(node.slot);
    } else {
      overflow_[kept++] = node;
    }
  }
  overflow_.resize(kept);
  overflow_dead_ = 0;
  std::make_heap(overflow_.begin(), overflow_.end(), kLater);
}

void Simulator::move_clock(SimTime when) {
  now_ = when;
  // The overflow top is always live, and the clock never passes a live
  // entry, so front().when >= now_ here.
  while (!overflow_.empty() && in_window(overflow_.front().when)) {
    const std::uint32_t slot = overflow_.front().slot;
    std::pop_heap(overflow_.begin(), overflow_.end(), kLater);
    overflow_.pop_back();
    append(slot);
    drop_dead_overflow_tops();
  }
}

bool Simulator::next_tick(SimTime& tick) const noexcept {
  if (pending_ == 0) return false;
  // Ring entries all precede overflow entries; search the occupancy mask
  // from now_'s bucket forward, wrapping once (the last pass re-reads the
  // start word for the buckets before now_'s, which hold the far end of
  // the window).
  const auto start = static_cast<std::size_t>(now_ & (kWindow - 1));
  std::size_t word = start >> 6;
  std::uint64_t bits = occupied_[word] & (~std::uint64_t{0} << (start & 63));
  for (std::size_t pass = 0; pass <= occupied_.size(); ++pass) {
    if (bits != 0) {
      const std::size_t b =
          (word << 6) + static_cast<std::size_t>(std::countr_zero(bits));
      tick = now_ + ((b - start) & (kWindow - 1));
      return true;
    }
    word = (word + 1) % occupied_.size();
    bits = occupied_[word];
  }
  tick = overflow_.front().when;
  return true;
}

void Simulator::dispatch(SimTime tick, obs::TraceSink* sink,
                         obs::FlightRecorder* recorder,
                         obs::MetricsRegistry* registry) {
  if (tick != now_) move_clock(tick);
  const auto b = static_cast<std::size_t>(tick & (kWindow - 1));
  Bucket& bucket = ring_[b];
  const std::uint32_t slot = bucket.head;
  Slot& s = slots_[slot];
  bucket.head = s.next;
  if (bucket.head == kNoSlot) {
    bucket.tail = kNoSlot;
    occupied_[b >> 6] &= ~bucket_bit(b);
  }
  // The callable is moved out (its inline storage relocated, never copied
  // or re-allocated) and the slot recycled before the action runs: the
  // action may schedule, and scheduling may grow the slab.
  const EventKey key = s.key;
  Action action = std::move(s.action);
  ++s.generation;
  release(slot);
  --pending_;
  ++executed_;
#if !defined(AFT_OBS_DISABLED)
  // Dispatch hook: stamp the trace clock so every event emitted by the
  // action carries the right simulated time, and reinstate the cause id
  // that was current when this entry was scheduled — the dispatched
  // continuation inherits the provenance of its scheduler.  Per-dispatch
  // records are detail-level (they dominate trace volume on long runs).
  if (sink != nullptr) {
    sink->set_time(now_);
    sink->set_cause(key.cause);
    if (sink->detail()) sink->emit("sim", "dispatch", {{"eseq", key.seq}});
  } else if (recorder != nullptr) {
    recorder->set_time(now_);
  }
  // The metrics clock drives timeline windowing (obs/timeline.hpp), so it
  // advances on every dispatch even when tracing is off.  Dispatch lag is
  // recorded per dispatched entry (a cancelled one never gets here),
  // through a cached Stat handle so the steady-state cost is one add, not a
  // map lookup.
  if (registry != nullptr) {
    registry->set_time(now_);
    if (registry != lag_registry_ || registry->uid() != lag_registry_uid_) {
      lag_registry_ = registry;
      lag_registry_uid_ = registry->uid();
      lag_stat_ = &registry->stat("sim.dispatch_lag");
    }
    lag_stat_->add(static_cast<double>(now_ - key.scheduled));
  }
#else
  (void)key;
  (void)sink;
  (void)recorder;
  (void)registry;
#endif
  action();
}

namespace {

// The flight recorder only matters when no trace sink shadows it (mirrors
// the old per-event lookup order: trace first, flight only on the miss).
obs::FlightRecorder* flight_unless_traced(obs::TraceSink* sink) {
#if !defined(AFT_OBS_DISABLED)
  return sink == nullptr ? obs::flight() : nullptr;
#else
  (void)sink;
  return nullptr;
#endif
}

obs::TraceSink* trace_sink() {
#if !defined(AFT_OBS_DISABLED)
  return obs::trace();
#else
  return nullptr;
#endif
}

obs::MetricsRegistry* metrics_registry() {
#if !defined(AFT_OBS_DISABLED)
  return obs::metrics();
#else
  return nullptr;
#endif
}

}  // namespace

bool Simulator::step() {
  SimTime tick = 0;
  if (!next_tick(tick)) return false;
  obs::TraceSink* const sink = trace_sink();
  dispatch(tick, sink, flight_unless_traced(sink), metrics_registry());
  return true;
}

std::uint64_t Simulator::run_until(SimTime until) {
  obs::TraceSink* const sink = trace_sink();
  obs::FlightRecorder* const recorder = flight_unless_traced(sink);
  obs::MetricsRegistry* const registry = metrics_registry();
  std::uint64_t ran = 0;
  SimTime tick = 0;
  while (next_tick(tick) && tick <= until) {
    dispatch(tick, sink, recorder, registry);
    ++ran;
  }
  if (now_ < until) move_clock(until);
  return ran;
}

std::uint64_t Simulator::run_all() {
  obs::TraceSink* const sink = trace_sink();
  obs::FlightRecorder* const recorder = flight_unless_traced(sink);
  obs::MetricsRegistry* const registry = metrics_registry();
  std::uint64_t ran = 0;
  SimTime tick = 0;
  while (next_tick(tick)) {
    dispatch(tick, sink, recorder, registry);
    ++ran;
  }
  return ran;
}

void Simulator::advance_to(SimTime when) {
  if (when < now_) throw std::invalid_argument("Simulator: cannot move clock backwards");
  if (SimTime next = 0; next_tick(next) && next < when) {
    throw std::logic_error("Simulator: advancing past pending events");
  }
  move_clock(when);
}

}  // namespace aft::sim
