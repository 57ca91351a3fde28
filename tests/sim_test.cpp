// Unit tests for the discrete-event simulation kernel.
#include <gtest/gtest.h>

#include <array>
#include <memory>
#include <queue>
#include <utility>
#include <vector>

#include "sim/simulator.hpp"
#include "util/rng.hpp"

namespace {

using aft::sim::SimTime;
using aft::sim::Simulator;

TEST(SimulatorTest, StartsAtZeroAndIdle) {
  Simulator sim;
  EXPECT_EQ(sim.now(), 0u);
  EXPECT_TRUE(sim.idle());
  EXPECT_FALSE(sim.step());
}

TEST(SimulatorTest, EventsFireInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(30, [&] { order.push_back(3); });
  sim.schedule_at(10, [&] { order.push_back(1); });
  sim.schedule_at(20, [&] { order.push_back(2); });
  EXPECT_EQ(sim.run_all(), 3u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), 30u);
}

TEST(SimulatorTest, SameTickFifoOrder) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    sim.schedule_at(7, [&order, i] { order.push_back(i); });
  }
  sim.run_all();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(SimulatorTest, SameTickFifoAcrossScheduleAtAndIn) {
  // The FIFO tie-break is by scheduling order regardless of which entry
  // point queued the event: schedule_at(7) and schedule_in(7) interleaved
  // at the same tick must fire in call order, or mixed-API code (e.g. a
  // scrubber using schedule_in beside an injector using schedule_at) would
  // reorder depending on internals.
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(7, [&] { order.push_back(0); });
  sim.schedule_in(7, [&] { order.push_back(1); });
  sim.schedule_at(7, [&] { order.push_back(2); });
  sim.schedule_in(7, [&] { order.push_back(3); });
  sim.run_all();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(sim.executed(), 4u);
}

TEST(SimulatorTest, ExecutedCountsLifetimeEvents) {
  Simulator sim;
  sim.schedule_at(1, [] {});
  sim.schedule_at(2, [] {});
  sim.run_all();
  sim.schedule_at(3, [] {});
  sim.run_all();
  EXPECT_EQ(sim.executed(), 3u);
}

TEST(SimulatorTest, SchedulingInThePastThrows) {
  Simulator sim;
  sim.schedule_at(10, [] {});
  sim.run_all();
  EXPECT_THROW(sim.schedule_at(5, [] {}), std::invalid_argument);
}

TEST(SimulatorTest, ScheduleInIsRelative) {
  Simulator sim;
  SimTime fired_at = 0;
  sim.schedule_at(100, [&] {
    sim.schedule_in(25, [&] { fired_at = sim.now(); });
  });
  sim.run_all();
  EXPECT_EQ(fired_at, 125u);
}

TEST(SimulatorTest, RunUntilStopsAtBoundaryInclusive) {
  Simulator sim;
  int fired = 0;
  sim.schedule_at(10, [&] { ++fired; });
  sim.schedule_at(20, [&] { ++fired; });
  sim.schedule_at(21, [&] { ++fired; });
  EXPECT_EQ(sim.run_until(20), 2u);
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(sim.now(), 20u);
  EXPECT_EQ(sim.pending(), 1u);
}

TEST(SimulatorTest, RunUntilAdvancesClockWhenIdle) {
  Simulator sim;
  sim.run_until(500);
  EXPECT_EQ(sim.now(), 500u);
}

TEST(SimulatorTest, EventsCanScheduleEvents) {
  Simulator sim;
  int chain = 0;
  std::function<void()> next = [&] {
    if (++chain < 10) sim.schedule_in(1, next);
  };
  sim.schedule_at(0, next);
  sim.run_all();
  EXPECT_EQ(chain, 10);
  EXPECT_EQ(sim.now(), 9u);
}

TEST(SimulatorTest, AdvanceToCannotGoBackwards) {
  Simulator sim;
  sim.advance_to(50);
  EXPECT_THROW(sim.advance_to(10), std::invalid_argument);
}

TEST(SimulatorTest, AdvanceToCannotSkipPendingEvents) {
  Simulator sim;
  sim.schedule_at(30, [] {});
  EXPECT_THROW(sim.advance_to(40), std::logic_error);
}

TEST(SimulatorTest, ActionsMayHoldMoveOnlyCaptures) {
  // The InlineFn-based Action is move-only, so non-copyable captures are
  // legal — something the std::function kernel rejected at compile time.
  Simulator sim;
  int out = 0;
  auto payload = std::make_unique<int>(41);
  sim.schedule_at(1, [&out, p = std::move(payload)] { out = *p + 1; });
  sim.run_all();
  EXPECT_EQ(out, 42);
}

TEST(SimulatorTest, InTreeContinuationShapesFitInline) {
  // The allocation-free contract: every continuation shape the library's
  // scheduling clients use must fit the kernel's inline callable storage.
  struct Host {
    void fire(std::uint64_t) {}
  };
  Host* h = nullptr;
  std::uint64_t epoch = 3;
  std::string channel = "replica-1";
  auto daemon_chain = [h, epoch] { h->fire(epoch); };
  auto heartbeat_chain = [h, channel = channel, epoch] {
    (void)channel;
    h->fire(epoch);
  };
  static_assert(Simulator::fits_inline<decltype(daemon_chain)>);
  static_assert(Simulator::fits_inline<decltype(heartbeat_chain)>);
  // And a capture past the 64-byte budget is *not* inline (it still works,
  // via the heap fallback — see inline_fn_test).
  std::array<char, 80> big{};
  auto oversized = [big] { (void)big; };
  static_assert(!Simulator::fits_inline<decltype(oversized)>);
  (void)daemon_chain;
  (void)heartbeat_chain;
  (void)oversized;
}

TEST(SimulatorTest, CancelledEntryNeverRunsNorMovesTheClock) {
  Simulator sim;
  std::vector<int> ran;
  sim.schedule_at(5, [&] { ran.push_back(5); });
  const Simulator::Handle late = sim.schedule_at(100, [&] { ran.push_back(100); });
  EXPECT_EQ(sim.pending(), 2u);
  EXPECT_TRUE(sim.cancel(late));
  EXPECT_FALSE(sim.cancel(late));  // double cancel
  EXPECT_FALSE(sim.cancel(Simulator::Handle{}));
  EXPECT_EQ(sim.pending(), 1u);
  EXPECT_EQ(sim.run_all(), 1u);
  EXPECT_EQ(ran, std::vector<int>{5});
  EXPECT_EQ(sim.executed(), 1u);
  EXPECT_EQ(sim.now(), 5u);  // the dead entry at 100 did not advance it
  EXPECT_TRUE(sim.idle());
  // run_until still ends at its bound, dead entries or not.
  const Simulator::Handle gone = sim.schedule_at(50, [&] { ran.push_back(50); });
  sim.cancel(gone);
  sim.run_until(60);
  EXPECT_EQ(sim.now(), 60u);
  EXPECT_EQ(ran, std::vector<int>{5});
}

// A cancelled entry must behave exactly like an entry whose action is a
// no-op, minus the dispatch: the live entries run in the same order at the
// same times, and executed() drops by the number of cancelled entries.
namespace cancellation {

struct Replay {
  explicit Replay(bool cancel) : use_cancel(cancel) {}

  bool use_cancel;  ///< false: "cancel" only turns the target into a no-op
  Simulator sim;
  std::vector<Simulator::Handle> handles;  ///< by id
  std::vector<bool> voided;                ///< by id (no-op mode)
  std::vector<std::pair<SimTime, int>> log;
  std::uint64_t cancelled = 0;
  std::uint64_t noops = 0;
  int next_id = 0;

  void add(SimTime when) {
    const int id = next_id++;
    handles.emplace_back();
    voided.push_back(false);
    handles[static_cast<std::size_t>(id)] =
        sim.schedule_at(when, [this, id] { fire(id); });
  }
  void fire(int id) {
    if (voided[static_cast<std::size_t>(id)]) {
      ++noops;
      return;
    }
    log.emplace_back(sim.now(), id);
    // Re-entrant fan-out and re-entrant cancels of other entries — pending,
    // already run, or already cancelled ones alike.
    if (id < 600 && id % 3 == 0) add(sim.now() + static_cast<SimTime>(id % 5));
    if (id % 4 == 1) withdraw((id * 7 + 3) % next_id);
  }
  void withdraw(int target) {
    const auto t = static_cast<std::size_t>(target);
    if (use_cancel) {
      if (sim.cancel(handles[t])) ++cancelled;
    } else {
      voided[t] = true;
    }
  }
};

void drive(Replay& r) {
  aft::util::Xoshiro256 rng(404);
  for (int i = 0; i < 300; ++i) r.add(rng.uniform_int(0, 60));
  // Cancels from outside any action, before anything ran.
  for (int target = 0; target < 300; target += 11) r.withdraw(target);
  for (SimTime t = 0; t <= 70; t += 4) r.sim.run_until(t);
  r.sim.run_all();
}

TEST(SimulatorCancelTest, LiveDispatchOrderMatchesNoOpRun) {
  Replay cancelled(/*cancel=*/true);
  Replay noop(/*cancel=*/false);
  drive(cancelled);
  drive(noop);
  EXPECT_GT(cancelled.cancelled, 20u);
  EXPECT_EQ(cancelled.noops, 0u);
  EXPECT_EQ(cancelled.cancelled, noop.noops);
  EXPECT_EQ(cancelled.log, noop.log);
  EXPECT_EQ(cancelled.next_id, noop.next_id);
  EXPECT_EQ(cancelled.sim.executed() + cancelled.cancelled,
            noop.sim.executed());
  EXPECT_TRUE(cancelled.sim.idle());
  EXPECT_LE(cancelled.sim.now(), noop.sim.now());
}

}  // namespace cancellation

// --- Differential test: the DHeap kernel vs a priority_queue reference model

namespace differential {

// Reference semantics: the pre-DHeap kernel — std::priority_queue with the
// FIFO (when, seq) tie-break.  Both drivers expose the same surface so one
// scenario can drive them identically; the dispatch logs must match event
// for event.
struct RefKernel {
  struct Entry {
    SimTime when;
    std::uint64_t seq;
    int id;
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const noexcept {
      if (a.when != b.when) return a.when > b.when;
      return a.seq > b.seq;
    }
  };

  std::priority_queue<Entry, std::vector<Entry>, Later> queue;
  SimTime now = 0;
  std::uint64_t next_seq = 0;

  void schedule_at(SimTime when, int id) { queue.push(Entry{when, next_seq++, id}); }
  [[nodiscard]] bool idle() const { return queue.empty(); }
};

// The re-entrant rule both sides apply on dispatch: low ids fan out into
// children scheduled 0..4 ticks ahead (delay 0 = same-tick re-entrancy).
constexpr int kFanOutBelow = 300;
constexpr int fan_out(int id) { return id < kFanOutBelow ? id % 3 : 0; }
constexpr SimTime child_delay(int id, int k) {
  return static_cast<SimTime>((id + 2 * k) % 5);
}

struct SimDriver {
  Simulator sim;
  std::vector<std::pair<SimTime, int>> log;
  int next_id;

  explicit SimDriver(int first_child_id) : next_id(first_child_id) {}

  void fire(int id) {
    log.emplace_back(sim.now(), id);
    for (int k = 0; k < fan_out(id); ++k) {
      const int child = next_id++;
      sim.schedule_in(child_delay(id, k), [this, child] { fire(child); });
    }
  }
  void schedule_at(SimTime when, int id) {
    sim.schedule_at(when, [this, id] { fire(id); });
  }
  [[nodiscard]] SimTime now() const { return sim.now(); }
  void run_until(SimTime t) { sim.run_until(t); }
  void run_all() { sim.run_all(); }
  void advance_to(SimTime t) { sim.advance_to(t); }
  bool step() { return sim.step(); }
};

struct RefDriver {
  RefKernel kernel;
  std::vector<std::pair<SimTime, int>> log;
  int next_id;

  explicit RefDriver(int first_child_id) : next_id(first_child_id) {}

  void fire(int id) {
    log.emplace_back(kernel.now, id);
    for (int k = 0; k < fan_out(id); ++k) {
      kernel.schedule_at(kernel.now + child_delay(id, k), next_id++);
    }
  }
  void schedule_at(SimTime when, int id) { kernel.schedule_at(when, id); }
  [[nodiscard]] SimTime now() const { return kernel.now; }
  bool step() {
    if (kernel.idle()) return false;
    const RefKernel::Entry e = kernel.queue.top();
    kernel.queue.pop();
    kernel.now = e.when;
    fire(e.id);
    return true;
  }
  void run_until(SimTime t) {
    while (!kernel.idle() && kernel.queue.top().when <= t) step();
    if (kernel.now < t) kernel.now = t;
  }
  void run_all() {
    while (step()) {
    }
  }
  void advance_to(SimTime t) { kernel.now = t; }
};

// One adversarial scenario: same-tick bursts, re-entrant fan-out, and
// interleaved run_until / step / advance_to driving.
template <typename Driver>
void drive(Driver& d) {
  aft::util::Xoshiro256 rng(2026);
  // Wave 1: 200 events crammed into 40 ticks (~5 per tick burst).
  for (int id = 0; id < 200; ++id) {
    d.schedule_at(rng.uniform_int(0, 40), id);
  }
  // Drain in stuttering run_until windows, then to quiescence.
  for (SimTime t = 0; t <= 45; t += 3) d.run_until(t);
  d.run_all();
  // Move the clock through dead air, then a second wave drained one step at
  // a time (exercises step()'s move-out path directly).
  d.advance_to(d.now() + 7);
  const SimTime base = d.now();
  for (int id = 1000; id < 1100; ++id) {
    d.schedule_at(base + rng.uniform_int(0, 15), id);
  }
  while (d.step()) {
  }
}

TEST(SimulatorDifferentialTest, AdversarialScheduleMatchesPriorityQueueModel) {
  SimDriver real(/*first_child_id=*/5000);
  RefDriver ref(/*first_child_id=*/5000);
  drive(real);
  drive(ref);
  ASSERT_EQ(real.log.size(), ref.log.size());
  EXPECT_EQ(real.log, ref.log);
  EXPECT_EQ(real.next_id, ref.next_id);  // same re-entrant fan-out happened
  EXPECT_EQ(real.now(), ref.now());
}

}  // namespace differential

}  // namespace
