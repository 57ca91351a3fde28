// Steady-state allocation audits.  This binary overrides the global
// operator new/delete with counting versions (tests/CMakeLists.txt builds
// one executable per test file, so the override is confined to this TU's
// process) and asserts the hot loops the perf PRs optimise are genuinely
// allocation-free once warm:
//
//   * sim::Simulator schedule/dispatch with in-tree-shaped continuations
//     (InlineFn actions in the tick-calendar kernel), including far
//     deadlines that are mostly cancelled,
//   * arch::EventBus publish and publish_batch over interned topics,
//     plus MessageArena slot recycling,
//   * net::Link frame send -> deliver through the recycled slot pool,
//   * net::Endpoint RPC call -> complete with the deadline timer cancelled,
//   * vote::VotingFarm::invoke round after round, including after an
//     arity resize,
//   * autonomic::RestoringOrgan rounds with per-unit ballot
//     discrimination on,
//   * net::Membership heartbeat windows for a member whose name does not
//     fit the string SSO buffer, and
//   * mem::EccScrubAccess batched patrol scrub (read_block + bit-sliced
//     batch decode), including rounds that take the repair path.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "arch/event_bus.hpp"
#include "autonomic/organ.hpp"
#include "cluster/replica.hpp"
#include "hw/memory_chip.hpp"
#include "load/traffic.hpp"
#include "mem/method_ecc.hpp"
#include "net/endpoint.hpp"
#include "net/link.hpp"
#include "net/membership.hpp"
#include "obs/metrics.hpp"
#include "sim/simulator.hpp"
#include "vote/voting_farm.hpp"

namespace {
std::uint64_t g_news = 0;  // single-threaded tests; plain counter suffices

// Every replacement pairs with its own deallocation path (malloc/free): the
// array forms must not forward to ::operator new, or GCC sees a new[]
// result released through operator delete (-Wmismatched-new-delete).
void* counted_new(std::size_t size) {
  ++g_news;
  if (size == 0) size = 1;
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t size) { return counted_new(size); }
void* operator new[](std::size_t size) { return counted_new(size); }

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace {

/// Counts global operator-new calls made by `body()`.
template <typename Body>
std::uint64_t allocations_during(Body&& body) {
  const std::uint64_t before = g_news;
  body();
  return g_news - before;
}

TEST(AllocTest, CountingHookIsLive) {
  // Sanity: the override actually intercepts allocations in this binary.
  // A plain new-expression won't do — the optimizer may elide it — but a
  // direct operator-new call and a capacity-forcing vector may not be.
  const std::uint64_t n = allocations_during([] {
    void* p = ::operator new(32);
    ::operator delete(p);
    std::vector<int> v;
    v.reserve(1000);
    v.push_back(1);
  });
  EXPECT_GE(n, 2u);
}

TEST(AllocTest, SimulatorSteadyStateIsAllocationFree) {
  aft::sim::Simulator sim;
  std::uint64_t fired = 0;

  // Warm-up: grow the queue's backing storage past the working set.
  for (int i = 0; i < 256; ++i) {
    sim.schedule_in(static_cast<aft::sim::SimTime>(i % 17),
                    [&fired] { ++fired; });
  }
  sim.run_all();

  // Steady state: schedule and dispatch with a 48-byte capture (this +
  // std::string + epoch), wider than any in-tree continuation now that the
  // heartbeat chain carries its channel id instead of the channel name.  A
  // short string stays in its SSO buffer, so the whole shape is
  // allocation-free end to end.
  struct Shape {
    std::uint64_t* fired;
    std::string channel;
    std::uint64_t epoch;
    void operator()() const { ++*fired; }
  };
  static_assert(aft::sim::Simulator::fits_inline<Shape>);
  const std::uint64_t allocs = allocations_during([&] {
    for (std::uint64_t round = 0; round < 1000; ++round) {
      for (int i = 0; i < 64; ++i) {
        sim.schedule_in(static_cast<aft::sim::SimTime>(i % 5),
                        Shape{&fired, "svc", round});
      }
      sim.run_all();
    }
  });
  EXPECT_EQ(allocs, 0u);
  EXPECT_EQ(fired, 256u + 1000u * 64u);
}

TEST(AllocTest, SelfReschedulingDaemonMeshIsAllocationFree) {
  // The fig6/fig7 shape: periodic daemons that re-arm themselves from
  // inside their own dispatch.  Re-arming pushes while the heap is at its
  // high-water mark, so after one warm cycle no growth can occur.
  aft::sim::Simulator sim;
  struct Daemon {
    aft::sim::Simulator* sim;
    aft::sim::SimTime period;
    std::uint64_t fires = 0;
    void arm() {
      auto chain = [this] {
        ++fires;
        arm();
      };
      static_assert(aft::sim::Simulator::fits_inline<decltype(chain)>);
      sim->schedule_in(period, std::move(chain));
    }
  };
  std::vector<Daemon> mesh;
  mesh.reserve(32);
  for (std::uint64_t d = 0; d < 32; ++d) {
    mesh.push_back(Daemon{&sim, 1 + d % 7, 0});
    mesh.back().arm();
  }
  sim.run_until(100);  // warm-up: queue reaches its steady high-water mark

  const std::uint64_t allocs =
      allocations_during([&] { sim.run_until(10'000); });
  EXPECT_EQ(allocs, 0u);
  std::uint64_t total = 0;
  for (const Daemon& d : mesh) total += d.fires;
  EXPECT_GT(total, 32u * 1000u);
}

TEST(AllocTest, MostlyCancelledFarDeadlinesAreAllocationFree) {
  // The RPC timer shape at the kernel level: every request arms a
  // 5,000-tick deadline (beyond the ring, so it waits in the overflow heap)
  // and completes two or three ticks later, cancelling it — except every
  // sixteenth, whose deadline is left to fire.  Cancelled deadlines are
  // tombstones in the overflow heap until they surface or a rebuild drops
  // them; either way the slab and the heap are reused in place.
  aft::sim::Simulator sim;
  sim.reserve(4096);
  struct Chain {
    aft::sim::Simulator* sim;
    std::uint64_t* requests;
    std::uint64_t* timeouts;
    void request() {
      const std::uint64_t n = ++*requests;
      const aft::sim::Simulator::Handle deadline =
          sim->schedule_in(5000, [t = timeouts] { ++*t; });
      auto complete = [this, n, deadline] {
        if (n % 16 != 0) sim->cancel(deadline);
        request();
      };
      static_assert(aft::sim::Simulator::fits_inline<decltype(complete)>);
      sim->schedule_in(2 + n % 2, std::move(complete));
    }
  };
  std::uint64_t requests = 0;
  std::uint64_t timeouts = 0;
  std::vector<Chain> chains(8, Chain{&sim, &requests, &timeouts});
  for (Chain& c : chains) c.request();
  sim.run_until(20'000);  // warm-up: deadlines fire and the heap is at its peak

  const std::uint64_t timeouts_before = timeouts;
  const std::uint64_t allocs =
      allocations_during([&] { sim.run_until(60'000); });
  EXPECT_EQ(allocs, 0u);
  EXPECT_GT(requests, 100'000u);
  EXPECT_GT(timeouts - timeouts_before, 5'000u);  // some deadlines do fire
  EXPECT_LT(sim.pending(), 4096u);
}

TEST(AllocTest, EventBusPublishSteadyStateIsAllocationFree) {
  // The interned SoA bus: once topics are interned and buckets sized, a
  // publish is an array walk — no string-keyed map lookup materializes
  // nodes, no handler snapshot vector, no std::function copies.
  aft::arch::EventBus bus;
  std::uint64_t delivered = 0;
  for (int s = 0; s < 4; ++s) {
    bus.subscribe("mesh", [&delivered](const aft::arch::Message&) {
      ++delivered;
    });
  }
  bus.subscribe_all([&delivered](const aft::arch::Message&) { ++delivered; });
  const aft::arch::Message msg{"mesh", "src", "beat"};
  bus.publish(msg);  // warm-up

  const aft::arch::TopicId topic = bus.find_topic("mesh");
  const std::uint64_t allocs = allocations_during([&] {
    for (int i = 0; i < 10000; ++i) bus.publish(msg);
    for (int i = 0; i < 10000; ++i) bus.publish(topic, msg);
  });
  EXPECT_EQ(allocs, 0u);
  EXPECT_EQ(delivered, 5u * 20001u);
}

TEST(AllocTest, EventBusPublishBatchIsAllocationFree) {
  aft::arch::EventBus bus;
  std::uint64_t delivered = 0;
  bus.subscribe("mesh", [&delivered](const aft::arch::Message&) {
    ++delivered;
  });
  std::vector<aft::arch::Message> batch(64);
  for (auto& m : batch) m = aft::arch::Message{"mesh", "src", "beat"};
  const aft::arch::TopicId topic = bus.find_topic("mesh");
  bus.publish_batch(topic, std::span<const aft::arch::Message>(batch));

  const std::uint64_t allocs = allocations_during([&] {
    for (int i = 0; i < 1000; ++i) {
      bus.publish_batch(topic, std::span<const aft::arch::Message>(batch));
    }
  });
  EXPECT_EQ(allocs, 0u);
  EXPECT_EQ(delivered, 64u * 1001u);
}

TEST(AllocTest, MessageArenaRecycledSlotsKeepStringCapacity) {
  aft::arch::MessageArena arena;
  const std::string long_payload(100, 'x');  // far past any SSO buffer

  // Warm-up: one acquire/fill/release cycle grows the slot's strings.
  {
    const auto slot = arena.acquire();
    arena[slot].topic = "mesh";
    arena[slot].payload = long_payload;
    arena.release(slot);
  }

  const std::uint64_t allocs = allocations_during([&] {
    for (int i = 0; i < 1000; ++i) {
      const auto slot = arena.acquire();
      arena[slot].topic = "mesh";
      arena[slot].payload = long_payload;  // fits the retained capacity
      arena.release(slot);
    }
  });
  EXPECT_EQ(allocs, 0u);
  EXPECT_EQ(arena.capacity(), 1u);
}

TEST(AllocTest, LinkFrameSendSteadyStateIsAllocationFree) {
  // One send parks the frame in a recycled pool slot and schedules an
  // inline delivery continuation; with SSO-sized strings the whole
  // send -> deliver -> receiver path must not touch the allocator.
  aft::sim::Simulator sim;
  aft::net::Link link(sim, "a->b", aft::net::LinkFaults{}, 77);
  std::uint64_t received = 0;
  link.set_receiver([&received](aft::net::Frame&&) { ++received; });

  aft::net::Frame frame;
  frame.kind = aft::net::FrameKind::kHeartbeat;
  frame.method = "beat";
  frame.origin = "node-a";
  link.send(frame);  // warm-up: pool + queue growth
  sim.run_all();

  const std::uint64_t allocs = allocations_during([&] {
    for (int i = 0; i < 5000; ++i) {
      frame.id = static_cast<std::uint64_t>(i);
      link.send(frame);
      sim.run_all();
    }
  });
  EXPECT_EQ(allocs, 0u);
  EXPECT_EQ(received, 5001u);
}

TEST(AllocTest, RpcCallCompleteCancelSteadyStateIsAllocationFree) {
  // call -> request -> serve -> response -> complete, with the completed
  // call's deadline timer cancelled: eight calls in flight, each completion
  // starting the next.  Tombstones and heap rebuilds recycle the queue's
  // own storage, so once warm the loop never touches the allocator.
  aft::sim::Simulator sim;
  aft::net::Link fwd(sim, "c->s", aft::net::LinkFaults{}, 5);
  aft::net::Link rev(sim, "s->c", aft::net::LinkFaults{}, 6);
  aft::net::Endpoint client(sim, "client", 7);
  aft::net::Endpoint server(sim, "server", 8);
  client.attach(rev, fwd);
  server.attach(fwd, rev);
  server.serve("echo", [](const std::string& request, std::string& response) {
    response = request;
    return true;
  });
  aft::net::CallOptions options;
  options.deadline = 5000;
  std::uint64_t completed = 0;
  struct Pump {
    aft::net::Endpoint* client;
    const aft::net::CallOptions* options;
    std::uint64_t* completed;
    void call() {
      client->call("echo", "x", *options, [this](const aft::net::RpcResult&) {
        ++*completed;
        call();
      });
    }
  } pump{&client, &options, &completed};
  for (int i = 0; i < 8; ++i) pump.call();
  while (completed < 4000 && sim.step()) {
  }

  const std::uint64_t allocs = allocations_during([&] {
    while (completed < 24000 && sim.step()) {
    }
  });
  EXPECT_EQ(allocs, 0u);
  EXPECT_EQ(completed, 24000u);
  EXPECT_EQ(client.counters().ok, 24000u);
  EXPECT_LE(sim.pending(), 16u);  // eight calls' worth, no dead timers
}

TEST(AllocTest, VotingFarmSteadyStateIsAllocationFree) {
  aft::vote::VotingFarm farm(
      7, [](aft::vote::Ballot input, std::size_t replica) {
        // One dissenter per round keeps the vote non-trivial.
        return replica == 3 ? input + 1 : input;
      });
  (void)farm.invoke(0);  // warm-up sizes ballots_ and scratch_

  const std::uint64_t allocs = allocations_during([&] {
    for (aft::vote::Ballot round = 1; round <= 2000; ++round) {
      const aft::vote::RoundReport report = farm.invoke(round);
      ASSERT_TRUE(report.success);
      ASSERT_EQ(report.value, round);
    }
  });
  EXPECT_EQ(allocs, 0u);
  EXPECT_EQ(farm.last_ballots().size(), 7u);
}

TEST(AllocTest, VotingFarmStaysAllocationFreeAfterResizeDown) {
  aft::vote::VotingFarm farm(
      9, [](aft::vote::Ballot input, std::size_t) { return input; });
  (void)farm.invoke(0);
  farm.resize(5);  // shrink: both buffers keep their 9-slot capacity

  const std::uint64_t allocs = allocations_during([&] {
    for (aft::vote::Ballot round = 1; round <= 500; ++round) {
      const aft::vote::RoundReport report = farm.invoke(round);
      ASSERT_TRUE(report.success);
      ASSERT_EQ(report.n, 5u);
    }
  });
  EXPECT_EQ(allocs, 0u);
  EXPECT_EQ(farm.last_ballots().size(), 5u);
}

TEST(AllocTest, OrganRoundWithDiscriminationIsAllocationFree) {
  // A latched dissenter plus healthy units: every round scores every unit
  // through the discriminator's channel vector, registered once.
  aft::autonomic::ReflectiveSwitchboard::Policy frozen;
  frozen.raise_on_any_dissent = false;
  frozen.critical_dtof = -1;
  aft::autonomic::RestoringOrgan organ(
      5,
      [](aft::vote::Ballot input, std::size_t replica) {
        return replica == 3 ? input + 1 : input;
      },
      frozen, /*shared_key=*/9,
      aft::autonomic::RestoringOrgan::Discrimination::kOn);
  const std::vector<std::size_t> units = {0, 1, 2, 3, 4};
  std::uint64_t dissent_rounds = 0;
  auto step = [&dissent_rounds](const aft::vote::RoundReport& report) {
    if (report.dissent > 0) ++dissent_rounds;
  };
  for (aft::vote::Ballot round = 0; round < 20; ++round) {
    (void)organ.round(round, units, step);  // warm: names, channels, latch
  }
  ASSERT_TRUE(organ.suspect(3));

  const std::uint64_t allocs = allocations_during([&] {
    for (aft::vote::Ballot round = 20; round < 2020; ++round) {
      const aft::vote::RoundReport report = organ.round(round, units, step);
      ASSERT_TRUE(report.success);
    }
  });
  EXPECT_EQ(allocs, 0u);
  EXPECT_EQ(dissent_rounds, 2020u);
  EXPECT_EQ(organ.units_seen(), 5u);
}

TEST(AllocTest, MembershipWindowsForALongMemberNameAreAllocationFree) {
  // The heartbeat check re-armed every window captures the member's id:
  // a name past the SSO buffer is never copied after track().
  aft::sim::Simulator sim;
  aft::net::Membership::Params params;
  params.deadline = 10;
  aft::net::Membership membership(sim, params);
  const std::string name = "replica-with-a-long-name-0001";
  ASSERT_GT(name.size(), std::string().capacity());  // heap-held, not SSO
  const aft::net::Membership::MemberId member = membership.track(name);

  // One beat mid-window, every window: the member stays up throughout.
  struct Beater {
    aft::sim::Simulator* sim;
    aft::net::Membership* membership;
    aft::net::Membership::MemberId member;
    void arm() {
      sim->schedule_in(10, [this] {
        membership->beat(member);
        arm();
      });
    }
  } beater{&sim, &membership, member};
  sim.schedule_at(5, [&beater] {
    beater.membership->beat(beater.member);
    beater.arm();
  });
  sim.run_until(1000);  // warm: 100 windows

  const std::uint64_t allocs =
      allocations_during([&] { sim.run_until(1000 + 1000 * 10); });
  EXPECT_EQ(allocs, 0u);
  EXPECT_TRUE(membership.up(member));
  EXPECT_EQ(membership.downs(), 0u);
  EXPECT_EQ(membership.unknown_beats(), 0u);
}

TEST(AllocTest, MetricsObserveSteadyStateIsAllocationFree) {
  // The PR-8 quantile plane: feeding a pre-registered histogram-backed
  // stat is a Welford update plus a LogHistogram bucket increment — no
  // node materialization, no string temporaries (the registry's maps are
  // std::less<> keyed, so string_view lookups stay heterogeneous).
  aft::obs::MetricsRegistry reg;
  aft::obs::Stat& lat = reg.stat("net.rpc.latency.ok");  // hoisted handle

  const std::uint64_t allocs = allocations_during([&] {
    for (std::uint64_t i = 0; i < 100'000; ++i) {
      lat.add(static_cast<double>(1 + i % 4096));
      if (i % 16 == 0) reg.observe("net.rpc.latency.ok", 7.0);  // by name
    }
  });
  EXPECT_EQ(allocs, 0u);
  EXPECT_EQ(lat.count(), 100'000u + 100'000u / 16u);
}

TEST(AllocTest, TimelineRolloverIsAllocationFree) {
  // Rolling the live window into the finalized store compresses the
  // non-zero bucket range into the arena; after reserve() both the window
  // vector and the arena are pre-sized, so steady-state rollover (the
  // per-window path a long campaign run exercises thousands of times)
  // never touches the heap.
  aft::obs::MetricsRegistry reg;
  aft::obs::Timeline& tl = reg.timeline("lat", /*window_ticks=*/10);
  // Bounded-magnitude samples (1..63) span at most two majors' worth of
  // buckets; 96 per-window bucket slots is comfortably enough.
  tl.reserve(/*windows=*/1200, /*buckets_per_window=*/96);
  aft::obs::Stat& lat = reg.stat("lat");

  const std::uint64_t allocs = allocations_during([&] {
    for (std::uint64_t t = 0; t < 10'000; ++t) {
      reg.set_time(t);
      lat.add(static_cast<double>(1 + (t * 7) % 63));
    }
  });
  EXPECT_EQ(allocs, 0u);
  EXPECT_FALSE(tl.empty());
  // Every window rolled: 1000 finalized + the live one.
  EXPECT_EQ(tl.snapshot().size(), 1000u);
}

TEST(AllocTest, BatchScrubSteadyStateIsAllocationFree) {
  // The batched EccScrubAccess::scrub_step (read_block + bit-sliced
  // ecc_decode_batch + targeted write-backs) works entirely out of stack
  // buffers: once the chip exists, patrol scrubbing — including passes that
  // actually correct injected flips through the repair path — must never
  // touch the heap.
  aft::hw::MemoryChip chip(1024);
  aft::mem::EccScrubAccess method(chip, /*words_per_scrub_step=*/700);
  for (std::size_t w = 0; w < 1024; ++w) method.write(w, w * 0x9E3779B97F4A7C15ULL);
  chip.inject_bit_flip(3, 7);
  method.scrub_step();  // warm (also proves the repair write-back path runs)
  ASSERT_GE(method.stats().corrected_singles, 1u);

  const std::uint64_t allocs = allocations_during([&] {
    for (unsigned round = 0; round < 200; ++round) {
      // Fresh latent flips each round keep the dirty-block repair path hot;
      // step 700 on 1024 words also exercises the wrap seam repeatedly.
      chip.inject_bit_flip((round * 37u) % 1024u, round % 72u);
      method.scrub_step();
    }
  });
  EXPECT_EQ(allocs, 0u);
  EXPECT_GE(method.stats().corrected_singles, 150u);  // most rounds corrected
}

TEST(AllocTest, OpenLoopTrafficSteadyStateIsAllocationFree) {
  // The whole arrival -> RPC -> vote-round -> completion loop of the
  // open-system traffic plane, including the admission shed path: once the
  // pools (session slots, endpoint call tables, the invoke ring, message
  // arenas) reach their high-water marks, a million-client campaign run
  // costs zero heap traffic per request.
  aft::sim::Simulator sim;
  sim.reserve(512);  // peak backlog is a few dozen; 512 is comfortable slack
  aft::cluster::ClusterParams params;
  params.pool = 5;
  params.wire.to_replica.latency = 2;
  params.wire.to_replica.jitter = 1;
  params.wire.from_replica.latency = 2;
  params.wire.from_replica.jitter = 1;
  params.policy.min_replicas = 3;
  params.policy.max_replicas = 5;
  params.policy.step = 2;
  params.policy.lower_after = 1u << 20;
  params.call.deadline = 15;
  params.call.retry.max_attempts = 2;
  params.call.retry.initial_backoff = 4;
  params.call.retry.max_backoff = 8;
  params.heartbeat_period = 4;
  params.membership.deadline = 10;
  params.admission.queue_limit = 8;
  params.admission.policy = aft::cluster::ShedPolicy::kRejectNewest;
  aft::cluster::ReplicatedService service(
      sim, params,
      [](aft::vote::Ballot input, std::size_t) { return input * 2 + 1; }, 21);

  aft::load::TrafficParams tp;
  tp.clients = 4000;
  tp.warm_gap = 8.0;
  tp.overload_gap = 2.0;
  tp.recovery_gap = 8.0;
  tp.think_mean = 6.0;
  tp.session_cap = 16;
  tp.call.deadline = 2000;
  tp.call.retry.max_attempts = 1;
  aft::load::ClientPopulation population(sim, service, tp, 22);
  service.start();
  population.start();

  // Warm deep into the overload phase (clients 800..3200) so every pool is
  // at its high-water mark before measuring.
  while (population.started_sessions() < 2800 && sim.step()) {
  }
  const std::uint64_t shed_before = service.counters().shed;
  const std::uint64_t rounds_before = service.counters().rounds;

  const std::uint64_t allocs = allocations_during([&] {
    while (population.started_sessions() < 3100 && sim.step()) {
    }
  });
  EXPECT_EQ(allocs, 0u);
  // The measured stretch exercised both outcomes: completed rounds AND
  // admission sheds.
  EXPECT_GT(service.counters().rounds, rounds_before);
  EXPECT_GT(service.counters().shed, shed_before);
}

}  // namespace
