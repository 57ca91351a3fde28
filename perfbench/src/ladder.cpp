#include "ladder.hpp"

#include <algorithm>
#include <cstdint>
#include <functional>

#include "cluster/replica.hpp"
#include "hw/fault_injector.hpp"
#include "hw/memory_chip.hpp"
#include "load/traffic.hpp"
#include "mem/ecc.hpp"
#include "mem/method_ecc.hpp"
#include "mem/method_tmr.hpp"
#include "net/endpoint.hpp"
#include "net/link.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"
#include "vote/voting_farm.hpp"

namespace pb {
namespace {

using aft::vote::Ballot;

constexpr std::uint64_t kSeed = 0x1add3;
constexpr std::size_t kMinBlocks = 5;
constexpr std::size_t kMaxBlocks = 41;
/// Words a scrub_step() covers (the access methods' default).
constexpr std::size_t kScrubWords = 64;

/// `calls(n)` performs n calls of the row's operation and returns the sim
/// events they executed.  One warm-up block, then blocks until the budget
/// is spent (at least kMinBlocks).  The row keeps the fastest block's ns per
/// call (interference on the shared machine only ever slows a block down)
/// and the median of the per-call counts.
LadderRow measure(std::string name, std::string key, std::uint64_t batch,
                  double budget_s,
                  const std::function<std::uint64_t(std::uint64_t)>& calls) {
  calls(batch);
  std::vector<double> ns, events, allocs;
  const std::uint64_t deadline =
      now_ns() + static_cast<std::uint64_t>(budget_s * 1e9);
  while (ns.size() < kMinBlocks ||
         (now_ns() < deadline && ns.size() < kMaxBlocks)) {
    const std::uint64_t a0 = allocations();
    const std::uint64_t t0 = now_ns();
    const std::uint64_t ev = calls(batch);
    const std::uint64_t t1 = now_ns();
    const std::uint64_t a1 = allocations();
    const auto n = static_cast<double>(batch);
    ns.push_back(static_cast<double>(t1 - t0) / n);
    events.push_back(static_cast<double>(ev) / n);
    allocs.push_back(static_cast<double>(a1 - a0) / n);
  }
  return LadderRow{std::move(name), std::move(key),
                   *std::min_element(ns.begin(), ns.end()), median(events),
                   median(allocs)};
}

Ballot correct_task(Ballot input, std::size_t) { return input * 2 + 1; }

LadderRow dispatch_row(double budget) {
  // A standing backlog of 64 self-rescheduling events, like the traffic
  // workloads' mix of heartbeats, link deliveries and deadline timers.
  aft::sim::Simulator sim;
  sim.reserve(256);
  struct Tick {
    aft::sim::Simulator* sim;
    std::uint64_t k;
    void operator()() const { sim->schedule_in(1 + k % 4, Tick{sim, k}); }
  };
  for (std::uint64_t k = 0; k < 64; ++k) sim.schedule_in(1 + k % 4, Tick{&sim, k});
  return measure("sim.dispatch_ns", "sim.dispatch", 20000, budget,
                 [&](std::uint64_t n) {
                   const std::uint64_t e0 = sim.executed();
                   for (std::uint64_t i = 0; i < n; ++i) sim.step();
                   return sim.executed() - e0;
                 });
}

LadderRow link_row(double budget) {
  aft::sim::Simulator sim;
  aft::net::Link link(sim, "a->b", quiet_wire(), kSeed);
  std::uint64_t delivered = 0;
  link.set_receiver([&delivered](aft::net::Frame&&) { ++delivered; });
  aft::net::Frame frame;
  frame.kind = aft::net::FrameKind::kData;
  frame.method = std::string("compute");
  frame.payload = std::string("7");
  frame.origin = std::string("a");
  return measure("net.link_ns", "net.link", 4096, budget,
                 [&](std::uint64_t n) {
                   const std::uint64_t e0 = sim.executed();
                   for (std::uint64_t i = 0; i < n; ++i) {
                     link.send(frame);
                     if ((i & 15) == 15) sim.run_all();
                   }
                   sim.run_all();
                   return sim.executed() - e0;
                 });
}

LadderRow rpc_row(double budget, double& frames_per_call) {
  aft::sim::Simulator sim;
  aft::net::Link to_server(sim, "c->s", quiet_wire(), kSeed);
  aft::net::Link to_client(sim, "s->c", quiet_wire(), kSeed + 1);
  aft::net::Endpoint client(sim, "c", kSeed + 2);
  aft::net::Endpoint server(sim, "s", kSeed + 3);
  client.attach(to_client, to_server);
  server.attach(to_server, to_client);
  server.serve("compute", [](const std::string&, std::string& response) {
    response = "15";
    return true;
  });
  const aft::net::CallOptions options = cluster_params(false).call;
  const std::string method = "compute";
  const std::string payload = "7";
  std::uint64_t calls_made = 0;
  LadderRow row = measure(
      "net.rpc_ns", "net.rpc", 2048, budget, [&](std::uint64_t n) {
        const std::uint64_t e0 = sim.executed();
        for (std::uint64_t i = 0; i < n; ++i) {
          bool done = false;
          client.call(method, payload, options,
                      [&done](const aft::net::RpcResult&) { done = true; });
          while (!done && sim.step()) {
          }
        }
        calls_made += n;
        return sim.executed() - e0;
      });
  frames_per_call = ratio(static_cast<double>(to_server.counters().sent +
                                              to_client.counters().sent),
                          static_cast<double>(calls_made));
  return row;
}

LadderRow vote_row(double budget) {
  aft::vote::VotingFarm farm(3, correct_task);
  Ballot input = 0;
  return measure("vote.round_ns", "vote.round", 20000, budget,
                 [&](std::uint64_t n) {
                   for (std::uint64_t i = 0; i < n; ++i) farm.invoke(input++);
                   return std::uint64_t{0};
                 });
}

LadderRow invoke_row(double budget, std::size_t arity) {
  aft::sim::Simulator sim;
  aft::cluster::ClusterParams params = cluster_params(false);
  params.policy.min_replicas = arity;
  params.policy.max_replicas = arity;
  aft::cluster::ReplicatedService service(sim, params, correct_task, kSeed);
  service.start();
  const std::string suffix = "_r" + std::to_string(arity);
  return measure("cluster.invoke_ns" + suffix, "cluster.invoke" + suffix, 1024,
                 budget, [&](std::uint64_t n) {
                   const std::uint64_t e0 = sim.executed();
                   for (std::uint64_t i = 0; i < n; ++i) {
                     bool done = false;
                     service.invoke(7, [&done](aft::cluster::InvokeOutcome,
                                               const aft::vote::RoundReport&) {
                       done = true;
                     });
                     while (!done && sim.step()) {
                     }
                   }
                   return sim.executed() - e0;
                 });
}

LadderRow request_row(double budget) {
  // One client request through the whole stack, with sessions arriving at
  // the traffic workloads' warm-phase rate (no queueing to speak of).
  aft::sim::Simulator sim;
  aft::cluster::ReplicatedService service(sim, cluster_params(false),
                                          correct_task, kSeed);
  aft::load::TrafficParams traffic;
  traffic.clients = std::size_t{1} << 40;  // never runs out
  traffic.warm_gap = 24.0;
  traffic.overload_gap = 24.0;
  traffic.recovery_gap = 24.0;
  traffic.call.deadline = 5000;
  traffic.call.retry.max_attempts = 1;
  aft::load::ClientPopulation population(sim, service, traffic, kSeed + 100);
  service.start();
  population.start();
  auto resolved = [&population] {
    const aft::load::PhaseStats& p = population.phase(0);
    return p.ok + p.shed + p.failed;
  };
  return measure("load.request_ns", "load.request", 1024, budget,
                 [&](std::uint64_t n) {
                   const std::uint64_t e0 = sim.executed();
                   const std::uint64_t target = resolved() + n;
                   while (resolved() < target && sim.step()) {
                   }
                   return sim.executed() - e0;
                 });
}

}  // namespace

Ladder run_ladder(double budget_s, Scale scale) {
  const std::size_t words = scale == Scale::kTiny ? 1024 : kMemoryWords;
  constexpr double kRows = 17;
  const double b = budget_s / kRows;
  Ladder ladder;
  auto& rows = ladder.rows;

  rows.push_back(dispatch_row(b));
  rows.push_back(link_row(b));
  double rpc_frames = 0;
  rows.push_back(rpc_row(b, rpc_frames));
  rows.push_back(vote_row(b));
  rows.push_back(invoke_row(b, 3));
  rows.push_back(invoke_row(b, 5));
  rows.push_back(request_row(b));

  // Memory rows over the memory_adaptive working set.
  aft::util::Xoshiro256 rng(kSeed);
  {
    aft::hw::MemoryChip chip(words);
    std::vector<aft::hw::Word72> buf(kScrubWords);
    std::size_t addr = 0;
    rows.push_back(measure(
        "hw.read_block_ns_per_word", "hw.read_block", 64 * 256, b,
        [&](std::uint64_t n) {
          for (std::uint64_t i = 0; i < n; i += kScrubWords) {
            if (!chip.read_block(addr, kScrubWords, buf.data())) break;
            addr = (addr + kScrubWords) % words;
          }
          return std::uint64_t{0};
        }));
  }
  {
    aft::hw::MemoryChip chip(words);
    aft::hw::FaultInjector injector(chip, aft::hw::profiles::sdram_sel_seu(),
                                    kSeed);
    rows.push_back(measure("hw.inject_tick_ns", "hw.inject_tick", 20000, b,
                           [&](std::uint64_t n) {
                             for (std::uint64_t i = 0; i < n; ++i) {
                               injector.tick();
                             }
                             return std::uint64_t{0};
                           }));
  }
  auto access_rows = [&](aft::mem::IMemoryAccessMethod& m,
                         const std::string& tag) {
    for (std::size_t w = 0; w < words; ++w) m.write(w, rng.next());
    rows.push_back(measure("mem.read_ns_" + tag, "mem.read_" + tag, 8192, b,
                           [&](std::uint64_t n) {
                             for (std::uint64_t i = 0; i < n; ++i) {
                               (void)m.read(rng.uniform_int(0, words - 1));
                             }
                             return std::uint64_t{0};
                           }));
    rows.push_back(measure("mem.write_ns_" + tag, "mem.write_" + tag, 8192, b,
                           [&](std::uint64_t n) {
                             for (std::uint64_t i = 0; i < n; ++i) {
                               m.write(rng.uniform_int(0, words - 1),
                                       rng.next());
                             }
                             return std::uint64_t{0};
                           }));
  };
  {
    aft::hw::MemoryChip chip(words);
    aft::mem::EccScrubAccess m1(chip, kScrubWords);
    access_rows(m1, "m1");
    LadderRow scrub = measure("mem.scrub_ns_per_word", "mem.scrub_step_m1",
                              512, b, [&](std::uint64_t n) {
                                for (std::uint64_t i = 0; i < n; ++i) {
                                  m1.scrub_step();
                                }
                                return std::uint64_t{0};
                              });
    // Reported per word; the exclusive cost below is per step.
    ladder.exclusive.emplace_back("mem.scrub_step_m1", scrub.ns);
    scrub.ns /= static_cast<double>(kScrubWords);
    rows.push_back(scrub);
  }
  {
    aft::hw::MemoryChip c0(words), c1(words), c2(words);
    aft::mem::TmrEccAccess m4(c0, c1, c2, kScrubWords);
    access_rows(m4, "m4");
    rows.push_back(measure("mem.scrub_step_ns_m4", "mem.scrub_step_m4", 512,
                           b, [&](std::uint64_t n) {
                             for (std::uint64_t i = 0; i < n; ++i) {
                               m4.scrub_step();
                             }
                             return std::uint64_t{0};
                           }));
  }
  {
    std::vector<std::uint64_t> data(words);
    for (std::uint64_t& d : data) d = rng.next();
    std::vector<aft::hw::Word72> code(words);
    aft::mem::ecc_encode_batch(data.data(), words, code.data());
    std::vector<aft::mem::EccStatus> status(words);
    rows.push_back(measure(
        "mem.ecc_decode_batch_ns_per_word", "mem.ecc_decode_batch", words, b,
        [&](std::uint64_t n) {
          for (std::uint64_t i = 0; i < n; i += words) {
            aft::mem::ecc_decode_batch(code.data(), words, data.data(),
                                       status.data(), nullptr);
          }
          return std::uint64_t{0};
        }));
  }

  // Exclusive costs: peel the dispatch and link hops off the nested rows.
  auto row = [&rows](const std::string& key) -> const LadderRow& {
    for (const LadderRow& r : rows) {
      if (r.key == key) return r;
    }
    return rows.front();
  };
  const double dispatch = row("sim.dispatch").ns;
  const LadderRow& link = row("net.link");
  const double link_excl = std::max(0.0, link.ns - link.events * dispatch);
  const LadderRow& rpc = row("net.rpc");
  const double rpc_excl = std::max(
      0.0, rpc.ns - rpc.events * dispatch - rpc_frames * link_excl);
  Metrics& ex = ladder.exclusive;
  ex.emplace_back("sim.dispatch", dispatch);
  ex.emplace_back("net.link", link_excl);
  ex.emplace_back("net.rpc", rpc_excl);
  for (const char* key : {"vote.round", "hw.inject_tick", "mem.read_m1",
                          "mem.write_m1", "mem.read_m4", "mem.write_m4",
                          "mem.scrub_step_m4"}) {
    ex.emplace_back(key, row(key).ns);
  }
  return ladder;
}

double ladder_coverage(const Ladder& ladder, const Metrics& use,
                       double wall_ns_per_op) {
  double covered = 0;
  for (const auto& [key, per_op] : use) {
    for (const auto& [ex_key, ns] : ladder.exclusive) {
      if (ex_key == key) covered += per_op * ns;
    }
  }
  return ratio(covered, wall_ns_per_op);
}

}  // namespace pb
