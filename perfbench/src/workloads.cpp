#include "workloads.hpp"

#include <array>
#include <optional>

#include "arch/event_bus.hpp"
#include "autonomic/experiment.hpp"
#include "cluster/replica.hpp"
#include "hw/fault_injector.hpp"
#include "hw/machine.hpp"
#include "load/traffic.hpp"
#include "mem/adaptive.hpp"
#include "net/link.hpp"
#include "obs/slo.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"

namespace pb {
namespace {

using aft::cluster::ReplicatedService;
using aft::load::ClientPopulation;
using aft::vote::Ballot;

// ---------------------------------------------------------------------------
// traffic_overload / traffic_faults: load -> cluster -> net -> vote -> sim.

/// Admission queue bound and SLO threshold, as in bench/abl_open_loop.
constexpr std::size_t kQueueLimit = 64;
constexpr std::uint64_t kSloTicks = 400;
constexpr double kWarmGap = 24.0;
constexpr double kOverloadGap = 4.0;
/// sim.step() calls per dispatch span.
constexpr int kDispatchChunk = 4096;

class TrafficWorkload final : public Workload {
 public:
  TrafficWorkload(bool faults, std::size_t clients)
      : faults_(faults), clients_(clients) {}

  void init(std::uint64_t seed) override {
    state_.emplace();
    State& s = *state_;
    s.sim.reserve(1024);

    s.service.emplace(
        s.sim, cluster_params(faults_),
        [this](Ballot input, std::size_t replica) -> Ballot {
          SpanScope span(tracer_, SpanKind::kTask);
          State& st = *state_;
          st.last_input = input;
          if (replica == st.corrupt_replica) return input * 2 + 2;
          return input * 2 + 1;
        },
        seed);

    s.service->switchboard().bind_slo(s.bus);
    aft::obs::SloPolicy slo;
    slo.budget_permille = 100;
    slo.threshold_ticks = kSloTicks;
    slo.window_ticks = 4000;
    s.tracker.emplace("traffic-invoke", slo);
    s.tracker->set_publisher([this](bool breach) {
      SpanScope span(tracer_, SpanKind::kHook);
      aft::arch::Message msg;
      msg.topic = breach ? "obs.slo/breach" : "obs.slo/recover";
      msg.source = "obs.slo";
      msg.payload = "traffic-invoke";
      state_->bus.publish(msg);
    });
    s.service->switchboard().set_resize_hook([this](std::size_t, bool) {
      SpanScope span(tracer_, SpanKind::kHook);
    });

    aft::load::TrafficParams traffic;
    traffic.clients = clients_;
    traffic.arrival = aft::load::Arrival::kPoisson;
    traffic.warm_gap = kWarmGap;
    traffic.overload_gap = faults_ ? kWarmGap : kOverloadGap;
    traffic.recovery_gap = kWarmGap;
    traffic.call.deadline = 5000;
    traffic.call.retry.max_attempts = 1;
    traffic.slo = &*s.tracker;
    s.population.emplace(s.sim, *s.service, traffic, seed + 100);

    {
      SpanScope span(tracer_, SpanKind::kStart);
      s.service->start();
      s.population->start();
    }
    if (faults_) schedule_faults();
  }

  void run() override {
    State& s = *state_;
    const std::size_t warm_mark = clients_ / 10;
    s.warm_allocs = allocations();
    while (!s.population->done() && !s.stalled) {
      SpanScope span(tracer_, SpanKind::kDispatch);
      for (int i = 0; i < kDispatchChunk; ++i) {
        if (s.population->done()) break;
        if (!s.sim.step()) {
          s.stalled = true;
          break;
        }
        check_round();
        if (tracer_ != nullptr) {
          s.depth_sum += s.service->queue_depth();
          ++s.depth_samples;
        }
      }
      if (!s.warmed && s.population->started_sessions() >= warm_mark) {
        s.warmed = true;
        s.warm_allocs = allocations();
        s.warm_ops = resolved();
      }
    }
    s.end_allocs = allocations();
    s.tracker->flush(s.sim.now());
  }

  void validate(RunReport& out) override {
    State& s = *state_;
    ReplicatedService& svc = *s.service;
    ClientPopulation& pop = *s.population;
    const aft::cluster::ClusterCounters& cc = svc.counters();
    auto fail = [&out](std::string msg) { out.errors.push_back(std::move(msg)); };

    aft::util::LogHistogram latency;
    std::uint64_t requests = 0, ok = 0, shed = 0, failed = 0, sessions = 0;
    for (std::size_t p = 0; p < ClientPopulation::kPhases; ++p) {
      const aft::load::PhaseStats& ph = pop.phase(p);
      if (ph.requests != ph.ok + ph.shed + ph.failed) {
        fail(std::string("phase ") + ClientPopulation::phase_name(p) +
             ": requests != ok + shed + failed");
      }
      requests += ph.requests;
      ok += ph.ok;
      shed += ph.shed;
      failed += ph.failed;
      sessions += ph.sessions;
      latency.merge(ph.latency);
    }
    if (s.stalled) fail("event queue drained before every session completed");
    if (!pop.done() || pop.started_sessions() != clients_ ||
        sessions != clients_) {
      fail("not every session arrived and completed");
    }
    if (cc.queue_peak > kQueueLimit) fail("queue peak exceeds the limit");
    if (s.wrong_values != 0) {
      fail(std::to_string(s.wrong_values) +
           " voted values differ from the task's 2x+1");
    }
    if (s.checked_rounds == 0) fail("no voted value was checked");
    if (!faults_ && cc.no_quorum != 0) fail("rounds without quorum");
    if (faults_ && s.fault_events != 3) fail("fault script did not complete");
    if (requests == 0) fail("no requests");

    // Sim-time outcome.  Latency covers completed requests (ok and failed);
    // a request misses the SLO when it is shed, failed, or took >= 400
    // ticks (the LogHistogram bucket boundary at 400 makes this exact).
    std::uint64_t slow = 0;
    for (std::size_t b = 0; b < aft::util::LogHistogram::kBuckets; ++b) {
      if (aft::util::LogHistogram::bucket_lower(b) >= kSloTicks) {
        slow += latency.bucket_count(b);
      }
    }
    out.ops = requests;
    out.failed_ops = shed + failed;
    out.steady_ops = requests - s.warm_ops;
    out.steady_allocs = s.end_allocs - s.warm_allocs;
    const auto dreq = static_cast<double>(requests);
    out.outcome = {
        {"fail_frac", ratio(static_cast<double>(shed + failed), dreq)},
        {"slo_miss_frac", ratio(static_cast<double>(shed + slow), dreq)},
        {"latency_p50_ticks", static_cast<double>(latency.quantile(0.5))},
        {"latency_p999_ticks", static_cast<double>(latency.quantile(0.999))},
        {"latency_samples", static_cast<double>(latency.count())},
        {"requests", dreq},
        {"ok", static_cast<double>(ok)},
        {"shed", static_cast<double>(shed)},
        {"failed", static_cast<double>(failed)},
        // Sessions arrive on the seeded sim-time schedule; the simulator
        // never falls behind it, whatever the host speed.
        {"generator_late_ticks", 0.0},
    };

    // Per-layer counts from the layers' own tallies.
    std::uint64_t sent = 0, dropped = 0, heartbeats = 0;
    std::uint64_t calls = 0, attempts = 0, rpc_ok = 0, breaker_rejects = 0;
    for (std::size_t i = 0; i < svc.pool(); ++i) {
      const aft::net::LinkCounters& to = svc.link_to(i).counters();
      const aft::net::LinkCounters& from = svc.link_from(i).counters();
      sent += to.sent + from.sent;
      dropped += to.dropped + from.dropped;
      // The return wire carries one response per delivered request; the
      // rest of its frames are heartbeats.
      heartbeats += from.sent - to.delivered;
      const aft::net::RpcCounters& rc = svc.rpc_counters(i);
      calls += rc.calls;
      attempts += rc.attempts;
      rpc_ok += rc.ok;
      breaker_rejects += rc.circuit_open;
    }
    // The client <-> front-door links are lossless: one request and one
    // response frame per attempt.
    const std::uint64_t client_frames = 2 * pop.client_counters().attempts;
    const std::uint64_t frames = sent + client_frames;
    const std::uint64_t events = s.sim.executed();
    const auto& farm = svc.farm();
    const auto& board = svc.switchboard();
    out.counts = {
        {"sim.events_per_op", ratio(static_cast<double>(events), dreq)},
        {"net.frames_per_op", ratio(static_cast<double>(frames), dreq)},
        {"net.heartbeat_frames_per_op",
         ratio(static_cast<double>(heartbeats), dreq)},
        {"net.drop_frac",
         ratio(static_cast<double>(dropped), static_cast<double>(sent))},
        {"net.rpc_attempts_per_call",
         ratio(static_cast<double>(attempts), static_cast<double>(calls))},
        {"net.rpc_fail_frac", ratio(static_cast<double>(calls - rpc_ok),
                                    static_cast<double>(calls))},
        {"net.breaker_rejects", static_cast<double>(breaker_rejects)},
        {"net.membership_downs", static_cast<double>(svc.membership().downs())},
        {"net.membership_ups", static_cast<double>(svc.membership().ups())},
        {"cluster.rounds_per_op", ratio(static_cast<double>(cc.rounds), dreq)},
        {"cluster.shed_frac", ratio(static_cast<double>(cc.shed),
                                    static_cast<double>(cc.admitted + cc.shed))},
        {"cluster.queue_peak", static_cast<double>(cc.queue_peak)},
        {"cluster.short_rounds", static_cast<double>(cc.short_rounds)},
        {"cluster.rpc_failures_per_round",
         ratio(static_cast<double>(cc.rpc_failures),
               static_cast<double>(cc.rounds))},
        {"load.sessions", static_cast<double>(sessions)},
        {"load.peak_sessions", static_cast<double>(pop.peak_sessions())},
        {"vote.invocations_per_round",
         ratio(static_cast<double>(farm.replica_invocations()),
               static_cast<double>(farm.rounds()))},
        {"vote.no_majority_frac", ratio(static_cast<double>(cc.no_quorum),
                                        static_cast<double>(cc.rounds))},
        {"autonomic.raises", static_cast<double>(board.raises())},
        {"autonomic.lowers", static_cast<double>(board.lowers())},
        {"autonomic.slo_raises", static_cast<double>(board.slo_raises())},
        {"detect.suspects", static_cast<double>(cc.suspects)},
        {"detect.cleared", static_cast<double>(cc.cleared)},
    };
    if (tracer_ != nullptr) {
      // Sampled after every dispatched event, so only the traced run has it.
      out.counts.emplace_back(
          "cluster.queue_depth_mean",
          ratio(static_cast<double>(s.depth_sum),
                static_cast<double>(s.depth_samples)));
    }
    const double client_calls =
        static_cast<double>(pop.client_counters().attempts);
    out.ladder_use = {
        {"sim.dispatch", ratio(static_cast<double>(events), dreq)},
        {"net.link", ratio(static_cast<double>(frames), dreq)},
        {"net.rpc", ratio(static_cast<double>(attempts) + client_calls, dreq)},
        {"vote.round", ratio(static_cast<double>(cc.rounds), dreq)},
    };
  }

  void cleanup() override { state_.reset(); }

 private:
  /// Everything one run builds, destroyed in reverse order by cleanup().
  struct State {
    aft::sim::Simulator sim;
    aft::arch::EventBus bus;
    std::optional<ReplicatedService> service;
    std::optional<aft::obs::SloTracker> tracker;
    std::optional<ClientPopulation> population;
    Ballot last_input = 0;
    std::size_t corrupt_replica = ~std::size_t{0};
    std::uint64_t seen_rounds = 0;
    std::uint64_t seen_failures = 0;
    std::uint64_t checked_rounds = 0;
    std::uint64_t wrong_values = 0;
    std::uint64_t fault_events = 0;
    std::uint64_t depth_sum = 0;
    std::uint64_t depth_samples = 0;
    bool stalled = false;
    bool warmed = false;  ///< past the allocation warm-up mark
    std::uint64_t warm_allocs = 0;
    std::uint64_t warm_ops = 0;
    std::uint64_t end_allocs = 0;
  };

  /// Requests resolved so far (ok, shed or failed).
  [[nodiscard]] std::uint64_t resolved() const {
    std::uint64_t n = 0;
    for (std::size_t p = 0; p < ClientPopulation::kPhases; ++p) {
      const aft::load::PhaseStats& ph = state_->population->phase(p);
      n += ph.ok + ph.shed + ph.failed;
    }
    return n;
  }

  /// After each event: a round that reached a majority must have voted the
  /// correct replicas' value, 2x+1 of the input the task saw.
  void check_round() {
    State& s = *state_;
    const aft::vote::VotingFarm& farm = s.service->farm();
    if (farm.rounds() == s.seen_rounds) return;
    s.seen_rounds = farm.rounds();
    if (farm.failures() != s.seen_failures) {
      s.seen_failures = farm.failures();
      return;
    }
    ++s.checked_rounds;
    if (farm.last_winner() != s.last_input * 2 + 1) ++s.wrong_values;
  }

  /// traffic_faults: loss on replica 1's wires in the middle third,
  /// value corruption by replica 2 in the last third, repair near the end.
  /// Times are fractions of the expected arrival horizon.
  void schedule_faults() {
    State& s = *state_;
    const auto horizon = static_cast<aft::sim::SimTime>(
        static_cast<double>(clients_) * kWarmGap);
    s.sim.schedule_at(horizon / 3, [this] {
      State& st = *state_;
      aft::net::LinkFaults lossy = quiet_wire();
      lossy.drop = 0.3;
      st.service->link_to(1).set_faults(lossy);
      st.service->link_from(1).set_faults(lossy);
      ++st.fault_events;
    });
    s.sim.schedule_at(2 * horizon / 3, [this] {
      State& st = *state_;
      st.service->link_to(1).set_faults(quiet_wire());
      st.service->link_from(1).set_faults(quiet_wire());
      st.corrupt_replica = 2;
      ++st.fault_events;
    });
    s.sim.schedule_at(horizon - horizon / 10, [this] {
      State& st = *state_;
      st.corrupt_replica = ~std::size_t{0};
      for (std::size_t i = 0; i < st.service->pool(); ++i) {
        if (st.service->suspect(i) || !st.service->eligible(i)) {
          st.service->repair(i);
        }
      }
      ++st.fault_events;
    });
  }

  bool faults_;
  std::size_t clients_;
  std::optional<State> state_;
};

// ---------------------------------------------------------------------------
// memory_adaptive: hw -> mem, no sim/net/cluster/load.

constexpr std::size_t kBanks = 3;

aft::hw::Machine kb_says_f1(std::size_t words) {
  // DDR SDRAM from a vendor the knowledge base rates f1 (transients only).
  static constexpr std::array<const char*, kBanks> kSerials = {"S0", "S1", "S2"};
  static constexpr std::array<const char*, kBanks> kSlots = {"B0", "B1", "B2"};
  aft::hw::Machine m("kb-says-f1");
  for (std::size_t i = 0; i < kBanks; ++i) {
    m.add_bank(aft::hw::SpdRecord{.vendor = "CE00000000000000",
                                  .model = "DDR-533-1G",
                                  .serial = kSerials[i],
                                  .lot = "L-opt",
                                  .size_mib = 1024,
                                  .width_bits = 64,
                                  .clock_mhz = 533,
                                  .technology =
                                      aft::hw::MemoryTechnology::kDdrSdram,
                                  .slot = kSlots[i]},
               words);
  }
  return m;
}

constexpr std::uint64_t kScrubEvery = 64;     ///< ops per scrub_step()
constexpr std::uint64_t kManagerEvery = 1024; ///< ops per manager.step()

class MemoryWorkload final : public Workload {
 public:
  MemoryWorkload(std::size_t words, std::uint64_t ops)
      : words_(words), ops_(ops) {}

  void init(std::uint64_t seed) override {
    state_.emplace(words_, seed);
    State& s = *state_;
    {
      SpanScope span(tracer_, SpanKind::kStart);
      s.method = &s.manager.method();
      s.initial_method = s.manager.current_method();
      for (std::size_t w = 0; w < words_; ++w) {
        const std::uint64_t v = s.rng.next();
        s.shadow[w] = v;
        if (!s.method->write(w, v)) ++s.failed_fill;
      }
    }
    // The repository's own profiles, unscaled, one tick per operation:
    // cmos() is what the knowledge base promises for DDR-533-1G (f1); from
    // a quarter of the run on, bank 0 has latched up once and the banks
    // suffer sdram_sel_seu() (f4: heavy SEU with multi-bit hits, SEL and
    // SEFI).
    for (std::size_t i = 0; i < kBanks; ++i) {
      s.injectors.emplace_back(*s.machine.bank(i).chip,
                               aft::hw::profiles::cmos(), seed + 1 + i);
    }
    s.device_ops_start = device_ops();
  }

  void run() override {
    State& s = *state_;
    const std::uint64_t warm_mark = ops_ / 10;
    const std::uint64_t storm_mark = ops_ / 4;
    for (std::uint64_t op = 0; op < ops_; ++op) {
      if (op == warm_mark) s.warm_allocs = allocations();
      if (op == storm_mark) {
        // The f3 event the knowledge base missed, scripted so that the
        // escalation lands at the same point whatever the seed; the
        // profile's own latch-ups are too rare to time it.
        s.machine.bank(0).chip->inject_latch_up();
        for (aft::hw::FaultInjector& inj : s.injectors) {
          inj.set_profile(aft::hw::profiles::sdram_sel_seu());
        }
      }
      {
        SpanScope span(tracer_, SpanKind::kTick);
        for (aft::hw::FaultInjector& inj : s.injectors) inj.tick();
      }
      if (op % kScrubEvery == 0) {
        SpanScope span(tracer_, SpanKind::kScrub);
        s.method->scrub_step();
        ++s.per_method[slot()].scrubs;
      }
      if (op % kManagerEvery == kManagerEvery - 1) manager_step();

      const auto addr =
          static_cast<std::size_t>(s.rng.uniform_int(0, words_ - 1));
      PerMethod& pm = s.per_method[slot()];
      if ((s.rng.next() & 3u) == 0) {
        const std::uint64_t v = s.rng.next();
        SpanScope span(tracer_, SpanKind::kWrite);
        ++pm.writes;
        s.shadow[addr] = v;
        if (!s.method->write(addr, v)) ++s.failed_ops;
      } else {
        ++pm.reads;
        aft::mem::ReadResult r;
        {
          SpanScope span(tracer_, SpanKind::kRead);
          r = s.method->read(addr);
        }
        if (!r.ok()) {
          ++s.failed_ops;
          ++s.failed_reads;
          s.method->write(addr, s.shadow[addr]);  // restore from the source
        } else if (r.value != s.shadow[addr]) {
          ++s.failed_ops;
          ++s.silent_mismatches;
          s.method->write(addr, s.shadow[addr]);
        }
      }
    }
    s.end_allocs = allocations();
  }

  void validate(RunReport& out) override {
    State& s = *state_;
    auto fail = [&out](std::string msg) { out.errors.push_back(std::move(msg)); };
    if (s.failed_fill != 0) fail("initial fill failed");
    if (s.initial_method != "M1-ecc-scrub") {
      fail("selector bound " + s.initial_method + ", expected M1-ecc-scrub");
    }
    if (s.manager.history().empty()) fail("the run never escalated from M1");
    if (s.silent_mismatches != 0) {
      fail(std::to_string(s.silent_mismatches) +
           " ok reads differ from the shadow copy");
    }
    std::uint64_t reads = 0, writes = 0;
    for (const PerMethod& pm : s.per_method) {
      reads += pm.reads;
      writes += pm.writes;
    }
    if (reads + writes != ops_) fail("not every operation was counted");

    aft::mem::MethodStats stats = s.retired_stats;
    add_stats(stats, s.method->stats());
    std::uint64_t injected = 0;
    for (const aft::hw::FaultInjector& inj : s.injectors) {
      injected += inj.log().total();
    }
    if (injected == 0) fail("no faults were injected");

    const auto dops = static_cast<double>(ops_);
    out.ops = ops_;
    out.failed_ops = s.failed_ops;
    out.steady_ops = ops_ - ops_ / 10;
    out.steady_allocs = s.end_allocs - s.warm_allocs;
    out.outcome = {
        {"fail_frac", ratio(static_cast<double>(s.failed_ops), dops)},
        {"reads", static_cast<double>(reads)},
        {"writes", static_cast<double>(writes)},
        {"failed_reads", static_cast<double>(s.failed_reads)},
        {"restored_words", static_cast<double>(s.restored_words)},
    };
    const double dreads = static_cast<double>(stats.reads);
    out.counts = {
        {"hw.device_ops_per_op",
         ratio(static_cast<double>(device_ops() - s.device_ops_start), dops)},
        {"hw.faults_injected", static_cast<double>(injected)},
        {"mem.corrected_per_read",
         ratio(static_cast<double>(stats.corrected_singles), dreads)},
        {"mem.recovered_per_read",
         ratio(static_cast<double>(stats.recoveries), dreads)},
        {"mem.escalations", static_cast<double>(s.manager.history().size())},
    };
    const PerMethod& m1 = s.per_method[kM1];
    const PerMethod& m4 = s.per_method[kM4];
    out.ladder_use = {
        {"mem.read_m1", ratio(static_cast<double>(m1.reads), dops)},
        {"mem.write_m1", ratio(static_cast<double>(m1.writes), dops)},
        {"mem.scrub_step_m1", ratio(static_cast<double>(m1.scrubs), dops)},
        {"mem.read_m4", ratio(static_cast<double>(m4.reads), dops)},
        {"mem.write_m4", ratio(static_cast<double>(m4.writes), dops)},
        {"mem.scrub_step_m4", ratio(static_cast<double>(m4.scrubs), dops)},
        {"hw.inject_tick", static_cast<double>(kBanks)},
    };
  }

  void cleanup() override { state_.reset(); }

 private:
  enum MethodSlot : std::size_t { kM1 = 0, kM4 = 1, kOther = 2 };
  struct PerMethod {
    std::uint64_t reads = 0;
    std::uint64_t writes = 0;
    std::uint64_t scrubs = 0;
  };
  struct State {
    State(std::size_t words, std::uint64_t seed)
        : machine(kb_says_f1(words)),
          manager(machine, aft::mem::MethodSelector{}),
          rng(seed),
          shadow(words, 0) {
      injectors.reserve(kBanks);
    }
    aft::hw::Machine machine;
    aft::mem::AdaptiveMemoryManager manager;
    aft::mem::IMemoryAccessMethod* method = nullptr;
    std::string initial_method;
    aft::util::Xoshiro256 rng;
    std::vector<std::uint64_t> shadow;
    std::vector<aft::hw::FaultInjector> injectors;
    std::array<PerMethod, 3> per_method{};
    MethodSlot current = kM1;
    aft::mem::MethodStats retired_stats{};
    std::uint64_t failed_fill = 0;
    std::uint64_t failed_ops = 0;
    std::uint64_t failed_reads = 0;
    std::uint64_t silent_mismatches = 0;
    std::uint64_t restored_words = 0;
    std::uint64_t device_ops_start = 0;
    std::uint64_t warm_allocs = 0;
    std::uint64_t end_allocs = 0;
  };

  static void add_stats(aft::mem::MethodStats& into,
                        const aft::mem::MethodStats& s) {
    into.reads += s.reads;
    into.writes += s.writes;
    into.corrected_singles += s.corrected_singles;
    into.double_detected += s.double_detected;
    into.recoveries += s.recoveries;
    into.remaps += s.remaps;
    into.rebuilds += s.rebuilds;
    into.power_cycles += s.power_cycles;
    into.data_losses += s.data_losses;
  }

  [[nodiscard]] std::size_t slot() const { return state_->current; }

  [[nodiscard]] std::uint64_t device_ops() const {
    std::uint64_t n = 0;
    for (std::size_t i = 0; i < kBanks; ++i) {
      const aft::hw::MemoryChip& chip = *state_->machine.bank(i).chip;
      n += chip.reads() + chip.writes();
    }
    return n;
  }

  void manager_step() {
    State& s = *state_;
    const aft::mem::MethodStats before = s.method->stats();
    bool escalated = false;
    {
      SpanScope span(tracer_, SpanKind::kManagerStep);
      escalated = s.manager.step();
    }
    if (!escalated) return;

    add_stats(s.retired_stats, before);
    s.method = &s.manager.method();
    const std::string name = s.manager.current_method();
    s.current = name == "M1-ecc-scrub"  ? kM1
                : name == "M4-tmr-ecc" ? kM4
                                       : kOther;
    // Words the migration could not read are gone from the new method; the
    // application restores them from its own copy.
    if (s.manager.history().back().words_lost > 0) {
      SpanScope span(tracer_, SpanKind::kWrite);
      for (std::size_t w = 0; w < words_; ++w) {
        s.method->write(w, s.shadow[w]);
      }
      s.restored_words += words_;
    }
  }

  std::size_t words_;
  std::uint64_t ops_;
  std::optional<State> state_;
};

// ---------------------------------------------------------------------------
// organ_inproc: the in-process replicate -> vote -> adapt loop (vote +
// autonomic), on the Fig. 7 script.

class OrganWorkload final : public Workload {
 public:
  explicit OrganWorkload(std::uint64_t steps) : steps_(steps) {}

  void init(std::uint64_t seed) override {
    state_.emplace();
    state_->config.seed = seed;
    state_->config.policy.lower_after = 1000;  // the paper's value
    state_->config.record_series = false;
    state_->script = aft::autonomic::fig7_script(steps_);
  }

  void run() override {
    State& s = *state_;
    const std::uint64_t before = allocations();
    {
      SpanScope span(tracer_, SpanKind::kExperiment);
      s.result = aft::autonomic::run_adaptation_experiment(s.config, s.script);
    }
    s.allocs = allocations() - before;
  }

  void validate(RunReport& out) override {
    State& s = *state_;
    const aft::autonomic::ExperimentResult& r = s.result;
    auto fail = [&out](std::string msg) { out.errors.push_back(std::move(msg)); };
    if (r.steps != steps_) fail("experiment ran a different step count");
    if (r.redundancy.total() != r.steps) fail("not every step was counted");
    if (r.faults_injected == 0) fail("no faults were injected");
    double invocations = 0;
    for (const auto& [degree, count] : r.redundancy.bins()) {
      invocations += static_cast<double>(degree) * static_cast<double>(count);
    }
    const auto dsteps = static_cast<double>(r.steps);
    out.ops = r.steps;
    out.failed_ops = r.voting_failures;
    out.steady_ops = r.steps;
    out.steady_allocs = s.allocs;
    out.outcome = {
        {"fail_frac", ratio(static_cast<double>(r.voting_failures), dsteps)},
        {"steps", dsteps},
        {"fraction_at_r3", r.fraction_at(3)},
    };
    out.counts = {
        {"vote.invocations_per_round", ratio(invocations, dsteps)},
        {"vote.no_majority_frac",
         ratio(static_cast<double>(r.voting_failures), dsteps)},
        {"autonomic.raises", static_cast<double>(r.raises)},
        {"autonomic.lowers", static_cast<double>(r.lowers)},
        {"hw.faults_injected", static_cast<double>(r.faults_injected)},
    };
    out.ladder_use = {{"vote.round", 1.0}};
  }

  void cleanup() override { state_.reset(); }

 private:
  struct State {
    aft::autonomic::ExperimentConfig config;
    std::vector<aft::autonomic::DisturbancePhase> script;
    aft::autonomic::ExperimentResult result;
    std::uint64_t allocs = 0;
  };
  std::uint64_t steps_;
  std::optional<State> state_;
};

}  // namespace

aft::net::LinkFaults quiet_wire() {
  aft::net::LinkFaults f;
  f.latency = 2;
  f.jitter = 1;
  return f;
}

aft::cluster::ClusterParams cluster_params(bool breakers) {
  // As bench/abl_open_loop's admission cells.
  aft::cluster::ClusterParams params;
  params.pool = 5;
  params.wire.to_replica = quiet_wire();
  params.wire.from_replica = quiet_wire();
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
  params.admission.queue_limit = kQueueLimit;
  params.admission.policy = aft::cluster::ShedPolicy::kRejectNewest;
  if (breakers) {
    aft::net::CircuitBreaker::Params breaker;
    breaker.cooldown = 120;
    params.breaker = breaker;
  }
  return params;
}

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> kNames = {
      "traffic_overload", "traffic_faults", "memory_adaptive", "organ_inproc"};
  return kNames;
}

std::unique_ptr<Workload> make_workload(const std::string& name, Scale scale) {
  const bool tiny = scale == Scale::kTiny;
  if (name == "traffic_overload") {
    return std::make_unique<TrafficWorkload>(false, tiny ? 600 : 10000);
  }
  if (name == "traffic_faults") {
    return std::make_unique<TrafficWorkload>(true, tiny ? 600 : 10000);
  }
  if (name == "memory_adaptive") {
    return std::make_unique<MemoryWorkload>(tiny ? 1024 : kMemoryWords,
                                            tiny ? 250000 : 4000000);
  }
  if (name == "organ_inproc") {
    return std::make_unique<OrganWorkload>(tiny ? 200000 : 4000000);
  }
  return nullptr;
}

}  // namespace pb
