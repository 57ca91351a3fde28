// Perf harness for the notification hot path: the InlineFn + tick-calendar
// kernel with the interned/batched EventBus vs a faithful reimplementation of
// their predecessors (std::priority_queue of entries holding std::function;
// string-keyed std::map bus with per-publish snapshot vectors).  Emits
// machine-readable BENCH_sim.json (path overridable via AFT_BENCH_JSON),
// mirroring perf_ecc.
//
// Acceptance gates for this bench in a Release build:
//   - schedule+dispatch throughput of the kernel >= 2x the reference on the
//     client-shaped workload (captures wider than std::function's 16-byte
//     SBO, like every in-tree daemon continuation);
//   - daemon_mesh — the fig6 steady state driven through the bus, 64
//     publishing daemons fanning out to subscribed handlers — >= 2x the
//     reference stack end to end.
// Both ratios are the median of kPairs interleaved kernel/reference pairs
// (bench_util.hpp paired_ratio), recorded with their per-pair min/max.
// The bench also measures full-detail trace overhead on the mesh (target
// <10%) and the binary-vs-JSONL trace size ratio.  The process still exits
// 0 in non-Release builds, where the gates are informational.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <optional>
#include <queue>
#include <set>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "arch/event_bus.hpp"
#include "bench_util.hpp"
#include "obs/obs.hpp"
#include "sim/simulator.hpp"
#include "util/log_histogram.hpp"
#include "util/stats.hpp"

namespace {

using aft::arch::Message;
using aft::bench::best_time;
using aft::bench::Clock;
using aft::bench::json_number;
using aft::bench::kPairs;
using aft::bench::kRepeats;
using aft::bench::paired_ratio;
using aft::bench::PairedRatio;
using aft::bench::seconds_since;
using aft::sim::SimTime;

/// Cheap fold that keeps the optimizer from discarding the work.
std::uint64_t g_sink = 0;

// --- Reference kernel --------------------------------------------------------
//
// The pre-PR-4 Simulator, preserved move for move: a std::priority_queue
// whose entries carry a std::function, with the dispatch path forced
// through priority_queue::top() — which is const, so the old kernel paid a
// full entry COPY (and a std::function re-allocation for any capture over
// 16 bytes) per event on top of the allocation per schedule.

class RefSimulator {
 public:
  using Action = std::function<void()>;

  [[nodiscard]] SimTime now() const noexcept { return now_; }

  void schedule_at(SimTime when, Action action) {
    // Same causality snapshot the real kernel performs (the predecessor
    // carried these obs hooks too — omitting them here would flatter the
    // reference).
    std::uint64_t cause = aft::obs::kNoEvent;
#if !defined(AFT_OBS_DISABLED)
    if (const aft::obs::TraceSink* sink = aft::obs::trace(); sink != nullptr) {
      cause = sink->cause();
    }
#endif
    queue_.push(Entry{when, next_seq_++, cause, std::move(action)});
  }
  void schedule_in(SimTime delay, Action action) {
    schedule_at(now_ + delay, std::move(action));
  }

  bool step() {
    if (queue_.empty()) return false;
    Entry e = queue_.top();  // const ref: copies entry + callable
    queue_.pop();
    now_ = e.when;
    ++executed_;
#if !defined(AFT_OBS_DISABLED)
    if (aft::obs::TraceSink* sink = aft::obs::trace(); sink != nullptr) {
      sink->set_time(now_);
      sink->set_cause(e.cause);
      if (sink->detail()) sink->emit("sim", "dispatch", {{"eseq", e.seq}});
    } else if (aft::obs::FlightRecorder* recorder = aft::obs::flight();
               recorder != nullptr) {
      recorder->set_time(now_);
    }
#endif
    e.action();
    return true;
  }

  std::uint64_t run_until(SimTime until) {
    std::uint64_t ran = 0;
    while (!queue_.empty() && queue_.top().when <= until) {
      step();
      ++ran;
    }
    if (now_ < until) now_ = until;
    return ran;
  }

  std::uint64_t run_all() {
    std::uint64_t ran = 0;
    while (step()) ++ran;
    return ran;
  }

  [[nodiscard]] std::uint64_t executed() const noexcept { return executed_; }

 private:
  struct Entry {
    SimTime when = 0;
    std::uint64_t seq = 0;
    std::uint64_t cause = 0;
    Action action;
  };
  struct Later {  // priority_queue is a max-heap: invert the order
    bool operator()(const Entry& a, const Entry& b) const noexcept {
      if (a.when != b.when) return a.when > b.when;
      return a.seq > b.seq;
    }
  };

  SimTime now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  std::priority_queue<Entry, std::vector<Entry>, Later> queue_;
};

// --- Reference event bus -----------------------------------------------------
//
// The pre-PR EventBus, preserved move for move: string-keyed std::map of
// (id, std::function) subscription lists, a std::set of live ids consulted
// per delivery, and a per-publish snapshot vector of handler COPIES — the
// costs the interned SoA bus removes.  The obs hooks are kept too: the old
// bus emitted one "publish" record per message, and omitting that here
// would flatter the reference in traced comparisons.

class RefEventBus {
 public:
  using Handler = std::function<void(const Message&)>;
  using SubscriptionId = std::uint64_t;

  SubscriptionId subscribe(const std::string& topic, Handler handler) {
    const SubscriptionId id = next_id_++;
    by_topic_[topic].push_back(Subscription{id, std::move(handler)});
    live_.insert(id);
    return id;
  }

  SubscriptionId subscribe_all(Handler handler) {
    const SubscriptionId id = next_id_++;
    wildcard_.push_back(Subscription{id, std::move(handler)});
    live_.insert(id);
    return id;
  }

  void unsubscribe(SubscriptionId id) {
    if (live_.erase(id) == 0) return;
    auto drop = [id](std::vector<Subscription>& subs) {
      subs.erase(
          std::remove_if(subs.begin(), subs.end(),
                         [id](const Subscription& s) { return s.id == id; }),
          subs.end());
    };
    for (auto it = by_topic_.begin(); it != by_topic_.end();) {
      drop(it->second);
      it = it->second.empty() ? by_topic_.erase(it) : std::next(it);
    }
    drop(wildcard_);
  }

  std::size_t publish(const Message& message) {
    ++published_;
    std::size_t delivered = 0;
    std::vector<std::pair<SubscriptionId, Handler>> to_run;
    if (const auto it = by_topic_.find(message.topic); it != by_topic_.end()) {
      for (const auto& s : it->second) to_run.emplace_back(s.id, s.handler);
    }
    for (const auto& s : wildcard_) to_run.emplace_back(s.id, s.handler);
#if !defined(AFT_OBS_DISABLED)
    aft::obs::TraceSink* const sink = aft::obs::trace();
    aft::obs::EventId prev_cause = aft::obs::kNoEvent;
    bool cause_installed = false;
    if (sink != nullptr) {
      const aft::obs::EventId ev =
          sink->emit("arch.bus", "publish",
                     {{"topic", message.topic},
                      {"source", message.source},
                      {"subscribers", to_run.size()}});
      if (ev != aft::obs::kNoEvent) {
        prev_cause = sink->cause();
        sink->set_cause(ev);
        cause_installed = true;
      }
    }
#endif
    for (const auto& [id, handler] : to_run) {
      if (!live_.contains(id)) continue;
      handler(message);
      ++delivered;
    }
#if !defined(AFT_OBS_DISABLED)
    if (cause_installed) sink->set_cause(prev_cause);
#endif
    return delivered;
  }

  [[nodiscard]] std::uint64_t published() const noexcept { return published_; }

 private:
  struct Subscription {
    SubscriptionId id;
    Handler handler;
  };

  std::map<std::string, std::vector<Subscription>> by_topic_;
  std::vector<Subscription> wildcard_;
  std::set<SubscriptionId> live_;
  SubscriptionId next_id_ = 1;
  std::uint64_t published_ = 0;
};

// --- Workloads ---------------------------------------------------------------
//
// Each workload is templated on the kernel (and bus) so both sides run the
// same client code; only the machinery underneath differs.

/// Client-shaped one-shot continuation: 48 bytes of capture — the width the
/// heartbeat check chain once had (this + std::string channel + epoch), the
/// shape the kernel's 64-byte inline budget was sized for.  Far past std::function's 16-byte SBO, so
/// the reference pays its allocation per schedule and per top() copy, just
/// as the old kernel did for every heartbeat window.
struct Shot {
  std::uint64_t* acc;
  std::uint64_t a = 0;
  std::uint64_t b = 0;
  std::uint64_t pad[3] = {0, 0, 0};
  void operator()() const { *acc ^= a + b; }
};

static_assert(sizeof(Shot) == 48);
static_assert(aft::sim::Simulator::fits_inline<Shot>);

/// Schedule-then-drain throughput: `batches` rounds of `kBatch` one-shot
/// events over a small time window, drained with run_all.  One timed run;
/// returns events per second.
template <typename Sim>
double schedule_dispatch_rate(std::uint64_t batches) {
  constexpr std::uint64_t kBatch = 256;
  const auto t0 = Clock::now();
  Sim sim;
  std::uint64_t acc = 0;
  for (std::uint64_t round = 0; round < batches; ++round) {
    for (std::uint64_t i = 0; i < kBatch; ++i) {
      sim.schedule_in(i % 11, Shot{&acc, round, i});
    }
    sim.run_all();
  }
  const double secs = seconds_since(t0);
  g_sink ^= acc;
  return static_cast<double>(batches * kBatch) / secs;
}

/// Self-rescheduling periodic daemon used by the fig7 workload below.
template <typename Sim>
struct Daemon {
  Sim* sim;
  SimTime period;
  std::uint64_t fires = 0;
  void arm() {
    sim->schedule_in(period, [this] {
      ++fires;
      arm();
    });
  }
};

// --- daemon_mesh: the fig6 steady state driven through the bus ---------------
//
// 64 periodic daemons, each publishing a kFanout-message notification burst
// on its own topic every period; kSubsPerTopic subscribed handlers per
// topic plus one wildcard collector.  The kernel side publishes through
// publish_batch with a pre-interned TopicId (the new API); the reference
// side publishes message by message through the string-keyed map bus (the
// only API it has).  Throughput is bus messages per second.

constexpr std::uint64_t kMeshDaemons = 64;
constexpr std::uint64_t kSubsPerTopic = 4;
constexpr std::uint64_t kFanout = 256;

template <typename Sim, typename Bus, bool UseBatch>
struct MeshDaemon {
  Sim* sim;
  Bus* bus;
  SimTime period;
  aft::arch::TopicId topic;
  const std::vector<Message>* batch;
  void arm() {
    auto fire = [this] {
      if constexpr (UseBatch) {
        bus->publish_batch(topic, std::span<const Message>(*batch));
      } else {
        for (const Message& m : *batch) bus->publish(m);
      }
      arm();
    };
    static_assert(aft::sim::Simulator::fits_inline<decltype(fire)>);
    sim->schedule_in(period, std::move(fire));
  }
};

/// One timed mesh run; returns bus messages per second.  A traced run
/// hands its trace to `jsonl_out`/`bin_out` when those are given and still
/// empty.
template <typename Sim, typename Bus, bool UseBatch>
double bus_mesh_rate(SimTime horizon, bool traced,
                     std::string* jsonl_out = nullptr,
                     std::string* bin_out = nullptr) {
  Sim sim;
  Bus bus;
  std::optional<aft::obs::TraceSink> sink;
  std::optional<aft::obs::ScopedObs> scope;
  if (traced) {
    sink.emplace();
    sink->set_detail(true);
    scope.emplace(&*sink, nullptr);
  }
  std::uint64_t acc = 0;
  std::vector<std::string> topics;
  std::vector<std::vector<Message>> batches;
  std::vector<MeshDaemon<Sim, Bus, UseBatch>> mesh;
  topics.reserve(kMeshDaemons);
  batches.reserve(kMeshDaemons);
  mesh.reserve(kMeshDaemons);
  for (std::uint64_t d = 0; d < kMeshDaemons; ++d) {
    topics.push_back("daemon-" + std::to_string(d));
    for (std::uint64_t s = 0; s < kSubsPerTopic; ++s) {
      bus.subscribe(topics.back(), [&acc](const Message& m) {
        acc += m.payload.size();
      });
    }
    std::vector<Message> batch(kFanout);
    for (std::uint64_t i = 0; i < kFanout; ++i) {
      batch[i] = Message{topics.back(), "mesh", "notify"};
    }
    batches.push_back(std::move(batch));
  }
  bus.subscribe_all([&acc](const Message&) { ++acc; });
  for (std::uint64_t d = 0; d < kMeshDaemons; ++d) {
    MeshDaemon<Sim, Bus, UseBatch> daemon{&sim, &bus, 1 + d % 13, 0,
                                          &batches[d]};
    if constexpr (UseBatch) {
      daemon.topic = bus.find_topic(topics[d]);
    }
    mesh.push_back(daemon);
    mesh.back().arm();
  }
  const auto t0 = Clock::now();
  sim.run_until(horizon);
  const double secs = seconds_since(t0);
  g_sink ^= acc;
  if (sink && jsonl_out != nullptr && bin_out != nullptr &&
      jsonl_out->empty()) {
    *jsonl_out = sink->jsonl();
    *bin_out = sink->binary();
  }
  return static_cast<double>(bus.published()) / secs;
}

/// Fig. 7-shaped long run: a few periodic daemons plus a controller that
/// fires reconfiguration bursts (a fan of near-future one-shots) every 100
/// ticks — the schedule profile of the redundancy-histogram experiment.
template <typename Sim>
struct BurstController {
  Sim* sim;
  std::uint64_t* acc;
  std::uint64_t bursts = 0;
  void arm() {
    sim->schedule_in(100, [this] {
      ++bursts;
      for (std::uint64_t i = 0; i < 32; ++i) {
        sim->schedule_in(1 + i % 8, Shot{acc, bursts, i});
      }
      arm();
    });
  }
};

/// One timed run; returns events per second.
template <typename Sim>
double fig7_shape_rate(SimTime horizon) {
  Sim sim;
  std::uint64_t acc = 0;
  std::vector<Daemon<Sim>> mesh;
  mesh.reserve(8);
  for (std::uint64_t d = 0; d < 8; ++d) {
    mesh.push_back(Daemon<Sim>{&sim, 2 + d % 5, 0});
    mesh.back().arm();
  }
  BurstController<Sim> controller{&sim, &acc, 0};
  controller.arm();
  const auto t0 = Clock::now();
  const std::uint64_t events = sim.run_until(horizon);
  const double secs = seconds_since(t0);
  g_sink ^= acc;
  for (const auto& d : mesh) g_sink ^= d.fires;
  return static_cast<double>(events) / secs;
}

// --- metrics_observe: LogHistogram::add vs RunningStats::add -----------------
//
// MetricsRegistry::observe feeds every sample into both accumulators, so the
// histogram add is the marginal cost of the PR-8 quantile plane.  The gate
// keeps it within 2x a bare Welford add on a latency-shaped stream (log-
// uniform-ish magnitudes, the distribution the sub-bucket math actually
// sees).  Per-add nanoseconds, best-of-kRepeats.

constexpr std::uint64_t kObserveSamples = 1u << 18;

std::vector<double> latency_stream() {
  std::vector<double> v;
  v.reserve(kObserveSamples);
  std::uint64_t x = 0x9E3779B97F4A7C15ull;
  for (std::uint64_t i = 0; i < kObserveSamples; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    // Spread samples across ~6 decades so every add exercises the
    // bit-scan + sub-bucket path, not one hot bucket.
    v.push_back(static_cast<double>(1 + (x & 0xFFFFF)) *
                static_cast<double>(1 + (x >> 60)));
  }
  return v;
}

double welford_add_ns(const std::vector<double>& stream) {
  const double secs = best_time([&] {
    aft::util::RunningStats stats;
    for (const double v : stream) stats.add(v);
    g_sink ^= stats.count() + static_cast<std::uint64_t>(stats.mean());
  });
  return secs * 1e9 / static_cast<double>(stream.size());
}

double histogram_add_ns(const std::vector<double>& stream) {
  const double secs = best_time([&] {
    aft::util::LogHistogram hist;
    for (const double v : stream) hist.add(v);
    g_sink ^= hist.count() + hist.sum();
  });
  return secs * 1e9 / static_cast<double>(stream.size());
}

// --- Differential spot-checks ------------------------------------------------

/// Before trusting any timing: both kernels must dispatch an adversarial
/// schedule (same-tick bursts, re-entrant scheduling, entries past the
/// calendar's 256-tick ring) in the identical order.  tests/sim_test.cpp
/// carries the exhaustive version; this is the bench-local smoke variant.
template <typename Sim>
std::vector<std::pair<SimTime, std::uint64_t>> dispatch_log() {
  Sim sim;
  std::vector<std::pair<SimTime, std::uint64_t>> log;
  std::function<void(std::uint64_t)> fire = [&](std::uint64_t id) {
    log.emplace_back(sim.now(), id);
    if (id < 64) {
      for (std::uint64_t k = 0; k < id % 3; ++k) {
        sim.schedule_in((id + k) % 4, [&fire, child = 100 + id * 3 + k] {
          fire(child);
        });
      }
    }
  };
  for (std::uint64_t id = 0; id < 64; ++id) {
    const SimTime far = id % 5 == 0 ? 250 + id * 40 : 0;
    sim.schedule_at(id % 7 + far, [&fire, id] { fire(id); });
  }
  sim.run_until(3);
  sim.run_all();
  return log;
}

/// Both buses must deliver the same messages to the same subscribers in
/// the same order (tests/arch_test.cpp pins the semantics; this catches a
/// bench-side wiring mistake before it skews a timing).
template <typename Bus>
std::vector<std::string> delivery_log() {
  Bus bus;
  std::vector<std::string> log;
  for (const char* topic : {"a", "b"}) {
    for (int s = 0; s < 2; ++s) {
      bus.subscribe(topic, [&log, topic, s](const Message& m) {
        log.push_back(std::string(topic) + "/" + std::to_string(s) + ":" +
                      m.payload);
      });
    }
  }
  bus.subscribe_all(
      [&log](const Message& m) { log.push_back("*:" + m.payload); });
  const std::vector<Message> msgs = {Message{"a", "src", "1"},
                                     Message{"a", "src", "2"},
                                     Message{"b", "src", "3"},
                                     Message{"c", "src", "4"}};
  if constexpr (std::is_same_v<Bus, aft::arch::EventBus>) {
    bus.publish_batch(std::span<const Message>(msgs));
  } else {
    for (const Message& m : msgs) bus.publish(m);
  }
  bus.publish(Message{"b", "src", "5"});
  return log;
}

bool differential_ok() {
  return dispatch_log<aft::sim::Simulator>() == dispatch_log<RefSimulator>() &&
         delivery_log<aft::arch::EventBus>() == delivery_log<RefEventBus>();
}

}  // namespace

int main() {
#ifdef NDEBUG
  const char* build_type = "release";
#else
  const char* build_type = "debug";
#endif
  std::cout << "=== perf_sim: InlineFn+calendar kernel + interned EventBus vs "
               "priority_queue/std::function/map reference ("
            << build_type << " build) ===\n\n";

  if (!differential_ok()) {
    std::cerr << "FATAL: kernel dispatch/delivery disagrees with reference — "
                 "not timing a broken stack\n";
    return 1;
  }

  constexpr std::uint64_t kBatches = 4096;
  // Horizons size one run at ~0.05-0.8 s, so kPairs interleaved pairs of
  // every workload fit the bench in about half a minute.
  constexpr SimTime kMeshHorizon = 4000;
  constexpr SimTime kRefMeshHorizon = 800;  // rate-normalized slow side
  constexpr SimTime kFig7Horizon = 400000;
  using Kernel = aft::sim::Simulator;
  using Bus = aft::arch::EventBus;

  const PairedRatio sd = paired_ratio(
      [] { return schedule_dispatch_rate<Kernel>(kBatches); },
      [] { return schedule_dispatch_rate<RefSimulator>(kBatches); });

  // Full-detail trace overhead on the kernel mesh: every publish-batch and
  // kernel dispatch leaves a record; the compact sink must keep that under
  // 10%.  Untraced and traced runs are paired like kernel and reference
  // (before the allocation-heavy reference mesh can perturb heap and cache
  // state), and the first traced run yields the JSONL-vs-binary size
  // comparison.
  std::string trace_jsonl;
  std::string trace_bin;
  const PairedRatio traced = paired_ratio(
      [] { return bus_mesh_rate<Kernel, Bus, true>(kMeshHorizon, false); },
      [&] {
        return bus_mesh_rate<Kernel, Bus, true>(kMeshHorizon, true,
                                                &trace_jsonl, &trace_bin);
      });
  const double overhead_frac = traced.median - 1.0;

  const PairedRatio mesh = paired_ratio(
      [] { return bus_mesh_rate<Kernel, Bus, true>(kMeshHorizon, false); },
      [] {
        return bus_mesh_rate<RefSimulator, RefEventBus, false>(kRefMeshHorizon,
                                                               false);
      });
  const double bin_ratio = trace_bin.empty()
                               ? 0.0
                               : static_cast<double>(trace_jsonl.size()) /
                                     static_cast<double>(trace_bin.size());

  const PairedRatio fig7 =
      paired_ratio([] { return fig7_shape_rate<Kernel>(kFig7Horizon); },
                   [] { return fig7_shape_rate<RefSimulator>(kFig7Horizon); });

  const std::vector<double> stream = latency_stream();
  const double welford_ns = welford_add_ns(stream);
  const double hist_ns = histogram_add_ns(stream);
  const double observe_ratio = hist_ns / welford_ns;

  const auto row = [](const char* name, const PairedRatio& r,
                      const char* unit) {
    std::cout << "  " << name << ": " << json_number(r.kernel_rate / 1e6) << " "
              << unit << " vs " << json_number(r.ref_rate / 1e6) << " " << unit
              << " ref  (" << json_number(r.median) << "x, pairs "
              << json_number(r.min) << "-" << json_number(r.max) << "x)\n";
  };
  row("schedule+dispatch", sd, "Mevents/s");
  row("daemon mesh (bus)", mesh, "Mmsgs/s");
  row("fig7 shape       ", fig7, "Mevents/s");
  std::cout << "  mesh trace       : " << json_number(overhead_frac * 100)
            << "% full-detail overhead; binary " << trace_bin.size()
            << " B vs JSONL " << trace_jsonl.size() << " B ("
            << json_number(bin_ratio) << "x smaller)\n";
  std::cout << "  metrics observe  : histogram add " << json_number(hist_ns)
            << " ns vs welford add " << json_number(welford_ns) << " ns ("
            << json_number(observe_ratio) << "x)\n";

  const bool pass = sd.median >= 2.0 && mesh.median >= 2.0;
  const bool observe_pass = observe_ratio <= 2.0;
  std::cout << "\nschedule+dispatch " << json_number(sd.median)
            << "x, daemon_mesh " << json_number(mesh.median)
            << "x (median of " << kPairs
            << " interleaved pairs; gate: both >= 2x in release): "
            << (pass ? "PASS" : "FAIL") << "\n";
  std::cout << "histogram/welford add ratio " << json_number(observe_ratio)
            << "x (gate: <= 2x in release): "
            << (observe_pass ? "PASS" : "FAIL") << "\n";

  // A ratio's JSON fields: the side medians, the median per-pair ratio
  // (what the gate reads) and the per-pair min/max.
  const auto ratio_json = [](const char* kernel_key, const char* ref_key,
                             const PairedRatio& r) {
    return std::string("{\"") + kernel_key + "\": " +
           json_number(r.kernel_rate) + ", \"" + ref_key +
           "\": " + json_number(r.ref_rate) +
           ", \"speedup\": " + json_number(r.median) +
           ", \"speedup_min\": " + json_number(r.min) +
           ", \"speedup_max\": " + json_number(r.max) + "}";
  };
  const char* path = std::getenv("AFT_BENCH_JSON");
  if (path == nullptr || path[0] == '\0') path = "BENCH_sim.json";
  std::ofstream json(path);
  json << "{\n"
       << "  \"bench\": \"perf_sim\",\n"
       << "  \"build_type\": \"" << build_type << "\",\n"
       << "  \"pairs\": " << kPairs << ",\n"
       << "  \"reps\": " << kRepeats << ",\n"
       << "  \"warmup\": true,\n"
       << "  \"cpu\": \"" << aft::bench::cpu_model() << "\",\n"
       << "  \"schedule_dispatch\": "
       << ratio_json("kernel_events_per_sec", "ref_events_per_sec", sd)
       << ",\n"
       << "  \"daemon_mesh\": "
       << ratio_json("kernel_msgs_per_sec", "ref_msgs_per_sec", mesh) << ",\n"
       << "  \"mesh_trace\": {\"overhead_frac\": "
       << json_number(overhead_frac * 1000) << "e-3"
       << ", \"overhead_frac_min\": " << json_number((traced.min - 1) * 1000)
       << "e-3"
       << ", \"overhead_frac_max\": " << json_number((traced.max - 1) * 1000)
       << "e-3"
       << ", \"jsonl_bytes\": " << trace_jsonl.size()
       << ", \"bin_bytes\": " << trace_bin.size()
       << ", \"bin_ratio\": " << json_number(bin_ratio) << "},\n"
       << "  \"fig7_shape\": "
       << ratio_json("kernel_events_per_sec", "ref_events_per_sec", fig7)
       << ",\n"
       << "  \"metrics_observe\": {\"hist_add_ns\": " << json_number(hist_ns)
       << ", \"welford_add_ns\": " << json_number(welford_ns)
       << ", \"ratio\": " << json_number(observe_ratio) << "},\n"
       << "  \"gate_2x\": " << (pass ? "true" : "false") << ",\n"
       << "  \"gate_observe\": " << (observe_pass ? "true" : "false") << "\n"
       << "}\n";
  std::cout << "wrote " << path << "\n";

  // The 2x gate is enforced by CI on the Release build via gate_2x; a debug
  // binary still exits 0 so the bench smoke loop stays green.
  return 0;
}
