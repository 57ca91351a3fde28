// Ablation: latency-driven redundancy adaptation (the SLO plane closing the
// autonomic loop).
//
// Every adaptation story so far reacts to *value* faults — dissent in the
// voting farm, ECC corrections, injected flips.  This bench demonstrates the
// other half of De Florio's degradation argument: the replicas all compute
// correct values the whole time, but the channel under the workload
// degrades, the measured call-latency SLO starts burning, and the
// obs::SloTracker publishes "obs.slo/breach" on the EventBus — which the
// ReflectiveSwitchboard treats exactly like a critically low dtof and raises
// redundancy.  When the channel heals, the burn clears, "obs.slo/recover"
// fires, and the usual consecutive-high rule sheds the extra replicas.
//
// Each environment runs three phases over one link pair: clean, degraded
// (Link::set_faults mid-run), healed.  Per-job Simulator/RNG/EventBus, so
// the campaign fans out over AFT_THREADS with bit-identical output.
#include <algorithm>
#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "arch/event_bus.hpp"
#include "autonomic/organ.hpp"
#include "net/endpoint.hpp"
#include "net/link.hpp"
#include "net/retry.hpp"
#include "obs/cli.hpp"
#include "obs/obs.hpp"
#include "obs/slo.hpp"
#include "sim/simulator.hpp"
#include "util/campaign.hpp"
#include "util/log_histogram.hpp"
#include "util/table.hpp"

namespace {

using aft::net::CallOptions;
using aft::net::Endpoint;
using aft::net::Link;
using aft::net::LinkFaults;
using aft::net::RetryPolicy;
using aft::net::RpcResult;
using aft::net::RpcStatus;
using aft::sim::SimTime;

constexpr std::uint64_t kCalls = 600;
constexpr SimTime kCallInterval = 15;
// Phase boundaries: clean [0, kDegradeAt), degraded [kDegradeAt, kHealAt),
// healed [kHealAt, end).
constexpr SimTime kDegradeAt = 200 * kCallInterval;
constexpr SimTime kHealAt = 400 * kCallInterval;
constexpr std::uint64_t kTimelineWindow = 500;

struct EnvCase {
  const char* name;
  LinkFaults degraded;  ///< fault model of the middle phase
};

LinkFaults clean_faults() {
  LinkFaults f;
  f.latency = 3;
  f.jitter = 2;
  return f;
}

std::vector<EnvCase> environments() {
  std::vector<EnvCase> out;
  {
    LinkFaults f = clean_faults();
    f.drop = 0.15;
    out.push_back({"drop 15%", f});
  }
  {
    LinkFaults f = clean_faults();
    f.drop = 0.35;
    out.push_back({"drop 35%", f});
  }
  {
    LinkFaults f = clean_faults();
    f.jitter = 30;
    f.reorder = 0.2;
    out.push_back({"jitter spike", f});
  }
  return out;
}

struct Outcome {
  std::uint64_t ok = 0;
  std::uint64_t failed = 0;
  std::uint64_t rounds = 0;
  std::uint64_t breaches = 0;
  std::uint64_t recoveries = 0;
  std::uint64_t slo_raises = 0;
  std::uint64_t lowers = 0;
  std::size_t peak_replicas = 0;
  std::size_t final_replicas = 0;
  std::uint64_t dissent_rounds = 0;
  aft::util::LogHistogram ok_latency;
};

Outcome run(const EnvCase& env, std::uint64_t seed) {
  aft::sim::Simulator sim;
  Link fwd(sim, "client->server", clean_faults(), seed);
  Link rev(sim, "server->client", clean_faults(), seed + 1);
  Endpoint client(sim, "client", seed + 2);
  Endpoint server(sim, "server", seed + 3);
  client.attach(rev, fwd);
  server.attach(fwd, rev);
  server.serve("echo", [](const std::string& request, std::string& response) {
    response = request;
    return true;
  });

  aft::autonomic::ReflectiveSwitchboard::Policy policy;
  policy.min_replicas = 3;
  policy.max_replicas = 9;
  policy.step = 2;
  // All-correct rounds sit at dtof_max, so 120 comfortable rounds shed one
  // step — fast enough to watch the post-heal decay inside the run.
  policy.lower_after = 120;
  // The replicated method is *always correct*: any redundancy change in
  // this bench is latency-driven, never value-fault-driven.
  aft::autonomic::RestoringOrgan organ(
      3, [](aft::vote::Ballot input, std::size_t) { return input * 2 + 1; },
      policy, /*shared_key=*/0xA5);
  const aft::vote::VotingFarm& farm = organ.farm();
  aft::autonomic::ReflectiveSwitchboard& board = organ.switchboard();

  aft::arch::EventBus bus;
  board.bind_slo(bus);

  // SLO: p90 of ok-call latency under 20 ticks (clean RTT is <= 10), judged
  // over windows of 10 call slots.  A degraded wire pushes retried calls
  // far past the threshold and starts the burn within a window or two.
  aft::obs::SloPolicy slo;
  slo.budget_permille = 100;
  slo.threshold_ticks = 20;
  slo.window_ticks = 10 * kCallInterval;
  aft::obs::SloTracker tracker("rpc-echo", slo);
  tracker.set_publisher([&bus](bool breach) {
    aft::arch::Message msg;
    msg.topic = breach ? "obs.slo/breach" : "obs.slo/recover";
    msg.source = "obs.slo";
    msg.payload = "rpc-echo";
    bus.publish(msg);
  });

  Outcome out;
  out.peak_replicas = farm.replicas();
  board.set_resize_hook([&out](std::size_t replicas, bool) {
    out.peak_replicas = std::max(out.peak_replicas, replicas);
#if !defined(AFT_OBS_DISABLED)
    if (auto* reg = aft::obs::metrics()) {
      reg->set_gauge("vote.replicas", static_cast<double>(replicas));
    }
#endif
  });

#if !defined(AFT_OBS_DISABLED)
  // Windowed series for the "timelines" JSON export: the latency
  // distribution per window, call volume per window, and the redundancy
  // level — enough to see cause (latency), signal (breach), and actuation
  // (replicas) on one time axis.
  if (auto* reg = aft::obs::metrics()) {
    reg->timeline("net.rpc.latency.ok", kTimelineWindow);
    reg->timeline_counter("net.rpc.calls", kTimelineWindow);
    reg->timeline_gauge("vote.replicas", kTimelineWindow);
    reg->set_gauge("vote.replicas", static_cast<double>(farm.replicas()));
  }
#endif

  CallOptions options;
  RetryPolicy retry;
  retry.max_attempts = 4;
  retry.initial_backoff = 4;
  retry.multiplier = 2.0;
  retry.max_backoff = 32;
  options.deadline = 80;
  options.retry = retry;

  auto on_done = [&](const RpcResult& r) {
    if (r.status == RpcStatus::kOk) {
      ++out.ok;
      out.ok_latency.add(r.elapsed);
    } else {
      ++out.failed;
    }
    // The SLO judges every completed call (failures count as slow: they
    // consumed their whole deadline budget).  record() runs inside the RPC
    // completion continuation, so a breach emitted here traces back through
    // the done/attempt/call chain — `aft_trace why` lands on the slow wire.
    tracker.record(sim.now(), r.elapsed);
    // One voting round per completed call, all replicas correct.
    organ.round(42, [&out](const aft::vote::RoundReport& report) {
      ++out.rounds;
      if (report.dissent > 0) ++out.dissent_rounds;
    });
  };

  for (std::uint64_t k = 0; k < kCalls; ++k) {
    sim.schedule_at(k * kCallInterval, [&client, &options, &on_done] {
      client.call("echo", "ping", options, on_done);
    });
  }
  sim.schedule_at(kDegradeAt, [&fwd, &env] { fwd.set_faults(env.degraded); });
  sim.schedule_at(kHealAt, [&fwd] { fwd.set_faults(clean_faults()); });
  sim.run_all();
  tracker.flush(sim.now());

  out.breaches = tracker.breaches();
  out.recoveries = tracker.recoveries();
  out.slo_raises = board.slo_raises();
  out.lowers = board.lowers();
  out.final_replicas = farm.replicas();
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  aft::obs::ObsCli obs(argc, argv);
  AFT_SPAN("bench", "abl_slo_adaptation");
  const std::vector<EnvCase> kEnvs = environments();
  std::cout << "=== Ablation: SLO-driven adaptation (latency-triggered, "
               "no value faults; "
            << kCalls << " calls, degrade at t=" << kDegradeAt
            << ", heal at t=" << kHealAt << ") ===\n\n";

  const unsigned threads = aft::util::campaign_threads();
  std::cerr << "[campaign] " << kEnvs.size() << " jobs on " << threads
            << " thread(s)\n";
  const std::vector<Outcome> outcomes = aft::util::run_campaigns(
      kEnvs.size(),
      [&](std::size_t i) {
        return run(kEnvs[i], 77000 + 101 * static_cast<std::uint64_t>(i));
      },
      threads);

  aft::util::TextTable table;
  table.header({"environment", "ok", "failed", "p50", "p99", "p999",
                "breaches", "recoveries", "slo raises", "lowers",
                "peak replicas", "final replicas", "dissent rounds"});
  for (std::size_t i = 0; i < kEnvs.size(); ++i) {
    const Outcome& o = outcomes[i];
    table.row({kEnvs[i].name, std::to_string(o.ok), std::to_string(o.failed),
               std::to_string(o.ok_latency.quantile(0.5)),
               std::to_string(o.ok_latency.quantile(0.99)),
               std::to_string(o.ok_latency.quantile(0.999)),
               std::to_string(o.breaches), std::to_string(o.recoveries),
               std::to_string(o.slo_raises), std::to_string(o.lowers),
               std::to_string(o.peak_replicas),
               std::to_string(o.final_replicas),
               std::to_string(o.dissent_rounds)});
  }
  std::cout << table.render() << "\n";
  std::cout
      << "expected shape: dissent rounds stay at 0 in every cell — the\n"
         "replicas never disagree, so the classic dtof loop alone would\n"
         "never raise.  Yet every degraded phase burns the latency SLO,\n"
         "the tracker publishes obs.slo/breach, and the switchboard raises\n"
         "redundancy (slo raises > 0, peak replicas > 3): the adaptation\n"
         "loop is closed by *measured degradation*, the Sect. 3.3 vision\n"
         "extended from value faults to timing failures.  After the heal\n"
         "the burn clears, obs.slo/recover fires, and the consecutive-high\n"
         "rule sheds replicas again (lowers > 0 where the healed phase is\n"
         "long enough).\n";
  return 0;
}
