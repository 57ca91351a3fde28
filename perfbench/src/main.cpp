// perfbench: the repository benchmark's measuring binary.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--spans <path>]
//   perfbench --selfcheck
//
// --trace 0 measures the end-to-end metrics: repeated set-ups, then whole
// seeded runs until --seconds have been measured; every run is validated
// and must reproduce the first run's outcome exactly.  --trace 1 measures
// the layer ladder, alternates untraced and traced runs, and reports the
// per-layer counts, span self times and overheads.  The last stdout line is
// one JSON object; everything before it is a human-readable report.
#include <malloc.h>
#include <sched.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <string>

#include "common.hpp"
#include "ladder.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "workloads.hpp"

namespace pb {
namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  bool selfcheck = false;
  std::string spans_path;
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench: " << why << "\n"
            << "usage: perfbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--spans <path>]\n"
               "       perfbench --selfcheck\n";
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--selfcheck") {
      a.selfcheck = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string v = argv[++i];
    try {
      if (flag == "--workload") {
        a.workload = v;
      } else if (flag == "--seed") {
        a.seed = std::stoull(v);
      } else if (flag == "--seconds") {
        a.seconds = std::stod(v);
      } else if (flag == "--trace") {
        a.trace = std::stoi(v);
      } else if (flag == "--spans") {
        a.spans_path = v;
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::exception&) {
      usage("bad value for " + flag + ": " + v);
    }
  }
  if (!a.selfcheck && a.workload.empty()) usage("--workload is required");
  if (a.trace != 0 && a.trace != 1) usage("--trace must be 0 or 1");
  if (!(a.seconds > 0)) usage("--seconds must be positive");
  return a;
}

/// Peak resident set of this process (VmHWM).  getrusage's ru_maxrss is
/// not used: Linux carries the parent's high-water mark across exec, so it
/// would report the launcher's footprint when that is larger.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  return 0.0;
}

std::string number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// Moves the process to the next CPU it may run on, round robin, before
/// each measured run.  The machine is shared: each CPU flips between
/// undisturbed and slowed-down states as other tenants come and go, and a
/// process left on one CPU can sit in the slow state for many seconds.
/// Rotating spreads every measurement's runs over all CPUs, so its median
/// does not hinge on the CPU it started on.
class CpuRotation {
 public:
  CpuRotation() {
    cpu_set_t allowed;
    CPU_ZERO(&allowed);
    if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) return;
    for (std::size_t cpu = 0; cpu < static_cast<std::size_t>(CPU_SETSIZE);
         ++cpu) {
      if (CPU_ISSET(cpu, &allowed)) cpus_.push_back(cpu);
    }
  }
  void next() {
    if (cpus_.size() < 2) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[next_++ % cpus_.size()], &one);
    sched_setaffinity(0, sizeof one, &one);
  }
  [[nodiscard]] std::size_t size() const noexcept { return cpus_.size(); }

 private:
  std::vector<std::size_t> cpus_;
  std::size_t next_ = 0;
};

/// One init -> run -> validate -> cleanup pass.
struct Rep {
  RunReport report;
  double setup_s = 0;
  double run_s = 0;
};

Rep run_once(Workload& w, std::uint64_t seed, Tracer* tracer) {
  Rep rep;
  w.set_tracer(tracer);
  std::uint64_t t0 = 0, t1 = 0, t2 = 0;
  {
    SpanScope span(tracer, SpanKind::kSetup);
    t0 = now_ns();
    w.init(seed);
    t1 = now_ns();
  }
  w.run();
  t2 = now_ns();
  w.validate(rep.report);
  w.cleanup();
  rep.setup_s = static_cast<double>(t1 - t0) * 1e-9;
  rep.run_s = static_cast<double>(t2 - t1) * 1e-9;
  return rep;
}

/// Deterministic part of a report, for comparing runs of one seed.
std::string fingerprint(const RunReport& r) {
  std::ostringstream s;
  s << r.ops << '/' << r.failed_ops;
  for (const auto& [k, v] : r.outcome) s << ';' << k << '=' << number(v);
  for (const auto& [k, v] : r.counts) {
    if (k != "cluster.queue_depth_mean") s << ';' << k << '=' << number(v);
  }
  return s.str();
}

/// Checks a rep: validation errors, and the same outcome as the first rep.
void check(const Rep& rep, const std::string& expected,
           std::vector<std::string>& errors) {
  for (const std::string& e : rep.report.errors) errors.push_back(e);
  const std::string fp = fingerprint(rep.report);
  if (fp != expected) {
    errors.push_back("run differs from the first run of the same seed: " + fp +
                     " vs " + expected);
  }
}

double ops_per_s(const Rep& rep) {
  return ratio(static_cast<double>(rep.report.ops), rep.run_s);
}


void print_outcome(const std::string& workload, const RunReport& r) {
  std::cout << "[" << workload << "] sim-time outcome (deterministic for the "
            << "seed):\n";
  for (const auto& [k, v] : r.outcome) {
    const char* unit = k.find("_ticks") != std::string::npos ? "ticks"
                       : k.find("_frac") != std::string::npos ? "ratio"
                                                               : "count";
    std::cout << "  " << k << " = " << number(v) << " " << unit << "\n";
  }
  if (workload.rfind("traffic_", 0) == 0) {
    std::cout << "  sessions arrive open-loop on the seeded sim-time schedule "
                 "and each session is closed-loop with think time; sim time "
                 "does not follow host time, so the generator is never late.\n";
  }
}

struct Json {
  std::ostringstream s;
  bool first = true;
  void metric(const std::string& name, double value, const std::string& unit) {
    s << (first ? "" : ", ") << "\"" << name << "\": {\"value\": "
      << number(value) << ", \"unit\": \"" << unit << "\"}";
    first = false;
  }
};

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const Json& metrics) {
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << attempted << ", \"failed\": " << failed
            << ", \"metrics\": {" << metrics.s.str() << "}}\n";
}

/// Checks one measured run and adds it to the tallies: every operation of
/// a run whose output was wrong counts as failed.
void tally(const Rep& rep, const std::string& expected,
           std::vector<std::string>& errors, std::uint64_t& attempted,
           std::uint64_t& failed) {
  const std::size_t before = errors.size();
  check(rep, expected, errors);
  attempted += rep.report.ops;
  if (errors.size() > before) failed += rep.report.ops;
}

constexpr int kSetupsPerRun = 8;

int measure_end_to_end(const Args& a) {
  std::unique_ptr<Workload> w = make_workload(a.workload, Scale::kFull);
  std::vector<std::string> errors;
  std::vector<double> setups, throughput;
  std::uint64_t attempted = 0, failed = 0;

  CpuRotation cpus;

  // The first run settles lazy initialisation and sets the expected
  // outcome; it is not timed.
  const Rep first = run_once(*w, a.seed, nullptr);
  const std::string expected = fingerprint(first.report);
  for (const std::string& e : first.report.errors) errors.push_back(e);
  const std::uint64_t deadline =
      now_ns() + static_cast<std::uint64_t>(a.seconds * 1e9);
  while (throughput.size() < 3 || now_ns() < deadline) {
    cpus.next();
    const Rep rep = run_once(*w, a.seed, nullptr);
    tally(rep, expected, errors, attempted, failed);
    throughput.push_back(ops_per_s(rep));
    // Set-up alone, a few times after each run (warm, on the same CPU), so
    // setup_s is a median over the whole measurement.
    for (int i = 0; i < kSetupsPerRun; ++i) {
      const std::uint64_t t0 = now_ns();
      w->init(a.seed);
      setups.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
      w->cleanup();
    }
  }

  print_outcome(a.workload, first.report);
  const double ops = median(throughput);
  const double setup = median(setups);
  const double rss = peak_rss_mb();
  std::cout << "[" << a.workload << "] host (" << throughput.size()
            << " runs, " << setups.size() << " set-ups, rotated over "
            << cpus.size() << " CPUs):\n"
            << "  ops_per_s = " << number(ops) << " 1/s (median; min "
            << number(*std::min_element(throughput.begin(), throughput.end()))
            << ", max "
            << number(*std::max_element(throughput.begin(), throughput.end()))
            << ")\n"
            << "  setup_s = " << number(setup) << " s (median)\n"
            << "  peak_rss_mb = " << number(rss) << " MB\n";
  for (const std::string& e : errors) std::cout << "  INVALID: " << e << "\n";

  Json m;
  m.metric("ops_per_s", ops, "1/s");
  m.metric("setup_s", setup, "s");
  m.metric("peak_rss_mb", rss, "MB");
  print_result(errors.empty(), attempted, failed, m);
  return errors.empty() ? 0 : 1;
}

/// Every per-layer count a workload may report; the ones a workload does
/// not exercise are reported as 0.
const std::vector<std::string>& count_names() {
  static const std::vector<std::string> kNames = {
      "sim.events_per_op",
      "net.frames_per_op",
      "net.heartbeat_frames_per_op",
      "net.drop_frac",
      "net.rpc_attempts_per_call",
      "net.rpc_fail_frac",
      "net.breaker_rejects",
      "net.membership_downs",
      "net.membership_ups",
      "cluster.rounds_per_op",
      "cluster.shed_frac",
      "cluster.queue_peak",
      "cluster.queue_depth_mean",
      "cluster.short_rounds",
      "cluster.rpc_failures_per_round",
      "load.sessions",
      "load.peak_sessions",
      "vote.invocations_per_round",
      "vote.no_majority_frac",
      "autonomic.raises",
      "autonomic.lowers",
      "autonomic.slo_raises",
      "detect.suspects",
      "detect.cleared",
      "hw.device_ops_per_op",
      "hw.faults_injected",
      "mem.corrected_per_read",
      "mem.recovered_per_read",
      "mem.escalations",
  };
  return kNames;
}

std::string count_unit(const std::string& name) {
  if (name.find("_frac") != std::string::npos) return "ratio";
  if (name.find("_per_") != std::string::npos) return "count/op";
  return "count";
}

void write_spans(const std::string& path, const Tracer& tracer) {
  std::ofstream out(path);
  if (!out) {
    std::cerr << "perfbench: cannot write spans to " << path << "\n";
    return;
  }
  const auto& spans = tracer.spans();
  const std::uint64_t base = spans.empty() ? 0 : spans.front().start_ns;
  out << "index,span,parent,start_ns,end_ns\n";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Tracer::Span& s = spans[i];
    out << i << ',' << span_name(s.kind) << ','
        << (s.parent == Tracer::kNoParent ? -1 : static_cast<long long>(s.parent))
        << ',' << s.start_ns - base << ',' << s.end_ns - base << '\n';
  }
}

/// Cross-check of the benchmark's frame and request accounting against the
/// obs metrics registry the layers feed.  The registry's net.link.sent
/// counts frames put on the wire; LinkCounters::sent counts every send(),
/// including the ones the link drops.
void check_registry(const aft::obs::MetricsRegistry& reg, const RunReport& r,
                    std::vector<std::string>& errors) {
  auto find = [](const Metrics& m, const std::string& key) -> const double* {
    for (const auto& [k, v] : m) {
      if (k == key) return &v;
    }
    return nullptr;
  };
  if (const double* requests = find(r.outcome, "requests")) {
    if (static_cast<double>(reg.counter("load.requests")) != *requests) {
      errors.push_back("load.requests in the metrics registry != requests");
    }
  }
  if (const double* frames = find(r.counts, "net.frames_per_op")) {
    const double counted = *frames * static_cast<double>(r.ops);
    const double sent = static_cast<double>(reg.counter("net.link.sent") +
                                            reg.counter("net.link.dropped"));
    if (std::abs(sent - counted) > 0.5) {
      errors.push_back("net.link.sent + net.link.dropped in the metrics "
                       "registry (" + number(sent) + ") != frames counted (" +
                       number(counted) + ")");
    }
  }
}

int measure_layers(const Args& a) {
  std::unique_ptr<Workload> w = make_workload(a.workload, Scale::kFull);
  std::vector<std::string> errors;
  std::uint64_t attempted = 0, failed = 0;

  const Ladder ladder = run_ladder(a.seconds * 0.3, Scale::kFull);

  // Untraced and traced runs alternate in pairs on one CPU, so each
  // pair's overhead ratio compares runs made under the same conditions.
  CpuRotation cpus;
  const Rep first = run_once(*w, a.seed, nullptr);
  const std::string expected = fingerprint(first.report);
  for (const std::string& e : first.report.errors) errors.push_back(e);
  std::vector<double> overheads, throughput;
  std::optional<Tracer> tracer;
  RunReport traced_report;
  const std::uint64_t deadline =
      now_ns() + static_cast<std::uint64_t>(a.seconds * 0.7 * 1e9);
  while (overheads.size() < 2 || now_ns() < deadline) {
    cpus.next();
    const Rep plain = run_once(*w, a.seed, nullptr);
    tally(plain, expected, errors, attempted, failed);
    throughput.push_back(ops_per_s(plain));

    tracer.emplace(1u << 18);
    aft::obs::MetricsRegistry registry;
    Rep traced;
    {
      aft::obs::ScopedObs scope(nullptr, &registry);
      traced = run_once(*w, a.seed, &*tracer);
    }
    check_registry(registry, traced.report, traced.report.errors);
    tally(traced, expected, errors, attempted, failed);
    overheads.push_back(traced.run_s / plain.run_s - 1.0);
    traced_report = traced.report;
  }
  if (!a.spans_path.empty()) write_spans(a.spans_path, *tracer);

  const RunReport& r = traced_report;
  const double ops = static_cast<double>(r.ops);
  const double wall_ns_per_op = ratio(1e9, median(throughput));
  std::map<std::string, double> counts;
  for (const std::string& n : count_names()) counts[n] = 0;
  for (const auto& [k, v] : r.counts) counts[k] = v;

  print_outcome(a.workload, first.report);
  Json m;
  std::cout << "[" << a.workload << "] per-layer counts (traced run):\n";
  for (const std::string& n : count_names()) {
    m.metric(n, counts[n], count_unit(n));
    std::cout << "  " << n << " = " << number(counts[n]) << "\n";
  }
  std::cout << "[" << a.workload << "] span self time per operation:\n";
  for (std::size_t k = 0; k < static_cast<std::size_t>(SpanKind::kCount); ++k) {
    const auto kind = static_cast<SpanKind>(k);
    const std::string name = std::string("self.") + span_name(kind) + "_ns_per_op";
    const double v = ratio(static_cast<double>(tracer->self_ns(kind)), ops);
    m.metric(name, v, "ns/op");
    std::cout << "  " << name << " = " << number(v) << " (" << tracer->count(kind)
              << " spans)\n";
  }
  std::cout << "[ladder] ns/call, sim events/call, allocations/call:\n";
  for (const LadderRow& row : ladder.rows) {
    m.metric(row.name, row.ns, "ns");
    m.metric("ladder." + row.key + ".events", row.events, "count/op");
    m.metric("ladder." + row.key + ".allocs", row.allocs, "count/op");
    std::cout << "  " << row.name << " = " << number(row.ns) << "  events "
              << number(row.events) << "  allocs " << number(row.allocs)
              << "\n";
  }
  const double coverage = ladder_coverage(ladder, r.ladder_use, wall_ns_per_op);
  const double trace_overhead = median(overheads);
  const double alloc_per_op = ratio(static_cast<double>(first.report.steady_allocs),
                                    static_cast<double>(first.report.steady_ops));
  m.metric("ladder.coverage_frac", coverage, "ratio");
  m.metric("obs.trace_overhead_frac", trace_overhead, "ratio");
  m.metric("alloc.per_op", alloc_per_op, "count/op");
  std::cout << "[" << a.workload << "] wall " << number(wall_ns_per_op)
            << " ns/op untraced; ladder accounts for " << number(coverage)
            << " of it\n"
            << "  obs.trace_overhead_frac = " << number(trace_overhead) << "\n"
            << "  alloc.per_op = " << number(alloc_per_op) << "\n";
  for (const std::string& e : errors) std::cout << "  INVALID: " << e << "\n";
  print_result(errors.empty(), attempted, failed, m);
  return errors.empty() ? 0 : 1;
}

/// Tiny-scale run of every workload, untraced and traced, plus a short
/// ladder: validation must pass and the two runs must agree.
int selfcheck() {
  int bad = 0;
  for (const std::string& name : workload_names()) {
    std::unique_ptr<Workload> w = make_workload(name, Scale::kTiny);
    std::vector<std::string> errors;
    const Rep plain = run_once(*w, 7, nullptr);
    Tracer tracer(1024);
    const Rep traced = run_once(*w, 7, &tracer);
    check(plain, fingerprint(plain.report), errors);
    check(traced, fingerprint(plain.report), errors);
    if (tracer.count(SpanKind::kSetup) != 1) errors.push_back("no setup span");
    if (plain.report.ops == 0) errors.push_back("no operations");
    std::cout << "selfcheck " << name << ": "
              << (errors.empty() ? "ok" : "FAILED") << " (" << plain.report.ops
              << " ops)\n";
    for (const std::string& e : errors) std::cout << "  " << e << "\n";
    if (!errors.empty()) ++bad;
  }
  const Ladder ladder = run_ladder(0.05, Scale::kTiny);
  for (const LadderRow& row : ladder.rows) {
    if (!(row.ns > 0)) {
      std::cout << "selfcheck ladder " << row.name << ": FAILED (no time)\n";
      ++bad;
    }
  }
  std::cout << "selfcheck " << (bad == 0 ? "ok" : "FAILED") << "\n";
  return bad == 0 ? 0 : 1;
}

}  // namespace
}  // namespace pb

int main(int argc, char** argv) {
  // Warm heap: freed memory stays in the process, so repeated set-ups and
  // runs measure construction and execution, not page faults.  With glibc's
  // default thresholds, whether a set-up after a run faults its arrays in
  // again depends on the heap layout that run left, which varies with the
  // seed.  setup_s and ops_per_s are therefore warm-heap figures.
  mallopt(M_TRIM_THRESHOLD, 1 << 30);
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
  const pb::Args a = pb::parse(argc, argv);
  if (a.selfcheck) return pb::selfcheck();
  bool known = false;
  for (const std::string& n : pb::workload_names()) known |= n == a.workload;
  if (!known) pb::usage("unknown workload " + a.workload);
  return a.trace == 0 ? pb::measure_end_to_end(a) : pb::measure_layers(a);
}
