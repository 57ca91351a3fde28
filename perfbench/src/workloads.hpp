// The benchmark's workloads.  Each one is an {init, run, validate, cleanup}
// tuple over one seeded simulation:
//
//   init      constructs the stack and starts it (timed as set-up);
//   run       drives it to completion (timed as the measured work);
//   validate  checks the outputs and reports outcome and per-layer counts;
//   cleanup   destroys everything init built.
//
// Workloads receive only a seed; every input is generated from it.
#pragma once
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cluster/replica.hpp"
#include "common.hpp"
#include "net/link.hpp"

namespace pb {

enum class Scale : std::uint8_t {
  kFull,  ///< the measured size
  kTiny,  ///< a few milliseconds, for the self-check
};

/// What validate() reports about one completed run.
struct RunReport {
  std::uint64_t ops = 0;         ///< operations resolved
  std::uint64_t failed_ops = 0;  ///< operations counted in fail_frac
  /// Allocations and operations after the warm-up mark (alloc.per_op).
  std::uint64_t steady_allocs = 0;
  std::uint64_t steady_ops = 0;
  /// Sim-time outcome metrics (fail_frac, latency_*_ticks, ...).
  Metrics outcome;
  /// Per-layer counts; deterministic for a seed.
  Metrics counts;
  /// Per-operation counts of the ladder rows that cost the workload time,
  /// keyed by the ladder's exclusive-cost names (see ladder.hpp).
  Metrics ladder_use;
  /// Validation failures; empty when the run is correct.
  std::vector<std::string> errors;
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Spans go to `tracer` (nullptr: untraced).  Set before init().
  void set_tracer(Tracer* tracer) noexcept { tracer_ = tracer; }
  virtual void init(std::uint64_t seed) = 0;
  virtual void run() = 0;
  virtual void validate(RunReport& out) = 0;
  virtual void cleanup() = 0;

 protected:
  Tracer* tracer_ = nullptr;
};

/// Wire model of every replica link in the traffic workloads: 2 +- 1 ticks
/// per hop, lossless.
aft::net::LinkFaults quiet_wire();

/// The traffic workloads' 5-replica service: reject-newest admission over a
/// 64-deep queue; `breakers` adds per-replica circuit breakers.
aft::cluster::ClusterParams cluster_params(bool breakers);

/// Working-set size (words per bank) of memory_adaptive at full scale.
inline constexpr std::size_t kMemoryWords = 16384;

/// The workload names, in the order BENCHMARK.json lists them.
const std::vector<std::string>& workload_names();

/// nullptr for an unknown name.
std::unique_ptr<Workload> make_workload(const std::string& name, Scale scale);

}  // namespace pb
