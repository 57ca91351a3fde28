// Reproducible adaptation experiments — the harness behind Figs. 6 and 7.
//
// A disturbance script drives per-replica corruption probability through
// calm and burst phases ("During a simulated experiment, faults are
// injected, and consequently distance-to-failure decreases.  This triggers
// an autonomic adaptation of the degree of redundancy" — Fig. 6); the
// runner drives a RestoringOrgan (autonomic/organ.hpp) round by round and
// records the redundancy/dtof time series plus the occupancy histogram.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "autonomic/switchboard.hpp"
#include "util/histogram.hpp"
#include "vote/voting_farm.hpp"

namespace aft::autonomic {

/// Piecewise-constant environmental disturbance.
struct DisturbancePhase {
  std::uint64_t duration = 0;       ///< steps
  double corruption_prob = 0.0;     ///< per replica per round
};

struct ExperimentConfig {
  std::uint64_t seed = 42;
  std::size_t initial_replicas = 3;
  ReflectiveSwitchboard::Policy policy{};
  std::uint64_t series_sample_every = 1;  ///< decimation for the time series
  bool record_series = true;
};

struct SeriesPoint {
  std::uint64_t step = 0;
  std::size_t replicas = 0;
  std::int64_t distance = 0;
  bool fault_injected = false;
};

struct ExperimentResult {
  std::uint64_t steps = 0;
  std::uint64_t voting_failures = 0;   ///< rounds with no majority (clashes)
  std::uint64_t faults_injected = 0;   ///< corrupted replica executions
  std::uint64_t raises = 0;
  std::uint64_t lowers = 0;
  util::Histogram redundancy;          ///< occupancy per degree (Fig. 7)
  std::vector<SeriesPoint> series;     ///< decimated trace (Fig. 6)

  /// Fraction of steps spent at the minimal degree (the paper reports
  /// 99.92798% at r = 3 for its 65M-step run).
  [[nodiscard]] double fraction_at(std::size_t degree) const {
    return redundancy.fraction(static_cast<std::int64_t>(degree));
  }

  /// CSV export of the recorded series (columns: step, replicas, dtof,
  /// fault_injected) for external plotting of Figs. 6/7.
  [[nodiscard]] std::string series_csv() const;
};

/// Runs the replicate-vote-adapt loop over the scripted phases.
[[nodiscard]] ExperimentResult run_adaptation_experiment(
    const ExperimentConfig& config, const std::vector<DisturbancePhase>& script);

/// The Fig. 6 reference script: calm, a disturbance burst, calm again.
[[nodiscard]] std::vector<DisturbancePhase> fig6_script();

/// The Fig. 7 reference script: a long run with rare short bursts, scaled
/// by `total_steps` (the paper used 65 million simulated time steps).
[[nodiscard]] std::vector<DisturbancePhase> fig7_script(std::uint64_t total_steps);

}  // namespace aft::autonomic
