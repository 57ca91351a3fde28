// The Sect. 3.3 strategy as an application: an autonomic replication-and-
// voting service whose degree of redundancy follows the environment.
//
// A "sensor fusion" task is replicated across a Voting Farm; a scripted
// radiation environment corrupts replica outputs; the Reflective
// Switchboard watches dtof and resizes the farm through authenticated
// messages.  The program prints the live trace and a Fig. 7-style summary,
// including the rounds the scheme could not mask.  It exits 0 whenever it
// ran; a disturbance the farm failed to out-vote is a reported outcome, not
// an error.
#include <iostream>

#include "autonomic/experiment.hpp"
#include "util/table.hpp"

int main() {
  using namespace aft::autonomic;
  std::cout << "=== adaptive_redundancy: dtof-driven dimensioning ===\n\n";

  ExperimentConfig config;
  config.seed = 7;
  config.policy.min_replicas = 3;
  config.policy.max_replicas = 9;
  config.policy.lower_after = 500;
  config.series_sample_every = 400;

  const std::vector<DisturbancePhase> mission = {
      {2000, 0.0},    // nominal orbit
      {400, 0.02},    // entering the South Atlantic Anomaly: flux ramps up
      {800, 0.10},    // inside the anomaly
      {400, 0.02},    // leaving it
      {4000, 0.0},    // nominal again
      {600, 0.15},    // solar particle event
      {4000, 0.0},
  };

  const ExperimentResult result = run_adaptation_experiment(config, mission);

  aft::util::TextTable table;
  table.header({"step", "replicas", "dtof", "disturbed?"});
  for (const SeriesPoint& p : result.series) {
    table.row({std::to_string(p.step), std::to_string(p.replicas),
               std::to_string(p.distance), p.fault_injected ? "hit" : ""});
  }
  std::cout << table.render() << "\n";

  std::cout << "mission summary over " << result.steps << " voting rounds:\n"
            << "  replica-output corruptions injected: " << result.faults_injected
            << "\n"
            << "  voting failures (assumption clashes): "
            << result.voting_failures << "\n"
            << "  redundancy raises/lowers: " << result.raises << "/"
            << result.lowers << "\n"
            << "  occupancy (log scale):\n"
            << result.redundancy.render_log_scale(40)
            << "\nthe scheme held " << aft::util::fmt(result.fraction_at(3) * 100, 2)
            << "% of the mission at the minimal degree r=3; "
            << result.voting_failures << " of " << result.steps
            << " rounds went unmasked (no majority).\n";
  return 0;
}
