// The paper's "Comparison with existing strategies" paragraphs (Sects. 3.1
// and 3.2), as one live table: the SAME postponed-binding machinery driven
// by two different concerns —
//
//   performance  (mplayer/FFTW style): measure candidates on THIS machine,
//                bind the fastest; correctness is invariant, speed is the
//                objective;
//   dependability (this paper): introspect THIS platform, bind the
//                cheapest candidate that is ADEQUATE for its failure
//                semantics; adequacy is the objective, cost the tiebreak.
//
// Both postpone a design-time alternative set to deployment; they differ in
// the knowledge source and the ordering function — which is precisely the
// paper's claim of generality.
#include <iostream>

#include "hw/machine.hpp"
#include "mem/selector.hpp"
#include "tune/fft.hpp"
#include "util/table.hpp"

#include "obs/cli.hpp"
#include "obs/obs.hpp"

int main(int argc, char** argv) {
  aft::obs::ObsCli obs(argc, argv);
  AFT_SPAN("bench", "tab_binding_strategies");
  std::cout << "=== binding-strategy comparison: performance vs dependability ===\n\n";

  // --- performance-directed binding (FFTW-style planner) -------------------
  aft::util::TextTable perf;
  perf.header({"FFT size", "bound algorithm", "ns/point (measured)"});
  for (const std::size_t n : {16u, 256u, 4096u, 100u}) {
    const aft::tune::Plan plan = aft::tune::plan_for(n);
    perf.row({std::to_string(n), aft::tune::to_string(plan.kind),
              aft::util::fmt(plan.measured_ns_per_point, 1)});
  }
  std::cout << "performance concern (knowledge source: on-machine measurement):\n"
            << perf.render() << "\n";

  // --- dependability-directed binding (Sect. 3.1 selector) ------------------
  aft::mem::MethodSelector selector;
  aft::util::TextTable dep;
  dep.header({"platform", "behaviour f (introspected)", "bound method"});
  aft::hw::Machine platforms[] = {aft::hw::machines::laptop(64),
                                  aft::hw::machines::satellite_obc(64)};
  for (const aft::hw::Machine& machine : platforms) {
    const auto report = selector.analyze(machine);
    dep.row({machine.name(), report.required_label,
             report.selected() ? report.chosen : "REFUSED"});
  }
  std::cout << "dependability concern (knowledge source: SPD + failure KB):\n"
            << dep.render() << "\n";

  aft::util::TextTable contrast;
  contrast.header({"", "mplayer/FFTW style", "this paper (aft)"});
  contrast.row({"concern", "performance", "dependability"});
  contrast.row({"knowledge source", "on-machine timing", "SPD introspection + failure KB"});
  contrast.row({"candidate filter", "must be computable for n", "must tolerate behaviour f"});
  contrast.row({"ordering", "fastest measured", "cheapest adequate"});
  contrast.row({"binding time", "install / first use", "compile / deployment (+ run-time revision)"});
  contrast.row({"on wrong binding", "slow but correct", "assumption failure -> data loss"});
  std::cout << "the paper's contrast, summarized:\n" << contrast.render();
  return 0;
}
