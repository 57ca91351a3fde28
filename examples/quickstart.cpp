// Quickstart: the aft library in five minutes.
//
//   1. Express an assumption explicitly (instead of hardwiring it).
//   2. Verify it against a context and observe a clash.
//   3. Postpone a design choice with an AssumptionVariable.
//   4. Let the Sect. 3.1 selector bind a memory access method to a platform.
//   5. Run the Sect. 3.3 autonomic replication loop for a few rounds.
//
// Build & run:  cmake -B build -G Ninja && cmake --build build
//               ./build/examples/quickstart
#include <iostream>

#include "autonomic/organ.hpp"
#include "core/context.hpp"
#include "core/registry.hpp"
#include "core/variable.hpp"
#include "hw/machine.hpp"
#include "mem/selector.hpp"

int main() {
  using namespace aft;

  // --- 1. An explicit, documented assumption -------------------------------
  core::AssumptionRegistry registry;
  registry.emplace<std::int64_t>(
      "env.max-velocity", "horizontal velocity stays below 32767",
      core::Subject::kPhysicalEnvironment,
      core::Provenance{.origin = "quickstart design review",
                       .rationale = "qualified flight envelope",
                       .stated_at = core::BindingTime::kDesign},
      std::int64_t{32767},
      [](const core::Context& ctx) { return ctx.get<std::int64_t>("velocity"); },
      [](const std::int64_t& limit, const std::int64_t& v) { return v <= limit; });

  registry.on_clash([](const core::Clash& clash, const core::Diagnosis& d) {
    std::cout << "  !! clash on '" << clash.assumption_id
              << "': observed " << clash.observed << "\n  !! " << d.explanation
              << "\n";
  });

  // --- 2. Verify against contexts ------------------------------------------
  core::Context ctx;
  ctx.set("velocity", std::int64_t{21000});
  std::cout << "[1] verifying with velocity=21000: "
            << registry.verify_all(ctx).size() << " clash(es)\n";
  ctx.set("velocity", std::int64_t{40000});
  std::cout << "[2] verifying with velocity=40000: ";
  registry.verify_all(ctx);

  // --- 3. Postponed binding -------------------------------------------------
  core::AssumptionVariable<std::string> pattern("ft-pattern",
                                                core::BindingTime::kDesign);
  pattern.add_alternative({"e1", "redoing", 0.1});
  pattern.add_alternative({"e2", "reconfiguration", 0.5});
  pattern.bind("e1", core::BindingTime::kDeploy, "historic data says transients");
  std::cout << "[3] pattern variable bound to '" << pattern.value() << "' at "
            << core::to_string(pattern.history().back().when) << "\n";

  // --- 4. Platform-driven memory method selection ---------------------------
  hw::Machine obc = hw::machines::satellite_obc(128);
  mem::MethodSelector selector;
  auto selection = selector.select(obc);
  std::cout << "[4] platform '" << obc.name() << "' resolved to "
            << selection.report.required_label << "; selected "
            << selection.report.chosen << "\n";
  selection.method->write(0, 0xCAFE);
  std::cout << "    wrote/read through it: 0x" << std::hex
            << selection.method->read(0).value << std::dec << "\n";

  // --- 5. Autonomic replication ----------------------------------------------
  bool disturb = false;
  autonomic::RestoringOrgan organ(
      3,
      [&](vote::Ballot in, std::size_t replica) {
        return disturb && replica == 0 ? in + 99 : in * 2;
      },
      autonomic::ReflectiveSwitchboard::Policy{.lower_after = 5}, 42);
  std::cout << "[5] voting farm with autonomic redundancy:\n";
  for (int round = 0; round < 12; ++round) {
    disturb = round >= 3 && round < 6;
    const vote::RoundReport report = organ.round(round, [](const auto&) {});
    std::cout << "    round " << round << ": n=" << report.n
              << " dtof=" << report.distance << " -> farm now "
              << organ.farm().replicas() << " replicas\n";
  }
  const autonomic::ReflectiveSwitchboard& board = organ.switchboard();
  std::cout << "    raises=" << board.raises() << " lowers=" << board.lowers()
            << " (resizes authenticated: " << board.channel().accepted() << ")\n";

  std::cout << "\nassumption inventory:\n" << registry.report();
  return 0;
}
