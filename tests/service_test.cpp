// Tests for the AutonomicReplicationService facade and the ScrubberDaemon.
#include <gtest/gtest.h>

#include "autonomic/service.hpp"
#include "hw/fault_injector.hpp"
#include "hw/memory_chip.hpp"
#include "mem/method_ecc.hpp"
#include "mem/scrubber.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"

namespace {

using aft::autonomic::AutonomicReplicationService;

// --- AutonomicReplicationService ------------------------------------------------

TEST(ServiceTest, HealthyCallsReturnVotedValue) {
  AutonomicReplicationService service(
      [](aft::vote::Ballot in, std::size_t) { return in * 3; },
      AutonomicReplicationService::Options{});
  for (int i = 0; i < 100; ++i) {
    const auto result = service.call(i);
    ASSERT_TRUE(result.has_value());
    EXPECT_EQ(*result, i * 3);
  }
  EXPECT_EQ(service.replicas(), 3u);
  EXPECT_EQ(service.calls(), 100u);
  EXPECT_EQ(service.failures(), 0u);
  EXPECT_LT(service.disturbance_level(), 1e-6);
}

TEST(ServiceTest, DisturbanceGrowsRedundancyAndAssumptionTracks) {
  bool disturb = false;
  aft::util::Xoshiro256 rng(3);
  AutonomicReplicationService::Options options;
  options.policy.lower_after = 50;
  AutonomicReplicationService service(
      [&](aft::vote::Ballot in, std::size_t replica) -> aft::vote::Ballot {
        if (disturb && rng.bernoulli(0.2)) {
          return in + 100 + static_cast<aft::vote::Ballot>(replica);
        }
        return in;
      },
      options);

  // The dimensioning assumption starts at 3 and holds.
  EXPECT_EQ(service.dimensioning_assumption().assumed(), 3);

  disturb = true;
  for (int i = 0; i < 200; ++i) service.call(i);
  EXPECT_GT(service.replicas(), 3u);
  // The assumption was re-bound in lockstep with every resize.
  EXPECT_EQ(service.dimensioning_assumption().assumed(),
            static_cast<std::int64_t>(service.replicas()));
  EXPECT_GT(service.disturbance_level(), 0.01);

  disturb = false;
  for (int i = 0; i < 1000; ++i) service.call(i);
  EXPECT_EQ(service.replicas(), 3u);
  EXPECT_EQ(service.dimensioning_assumption().assumed(), 3);
  EXPECT_LT(service.disturbance_level(), 0.01);
}

TEST(ServiceTest, PublishesIntoContext) {
  aft::core::Context ctx;
  AutonomicReplicationService service(
      [](aft::vote::Ballot in, std::size_t) { return in; },
      AutonomicReplicationService::Options{}, &ctx);
  service.call(1);
  EXPECT_TRUE(ctx.get<double>("env.disturbance").has_value());
  EXPECT_EQ(ctx.get<std::int64_t>("dim.redundancy.observed"), 3);
  // The assumption tracks the context the service itself feeds:
  // self-consistent by construction.
  EXPECT_EQ(service.dimensioning_assumption().assumed(), 3);
}

TEST(ServiceTest, NoMajorityReturnsNulloptAndCounts) {
  // Every replica answers differently: voting can never succeed.
  AutonomicReplicationService service(
      [](aft::vote::Ballot in, std::size_t replica) {
        return in + static_cast<aft::vote::Ballot>(replica);
      },
      AutonomicReplicationService::Options{});
  EXPECT_FALSE(service.call(0).has_value());
  EXPECT_EQ(service.failures(), 1u);
  EXPECT_EQ(service.last_report().distance, 0);
  EXPECT_GT(service.disturbance_level(), 0.0);
}

// --- ScrubberDaemon -----------------------------------------------------------------

TEST(ScrubberTest, ParamValidation) {
  aft::sim::Simulator sim;
  aft::hw::MemoryChip chip(16);
  aft::mem::EccScrubAccess method(chip);
  EXPECT_THROW(aft::mem::ScrubberDaemon(sim, method, 0), std::invalid_argument);
}

TEST(ScrubberTest, PeriodicPasses) {
  aft::sim::Simulator sim;
  aft::hw::MemoryChip chip(16);
  aft::mem::EccScrubAccess method(chip, /*words_per_scrub_step=*/16);
  aft::mem::ScrubberDaemon scrubber(sim, method, 10);
  scrubber.start();
  sim.run_until(100);
  EXPECT_EQ(scrubber.passes(), 10u);
  scrubber.stop();
  sim.run_all();
  EXPECT_EQ(scrubber.passes(), 10u);
}

TEST(ScrubberTest, RepairsLatentFlipsBetweenDemandReads) {
  aft::sim::Simulator sim;
  aft::hw::MemoryChip chip(16);
  aft::mem::EccScrubAccess method(chip, 16);
  aft::mem::ScrubberDaemon scrubber(sim, method, 5);
  scrubber.start();
  for (std::size_t w = 0; w < 16; ++w) method.write(w, w);
  // A latent flip appears at t=7; the pass at t=10 repairs it before the
  // second flip at t=12 can make the word uncorrectable.
  sim.schedule_at(7, [&] { chip.inject_bit_flip(3, 11); });
  sim.schedule_at(12, [&] { chip.inject_bit_flip(3, 40); });
  sim.run_until(20);
  const auto r = method.read(3);
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.value, 3u);
}

TEST(ScrubberTest, TooSlowACadenceLosesTheRace) {
  aft::sim::Simulator sim;
  aft::hw::MemoryChip chip(16);
  aft::mem::EccScrubAccess method(chip, 16);
  aft::mem::ScrubberDaemon scrubber(sim, method, 1000);  // patrol far too rare
  scrubber.start();
  for (std::size_t w = 0; w < 16; ++w) method.write(w, w);
  sim.schedule_at(7, [&] { chip.inject_bit_flip(3, 11); });
  sim.schedule_at(12, [&] { chip.inject_bit_flip(3, 40); });
  sim.run_until(20);
  EXPECT_EQ(method.read(3).status, aft::mem::ReadStatus::kUncorrectable);
}

TEST(ScrubberTest, CadenceCanBeRetuned) {
  aft::sim::Simulator sim;
  aft::hw::MemoryChip chip(16);
  aft::mem::EccScrubAccess method(chip, 16);
  aft::mem::ScrubberDaemon scrubber(sim, method, 100);
  scrubber.start();
  sim.run_until(100);  // pass at t=100; the next is already booked for t=200
  scrubber.set_period(10);
  sim.run_until(200);  // pass at t=200 runs, and reschedules with the new period
  EXPECT_EQ(scrubber.passes(), 2u);
  sim.run_until(250);  // passes at 210..250
  EXPECT_EQ(scrubber.passes(), 7u);
}

}  // namespace

// --- Unit retirement (replace-on-discrimination) -----------------------------------

namespace {

TEST(ServiceRetirementTest, WedgedUnitIsReplacedAndServiceHeals) {
  // Unit 1 (initially serving slot 1) is permanently wedged; every other
  // unit — including spares engaged later — computes correctly.
  AutonomicReplicationService::Options options;
  options.retire_faulty_units = true;
  AutonomicReplicationService service(
      [](aft::vote::Ballot in, std::size_t unit) -> aft::vote::Ballot {
        return unit == 1 ? -999 : in + 1;
      },
      options);
  ASSERT_EQ(service.unit_of_slot(1), 1u);

  int dissent_rounds = 0;
  for (int i = 0; i < 50; ++i) {
    const auto result = service.call(i);
    ASSERT_TRUE(result.has_value());  // 2-of-3 majority holds throughout
    if (service.last_report().dissent > 0) ++dissent_rounds;
  }
  EXPECT_EQ(service.units_replaced(), 1u);
  // A fresh spare took over slot 1.  (Its id is > 2: the switchboard's
  // redundancy raises during the dissent window allocate units 3.. first,
  // then the retirement engages the next free one.)
  EXPECT_NE(service.unit_of_slot(1), 1u);
  EXPECT_GE(service.unit_of_slot(1), 3u);
  // After the replacement the farm reaches consensus again: dissent stops.
  EXPECT_LT(dissent_rounds, 10);
  const auto after = service.call(100);
  ASSERT_TRUE(after.has_value());
  EXPECT_EQ(service.last_report().dissent, 0u);
}

TEST(ServiceRetirementTest, TransientGlitchesDoNotBurnSpares) {
  aft::util::Xoshiro256 rng(11);
  AutonomicReplicationService::Options options;
  options.retire_faulty_units = true;
  AutonomicReplicationService service(
      [&](aft::vote::Ballot in, std::size_t) -> aft::vote::Ballot {
        return rng.bernoulli(0.01) ? in + 77 : in;  // sparse upsets, any unit
      },
      options);
  for (int i = 0; i < 500; ++i) service.call(i);
  EXPECT_EQ(service.units_replaced(), 0u)
      << "sparse transients must stay below the oracle's threshold";
}

TEST(ServiceRetirementTest, DisabledByDefault) {
  AutonomicReplicationService service(
      [](aft::vote::Ballot in, std::size_t unit) -> aft::vote::Ballot {
        return unit == 0 ? -1 : in;
      },
      AutonomicReplicationService::Options{});
  for (int i = 1; i < 50; ++i) service.call(i);
  EXPECT_EQ(service.units_replaced(), 0u);
  EXPECT_EQ(service.unit_of_slot(0), 0u);  // still the broken unit: masked only
}

}  // namespace
