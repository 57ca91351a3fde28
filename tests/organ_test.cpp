// Tests for the restoring organ (src/autonomic/organ): the round order, the
// per-unit ballot discrimination (dissent attribution -> suspect latch ->
// repair), and the differential check that the in-process facade and the
// networked cluster, both built on the organ, judge a broken unit alike.
#include <gtest/gtest.h>

#include <array>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "autonomic/organ.hpp"
#include "autonomic/service.hpp"
#include "cluster/replica.hpp"
#include "net/link.hpp"
#include "sim/simulator.hpp"

namespace {

using aft::autonomic::ReflectiveSwitchboard;
using aft::autonomic::RestoringOrgan;
using aft::detect::FaultJudgment;
using aft::vote::Ballot;
using aft::vote::RoundReport;

/// Slot s is served by unit s.
constexpr std::array<std::size_t, 9> kIdentity{0, 1, 2, 3, 4, 5, 6, 7, 8};

/// A switchboard that never resizes, so a test sees the arity it set.
ReflectiveSwitchboard::Policy frozen() {
  ReflectiveSwitchboard::Policy p;
  p.min_replicas = 1;
  p.raise_on_any_dissent = false;
  p.critical_dtof = -1;
  p.lower_after = UINT64_MAX;
  return p;
}

RestoringOrgan judging(std::size_t replicas, aft::vote::VotingFarm::Task task) {
  return RestoringOrgan(replicas, std::move(task), frozen(), /*shared_key=*/1,
                        RestoringOrgan::Discrimination::kOn);
}

RoundReport run(RestoringOrgan& organ, Ballot input) {
  return organ.round(input, kIdentity, [](const RoundReport&) {});
}

/// Units (= slots, under kIdentity) the organ currently holds faulty.
std::vector<std::size_t> retirable(const RestoringOrgan& organ) {
  std::vector<std::size_t> out;
  for (std::size_t unit = 0; unit < organ.units_seen(); ++unit) {
    if (organ.suspect(unit)) out.push_back(unit);
  }
  return out;
}

// --- Round order -------------------------------------------------------------------

TEST(OrganTest, StepSeesTheRoundBeforeTheSwitchboardResizes) {
  RestoringOrgan organ(
      3,
      [](Ballot in, std::size_t replica) { return replica == 0 ? in + 1 : in; },
      ReflectiveSwitchboard::Policy{}, 7);
  std::size_t arity_in_step = 0;
  const RoundReport report = organ.round(5, [&](const RoundReport& r) {
    EXPECT_EQ(r.dissent, 1u);
    arity_in_step = organ.farm().replicas();
  });
  EXPECT_EQ(report.value, 5);
  EXPECT_EQ(arity_in_step, 3u);                 // step ran first ...
  EXPECT_EQ(organ.farm().replicas(), 5u);       // ... then the raise
  EXPECT_EQ(organ.switchboard().raises(), 1u);
}

TEST(OrganTest, WithoutDiscriminationNothingIsScored) {
  RestoringOrgan organ(
      3, [](Ballot in, std::size_t replica) { return replica == 1 ? -1 : in; },
      frozen(), 7);
  for (int i = 1; i < 20; ++i) run(organ, i);
  EXPECT_EQ(organ.units_seen(), 0u);
  EXPECT_FALSE(organ.suspect(1));
  EXPECT_EQ(organ.judgment(1), FaultJudgment::kNoEvidence);
}

TEST(OrganTest, SuspectHookSeesLatchAndRepair) {
  RestoringOrgan organ = judging(
      3, [](Ballot in, std::size_t replica) { return replica == 1 ? -1 : in; });
  std::vector<std::pair<std::size_t, bool>> seen;
  organ.set_suspect_hook(
      [&seen](std::size_t unit, bool suspect) { seen.emplace_back(unit, suspect); });
  for (int i = 1; i < 10; ++i) run(organ, i);
  organ.repair(1);
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0], std::make_pair(std::size_t{1}, true));
  EXPECT_EQ(seen[1], std::make_pair(std::size_t{1}, false));
  EXPECT_FALSE(organ.suspect(1));
}

// --- Per-unit ballot discrimination ------------------------------------------------

TEST(ReplicaHealthTest, HealthyFarmNobodyRetirable) {
  RestoringOrgan organ = judging(5, [](Ballot in, std::size_t) { return in; });
  for (int i = 0; i < 100; ++i) run(organ, i);
  EXPECT_TRUE(retirable(organ).empty());
  EXPECT_EQ(organ.units_seen(), 5u);
}

TEST(ReplicaHealthTest, StuckReplicaIsIdentified) {
  RestoringOrgan organ = judging(5, [](Ballot in, std::size_t replica) {
    return replica == 2 ? 0 : in + 1;  // slot 2 is wedged at 0
  });
  for (int i = 1; i < 20; ++i) run(organ, i);
  const auto suspects = retirable(organ);
  ASSERT_EQ(suspects.size(), 1u);
  EXPECT_EQ(suspects[0], 2u);
  EXPECT_EQ(organ.judgment(0), FaultJudgment::kNoEvidence);
}

TEST(ReplicaHealthTest, OccasionalUpsetStaysInService) {
  RestoringOrgan organ = judging(5, [](Ballot in, std::size_t replica) {
    // Slot 4 diverges once every 50 rounds.
    return (replica == 4 && in % 50 == 0) ? in + 100 : in;
  });
  for (int i = 0; i < 500; ++i) run(organ, i);
  EXPECT_TRUE(retirable(organ).empty());
  EXPECT_EQ(organ.judgment(4), FaultJudgment::kTransient);
}

TEST(ReplicaHealthTest, FailedRoundsAttributeNothing) {
  // Every replica answers differently: no majority, no attribution.
  RestoringOrgan organ = judging(3, [](Ballot in, std::size_t replica) {
    return in + static_cast<Ballot>(replica);
  });
  for (int i = 0; i < 50; ++i) run(organ, i);
  EXPECT_EQ(organ.units_seen(), 0u);
  EXPECT_TRUE(retirable(organ).empty());
}

TEST(ReplicaHealthTest, RepairRestartsHistory) {
  bool broken = true;
  RestoringOrgan organ = judging(3, [&](Ballot in, std::size_t replica) {
    return (replica == 0 && broken) ? -1 : in;
  });
  for (int i = 1; i < 10; ++i) run(organ, i);
  ASSERT_EQ(retirable(organ), std::vector<std::size_t>{0});
  broken = false;  // physical replacement
  organ.repair(0);
  for (int i = 1; i < 10; ++i) run(organ, i);
  EXPECT_TRUE(retirable(organ).empty());
}

TEST(ReplicaHealthTest, FarmShrinkRetiresStaleSlotChannels) {
  // Regression: the scored-slot count only ever grew, so after a farm
  // shrink the departed slots kept reporting as retirable — and a later
  // re-grow handed the departed unit's error history to the slot.
  bool broken = true;
  RestoringOrgan organ = judging(7, [&](Ballot in, std::size_t replica) {
    return (replica == 5 && broken) ? -1 : in;
  });
  for (int i = 1; i < 10; ++i) run(organ, i);
  ASSERT_EQ(retirable(organ), std::vector<std::size_t>{5});
  EXPECT_EQ(organ.units_seen(), 7u);

  organ.farm().resize(3);
  run(organ, 10);
  EXPECT_EQ(organ.units_seen(), 3u);
  EXPECT_TRUE(retirable(organ).empty());

  // Re-grow with a repaired unit in slot 5: no inherited history.
  broken = false;
  organ.farm().resize(7);
  run(organ, 11);
  EXPECT_EQ(organ.units_seen(), 7u);
  EXPECT_TRUE(retirable(organ).empty());
}

TEST(ReplicaHealthTest, ShrinkIsTrackedEvenOnNoMajorityRounds) {
  // The arity bookkeeping must run before the no-ground-truth early-out:
  // a shrink followed only by failed rounds still retires the stale slots.
  bool scatter = false;
  RestoringOrgan organ = judging(5, [&](Ballot in, std::size_t replica) {
    if (scatter) return in + static_cast<Ballot>(replica);
    return replica == 4 ? Ballot{-1} : in;
  });
  for (int i = 1; i < 10; ++i) run(organ, i);
  ASSERT_EQ(retirable(organ), std::vector<std::size_t>{4});

  organ.farm().resize(3);
  scatter = true;  // every ballot now differs: no majority
  const RoundReport report = run(organ, 50);
  ASSERT_FALSE(report.success);
  EXPECT_EQ(organ.units_seen(), 3u);
  EXPECT_TRUE(retirable(organ).empty());
}

// --- One rule, two transports -------------------------------------------------------

TEST(OrganDifferentialTest, AlwaysWrongUnitIsSuspectedOnTheSameRound) {
  // Unit 2 always answers wrong.  The facade runs it in-process; the
  // cluster runs it behind quiet wires.  Both feed the same organ rule, so
  // both must give up on unit 2 after the same round.
  constexpr int kMaxRounds = 20;
  auto compute = [](Ballot in, std::size_t unit) -> Ballot {
    return unit == 2 ? -7 : 2 * in + 1;
  };

  aft::autonomic::AutonomicReplicationService::Options options;
  options.retire_faulty_units = true;
  aft::autonomic::AutonomicReplicationService facade(compute, options);
  int facade_round = 0;
  while (facade_round < kMaxRounds && facade.units_replaced() == 0) {
    ++facade_round;
    ASSERT_TRUE(facade.call(facade_round).has_value());
  }

  aft::net::LinkFaults quiet;
  quiet.latency = 2;
  aft::cluster::ClusterParams params;
  params.wire.to_replica = quiet;
  params.wire.from_replica = quiet;
  aft::sim::Simulator sim;
  aft::cluster::ReplicatedService cluster(sim, params, compute, /*seed=*/5);
  cluster.start();
  int cluster_round = 0;
  while (cluster_round < kMaxRounds && cluster.counters().suspects == 0) {
    ++cluster_round;
    bool done = false;
    cluster.invoke(cluster_round,
                   [&done](aft::cluster::InvokeOutcome, const RoundReport& r) {
                     EXPECT_TRUE(r.success);
                     done = true;
                   });
    sim.run_until(sim.now() + 50);
    ASSERT_TRUE(done);
  }

  EXPECT_EQ(facade.units_replaced(), 1u);
  EXPECT_TRUE(cluster.suspect(2));
  EXPECT_EQ(cluster.counters().suspects, 1u);
  EXPECT_EQ(facade_round, cluster_round);
  EXPECT_LT(facade_round, kMaxRounds);
}

}  // namespace
