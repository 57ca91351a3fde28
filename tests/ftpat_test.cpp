// Tests for the fault-tolerance design patterns of Sect. 3.2 and the
// alpha-count-driven PatternSwitcher (the D1 -> D2 transition of Fig. 3).
#include <gtest/gtest.h>

#include <memory>

#include "arch/middleware.hpp"
#include "ftpat/pattern_switcher.hpp"
#include "ftpat/reconfiguration.hpp"
#include "ftpat/redoing.hpp"

namespace {

using namespace aft::ftpat;
using aft::arch::Component;
using aft::arch::DagSnapshot;
using aft::arch::Middleware;
using aft::arch::ScriptedComponent;

std::shared_ptr<ScriptedComponent> scripted(const std::string& id) {
  return std::make_shared<ScriptedComponent>(id,
                                             [](std::int64_t v) { return v + 1; });
}

// --- Redoing -------------------------------------------------------------------

TEST(RedoingTest, NullInnerRejected) {
  EXPECT_THROW(RedoingComponent("r", nullptr), std::invalid_argument);
}

TEST(RedoingTest, MasksTransientFaults) {
  auto inner = scripted("c3");
  RedoingComponent redo("c3-redo", inner, 5);
  inner->fail_next(3);
  const auto r = redo.process(10);
  EXPECT_TRUE(r.ok);
  EXPECT_EQ(r.value, 11);
  EXPECT_EQ(redo.retries(), 3u);
  EXPECT_EQ(redo.budget_exhaustions(), 0u);
}

TEST(RedoingTest, PermanentFaultExhaustsBudget) {
  // The e1 clash: redoing against a permanent fault livelocks; the budget
  // turns the livelock into a measurable exhaustion.
  auto inner = scripted("c3");
  RedoingComponent redo("c3-redo", inner, 16);
  inner->fail_always();
  const auto r = redo.process(10);
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(redo.retries(), 16u);
  EXPECT_EQ(redo.budget_exhaustions(), 1u);
  EXPECT_EQ(inner->invocations(), 17u);  // 1 + 16 futile retries
}

TEST(RedoingTest, NoFaultNoRetries) {
  auto inner = scripted("c3");
  RedoingComponent redo("r", inner);
  for (int i = 0; i < 10; ++i) EXPECT_TRUE(redo.process(i).ok);
  EXPECT_EQ(redo.retries(), 0u);
}

// --- Reconfiguration ---------------------------------------------------------------

TEST(ReconfigurationTest, EmptyVersionsRejected) {
  EXPECT_THROW(ReconfigurationComponent("r", {}), std::invalid_argument);
}

TEST(ReconfigurationTest, SwitchesToSpareOnPermanentFault) {
  auto primary = scripted("c3.1");
  auto secondary = scripted("c3.2");
  ReconfigurationComponent reconf("c3", {primary, secondary});
  primary->fail_always();
  const auto r = reconf.process(10);
  EXPECT_TRUE(r.ok);
  EXPECT_EQ(r.value, 11);
  EXPECT_EQ(reconf.active_index(), 1u);
  EXPECT_EQ(reconf.switchovers(), 1u);
  EXPECT_EQ(reconf.spares_remaining(), 0u);
  // No fail-back: primary repaired later is NOT re-engaged.
  primary->repair();
  reconf.process(10);
  EXPECT_EQ(reconf.active_index(), 1u);
}

TEST(ReconfigurationTest, TransientFaultWastesASpare) {
  // The e2 clash: reconfiguration under transient faults permanently burns
  // spares that redoing would have saved.
  auto primary = scripted("p");
  auto spare = scripted("s");
  ReconfigurationComponent reconf("r", {primary, spare});
  primary->fail_next(1);  // transient!
  EXPECT_TRUE(reconf.process(0).ok);
  EXPECT_EQ(reconf.switchovers(), 1u);
  EXPECT_EQ(reconf.spares_remaining(), 0u);  // resource gone for a blip
}

TEST(ReconfigurationTest, ExhaustedSparesFail) {
  auto a = scripted("a");
  auto b = scripted("b");
  ReconfigurationComponent reconf("r", {a, b});
  a->fail_always();
  b->fail_always();
  EXPECT_FALSE(reconf.process(0).ok);
  EXPECT_EQ(reconf.spares_remaining(), 0u);
}

// --- PatternSwitcher (Fig. 3 + Fig. 4 combined) ------------------------------------------

struct SwitcherFixture {
  Middleware mw;
  std::shared_ptr<ScriptedComponent> c3_inner = scripted("c3-inner");
  std::shared_ptr<ScriptedComponent> c31 = scripted("c3.1-inner");
  std::shared_ptr<ScriptedComponent> c32 = scripted("c3.2-inner");

  SwitcherFixture() {
    mw.register_component(scripted("c1"));
    mw.register_component(scripted("c2"));
    mw.register_component(scripted("c4"));
    // D1's c3: redoing around the (possibly faulty) inner component.
    mw.register_component(
        std::make_shared<RedoingComponent>("c3", c3_inner, 4));
    // D2's c3: 2-version reconfiguration; the primary shares the fate of
    // the D1 inner unit (same physical component), the secondary is
    // independent.
    mw.register_component(std::make_shared<ReconfigurationComponent>(
        "c3v2", std::vector<std::shared_ptr<Component>>{c31, c32}));
  }

  DagSnapshot d1() const {
    return DagSnapshot{"D1",
                       {"c1", "c2", "c3", "c4"},
                       {{"c1", "c2"}, {"c2", "c3"}, {"c3", "c4"}}};
  }
  DagSnapshot d2() const {
    return DagSnapshot{"D2",
                       {"c1", "c2", "c3v2", "c4"},
                       {{"c1", "c2"}, {"c2", "c3v2"}, {"c3v2", "c4"}}};
  }
};

TEST(PatternSwitcherTest, StartsOnD1) {
  SwitcherFixture f;
  PatternSwitcher sw(f.mw, f.d1(), f.d2(),
                     PatternSwitcher::Config{.monitored_channel = "c3"});
  EXPECT_EQ(sw.active_snapshot(), "D1");
  EXPECT_FALSE(sw.switched());
  EXPECT_TRUE(sw.run(1).ok);
}

TEST(PatternSwitcherTest, TransientFaultsStayOnD1) {
  SwitcherFixture f;
  PatternSwitcher sw(f.mw, f.d1(), f.d2(),
                     PatternSwitcher::Config{.monitored_channel = "c3"});
  for (int i = 0; i < 200; ++i) {
    if (i % 40 == 0) f.c3_inner->fail_next(2);  // sparse transient blips
    EXPECT_TRUE(sw.run(i).ok);  // redoing masks them
  }
  EXPECT_EQ(sw.active_snapshot(), "D1");
  EXPECT_FALSE(sw.switched());
  EXPECT_EQ(sw.judgment(), aft::detect::FaultJudgment::kNoEvidence)
      << "redoing masked the blips, so the oracle never saw an error";
}

TEST(PatternSwitcherTest, PermanentFaultTriggersD2AndRecovers) {
  SwitcherFixture f;
  PatternSwitcher sw(f.mw, f.d1(), f.d2(),
                     PatternSwitcher::Config{.monitored_channel = "c3"});
  // Healthy warm-up.
  for (int i = 0; i < 50; ++i) ASSERT_TRUE(sw.run(i).ok);

  // Permanent fault in the physical unit behind c3 (and behind D2's
  // primary c3.1 — same hardware).
  f.c3_inner->fail_always();
  f.c31->fail_always();

  int failed_runs = 0;
  for (int i = 0; i < 20 && !sw.switched(); ++i) {
    if (!sw.run(i).ok) ++failed_runs;
  }
  EXPECT_TRUE(sw.switched());
  EXPECT_EQ(sw.active_snapshot(), "D2");
  EXPECT_GT(failed_runs, 0);  // the faulty phase was visible
  // On D2 the reconfiguration pattern engages the healthy secondary.
  for (int i = 0; i < 50; ++i) EXPECT_TRUE(sw.run(i).ok);
  EXPECT_GT(sw.alpha_score(), 0.0);
}

TEST(PatternSwitcherTest, ScoreTraceGrowsMonotonicallyUnderPermanentFault) {
  SwitcherFixture f;
  PatternSwitcher sw(f.mw, f.d1(), f.d2(),
                     PatternSwitcher::Config{.monitored_channel = "c3"});
  f.c3_inner->fail_always();
  f.c31->fail_always();
  for (int i = 0; i < 4; ++i) sw.run(i);
  const auto& trace = sw.score_trace();
  ASSERT_EQ(trace.size(), 4u);
  // Errors every round: alpha = 1,2,3,4 exactly (Fig. 4's ramp).
  EXPECT_DOUBLE_EQ(trace[0], 1.0);
  EXPECT_DOUBLE_EQ(trace[1], 2.0);
  EXPECT_DOUBLE_EQ(trace[2], 3.0);
  EXPECT_DOUBLE_EQ(trace[3], 4.0);
  EXPECT_TRUE(sw.switched());
}

TEST(PatternSwitcherTest, UnmonitoredChannelFaultsDoNotSwitch) {
  SwitcherFixture f;
  auto c1 = std::dynamic_pointer_cast<ScriptedComponent>(f.mw.lookup("c1"));
  ASSERT_NE(c1, nullptr);
  PatternSwitcher sw(f.mw, f.d1(), f.d2(),
                     PatternSwitcher::Config{.monitored_channel = "c3"});
  c1->fail_always();
  for (int i = 0; i < 20; ++i) sw.run(i);
  EXPECT_FALSE(sw.switched());  // c1's faults are not c3's
  EXPECT_DOUBLE_EQ(sw.alpha_score(), 0.0);
}

}  // namespace
