// Tests for the deployment gate (qualify_deployment), context merging, and
// the umbrella header.
#include <gtest/gtest.h>

#include "aft.hpp"  // the umbrella: compiling this test validates it

namespace {

using namespace aft;

manifest::Manifest obc_manifest() {
  manifest::Manifest m;
  m.name = "obc-sw";
  m.assumptions.push_back(manifest::AssumptionRecord{
      .id = "hw.memory.semantics",
      .statement = "memory exhibits at worst SDRAM/SEL behaviour (f3)",
      .subject = core::Subject::kHardware,
      .origin = "qualification campaign",
      .rationale = "KB lot entry",
      .stated_at = core::BindingTime::kCompile,
      .expectation = contract::clause_eq("platform.memory.semantics",
                                         std::string("f3"))});
  m.assumptions.push_back(manifest::AssumptionRecord{
      .id = "platform.watchdog",
      .statement = "the platform provides a watchdog timer",
      .subject = core::Subject::kExecutionEnvironment,
      .origin = "safety case",
      .rationale = "hang detection",
      .stated_at = core::BindingTime::kDesign,
      .expectation = contract::clause_eq("platform.watchdog-timer", true)});
  return m;
}

env::PlatformFeatures full_features() {
  return env::PlatformFeatures{.hardware_interlocks = true,
                               .exception_trapping = true,
                               .watchdog_timer = true,
                               .ecc_reporting = true};
}

TEST(DeploymentGateTest, MatchingPlatformIsApproved) {
  hw::Machine obc = hw::machines::satellite_obc(64);
  env::PlatformUnderTest platform("obc", full_features(), full_features());
  const auto report = manifest::qualify_deployment(
      obc_manifest(), obc, mem::MethodSelector{}, &platform);
  EXPECT_TRUE(report.approved());
  EXPECT_EQ(report.memory_behaviour, "f3");
  EXPECT_TRUE(report.hidden.empty());
  EXPECT_EQ(report.context.get<std::string>("platform.memory.method"),
            "M3-sel-mirror");
  EXPECT_EQ(report.context.get<std::int64_t>("platform.memory.banks"), 4);
}

TEST(DeploymentGateTest, WrongPlatformClashesOnMemorySemantics) {
  // The same artifact dropped onto the laptop: its f3 hardware assumption
  // no longer matches the introspected f1 world.
  hw::Machine laptop = hw::machines::laptop(64);
  env::PlatformUnderTest platform("laptop", full_features(), full_features());
  const auto report = manifest::qualify_deployment(
      obc_manifest(), laptop, mem::MethodSelector{}, &platform);
  EXPECT_FALSE(report.approved());
  ASSERT_EQ(report.clashes.size(), 1u);
  EXPECT_EQ(report.clashes[0].assumption_id, "hw.memory.semantics");
}

TEST(DeploymentGateTest, LyingPlatformFailsTheSelfTest) {
  hw::Machine obc = hw::machines::satellite_obc(64);
  env::PlatformFeatures actual = full_features();
  actual.watchdog_timer = false;
  env::PlatformUnderTest platform("obc", full_features(), actual);
  const auto report = manifest::qualify_deployment(
      obc_manifest(), obc, mem::MethodSelector{}, &platform);
  EXPECT_FALSE(report.approved());
  EXPECT_FALSE(report.platform_safe);
  // The watchdog assumption also clashes against the PROBED truth.
  ASSERT_EQ(report.clashes.size(), 1u);
  EXPECT_EQ(report.clashes[0].assumption_id, "platform.watchdog");
}

TEST(DeploymentGateTest, WorksWithoutAPlatformProbe) {
  hw::Machine obc = hw::machines::satellite_obc(64);
  const auto report =
      manifest::qualify_deployment(obc_manifest(), obc, mem::MethodSelector{});
  // The watchdog fact is unobservable -> unverified, not a clash; only the
  // memory record is checked.
  EXPECT_TRUE(report.approved());
  EXPECT_TRUE(report.platform_safe);  // nothing probed, nothing broken
}

// --- Context merge --------------------------------------------------------------------

TEST(ContextMergeTest, OverwritesAndBumpsRevision) {
  core::Context a, b;
  a.set("x", std::int64_t{1});
  a.set("y", std::int64_t{2});
  b.set("y", std::int64_t{20});
  b.set("z", std::int64_t{30});
  const auto rev = a.revision();
  a.merge(b);
  EXPECT_EQ(a.get<std::int64_t>("x"), 1);
  EXPECT_EQ(a.get<std::int64_t>("y"), 20);
  EXPECT_EQ(a.get<std::int64_t>("z"), 30);
  EXPECT_GT(a.revision(), rev);
  // Merging an empty context changes nothing, including the revision.
  const auto rev2 = a.revision();
  a.merge(core::Context{});
  EXPECT_EQ(a.revision(), rev2);
}

}  // namespace
