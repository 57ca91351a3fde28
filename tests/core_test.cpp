// Tests for the assumption framework: typed assumptions, the registry,
// postponed-binding variables, Boulding classification, syndromes and
// guards.
#include <gtest/gtest.h>

#include "core/assumption.hpp"
#include "core/boulding.hpp"
#include "core/context.hpp"
#include "core/guard.hpp"
#include "core/registry.hpp"
#include "core/syndrome.hpp"
#include "core/variable.hpp"

namespace {

using namespace aft::core;

// --- Context -----------------------------------------------------------------

TEST(ContextTest, TypedGetAndRevision) {
  Context ctx;
  EXPECT_EQ(ctx.revision(), 0u);
  ctx.set("hv", std::int64_t{32700});
  ctx.set("env", std::string{"ariane-4"});
  ctx.set("nominal", true);
  EXPECT_EQ(ctx.revision(), 3u);
  EXPECT_EQ(ctx.get<std::int64_t>("hv"), 32700);
  EXPECT_EQ(ctx.get<std::string>("env"), "ariane-4");
  EXPECT_EQ(ctx.get<bool>("nominal"), true);
  EXPECT_FALSE(ctx.get<double>("hv").has_value());  // wrong type
  EXPECT_FALSE(ctx.get<bool>("missing").has_value());
  ctx.erase("nominal");
  EXPECT_EQ(ctx.revision(), 4u);
  ctx.erase("missing");  // no-op, no revision bump
  EXPECT_EQ(ctx.revision(), 4u);
}

// --- Assumption ----------------------------------------------------------------

Provenance test_provenance() {
  return Provenance{.origin = "unit-test", .rationale = "because",
                    .stated_at = BindingTime::kDesign};
}

TEST(AssumptionTest, HoldsViolatedUnverifiedLifecycle) {
  Context ctx;
  // Key-probe constructor: probes context key "velocity", compares with ==.
  Assumption<std::int64_t> a("range", "velocity fits in int16",
                             Subject::kPhysicalEnvironment, test_provenance(),
                             32767, "velocity");
  EXPECT_EQ(a.state(), AssumptionState::kUnverified);
  EXPECT_FALSE(a.verify(ctx).has_value());  // unobservable
  EXPECT_EQ(a.state(), AssumptionState::kUnverified);

  ctx.set("velocity", std::int64_t{32767});
  EXPECT_FALSE(a.verify(ctx).has_value());
  EXPECT_EQ(a.state(), AssumptionState::kHolds);

  ctx.set("velocity", std::int64_t{40000});
  const auto clash = a.verify(ctx);
  ASSERT_TRUE(clash.has_value());
  EXPECT_EQ(clash->assumption_id, "range");
  EXPECT_EQ(clash->observed, "40000");
  EXPECT_EQ(a.state(), AssumptionState::kViolated);
  EXPECT_EQ(a.verifications(), 3u);
}

TEST(AssumptionTest, PredicateForm) {
  // The Ariane f assumption: observed |velocity| must fit a short integer.
  Context ctx;
  Assumption<std::int64_t> f(
      "ariane.hv", "Horizontal velocity can be represented by a short integer",
      Subject::kPhysicalEnvironment, test_provenance(), 32767,
      [](const Context& c) { return c.get<std::int64_t>("hv"); },
      [](const std::int64_t& limit, const std::int64_t& observed) {
        return observed <= limit && observed >= -32768;
      });
  ctx.set("hv", std::int64_t{15000});
  EXPECT_FALSE(f.verify(ctx).has_value());
  ctx.set("hv", std::int64_t{39000});
  EXPECT_TRUE(f.verify(ctx).has_value());
}

TEST(AssumptionTest, RebindRevisesHypothesis) {
  Context ctx;
  ctx.set("replicas", std::int64_t{5});
  Assumption<std::int64_t> a("dim", "degree of redundancy is r",
                             Subject::kExecutionEnvironment, test_provenance(),
                             3, "replicas");
  EXPECT_TRUE(a.verify(ctx).has_value());  // 3 != 5
  a.rebind(5);
  EXPECT_FALSE(a.verify(ctx).has_value());
  EXPECT_EQ(a.assumed(), 5);
}

// --- Registry -----------------------------------------------------------------

TEST(RegistryTest, DuplicateIdRejected) {
  AssumptionRegistry reg;
  reg.emplace<bool>("x", "s", Subject::kHardware, test_provenance(), true, "k");
  EXPECT_THROW(
      reg.emplace<bool>("x", "s2", Subject::kHardware, test_provenance(), true, "k"),
      std::invalid_argument);
}

TEST(RegistryTest, VerifyAllFiresHandlersAndCounts) {
  AssumptionRegistry reg;
  Context ctx;
  ctx.set("a", std::int64_t{1});
  ctx.set("b", std::int64_t{2});
  reg.emplace<std::int64_t>("good", "a is 1", Subject::kHardware,
                            test_provenance(), 1, "a");
  reg.emplace<std::int64_t>("bad", "b is 99", Subject::kPhysicalEnvironment,
                            test_provenance(), 99, "b");
  int handler_calls = 0;
  reg.on_clash([&](const Clash& c, const Diagnosis& d) {
    ++handler_calls;
    EXPECT_EQ(c.assumption_id, "bad");
    EXPECT_EQ(d.syndrome, Syndrome::kHorning);
  });
  const auto clashes = reg.verify_all(ctx);
  ASSERT_EQ(clashes.size(), 1u);
  EXPECT_EQ(handler_calls, 1);
  EXPECT_EQ(reg.total_clashes(), 1u);
  EXPECT_EQ(reg.find("good")->state(), AssumptionState::kHolds);
  EXPECT_EQ(reg.find("bad")->state(), AssumptionState::kViolated);
}

// Regression: the clash-notification loop was a range-for over the handler
// vector, so a handler registering a follow-up handler re-entrantly (a
// treatment arming an observer) could reallocate the vector and invalidate
// the iteration.  The index loop delivers the current clash to the handlers
// registered when it fired; handlers added mid-notification see only
// subsequent clashes.
TEST(RegistryTest, ClashHandlerMayRegisterAnotherHandlerReentrantly) {
  AssumptionRegistry reg;
  Context ctx;
  ctx.set("k", std::int64_t{0});
  reg.emplace<std::int64_t>("a", "k is 1", Subject::kHardware,
                            test_provenance(), 1, "k");
  reg.emplace<std::int64_t>("b", "k is 2", Subject::kHardware,
                            test_provenance(), 2, "k");
  int outer_calls = 0;
  int second_calls = 0;
  int inner_calls = 0;
  bool armed = false;
  reg.on_clash([&](const Clash&, const Diagnosis&) {
    ++outer_calls;
    if (!armed) {
      armed = true;
      // Several registrations force the handler vector to reallocate while
      // the notification loop is mid-flight.
      for (int i = 0; i < 4; ++i) {
        reg.on_clash([&](const Clash&, const Diagnosis&) { ++inner_calls; });
      }
    }
  });
  reg.on_clash([&](const Clash&, const Diagnosis&) { ++second_calls; });
  const auto clashes = reg.verify_all(ctx);
  EXPECT_EQ(clashes.size(), 2u);
  EXPECT_EQ(outer_calls, 2);
  // The handler registered before verify_all hears both clashes, even
  // though the vector reallocated while clash "a" was being delivered.
  EXPECT_EQ(second_calls, 2);
  // The re-entrant handlers were registered during clash "a" and therefore
  // hear only clash "b".
  EXPECT_EQ(inner_calls, 4);
}

TEST(RegistryTest, AuditFlagsMissingProvenance) {
  AssumptionRegistry reg;
  reg.emplace<bool>("documented", "s", Subject::kHardware, test_provenance(),
                    true, "k");
  reg.emplace<bool>("hidden", "s", Subject::kHardware, Provenance{}, true, "k");
  const auto flagged = reg.audit();
  ASSERT_EQ(flagged.size(), 1u);
  EXPECT_EQ(flagged[0], "hidden");
}

TEST(RegistryTest, ReportListsEverything) {
  AssumptionRegistry reg;
  reg.emplace<bool>("a1", "statement-one", Subject::kThirdPartySoftware,
                    test_provenance(), true, "k");
  reg.emplace<bool>("a2", "statement-two", Subject::kHardware, Provenance{}, true,
                    "k");
  const std::string report = reg.report();
  EXPECT_NE(report.find("a1"), std::string::npos);
  EXPECT_NE(report.find("statement-two"), std::string::npos);
  EXPECT_NE(report.find("third-party-software"), std::string::npos);
  EXPECT_NE(report.find("MISSING"), std::string::npos);
}

// --- AssumptionVariable -----------------------------------------------------------

TEST(VariableTest, BindAndUse) {
  AssumptionVariable<std::string> v("memory-method", BindingTime::kDesign);
  v.add_alternative({"f1", "M1-ecc-scrub", 1.0});
  v.add_alternative({"f3", "M3-sel-mirror", 2.25});
  EXPECT_FALSE(v.bound());
  EXPECT_THROW((void)v.value(), std::logic_error);  // hidden assumption!
  v.bind("f3", BindingTime::kCompile, "KB said SEL-prone lot");
  EXPECT_TRUE(v.bound());
  EXPECT_EQ(v.value(), "M3-sel-mirror");
  EXPECT_EQ(v.bound_tag(), "f3");
  EXPECT_DOUBLE_EQ(v.bound_cost(), 2.25);
  EXPECT_EQ(v.history().size(), 1u);
  EXPECT_EQ(v.rebind_count(), 0u);
}

TEST(VariableTest, RebindingAtRunTimeIsRecorded) {
  AssumptionVariable<int> v("pattern", BindingTime::kDesign);
  v.add_alternative({"redoing", 1, 0.1});
  v.add_alternative({"reconfiguration", 2, 0.5});
  v.bind("redoing", BindingTime::kDeploy, "default");
  v.bind("reconfiguration", BindingTime::kRun, "alpha-count verdict");
  EXPECT_EQ(v.value(), 2);
  EXPECT_EQ(v.rebind_count(), 1u);
  EXPECT_EQ(v.history()[1].reason, "alpha-count verdict");
}

TEST(VariableTest, CannotBindBeforeDeclarationStage) {
  AssumptionVariable<int> v("x", BindingTime::kDeploy);
  v.add_alternative({"a", 1, 0});
  EXPECT_THROW(v.bind("a", BindingTime::kCompile, "too early"), std::logic_error);
  v.bind("a", BindingTime::kRun, "ok");
  EXPECT_EQ(v.value(), 1);
}

TEST(VariableTest, UnknownAlternativeAndFrozenSet) {
  AssumptionVariable<int> v("x", BindingTime::kDesign);
  v.add_alternative({"a", 1, 0});
  EXPECT_THROW(v.bind("zzz", BindingTime::kRun, ""), std::invalid_argument);
  v.bind("a", BindingTime::kRun, "");
  EXPECT_THROW(v.add_alternative({"b", 2, 0}), std::logic_error);
}

// --- Boulding -----------------------------------------------------------------

TEST(BouldingTest, ClassificationLadder) {
  EXPECT_EQ(classify(SystemTraits{}), BouldingCategory::kFramework);
  EXPECT_EQ(classify(SystemTraits{.reacts_to_inputs = true}),
            BouldingCategory::kClockwork);
  EXPECT_EQ(classify(SystemTraits{.reacts_to_inputs = true,
                                  .feedback_control = true}),
            BouldingCategory::kThermostat);
  EXPECT_EQ(classify(SystemTraits{.reacts_to_inputs = true,
                                  .revises_own_structure = true}),
            BouldingCategory::kCell);
  EXPECT_EQ(classify(SystemTraits{.reacts_to_inputs = true,
                                  .revises_own_structure = true,
                                  .revises_own_assumptions = true}),
            BouldingCategory::kPlant);
}

TEST(BouldingTest, EnvironmentDemands) {
  EXPECT_EQ(required_category(EnvironmentDemands{}), BouldingCategory::kClockwork);
  EXPECT_EQ(required_category(EnvironmentDemands{.bounded_fluctuations = true}),
            BouldingCategory::kThermostat);
  EXPECT_EQ(required_category(EnvironmentDemands{.unanticipated_change = true}),
            BouldingCategory::kCell);
}

TEST(BouldingTest, ClashDetection) {
  // The Therac case: a Clockwork deployed where fluctuation handling was
  // required.
  EXPECT_TRUE(boulding_clash(BouldingCategory::kClockwork,
                             BouldingCategory::kThermostat));
  EXPECT_FALSE(boulding_clash(BouldingCategory::kPlant,
                              BouldingCategory::kThermostat));
  EXPECT_FALSE(boulding_clash(BouldingCategory::kCell, BouldingCategory::kCell));
}

TEST(SyndromeTest, DiagnosisText) {
  const Clash clash{.assumption_id = "p",
                    .statement = "all exceptions are caught by the hardware",
                    .observed = "exceptions exist that are not caught",
                    .subject = Subject::kHardware};
  const Diagnosis d = diagnose_clash(clash);
  EXPECT_EQ(d.syndrome, Syndrome::kHorning);
  EXPECT_NE(d.explanation.find("hardware"), std::string::npos);

  const Diagnosis b =
      diagnose_boulding(BouldingCategory::kClockwork, BouldingCategory::kCell);
  EXPECT_EQ(b.syndrome, Syndrome::kBoulding);
  EXPECT_NE(b.explanation.find("sitting duck"), std::string::npos);
}

// --- Guards --------------------------------------------------------------------

TEST(GuardTest, CheckedNarrowInRange) {
  const auto r = checked_narrow<std::int16_t>(std::int64_t{32767});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r.value, 32767);
  const auto neg = checked_narrow<std::int16_t>(std::int64_t{-32768});
  ASSERT_TRUE(neg.ok());
  EXPECT_EQ(*neg.value, -32768);
}

TEST(GuardTest, CheckedNarrowDetectsArianeOverflow) {
  // The Ariane 5 value class: horizontal velocity beyond int16.
  const auto r = checked_narrow<std::int16_t>(std::int64_t{40000});
  EXPECT_FALSE(r.ok());
  EXPECT_FALSE(r.value.has_value());
  EXPECT_NE(r.violation.find("not representable"), std::string::npos);
}

TEST(GuardTest, CheckedNarrowFromDouble) {
  EXPECT_TRUE(checked_narrow<std::int16_t>(1234.0).ok());
  EXPECT_FALSE(checked_narrow<std::int16_t>(1e9).ok());
  EXPECT_FALSE(checked_narrow<std::int16_t>(-1e9).ok());
}

TEST(GuardTest, GuardedRunsFallbackOnViolation) {
  int operation_runs = 0, fallback_runs = 0;
  const auto r = guarded<int>(
      [] { return false; },
      [&] { ++operation_runs; return 1; },
      [&] { ++fallback_runs; return -1; },
      "precondition X failed");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(*r.value, -1);
  EXPECT_EQ(operation_runs, 0);
  EXPECT_EQ(fallback_runs, 1);
  EXPECT_EQ(r.violation, "precondition X failed");
}

TEST(GuardTest, EnvelopeGuardTracksWorstExcursion) {
  EnvelopeGuard g("horizontal-velocity", -32768, 32767);
  EXPECT_TRUE(g.admit(100));
  EXPECT_TRUE(g.admit(32767));
  EXPECT_FALSE(g.admit(40000));
  EXPECT_FALSE(g.admit(50000));
  EXPECT_FALSE(g.admit(-40000));
  EXPECT_EQ(g.violations(), 3u);
  EXPECT_DOUBLE_EQ(g.worst_excursion(), 50000 - 32767);
}

}  // namespace
