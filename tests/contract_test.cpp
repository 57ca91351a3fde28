// Tests for the contract layer: clause evaluation & implication algebra,
// WS-Policy-style service-contract matching, and Design-by-Contract
// component wrappers.
#include <gtest/gtest.h>

#include <memory>

#include "contract/clause.hpp"
#include "contract/contracted_component.hpp"
#include "contract/service_contract.hpp"

namespace {

using namespace aft::contract;
using aft::core::Context;

// --- Clause evaluation -----------------------------------------------------------

TEST(ClauseTest, NumericComparisons) {
  Context ctx;
  ctx.set("latency", 7.5);
  EXPECT_EQ(clause_le("latency", 10.0).evaluate(ctx), true);
  EXPECT_EQ(clause_le("latency", 5.0).evaluate(ctx), false);
  EXPECT_EQ(clause_ge("latency", 7.5).evaluate(ctx), true);
  EXPECT_EQ(clause_lt("latency", 7.5).evaluate(ctx), false);
  EXPECT_EQ(clause_gt("latency", 7.0).evaluate(ctx), true);
}

TEST(ClauseTest, IntAndDoubleInteroperate) {
  Context ctx;
  ctx.set("replicas", std::int64_t{5});
  EXPECT_EQ(clause_ge("replicas", 3.0).evaluate(ctx), true);
  EXPECT_EQ(clause_eq("replicas", 5.0).evaluate(ctx), true);
  EXPECT_EQ(clause_eq("replicas", std::int64_t{5}).evaluate(ctx), true);
}

TEST(ClauseTest, StringAndBoolEquality) {
  Context ctx;
  ctx.set("region", std::string("eu"));
  ctx.set("encrypted", true);
  EXPECT_EQ(clause_eq("region", std::string("eu")).evaluate(ctx), true);
  EXPECT_EQ(clause_ne("region", std::string("us")).evaluate(ctx), true);
  EXPECT_EQ(clause_eq("encrypted", true).evaluate(ctx), true);
  // Ordered comparison on strings is not supported: unsatisfied, not UB.
  EXPECT_EQ((Clause{"region", Op::kLt, std::string("zz")}.evaluate(ctx)), false);
}

TEST(ClauseTest, MissingKeyIsUnobservableNotFalse) {
  Context ctx;
  EXPECT_FALSE(clause_le("nope", 1.0).evaluate(ctx).has_value());
}

TEST(ClauseTest, ToStringIsReadable) {
  EXPECT_EQ(clause_le("latency.ms", 10.0).to_string(), "latency.ms <= 10.0");
  EXPECT_EQ(clause_eq("region", std::string("eu")).to_string(), "region == eu");
  EXPECT_EQ(clause_eq("on", true).to_string(), "on == true");
}

// --- Clause implication ------------------------------------------------------------

TEST(ClauseImplicationTest, TighterUpperBoundImpliesLooser) {
  EXPECT_TRUE(clause_le("x", 5.0).implies(clause_le("x", 10.0)));
  EXPECT_FALSE(clause_le("x", 10.0).implies(clause_le("x", 5.0)));
  EXPECT_TRUE(clause_le("x", 5.0).implies(clause_le("x", 5.0)));  // reflexive
}

TEST(ClauseImplicationTest, TighterLowerBoundImpliesLooser) {
  EXPECT_TRUE(clause_ge("x", 9.0).implies(clause_ge("x", 3.0)));
  EXPECT_FALSE(clause_ge("x", 3.0).implies(clause_ge("x", 9.0)));
}

TEST(ClauseImplicationTest, StrictVsNonStrict) {
  EXPECT_TRUE(clause_lt("x", 5.0).implies(clause_le("x", 5.0)));
  EXPECT_FALSE(clause_le("x", 5.0).implies(clause_lt("x", 5.0)));
  EXPECT_TRUE(clause_le("x", 4.0).implies(clause_lt("x", 5.0)));
  EXPECT_TRUE(clause_gt("x", 5.0).implies(clause_ge("x", 5.0)));
}

TEST(ClauseImplicationTest, EqualityImpliesWhatItSatisfies) {
  EXPECT_TRUE(clause_eq("x", 4.0).implies(clause_le("x", 5.0)));
  EXPECT_TRUE(clause_eq("x", 4.0).implies(clause_ge("x", 4.0)));
  EXPECT_FALSE(clause_eq("x", 6.0).implies(clause_le("x", 5.0)));
  EXPECT_TRUE(clause_eq("r", std::string("eu")).implies(
      clause_eq("r", std::string("eu"))));
}

TEST(ClauseImplicationTest, BoundsImplyInequality) {
  EXPECT_TRUE(clause_lt("x", 5.0).implies(clause_ne("x", 5.0)));
  EXPECT_TRUE(clause_gt("x", 5.0).implies(clause_ne("x", 5.0)));
  EXPECT_FALSE(clause_le("x", 5.0).implies(clause_ne("x", 5.0)));
}

TEST(ClauseImplicationTest, DifferentKeysNeverImply) {
  EXPECT_FALSE(clause_le("x", 1.0).implies(clause_le("y", 100.0)));
}

TEST(ClauseImplicationTest, OpParsingRoundTrip) {
  for (const Op op : {Op::kEq, Op::kNe, Op::kLt, Op::kLe, Op::kGt, Op::kGe}) {
    EXPECT_EQ(parse_op(to_string(op)), op);
  }
  EXPECT_FALSE(parse_op("~=").has_value());
}

// --- Service-contract matching -------------------------------------------------------

TEST(ServiceContractTest, CompatibleWhenGuaranteesImplyRequirements) {
  ServiceContract supplier{.service = "storage",
                           .guarantees = {clause_le("latency.ms", 5.0),
                                          clause_ge("durability.nines", 11.0),
                                          clause_eq("encrypted", true)},
                           .requirements = {}};
  ServiceContract client{.service = "ledger",
                         .guarantees = {},
                         .requirements = {clause_le("latency.ms", 10.0),
                                          clause_ge("durability.nines", 9.0),
                                          clause_eq("encrypted", true)}};
  const MatchReport report = match(client, supplier);
  EXPECT_TRUE(report.compatible);
  EXPECT_TRUE(report.unmatched.empty());
}

TEST(ServiceContractTest, UnmatchedRequirementRefusesBinding) {
  ServiceContract supplier{.service = "storage",
                           .guarantees = {clause_le("latency.ms", 50.0)},
                           .requirements = {}};
  ServiceContract client{.service = "ledger",
                         .guarantees = {},
                         .requirements = {clause_le("latency.ms", 10.0)}};
  const MatchReport report = match(client, supplier);
  EXPECT_FALSE(report.compatible);
  ASSERT_EQ(report.unmatched.size(), 1u);
  EXPECT_EQ(report.unmatched[0].key, "latency.ms");
  // The log records the refusal for the audit trail.
  bool refused = false;
  for (const auto& line : report.log) {
    if (line.find("INCOMPATIBLE") != std::string::npos) refused = true;
  }
  EXPECT_TRUE(refused);
}

TEST(ServiceContractTest, EmptyRequirementsAlwaysMatch) {
  const MatchReport report =
      match(ServiceContract{.service = "c", .guarantees = {}, .requirements = {}},
            ServiceContract{.service = "s", .guarantees = {}, .requirements = {}});
  EXPECT_TRUE(report.compatible);
}

TEST(ServiceContractTest, RunTimeVerificationFlagsBrokenGuarantees) {
  ServiceContract supplier{
      .service = "storage",
      .guarantees = {clause_le("latency.ms", 5.0), clause_eq("encrypted", true),
                     clause_ge("throughput", 100.0)},
      .requirements = {}};
  Context observed;
  observed.set("latency.ms", 12.0);   // violated
  observed.set("encrypted", true);    // holds
  // throughput not measured -> unobservable
  const VerificationReport report = verify_guarantees(supplier, observed);
  EXPECT_FALSE(report.ok());
  ASSERT_EQ(report.violated.size(), 1u);
  EXPECT_EQ(report.violated[0].key, "latency.ms");
  ASSERT_EQ(report.unobservable.size(), 1u);
  EXPECT_EQ(report.unobservable[0].key, "throughput");
}

// --- ContractedComponent ---------------------------------------------------------------

TEST(ContractedComponentTest, NullInnerRejected) {
  EXPECT_THROW(ContractedComponent("c", nullptr, nullptr, nullptr, nullptr),
               std::invalid_argument);
}

TEST(ContractedComponentTest, CleanPathUntouched) {
  auto inner = std::make_shared<aft::arch::ScriptedComponent>(
      "i", [](std::int64_t v) { return v * 2; });
  ContractedComponent c(
      "c", inner, [](std::int64_t in) { return in >= 0; },
      [](std::int64_t in, std::int64_t out) { return out == in * 2; }, nullptr);
  const auto r = c.process(21);
  EXPECT_TRUE(r.ok);
  EXPECT_EQ(r.value, 42);
  EXPECT_EQ(c.precondition_violations(), 0u);
  EXPECT_EQ(c.postcondition_violations(), 0u);
}

TEST(ContractedComponentTest, PreconditionViolationFailsCall) {
  auto inner = std::make_shared<aft::arch::ScriptedComponent>("i");
  ContractedComponent c("c", inner, [](std::int64_t in) { return in >= 0; },
                        nullptr, nullptr);
  EXPECT_FALSE(c.process(-1).ok);
  EXPECT_EQ(c.precondition_violations(), 1u);
  EXPECT_EQ(inner->invocations(), 0u);  // supplier never ran on a bad input
}

TEST(ContractedComponentTest, PostconditionCatchesSilentCorruption) {
  auto inner = std::make_shared<aft::arch::ScriptedComponent>(
      "i", [](std::int64_t v) { return v + 1; });
  ContractedComponent c("c", inner, nullptr,
                        [](std::int64_t in, std::int64_t out) { return out == in + 1; },
                        nullptr);
  inner->corrupt_next(1, 100);  // ok=true but wrong value
  EXPECT_FALSE(c.process(0).ok);  // the contract catches what status cannot
  EXPECT_EQ(c.postcondition_violations(), 1u);
  EXPECT_TRUE(c.process(0).ok);
}

TEST(ContractedComponentTest, InvariantViolationFailsCall) {
  bool healthy = true;
  auto inner = std::make_shared<aft::arch::ScriptedComponent>("i");
  ContractedComponent c("c", inner, nullptr, nullptr, [&] { return healthy; });
  EXPECT_TRUE(c.process(1).ok);
  healthy = false;
  EXPECT_FALSE(c.process(1).ok);
  EXPECT_EQ(c.invariant_violations(), 1u);
}

TEST(ContractedComponentTest, InnerFailureIsNotAContractViolation) {
  auto inner = std::make_shared<aft::arch::ScriptedComponent>("i");
  ContractedComponent c("c", inner, nullptr,
                        [](std::int64_t, std::int64_t) { return true; }, nullptr);
  inner->fail_next(1);
  EXPECT_FALSE(c.process(1).ok);
  EXPECT_EQ(c.postcondition_violations(), 0u);  // never evaluated on failure
}

}  // namespace
