// Tests for the disturbance estimator.
#include <gtest/gtest.h>

#include "autonomic/estimator.hpp"
#include "vote/dtof.hpp"

namespace {

aft::vote::RoundReport round_of(std::size_t n, std::size_t dissent, bool ok = true) {
  aft::vote::RoundReport r;
  r.n = n;
  r.dissent = dissent;
  r.success = ok;
  r.distance = ok ? aft::vote::dtof(n, dissent) : 0;
  return r;
}

TEST(EstimatorTest, ParamValidation) {
  EXPECT_THROW(aft::autonomic::DisturbanceEstimator(
                   aft::autonomic::DisturbanceEstimator::Params{.alpha = 0.0}),
               std::invalid_argument);
  EXPECT_THROW(aft::autonomic::DisturbanceEstimator(
                   aft::autonomic::DisturbanceEstimator::Params{.alpha = 1.5}),
               std::invalid_argument);
}

TEST(EstimatorTest, ConsensusDrivesLevelToZero) {
  aft::autonomic::DisturbanceEstimator est(
      aft::autonomic::DisturbanceEstimator::Params{.alpha = 0.5});
  for (int i = 0; i < 50; ++i) est.observe(round_of(7, 0));
  EXPECT_LT(est.level(), 1e-6);
}

TEST(EstimatorTest, FailuresDriveLevelToOne) {
  aft::autonomic::DisturbanceEstimator est(
      aft::autonomic::DisturbanceEstimator::Params{.alpha = 0.5});
  for (int i = 0; i < 50; ++i) est.observe(round_of(7, 4, /*ok=*/false));
  EXPECT_GT(est.level(), 0.999);
}

TEST(EstimatorTest, RisesDuringBurstDecaysAfter) {
  aft::autonomic::DisturbanceEstimator est(
      aft::autonomic::DisturbanceEstimator::Params{.alpha = 0.1});
  for (int i = 0; i < 100; ++i) est.observe(round_of(7, 0));
  const double calm = est.level();
  for (int i = 0; i < 30; ++i) est.observe(round_of(7, 2));
  const double burst = est.level();
  EXPECT_GT(burst, calm + 0.1);
  for (int i = 0; i < 200; ++i) est.observe(round_of(7, 0));
  EXPECT_LT(est.level(), 0.01);
}

// Regression: a *successful* round whose farm is too small for a dtof
// signal (dtof_max(n) == 0) used to fall through to the failed-round score
// of 1.0 — an empty-farm success read as full disturbance and pinned the
// EWMA high.  Carrying no disturbance evidence, it must contribute 0.
TEST(EstimatorTest, SuccessWithNoDtofSignalContributesZero) {
  aft::autonomic::DisturbanceEstimator est(
      aft::autonomic::DisturbanceEstimator::Params{.alpha = 1.0});
  est.observe(round_of(0, 0));  // successful, dtof_max(0) == 0
  EXPECT_DOUBLE_EQ(est.level(), 0.0);
  // A *failed* degenerate round still counts as full disturbance.
  est.observe(round_of(0, 0, /*ok=*/false));
  EXPECT_DOUBLE_EQ(est.level(), 1.0);
}

TEST(EstimatorTest, PublishesIntoContext) {
  aft::core::Context ctx;
  aft::autonomic::DisturbanceEstimator est(
      aft::autonomic::DisturbanceEstimator::Params{.alpha = 1.0,
                                                   .context_key = "env.dist"},
      &ctx);
  est.observe(round_of(7, 2));  // instantaneous: 1 - 2/4 = 0.5
  const auto published = ctx.get<double>("env.dist");
  ASSERT_TRUE(published.has_value());
  EXPECT_DOUBLE_EQ(*published, 0.5);
  EXPECT_EQ(est.rounds(), 1u);
}

TEST(EstimatorTest, ResetClears) {
  aft::autonomic::DisturbanceEstimator est;
  est.observe(round_of(3, 1));
  EXPECT_GT(est.level(), 0.0);
  est.reset();
  EXPECT_DOUBLE_EQ(est.level(), 0.0);
  EXPECT_EQ(est.rounds(), 0u);
}

}  // namespace
