// Tests for the FFTW-comparison substrate: FFT correctness across all
// candidate algorithms and the measuring planner's binding behaviour.
#include <gtest/gtest.h>

#include <cmath>

#include "tune/fft.hpp"
#include "util/rng.hpp"

namespace {

using namespace aft::tune;

Signal random_signal(std::size_t n, std::uint64_t seed) {
  aft::util::Xoshiro256 rng(seed);
  Signal s(n);
  for (auto& x : s) x = Complex{rng.uniform01() * 2 - 1, rng.uniform01() * 2 - 1};
  return s;
}

double max_abs_diff(const Signal& a, const Signal& b) {
  double worst = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    worst = std::max(worst, std::abs(a[i] - b[i]));
  }
  return worst;
}

TEST(FftTest, KnownSmallTransforms) {
  // DFT of a constant signal is an impulse at bin 0.
  const Signal constant(8, Complex{1, 0});
  const Signal spectrum = naive_dft(constant);
  EXPECT_NEAR(spectrum[0].real(), 8.0, 1e-9);
  for (std::size_t k = 1; k < 8; ++k) {
    EXPECT_NEAR(std::abs(spectrum[k]), 0.0, 1e-9);
  }
  // DFT of an impulse is flat.
  Signal impulse(8, Complex{0, 0});
  impulse[0] = Complex{1, 0};
  for (const Complex& bin : naive_dft(impulse)) {
    EXPECT_NEAR(bin.real(), 1.0, 1e-9);
    EXPECT_NEAR(bin.imag(), 0.0, 1e-9);
  }
}

class FftAgreementTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FftAgreementTest, AllAlgorithmsAgreeWithTheReference) {
  const std::size_t n = GetParam();
  const Signal input = random_signal(n, n);
  const Signal reference = naive_dft(input);
  EXPECT_LT(max_abs_diff(fft_recursive(input), reference), 1e-8 * static_cast<double>(n));
  EXPECT_LT(max_abs_diff(fft_iterative(input), reference), 1e-8 * static_cast<double>(n));
}

INSTANTIATE_TEST_SUITE_P(PowersOfTwo, FftAgreementTest,
                         ::testing::Values(1u, 2u, 4u, 8u, 16u, 64u, 256u, 1024u));

TEST(FftTest, NonPowerOfTwoRejectedByFastPaths) {
  const Signal input = random_signal(12, 1);
  EXPECT_THROW((void)fft_recursive(input), std::invalid_argument);
  EXPECT_THROW((void)fft_iterative(input), std::invalid_argument);
  EXPECT_EQ(naive_dft(input).size(), 12u);  // the general path still works
}

TEST(PlannerTest, NonPowerOfTwoBindsTheOnlyGeneralCandidate) {
  EXPECT_EQ(plan_for(12).kind, PlanKind::kNaive);
  EXPECT_EQ(plan_for(1).kind, PlanKind::kNaive);
  EXPECT_THROW((void)plan_for(0), std::invalid_argument);
}

TEST(PlannerTest, TransformMatchesReferenceWhateverItBinds) {
  // The planner may bind any candidate (timing-dependent); the *result*
  // must be correct regardless — validity is the invariant, speed the
  // objective.  Exactly the selector's shape: adequacy first, cost second.
  for (const std::size_t n : {8u, 32u, 12u, 100u}) {
    const Signal input = random_signal(n, n * 7);
    EXPECT_LT(max_abs_diff(execute(plan_for(n), input), naive_dft(input)),
              1e-8 * static_cast<double>(n));
  }
}

TEST(PlannerTest, LargeSizesPreferAFastPath) {
  // At n = 1024 the O(n log n) candidates beat the O(n^2) baseline by ~two
  // orders of magnitude; timing noise cannot plausibly invert that.
  const Plan plan = plan_for(1024);
  EXPECT_NE(plan.kind, PlanKind::kNaive);
  EXPECT_GT(plan.measured_ns_per_point, 0.0);
}

}  // namespace
