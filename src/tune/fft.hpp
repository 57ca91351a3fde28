// Performance-directed postponed binding — the paper's own comparison case:
//
//   "there exist strategies that postpone the choice of the design pattern
//    to execution time, though ... only with the design goal of achieving
//    performance improvements.  A noteworthy example is FFTW, a code
//    generator for Fast Fourier Transforms that defines and assembles
//    blocks of C code that optimally solve FFT sub-problems on a given
//    machine.  Our strategy is clearly different in that it focuses on
//    dependability." (Sect. 3.2)
//
// This module is that comparison made executable: a working FFT with three
// interchangeable algorithms and an FFTW-style planner that *measures* each
// candidate on the deployment machine and binds the fastest — the same
// postponed-binding machinery as mem::MethodSelector, with a performance
// cost function where the selector uses a dependability-adequacy one.
#pragma once

#include <complex>
#include <cstdint>
#include <vector>

namespace aft::tune {

using Complex = std::complex<double>;
using Signal = std::vector<Complex>;

/// Reference O(n^2) DFT — the always-correct baseline every candidate is
/// validated against.
[[nodiscard]] Signal naive_dft(const Signal& input);

/// Recursive radix-2 Cooley-Tukey; `input.size()` must be a power of two.
[[nodiscard]] Signal fft_recursive(const Signal& input);

/// Iterative radix-2 (bit-reversal permutation + butterflies); power of two.
[[nodiscard]] Signal fft_iterative(const Signal& input);

enum class PlanKind : std::uint8_t { kNaive, kRecursive, kIterative };

[[nodiscard]] const char* to_string(PlanKind k) noexcept;

struct Plan {
  PlanKind kind = PlanKind::kNaive;
  double measured_ns_per_point = 0.0;  ///< from the planning measurement
};

/// FFTW-style planner: times every applicable candidate for size `n` on
/// this machine (fastest of three runs each) and binds the fastest.
/// Non-power-of-two sizes always plan kNaive — the only general candidate.
/// n must be >= 1.
[[nodiscard]] Plan plan_for(std::size_t n);

/// Executes the plan; the plan must have been produced for input.size().
[[nodiscard]] Signal execute(const Plan& plan, const Signal& input);

/// True when n is a power of two (and nonzero).
[[nodiscard]] constexpr bool is_pow2(std::size_t n) noexcept {
  return n != 0 && (n & (n - 1)) == 0;
}

}  // namespace aft::tune
