#include "tune/fft.hpp"

#include <chrono>
#include <cmath>
#include <numbers>
#include <stdexcept>

namespace aft::tune {
namespace {

constexpr double kTau = 2.0 * std::numbers::pi;

void check_pow2(const Signal& input) {
  if (!is_pow2(input.size())) {
    throw std::invalid_argument("fft: size must be a power of two");
  }
}

}  // namespace

Signal naive_dft(const Signal& input) {
  const std::size_t n = input.size();
  Signal out(n);
  for (std::size_t k = 0; k < n; ++k) {
    Complex acc{0, 0};
    for (std::size_t t = 0; t < n; ++t) {
      const double angle = -kTau * static_cast<double>(k) *
                           static_cast<double>(t) / static_cast<double>(n);
      acc += input[t] * Complex{std::cos(angle), std::sin(angle)};
    }
    out[k] = acc;
  }
  return out;
}

Signal fft_recursive(const Signal& input) {
  check_pow2(input);
  const std::size_t n = input.size();
  if (n == 1) return input;
  Signal even(n / 2), odd(n / 2);
  for (std::size_t i = 0; i < n / 2; ++i) {
    even[i] = input[2 * i];
    odd[i] = input[2 * i + 1];
  }
  const Signal fe = fft_recursive(even);
  const Signal fo = fft_recursive(odd);
  Signal out(n);
  for (std::size_t k = 0; k < n / 2; ++k) {
    const double angle = -kTau * static_cast<double>(k) / static_cast<double>(n);
    const Complex twiddle = Complex{std::cos(angle), std::sin(angle)} * fo[k];
    out[k] = fe[k] + twiddle;
    out[k + n / 2] = fe[k] - twiddle;
  }
  return out;
}

Signal fft_iterative(const Signal& input) {
  check_pow2(input);
  const std::size_t n = input.size();
  Signal a = input;
  // Bit-reversal permutation.
  for (std::size_t i = 1, j = 0; i < n; ++i) {
    std::size_t bit = n >> 1;
    for (; (j & bit) != 0; bit >>= 1) j ^= bit;
    j ^= bit;
    if (i < j) std::swap(a[i], a[j]);
  }
  for (std::size_t len = 2; len <= n; len <<= 1) {
    const double angle = -kTau / static_cast<double>(len);
    const Complex wlen{std::cos(angle), std::sin(angle)};
    for (std::size_t i = 0; i < n; i += len) {
      Complex w{1, 0};
      for (std::size_t k = 0; k < len / 2; ++k) {
        const Complex u = a[i + k];
        const Complex v = a[i + k + len / 2] * w;
        a[i + k] = u + v;
        a[i + k + len / 2] = u - v;
        w *= wlen;
      }
    }
  }
  return a;
}

const char* to_string(PlanKind k) noexcept {
  switch (k) {
    case PlanKind::kNaive: return "naive-dft";
    case PlanKind::kRecursive: return "recursive-fft";
    case PlanKind::kIterative: return "iterative-fft";
  }
  return "unknown";
}

Plan plan_for(std::size_t n) {
  if (n == 0) throw std::invalid_argument("plan_for: size must be >= 1");
  constexpr int kTrials = 3;

  // Synthetic planning input (contents are irrelevant to the timing).
  Signal probe(n);
  for (std::size_t i = 0; i < n; ++i) {
    probe[i] = Complex{static_cast<double>(i % 7), static_cast<double>(i % 3)};
  }

  std::vector<PlanKind> candidates{PlanKind::kNaive};
  if (is_pow2(n) && n > 1) {
    candidates.push_back(PlanKind::kRecursive);
    candidates.push_back(PlanKind::kIterative);
  }

  Plan best;
  double best_ns = -1.0;
  for (const PlanKind kind : candidates) {
    double fastest = -1.0;
    for (int trial = 0; trial < kTrials; ++trial) {
      const auto start = std::chrono::steady_clock::now();
      const Signal out = execute(Plan{kind, 0.0}, probe);
      const auto stop = std::chrono::steady_clock::now();
      // Fold one output value in so the work cannot be optimized away.
      volatile double sink = out[0].real();
      (void)sink;
      const double ns = static_cast<double>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(stop - start)
              .count());
      if (fastest < 0 || ns < fastest) fastest = ns;
    }
    if (best_ns < 0 || fastest < best_ns) {
      best_ns = fastest;
      best = Plan{kind, fastest / static_cast<double>(n)};
    }
  }
  return best;
}

Signal execute(const Plan& plan, const Signal& input) {
  switch (plan.kind) {
    case PlanKind::kNaive: return naive_dft(input);
    case PlanKind::kRecursive: return fft_recursive(input);
    case PlanKind::kIterative: return fft_iterative(input);
  }
  return naive_dft(input);
}

}  // namespace aft::tune
