#include "vote/voter.hpp"

#include <algorithm>

namespace aft::vote {
namespace {

/// Longest run in a sorted range: {value, count}.
struct Mode {
  Ballot value = 0;
  std::size_t count = 0;
};

Mode mode_of_sorted(std::span<const Ballot> sorted) {
  Mode best;
  std::size_t i = 0;
  while (i < sorted.size()) {
    std::size_t j = i;
    while (j < sorted.size() && sorted[j] == sorted[i]) ++j;
    const std::size_t run = j - i;
    if (run > best.count) {
      best.count = run;
      best.value = sorted[i];
    }
    i = j;
  }
  return best;
}

VoteOutcome outcome_from_mode(const Mode& mode, std::size_t n) {
  VoteOutcome out;
  out.n = n;
  if (n == 0) return out;
  out.winner = mode.value;
  out.agreeing = mode.count;
  out.dissent = n - mode.count;
  out.has_majority = mode.count * 2 > n;
  return out;
}

}  // namespace

VoteOutcome majority_vote_inplace(std::vector<Ballot>& ballots) {
  std::sort(ballots.begin(), ballots.end());
  return outcome_from_mode(mode_of_sorted(ballots), ballots.size());
}

VoteOutcome majority_vote(std::span<const Ballot> ballots) {
  std::vector<Ballot> sorted(ballots.begin(), ballots.end());
  return majority_vote_inplace(sorted);
}

}  // namespace aft::vote
