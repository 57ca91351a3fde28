// Voters over replica outputs — the decision element of the "restoring
// organ" (Johnson [26]) behind the Voting Farm [25] of Sect. 3.3.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace aft::vote {

using Ballot = std::int64_t;

/// Outcome of one voting round over n ballots.
struct VoteOutcome {
  bool has_majority = false;     ///< strict majority (> n/2) agreed
  Ballot winner = 0;             ///< meaningful when has_majority
  std::size_t agreeing = 0;      ///< ballots equal to the winner
  std::size_t dissent = 0;       ///< m: ballots differing from the majority
  std::size_t n = 0;
};

/// Exact-agreement majority voter: the winner must hold a strict majority.
[[nodiscard]] VoteOutcome majority_vote(std::span<const Ballot> ballots);

/// Allocation-free variant for hot loops (the 65M-round Fig. 7 experiment):
/// sorts `ballots` in place instead of copying.
[[nodiscard]] VoteOutcome majority_vote_inplace(std::vector<Ballot>& ballots);

}  // namespace aft::vote
