// The restoring organ of Sect. 3.3, written once: a Voting Farm whose arity
// the Reflective Switchboards revise from dtof, plus — when the caller asks
// for it — the Sect. 3.2 alpha-count discrimination of each unit's ballot
// stream ("a unit whose ballots keep dissenting is faulty").
//
// One round is
//
//   vote  ->  caller step  ->  score  ->  switchboard.observe
//
// The farm runs its Task once per slot and votes; the caller's step sees the
// report first (trace records, estimators, counters), so whatever cause the
// step installs is the cause of the verdicts and of the resize that follow;
// then each unit's ballot is scored; last, the switchboard revises the arity.
//
// The Task is the transport seam.  In-process callers (the Fig. 6/7
// experiment, the replication facade) pass their computation; the cluster
// passes a reader of the ballots its RPC fan-out collected.  The organ never
// knows which.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "autonomic/switchboard.hpp"
#include "detect/discriminator.hpp"
#include "vote/voting_farm.hpp"

namespace aft::autonomic {

class RestoringOrgan {
 public:
  /// Whether the organ judges each unit's ballot stream.
  enum class Discrimination : std::uint8_t { kOff, kOn };

  /// Observer of suspect-latch transitions: (unit, now_suspect).
  using SuspectHook = std::function<void(std::size_t unit, bool suspect)>;

  RestoringOrgan(std::size_t replicas, vote::VotingFarm::Task task,
                 ReflectiveSwitchboard::Policy policy, std::uint64_t shared_key,
                 Discrimination discrimination = Discrimination::kOff);

  // The switchboard holds a reference to the farm and the discriminator's
  // handler captures `this`: the organ stays where it was built.
  RestoringOrgan(const RestoringOrgan&) = delete;
  RestoringOrgan& operator=(const RestoringOrgan&) = delete;

  /// One round without ballot scoring.
  template <typename Step>
  vote::RoundReport round(vote::Ballot input, Step&& step) {
    const vote::RoundReport report = farm_.invoke(input);
    step(report);
    board_.observe(report);
    return report;
  }

  /// One round that scores the ballot of slot s against unit `units[s]`
  /// (slots past units.size() are not scored).  Scoring needs
  /// Discrimination::kOn; otherwise this is the unscored round.
  template <typename Step>
  vote::RoundReport round(vote::Ballot input, std::span<const std::size_t> units,
                          Step&& step) {
    const vote::RoundReport report = farm_.invoke(input);
    step(report);
    score(report, units);
    board_.observe(report);
    return report;
  }

  /// Unit `unit` is latched faulty: its ballots kept dissenting from
  /// successful majorities until the alpha-count crossed its threshold.
  [[nodiscard]] bool suspect(std::size_t unit) const noexcept {
    return unit < suspect_.size() && suspect_[unit] != 0;
  }
  [[nodiscard]] detect::FaultJudgment judgment(std::size_t unit) const;

  /// Unit replacement: forgets `unit`'s evidence and clears its latch.
  void repair(std::size_t unit);

  /// Leading slots whose units are scored: the highest scored slot count,
  /// cut back to the arity whenever the farm shrinks.
  [[nodiscard]] std::size_t units_seen() const noexcept { return units_seen_; }

  void set_suspect_hook(SuspectHook hook) { hook_ = std::move(hook); }

  [[nodiscard]] vote::VotingFarm& farm() noexcept { return farm_; }
  [[nodiscard]] const vote::VotingFarm& farm() const noexcept { return farm_; }
  [[nodiscard]] ReflectiveSwitchboard& switchboard() noexcept { return board_; }
  [[nodiscard]] const ReflectiveSwitchboard& switchboard() const noexcept {
    return board_;
  }

 private:
  void score(const vote::RoundReport& report, std::span<const std::size_t> units);
  void record(std::size_t unit, bool dissented);
  void on_verdict(std::size_t unit, detect::FaultJudgment verdict);

  vote::VotingFarm farm_;
  ReflectiveSwitchboard board_;
  /// Unit u is channel u, labelled "replica-<u>"; registered on its first
  /// scored ballot (with every lower unit).
  std::optional<detect::FaultDiscriminator> disc_;
  std::vector<std::uint8_t> suspect_;  ///< unit -> latched faulty
  std::size_t units_seen_ = 0;
  SuspectHook hook_;
};

}  // namespace aft::autonomic
