#include "autonomic/organ.hpp"

#include <algorithm>
#include <string>

namespace aft::autonomic {

RestoringOrgan::RestoringOrgan(std::size_t replicas, vote::VotingFarm::Task task,
                               ReflectiveSwitchboard::Policy policy,
                               std::uint64_t shared_key,
                               Discrimination discrimination)
    : farm_(replicas, std::move(task)), board_(farm_, policy, shared_key) {
  if (discrimination == Discrimination::kOn) {
    // The Fig. 4 alpha-count constants: no caller has a reason to tune them.
    disc_.emplace();
    disc_->on_verdict_change(
        [this](detect::ChannelId unit, detect::FaultJudgment verdict) {
          on_verdict(unit, verdict);
        });
  }
}

void RestoringOrgan::score(const vote::RoundReport& report,
                           std::span<const std::size_t> units) {
  if (!disc_) return;
  // Track shrinks first, even on no-majority rounds: a unit mapped to a slot
  // the farm no longer has has left service, so its evidence restarts —
  // a later re-grow must not hand a departed unit's history to the slot.
  const std::size_t arity = farm_.replicas();
  if (arity < units_seen_) {
    const std::size_t mapped = std::min(units_seen_, units.size());
    for (std::size_t slot = arity; slot < mapped; ++slot) repair(units[slot]);
    units_seen_ = arity;
  }
  if (!report.success) return;  // no ground truth to score against
  const std::vector<vote::Ballot>& ballots = farm_.last_ballots();
  const std::size_t scored = std::min(ballots.size(), units.size());
  units_seen_ = std::max(units_seen_, scored);
  for (std::size_t slot = 0; slot < scored; ++slot) {
    record(units[slot], ballots[slot] != report.value);
  }
}

void RestoringOrgan::record(std::size_t unit, bool dissented) {
  while (suspect_.size() <= unit) {
    disc_->add(std::string("replica-").append(std::to_string(suspect_.size())));
    suspect_.push_back(0);
  }
  disc_->record(unit, dissented);
}

void RestoringOrgan::on_verdict(std::size_t unit, detect::FaultJudgment verdict) {
  const bool now_suspect =
      verdict == detect::FaultJudgment::kPermanentOrIntermittent;
  std::uint8_t& latch = suspect_[unit];
  if (now_suspect == (latch != 0)) return;
  latch = now_suspect ? 1 : 0;
  if (hook_) hook_(unit, now_suspect);
}

detect::FaultJudgment RestoringOrgan::judgment(std::size_t unit) const {
  return disc_ ? disc_->judgment(unit) : detect::FaultJudgment::kNoEvidence;
}

void RestoringOrgan::repair(std::size_t unit) {
  // A unit never scored has no channel, hence no evidence to forget.
  if (disc_) disc_->reset_channel(unit);
}

}  // namespace aft::autonomic
