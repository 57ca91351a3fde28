#include "net/membership.hpp"

#include <algorithm>
#include <utility>

#include "obs/obs.hpp"

namespace aft::net {

Membership::Membership(sim::Simulator& sim, Params params)
    : params_(params),
      discriminator_(params.alpha),
      monitor_(sim, discriminator_) {
  discriminator_.on_verdict_change(
      [this](MemberId member, detect::FaultJudgment verdict) {
        verdict_changed(member, verdict);
      });
}

Membership::MemberId Membership::track(std::string label) {
  const MemberId member = discriminator_.add(std::move(label));
  up_.push_back(true);
  monitor_.watch(member, params_.deadline);
  AFT_TRACE("net.membership", "track",
            {{"member", discriminator_.label(member)}});
  return member;
}

void Membership::beat(MemberId member) {
  if (member >= up_.size()) {
    ++unknown_beats_;
    return;
  }
  monitor_.beat(member);
}

void Membership::reinstate(MemberId member) {
  if (member >= up_.size()) return;
  AFT_TRACE("net.membership", "reinstate",
            {{"member", discriminator_.label(member)}});
  // The reset's verdict change (kPermanentOrIntermittent -> kNoEvidence)
  // flows back through verdict_changed and marks the member up.
  discriminator_.reset_channel(member);
}

void Membership::on_change(ChangeHandler handler) {
  handlers_.push_back(std::move(handler));
}

void Membership::set_down_evidence(EvidenceProvider provider) {
  down_evidence_ = std::move(provider);
}

std::size_t Membership::up_count() const noexcept {
  return static_cast<std::size_t>(std::count(up_.begin(), up_.end(), true));
}

void Membership::verdict_changed(MemberId member,
                                 detect::FaultJudgment verdict) {
  const bool now_up = verdict != detect::FaultJudgment::kPermanentOrIntermittent;
  if (up_[member] == now_up) return;
  up_[member] = now_up;
  if (now_up) {
    ++ups_;
    AFT_METRIC_ADD("net.membership.ups", 1);
  } else {
    ++downs_;
    AFT_METRIC_ADD("net.membership.downs", 1);
  }
  // Manual emit rather than AFT_TRACE, for the causality plane: a
  // member-down record's cause is joined to the physical evidence (the
  // heartbeat frame the wire last ate, via the down_evidence_ hook), and
  // the record itself becomes the current cause while change handlers run —
  // so an evict/raise reaction walks back through the verdict to the drop.
#if !defined(AFT_OBS_DISABLED)
  obs::TraceSink* const sink = obs::trace();
  obs::EventId prev_cause = obs::kNoEvent;
  bool cause_installed = false;
  if (sink != nullptr) {
    obs::EventId evidence = obs::kNoEvent;
    if (!now_up && down_evidence_) evidence = down_evidence_(member);
    const obs::EventId ambient = sink->cause();
    if (evidence != obs::kNoEvent) sink->set_cause(evidence);
    const obs::EventId ev = sink->emit(
        "net.membership", now_up ? "member-up" : "member-down",
        {{"member", discriminator_.label(member)}});
    if (evidence != obs::kNoEvent) sink->set_cause(ambient);
    if (ev != obs::kNoEvent) {
      prev_cause = sink->cause();
      sink->set_cause(ev);
      cause_installed = true;
    }
  } else {
    obs::flight_note("net.membership", now_up ? "member-up" : "member-down");
  }
#endif
  // Index loop: a change handler may subscribe further handlers
  // re-entrantly (same hazard the discriminator fix covers).
  for (std::size_t i = 0; i < handlers_.size(); ++i) {
    handlers_[i](member, now_up);
  }
#if !defined(AFT_OBS_DISABLED)
  if (cause_installed) sink->set_cause(prev_cause);
#endif
}

}  // namespace aft::net
