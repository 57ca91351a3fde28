#include "detect/discriminator.hpp"

#include <utility>

#include "obs/obs.hpp"

namespace aft::detect {

FaultDiscriminator::FaultDiscriminator(AlphaCount::Params params)
    : params_(params) {}

ChannelId FaultDiscriminator::add(std::string label) {
  channels_.push_back(Channel{AlphaCount(params_)});
  channels_.back().filter.set_label(std::move(label));
  return channels_.size() - 1;
}

void FaultDiscriminator::publish_if_changed(ChannelId channel) {
  Channel& ch = channels_[channel];
  const FaultJudgment verdict = ch.filter.judgment();
  if (verdict == ch.last) return;
  ch.last = verdict;
  AFT_METRIC_ADD("detect.discriminator.verdict_changes", 1);
  AFT_TRACE("detect.discriminator", "verdict",
            {{"channel", ch.filter.label()},
             {"judgment", to_string(verdict)},
             {"score", ch.filter.score()}});
  // Index loop, not range-for: a handler may call on_verdict_change() or
  // add() re-entrantly (e.g. a switchboard arming a follow-up observer), and
  // the push_back would invalidate a range-for's iterators — and `ch` — on
  // reallocation.  Handlers appended mid-notification are not invoked for
  // this change.
  const std::size_t n = handlers_.size();
  for (std::size_t i = 0; i < n; ++i) handlers_[i](channel, verdict);
}

void FaultDiscriminator::record(ChannelId channel, bool error) {
  if (channel >= channels_.size()) return;
  channels_[channel].filter.record(error);
  publish_if_changed(channel);
}

void FaultDiscriminator::reset_channel(ChannelId channel) {
  if (channel >= channels_.size()) return;
  channels_[channel].filter.reset();
  // A reset is a unit replacement: if it moves the verdict (typically
  // kPermanentOrIntermittent -> kNoEvidence), subscribers must hear about
  // it exactly like any record()-driven transition — a switchboard that
  // suspended the channel has to re-arm.  Silently updating the stored
  // verdict here made replacements invisible to every subscriber.
  publish_if_changed(channel);
}

FaultJudgment FaultDiscriminator::judgment(ChannelId channel) const {
  return channel < channels_.size() ? channels_[channel].filter.judgment()
                                    : FaultJudgment::kNoEvidence;
}

double FaultDiscriminator::score(ChannelId channel) const {
  return channel < channels_.size() ? channels_[channel].filter.score() : 0.0;
}

std::string_view FaultDiscriminator::label(ChannelId channel) const {
  return channel < channels_.size() ? channels_[channel].filter.label()
                                    : std::string_view{};
}

void FaultDiscriminator::on_verdict_change(VerdictHandler handler) {
  handlers_.push_back(std::move(handler));
}

}  // namespace aft::detect
