#include "detect/heartbeat.hpp"

#include <stdexcept>

#include "obs/obs.hpp"

namespace aft::detect {

HeartbeatMonitor::HeartbeatMonitor(sim::Simulator& sim,
                                   FaultDiscriminator& discriminator)
    : sim_(sim), discriminator_(discriminator) {}

void HeartbeatMonitor::watch(ChannelId channel, sim::SimTime deadline) {
  if (deadline == 0) {
    throw std::invalid_argument("HeartbeatMonitor: deadline must be > 0");
  }
  if (channel >= discriminator_.channel_count()) {
    throw std::invalid_argument("HeartbeatMonitor: channel not issued");
  }
  if (watching(channel)) {
    throw std::invalid_argument("HeartbeatMonitor: channel already watched");
  }
  if (channel >= channels_.size()) channels_.resize(channel + 1);
  // Bump the epoch so a check chain left pending by an earlier
  // watch()/unwatch() of this channel dies instead of running alongside
  // the fresh one (which would double-count every subsequent window).
  const std::uint64_t epoch = channels_[channel].epoch + 1;
  channels_[channel] = Channel{deadline, false, true, epoch, 0};
  AFT_TRACE("detect.heartbeat", "watch",
            {{"channel", discriminator_.label(channel)}, {"deadline", deadline}});
  arm(channel, epoch, deadline);
}

void HeartbeatMonitor::beat(ChannelId channel) {
  if (!watching(channel)) {
    throw std::invalid_argument("HeartbeatMonitor: beat on unwatched channel");
  }
  channels_[channel].beaten = true;
}

void HeartbeatMonitor::unwatch(ChannelId channel) {
  if (channel < channels_.size()) channels_[channel].active = false;
}

bool HeartbeatMonitor::watching(ChannelId channel) const {
  return channel < channels_.size() && channels_[channel].active;
}

std::uint64_t HeartbeatMonitor::consecutive_misses(ChannelId channel) const {
  return channel < channels_.size() ? channels_[channel].consecutive_misses : 0;
}

void HeartbeatMonitor::arm(ChannelId channel, std::uint64_t epoch,
                           sim::SimTime deadline) {
  auto chain = [this, channel, epoch] { check(channel, epoch); };
  static_assert(sim::Simulator::fits_inline<decltype(chain)>,
                "heartbeat check chain must schedule allocation-free");
  sim_.schedule_in(deadline, std::move(chain));
}

void HeartbeatMonitor::check(ChannelId channel, std::uint64_t epoch) {
  Channel& ch = channels_[channel];
  if (!ch.active || epoch != ch.epoch) return;  // unwatched or superseded
  const bool missed = !ch.beaten;
  ch.beaten = false;
  ch.consecutive_misses = missed ? ch.consecutive_misses + 1 : 0;
  if (missed) {
    ++total_misses_;
    AFT_METRIC_ADD("detect.heartbeat.misses", 1);
    AFT_TRACE("detect.heartbeat", "miss",
              {{"channel", discriminator_.label(channel)},
               {"consecutive", ch.consecutive_misses}});
    if (on_missed_) on_missed_(channel, ch.consecutive_misses);
  }
  // Every window is one alpha-count judgment round for this channel.
  discriminator_.record(channel, missed);
  // Indexed afresh: a handler above may have grown channels_, moving `ch`.
  arm(channel, epoch, channels_[channel].deadline);
}

}  // namespace aft::detect
