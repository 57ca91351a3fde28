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
  // Bump the epoch so a window left pending by an earlier watch()/unwatch()
  // of this channel is skipped instead of closing alongside the fresh one
  // (which would double-count every subsequent window).
  const std::uint64_t epoch = channels_[channel].epoch + 1;
  channels_[channel] = Channel{deadline, false, true, epoch, 0};
  AFT_TRACE("detect.heartbeat", "watch",
            {{"channel", discriminator_.label(channel)}, {"deadline", deadline}});
  arm(channel, epoch, sim_.now() + deadline);
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
                           sim::SimTime when) {
  std::size_t slot = boundaries_.size();
  for (std::size_t i = 0; i < boundaries_.size(); ++i) {
    Boundary& b = boundaries_[i];
    if (!b.pending) {
      if (slot == boundaries_.size()) slot = i;
    } else if (b.when == when) {
      b.windows.push_back(Window{channel, epoch});
      return;
    }
  }
  if (slot == boundaries_.size()) boundaries_.emplace_back();
  Boundary& b = boundaries_[slot];
  b.when = when;
  b.pending = true;
  b.windows.push_back(Window{channel, epoch});
  auto sweep_boundary = [this, slot] { sweep(slot); };
  static_assert(sim::Simulator::fits_inline<decltype(sweep_boundary)>,
                "heartbeat boundary sweep must schedule allocation-free");
  sim_.schedule_at(when, std::move(sweep_boundary));
}

void HeartbeatMonitor::sweep(std::size_t slot) {
  // Swap the windows out and free the slot first: closing a window arms the
  // channel's next one, which may reuse this slot or grow boundaries_.
  Boundary& b = boundaries_[slot];
  b.pending = false;
  closing_.swap(b.windows);
  for (const Window& window : closing_) close_window(window);
  closing_.clear();
}

void HeartbeatMonitor::close_window(Window window) {
  Channel& ch = channels_[window.channel];
  // Unwatched or superseded by a re-watch.
  if (!ch.active || window.epoch != ch.epoch) return;
  const bool missed = !ch.beaten;
  ch.beaten = false;
  ch.consecutive_misses = missed ? ch.consecutive_misses + 1 : 0;
  if (missed) {
    ++total_misses_;
    AFT_METRIC_ADD("detect.heartbeat.misses", 1);
    AFT_TRACE("detect.heartbeat", "miss",
              {{"channel", discriminator_.label(window.channel)},
               {"consecutive", ch.consecutive_misses}});
    if (on_missed_) on_missed_(window.channel, ch.consecutive_misses);
  }
  // Every window is one alpha-count judgment round for this channel.
  discriminator_.record(window.channel, missed);
  // Indexed afresh: a handler above may have grown channels_, moving `ch`.
  arm(window.channel, window.epoch,
      sim_.now() + channels_[window.channel].deadline);
}

}  // namespace aft::detect
