// Multi-channel heartbeat monitoring: N components emit periodic liveness
// beats; the monitor checks per-channel deadlines on the simulation kernel
// and feeds misses into a FaultDiscriminator, so each channel's fault class
// (transient glitch vs wedged) is judged independently by the alpha-count
// oracle — the many-component generalization of the Fig. 4 watchdog.
// The monitor watches channel ids its discriminator issued.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "detect/discriminator.hpp"
#include "sim/simulator.hpp"

namespace aft::detect {

class HeartbeatMonitor {
 public:
  /// `on_missed(channel, consecutive_misses)` fires on every missed window.
  using MissHandler = std::function<void(ChannelId, std::uint64_t)>;

  HeartbeatMonitor(sim::Simulator& sim, FaultDiscriminator& discriminator);

  /// Starts `channel`'s window checks with its own deadline.  The id must
  /// have been issued by the discriminator; duplicate registration throws.
  /// Re-watching a previously unwatched channel starts a single fresh
  /// check chain: any check left pending by the earlier registration is
  /// invalidated (epoch guard), so an unwatch()/watch() cycle cannot
  /// double-count windows.
  void watch(ChannelId channel, sim::SimTime deadline);

  /// Liveness beat from a component.  Unwatched channels throw.
  void beat(ChannelId channel);

  /// Stops checking a channel (e.g. after decommissioning the component).
  void unwatch(ChannelId channel);

  void set_miss_handler(MissHandler handler) { on_missed_ = std::move(handler); }

  [[nodiscard]] bool watching(ChannelId channel) const;
  /// Channel slots held: one past the highest id ever watched.
  [[nodiscard]] std::size_t channel_count() const noexcept { return channels_.size(); }
  [[nodiscard]] std::uint64_t total_misses() const noexcept { return total_misses_; }
  [[nodiscard]] std::uint64_t consecutive_misses(ChannelId channel) const;

 private:
  struct Channel {
    sim::SimTime deadline = 0;
    bool beaten = false;
    bool active = false;
    std::uint64_t epoch = 0;  ///< bumped per watch(); stale chains self-cancel
    std::uint64_t consecutive_misses = 0;
  };

  /// Schedules `channel`'s next window check `deadline` ticks out.
  void arm(ChannelId channel, std::uint64_t epoch, sim::SimTime deadline);
  void check(ChannelId channel, std::uint64_t epoch);

  sim::Simulator& sim_;
  FaultDiscriminator& discriminator_;
  std::vector<Channel> channels_;  ///< indexed by ChannelId
  MissHandler on_missed_;
  std::uint64_t total_misses_ = 0;
};

}  // namespace aft::detect
