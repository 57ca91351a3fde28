// Multi-channel heartbeat monitoring: N components emit periodic liveness
// beats; the monitor checks per-channel deadlines on the simulation kernel
// and feeds misses into a FaultDiscriminator, so each channel's fault class
// (transient glitch vs wedged) is judged independently by the alpha-count
// oracle — the many-component generalization of the Fig. 4 watchdog.
// The monitor watches channel ids its discriminator issued.
//
// Each channel keeps its own window boundaries (watch time + k * deadline),
// but the kernel sees one event per boundary tick, not one per channel:
// every window closing at the same tick is closed by a single sweep, in
// arming order.  A pool of members watched together with one deadline — the
// cluster's case — costs one event per window period in total.
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

  /// Starts `channel`'s window checks with its own deadline; its first
  /// window closes `deadline` ticks from now.  The id must have been issued
  /// by the discriminator; duplicate registration throws.  Re-watching a
  /// previously unwatched channel starts a single fresh window cycle: any
  /// window left pending by the earlier registration is invalidated (epoch
  /// guard), so an unwatch()/watch() cycle cannot double-count windows.
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
    std::uint64_t epoch = 0;  ///< bumped per watch(); stale windows are skipped
    std::uint64_t consecutive_misses = 0;
  };
  /// One channel window, stamped with the watch() epoch that armed it.
  struct Window {
    ChannelId channel = 0;
    std::uint64_t epoch = 0;
  };
  /// Every window closing at tick `when`, in arming order; one sim event.
  /// Slots are recycled, so the windows vectors keep their capacity.
  struct Boundary {
    sim::SimTime when = 0;
    bool pending = false;
    std::vector<Window> windows;
  };

  /// Adds `channel`'s next window to the boundary at `when`, scheduling
  /// that boundary's sweep if it is the first window there.
  void arm(ChannelId channel, std::uint64_t epoch, sim::SimTime when);
  /// Closes every window of boundary slot `slot`, in arming order.
  void sweep(std::size_t slot);
  /// Judges one window and arms the channel's next one.
  void close_window(Window window);

  sim::Simulator& sim_;
  FaultDiscriminator& discriminator_;
  std::vector<Channel> channels_;  ///< indexed by ChannelId
  std::vector<Boundary> boundaries_;  ///< one per pending boundary tick
  std::vector<Window> closing_;  ///< the boundary being swept, swapped out
  MissHandler on_missed_;
  std::uint64_t total_misses_ = 0;
};

}  // namespace aft::detect
