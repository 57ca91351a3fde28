// One unidirectional lossy link of the simulated network, riding the
// deterministic simulation kernel.
//
// The paper's Sect. 3.2 middleware is distributed — "through e.g.
// publish/subscribe, the supporting middleware component receives
// notifications regarding the faults being detected" — which makes the
// channel itself a fault source the adaptation loop must survive.  Link
// models the classic datagram failure semantics as per-frame stochastic
// events drawn from a seeded util::Xoshiro256 stream:
//
//   latency + jitter   propagation delay, uniform extra in [0, jitter]
//   drop               the frame never arrives
//   duplicate          two copies arrive (each with its own delay draw)
//   reorder            the frame is held back so later sends overtake it
//   partition          explicit partition()/heal(): sends are swallowed
//
// Every decision flows through the per-link RNG in a fixed draw order
// (drop, then per-copy jitter, then per-copy reorder, then duplicate), so a
// (seed, fault-model, send-sequence) triple reproduces an identical wire
// history — campaigns over link faults are bit-reproducible exactly like
// the hw::FaultInjector campaigns.
//
// Causality across the wire: send() emits a "net.link/send" trace record
// and installs its id as the sink's current cause while the delivery
// continuations are scheduled, so the "deliver" record — and everything the
// receiver does with the frame — chains back through the send to whatever
// published/injected it (aft_trace why follows clashes across hops).
//
// In-flight frames park in a freelist-recycled slot pool; the scheduled
// continuation captures only {this, slot}, which keeps delivery inside the
// kernel's 64-byte allocation-free inline budget.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <string>

#include "net/frame.hpp"
#include "obs/trace.hpp"
#include "sim/simulator.hpp"
#include "util/pool.hpp"
#include "util/rng.hpp"

namespace aft::net {

/// Stochastic fault model of one link.  All probabilities are per-frame.
struct LinkFaults {
  sim::SimTime latency = 1;   ///< base propagation delay (ticks), >= 1
  sim::SimTime jitter = 0;    ///< max extra uniform delay (ticks)
  double drop = 0.0;          ///< P(frame lost)
  double duplicate = 0.0;     ///< P(frame delivered twice)
  double reorder = 0.0;       ///< P(frame held back so later frames overtake)
  /// Extra holdback applied to reordered frames; 0 selects the default
  /// 2 * (latency + jitter), enough for any non-reordered successor to pass.
  sim::SimTime reorder_hold = 0;

  /// True when the model can never lose, duplicate, or reorder a frame.
  [[nodiscard]] bool lossless() const noexcept {
    return drop <= 0.0 && duplicate <= 0.0 && reorder <= 0.0;
  }
};

/// Lifetime tallies of one link's wire history.
struct LinkCounters {
  /// Every send() call, including frames the partition or the loss model
  /// swallowed before the wire.  Not the `net.link.sent` metric, which
  /// counts only frames that got onto the wire.
  std::uint64_t sent = 0;
  std::uint64_t delivered = 0;   ///< frames handed to the receiver
  std::uint64_t dropped = 0;     ///< stochastic drops + partition swallows
  std::uint64_t duplicated = 0;  ///< extra copies scheduled
  std::uint64_t reordered = 0;   ///< copies given the reorder holdback
  std::uint64_t partition_drops = 0;  ///< subset of dropped: partitioned()
};

class Link {
 public:
  using Receiver = std::function<void(Frame&&)>;

  /// `name` labels trace records ("a->b" by convention).
  Link(sim::Simulator& sim, std::string name, LinkFaults faults,
       std::uint64_t seed);

  /// Installs the delivery callback.  Frames arriving with no receiver
  /// installed are counted as dropped (a node that is not listening).
  void set_receiver(Receiver receiver) { receiver_ = std::move(receiver); }

  /// Sends one frame.  Returns true when at least one copy was scheduled
  /// for delivery (false: dropped or partitioned).
  bool send(Frame frame);

  /// Cuts the link: subsequent sends are swallowed until heal().  Frames
  /// already in flight still arrive (they left before the cut).
  void partition();
  void heal();
  [[nodiscard]] bool partitioned() const noexcept { return partitioned_; }

  /// Swaps in a new fault model; frames already in flight keep the delays
  /// they drew.  Lets experiments degrade/heal a live link mid-run (the SLO
  /// adaptation bench drives its loss phases through this).
  void set_faults(const LinkFaults& faults) noexcept { faults_ = faults; }

  [[nodiscard]] const LinkCounters& counters() const noexcept {
    return counters_;
  }
  /// Trace id of this link's most recent "drop" record for frames of
  /// `kind` (loss, partition swallow, or no-receiver), obs::kNoEvent when
  /// none was recorded (including all obs-disabled builds).  Post-mortem
  /// evidence join: net::Membership's down-evidence hook points a
  /// member-down verdict at the heartbeat frame the wire actually ate, so
  /// `aft_trace why` walks a switchboard raise back to the physical loss.
  [[nodiscard]] obs::EventId last_drop_event(FrameKind kind) const noexcept {
    return last_drop_[static_cast<std::size_t>(kind)];
  }
  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] const LinkFaults& faults() const noexcept { return faults_; }
  /// Frames scheduled but not yet handed to the receiver.
  [[nodiscard]] std::size_t in_flight() const noexcept { return in_flight_; }

 private:
  void deliver(std::uint32_t slot);
  /// Emits the drop trace record (counting it in the metrics plane) and
  /// remembers its id for last_drop_event().
  void note_drop(const Frame& frame, const char* reason);
  /// One copy's delay: jitter then reorder holdback, in that draw order.
  [[nodiscard]] sim::SimTime draw_delay();

  sim::Simulator& sim_;
  std::string name_;
  LinkFaults faults_;
  util::Xoshiro256 rng_;
  Receiver receiver_;
  bool partitioned_ = false;
  std::size_t in_flight_ = 0;
  /// Parked in-flight frames.  Recycled slots keep their Frame (and its
  /// string capacity), so steady-state traffic stops allocating once the
  /// pool is warm.
  util::SlotPool<Frame> pool_;
  LinkCounters counters_;
  /// Most recent drop record per FrameKind (indexed by the enum value).
  std::array<obs::EventId, 4> last_drop_{obs::kNoEvent, obs::kNoEvent,
                                         obs::kNoEvent, obs::kNoEvent};
};

}  // namespace aft::net
