// Heartbeat-based membership over lossy links: the Sect. 4 vision of
// "communities of services" needs each node to know which peers are alive,
// and over a dropping/partitioning wire a missed beat is ambiguous — a
// transient loss or a dead peer.  Membership therefore feeds heartbeat
// windows (detect::HeartbeatMonitor) into a per-peer alpha-count oracle
// (detect::FaultDiscriminator), and only a *judgment* transition — not a
// single miss — flips a member between up and down.  A moderately lossy
// link produces isolated misses whose evidence decays (member stays up); a
// partition produces consecutive misses that cross the threshold (member
// goes down); healing lets the evidence decay away again.
//
// reinstate() models the Sect. 3.2 unit-replacement treatment: the failed
// peer was repaired/replaced, so its evidence is cleared via
// FaultDiscriminator::reset_channel — whose verdict-change notification
// (bug-fixed in this module's PR) is exactly what brings the member back up.
// Members are keyed by id: track() order (0, 1, 2, ...), issued by the
// membership's own discriminator.  Names only label the trace records.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "detect/alpha_count.hpp"
#include "detect/discriminator.hpp"
#include "detect/heartbeat.hpp"
#include "obs/trace.hpp"
#include "sim/simulator.hpp"

namespace aft::net {

class Membership {
 public:
  struct Params {
    /// Heartbeat window per member: one beat expected every `deadline`.
    sim::SimTime deadline = 10;
    /// Evidence filter deciding up/down from the miss pattern.
    detect::AlphaCount::Params alpha{};
  };

  using MemberId = detect::ChannelId;

  /// `on_change(member, up)` fires on every up/down transition.
  using ChangeHandler = std::function<void(MemberId, bool)>;

  /// `on_miss(member, consecutive)` fires on every missed heartbeat window
  /// — raw monitor evidence, below the judgment layer.  Down-member
  /// bookkeeping (e.g. the cluster's reinstatement beat count, which a
  /// flapping member must restart) hangs off this; membership decisions
  /// themselves still only follow judgment transitions.
  using MissHandler = detect::HeartbeatMonitor::MissHandler;

  /// Post-mortem evidence join for the trace plane: asked for the trace id
  /// of the physical evidence behind a member going down (typically
  /// Link::last_drop_event(kHeartbeat) on the member's return wire).
  /// Return obs::kNoEvent to keep the detector-side ancestry.  Purely
  /// observational — never consulted for the membership decision itself.
  using EvidenceProvider = std::function<obs::EventId(MemberId)>;

  Membership(sim::Simulator& sim, Params params);

  /// Registers a member named `label` (initially up), starts its
  /// heartbeat windows and returns its id.
  MemberId track(std::string label);

  /// Feeds one received beat (wire Endpoint::on_heartbeat here).  Beats
  /// for ids track() never issued are counted and ignored.
  void beat(MemberId member);

  /// Administrative replacement of a failed member: clears its evidence
  /// and verdict; the resulting verdict change marks it up again.  An id
  /// track() never issued is a no-op.
  void reinstate(MemberId member);

  void on_change(ChangeHandler handler);

  /// Installs the missed-window observer (replaces any prior).
  void on_miss(MissHandler handler) {
    monitor_.set_miss_handler(std::move(handler));
  }

  /// Installs the down-evidence hook (see EvidenceProvider).  The
  /// member-down trace record's cause is taken from it, and the record is
  /// installed as the current cause while change handlers run — so a
  /// handler's reaction (evict, switchboard raise) chains back through the
  /// verdict to the dropped frame.
  void set_down_evidence(EvidenceProvider provider);

  /// False for an id track() never issued.
  [[nodiscard]] bool up(MemberId member) const {
    return member < up_.size() && up_[member];
  }
  [[nodiscard]] std::size_t up_count() const noexcept;
  [[nodiscard]] std::size_t size() const noexcept { return up_.size(); }
  [[nodiscard]] std::uint64_t downs() const noexcept { return downs_; }
  [[nodiscard]] std::uint64_t ups() const noexcept { return ups_; }
  [[nodiscard]] std::uint64_t unknown_beats() const noexcept {
    return unknown_beats_;
  }
  [[nodiscard]] const detect::FaultDiscriminator& discriminator()
      const noexcept {
    return discriminator_;
  }

 private:
  void verdict_changed(MemberId member, detect::FaultJudgment verdict);

  Params params_;
  detect::FaultDiscriminator discriminator_;
  detect::HeartbeatMonitor monitor_;
  std::vector<bool> up_;  ///< indexed by MemberId
  std::vector<ChangeHandler> handlers_;
  EvidenceProvider down_evidence_;
  std::uint64_t downs_ = 0;
  std::uint64_t ups_ = 0;
  std::uint64_t unknown_beats_ = 0;
};

}  // namespace aft::net
