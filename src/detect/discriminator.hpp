// Per-channel fault discrimination built on AlphaCount: maintains one score
// per monitored component and raises a callback on every verdict
// transition.  This is the "Alpha-count oracle" whose assessment drives the
// Sect. 3.2 pattern switch (D1 vs D2 injection).
// Channels are dense ids issued by add() in registration order; the
// HeartbeatMonitor and net::Membership on top share them.  A channel's
// label only names it in trace records.
#pragma once

#include <cstddef>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "detect/alpha_count.hpp"

namespace aft::detect {

/// Dense channel index issued by FaultDiscriminator::add (0, 1, 2, ...).
using ChannelId = std::size_t;

class FaultDiscriminator {
 public:
  using VerdictHandler =
      std::function<void(ChannelId channel, FaultJudgment verdict)>;

  explicit FaultDiscriminator(AlphaCount::Params params = AlphaCount::Params{});

  /// Registers a channel named `label` (at kNoEvidence); returns its id.
  ChannelId add(std::string label);

  // An id add() never issued is ignored by record()/reset_channel() and
  // reads as kNoEvidence / 0.0 / "".

  /// Feeds one judgment round for `channel`.  Fires the handlers when the
  /// channel's judgment changed.
  void record(ChannelId channel, bool error);

  /// Replaces the faulty unit: resets the channel's score and verdict.
  /// A verdict moved by the reset fires the handlers exactly like a
  /// record()-driven transition (subscribers must see the re-arm).
  void reset_channel(ChannelId channel);

  [[nodiscard]] FaultJudgment judgment(ChannelId channel) const;
  [[nodiscard]] double score(ChannelId channel) const;
  [[nodiscard]] std::string_view label(ChannelId channel) const;
  [[nodiscard]] std::size_t channel_count() const noexcept { return channels_.size(); }

  void on_verdict_change(VerdictHandler handler);

 private:
  struct Channel {
    AlphaCount filter;
    FaultJudgment last = FaultJudgment::kNoEvidence;  ///< last published
  };

  /// Publishes `channel`'s verdict if it moved since the last publication.
  void publish_if_changed(ChannelId channel);

  AlphaCount::Params params_;
  std::vector<Channel> channels_;
  std::vector<VerdictHandler> handlers_;
};

}  // namespace aft::detect
