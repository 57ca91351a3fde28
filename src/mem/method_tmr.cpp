#include "mem/method_tmr.hpp"

#include <algorithm>
#include <optional>
#include <stdexcept>

#include "obs/obs.hpp"

namespace aft::mem {

TmrEccAccess::TmrEccAccess(hw::MemoryChip& c0, hw::MemoryChip& c1,
                           hw::MemoryChip& c2, std::size_t words_per_scrub_step)
    : chips_{&c0, &c1, &c2},
      words_(std::min({c0.size_words(), c1.size_words(), c2.size_words()})),
      words_per_scrub_step_(words_per_scrub_step) {
  if (&c0 == &c1 || &c1 == &c2 || &c0 == &c2) {
    throw std::invalid_argument("TmrEccAccess: devices must be distinct");
  }
}

void TmrEccAccess::recover_device(std::size_t victim_idx) {
  hw::MemoryChip& victim = *chips_[victim_idx];
  victim.power_cycle();
  ++stats_.power_cycles;
  AFT_METRIC_ADD("mem.tmr.power_cycles", 1);
  AFT_TRACE(name(), "power-cycle", {{"victim", victim_idx}});
  // Rebuild from the first healthy sibling; per-word divergence is repaired
  // lazily by subsequent voted reads and scrubbing.
  for (std::size_t i = 0; i < chips_.size(); ++i) {
    if (i == victim_idx) continue;
    hw::MemoryChip& source = *chips_[i];
    if (source.state() != hw::ChipState::kOperational) continue;
    for (std::size_t w = 0; w < words_; ++w) {
      const hw::DeviceRead dev = source.read(w);
      if (dev.available) victim.write(w, dev.word);
    }
    ++stats_.rebuilds;
    AFT_METRIC_ADD("mem.tmr.rebuilds", 1);
    AFT_TRACE(name(), "rebuild", {{"victim", victim_idx}, {"source", i}});
    return;
  }
}

ReadResult TmrEccAccess::voted_read(std::size_t addr) {
  struct Copy {
    bool decodable = false;
    std::uint64_t data = 0;
    bool corrected = false;
  };
  std::array<Copy, 3> copies{};
  bool any_unavailable = false;

  for (std::size_t i = 0; i < chips_.size(); ++i) {
    hw::MemoryChip& chip = *chips_[i];
    const hw::DeviceRead dev = chip.read(addr);
    if (!dev.available) {
      any_unavailable = true;
      continue;
    }
    const EccDecode dec = ecc_decode(dev.word);
    if (dec.status == EccStatus::kDetectedDouble) {
      ++stats_.double_detected;
      continue;
    }
    copies[i].decodable = true;
    copies[i].data = dec.data;
    copies[i].corrected = dec.status == EccStatus::kCorrectedSingle;
    if (copies[i].corrected) ++stats_.corrected_singles;
  }

  // Majority vote over decodable copies.  A lone decodable copy stands on
  // its own; two or more must hold a strict majority, or the word is
  // ambiguous (a 1-1 split, or three different values) and nothing wins.
  std::optional<std::uint64_t> winner;
  int best_votes = 0;
  int decodable = 0;
  for (const Copy& c : copies) {
    if (!c.decodable) continue;
    ++decodable;
    int votes = 0;
    for (const Copy& d : copies) {
      if (d.decodable && d.data == c.data) ++votes;
    }
    if (votes > best_votes) {
      best_votes = votes;
      winner = c.data;
    }
  }
  const bool ambiguous = decodable >= 2 && 2 * best_votes <= decodable;
  if (ambiguous) winner.reset();

  if (!winner.has_value()) {
    ++stats_.data_losses;
    AFT_METRIC_ADD("mem.tmr.data_losses", 1);
    AFT_TRACE(name(), "data-loss", {{"addr", addr}});
    // Revive dead devices so the *next* write can be durable again.
    for (std::size_t i = 0; i < chips_.size(); ++i) {
      if (chips_[i]->state() != hw::ChipState::kOperational) recover_device(i);
    }
    return ReadResult{any_unavailable && !ambiguous
                          ? ReadStatus::kUnavailable
                          : ReadStatus::kUncorrectable,
                      0};
  }

  // Repair pass: rewrite the winning codeword into every copy that was
  // corrected, outvoted, or undecodable; power-cycle + rebuild dead devices.
  const hw::Word72 repaired = ecc_encode(*winner);
  bool cross_device_recovery = false;
  for (std::size_t i = 0; i < chips_.size(); ++i) {
    hw::MemoryChip& chip = *chips_[i];
    if (chip.state() != hw::ChipState::kOperational) {
      recover_device(i);
      cross_device_recovery = true;
    }
    if (chip.state() == hw::ChipState::kOperational) {
      const bool diverged = !copies[i].decodable || copies[i].data != *winner;
      if (diverged || copies[i].corrected) {
        chip.write(addr, repaired);
        if (diverged) cross_device_recovery = true;
      }
    }
  }

  if (cross_device_recovery) {
    ++stats_.recoveries;
    return ReadResult{ReadStatus::kRecovered, *winner};
  }
  const bool any_corrected =
      std::any_of(copies.begin(), copies.end(),
                  [](const Copy& c) { return c.corrected; });
  return ReadResult{any_corrected ? ReadStatus::kCorrected : ReadStatus::kOk,
                    *winner};
}

ReadResult TmrEccAccess::read(std::size_t addr) {
  if (addr >= words_) throw std::out_of_range("TmrEccAccess address");
  ++stats_.reads;
  return voted_read(addr);
}

bool TmrEccAccess::write(std::size_t addr, std::uint64_t value) {
  if (addr >= words_) throw std::out_of_range("TmrEccAccess address");
  ++stats_.writes;
  const hw::Word72 codeword = ecc_encode(value);
  bool durable = false;
  for (hw::MemoryChip* chip : chips_) {
    if (chip->state() == hw::ChipState::kOperational) {
      chip->write(addr, codeword);
      durable = true;
    }
  }
  return durable;
}

void TmrEccAccess::scrub_step() {
  for (std::size_t i = 0; i < words_per_scrub_step_; ++i) {
    const std::size_t addr = scrub_cursor_;
    if (++scrub_cursor_ == words_) scrub_cursor_ = 0;
    voted_read(addr);
  }
}

}  // namespace aft::mem
