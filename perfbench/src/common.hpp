// Shared pieces of the benchmark: the wall clock, the allocation counter,
// the in-memory span recorder and the named-metric list the workloads and
// the ladder fill in.
#pragma once
#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace pb {

using Clock = std::chrono::steady_clock;

inline std::uint64_t now_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count());
}

/// Global operator-new calls since the process started (alloc_count.cpp).
std::uint64_t allocations() noexcept;

/// Ordered (name, value) pairs; names are the metric names printed.
using Metrics = std::vector<std::pair<std::string, double>>;

inline double ratio(double num, double den) noexcept {
  return den > 0 ? num / den : 0.0;
}

template <typename T>
double median(std::vector<T> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? static_cast<double>(v[n / 2])
                    : (static_cast<double>(v[n / 2 - 1]) +
                       static_cast<double>(v[n / 2])) /
                          2.0;
}

/// Spans the benchmark records around its own calls into the layers.
enum class SpanKind : std::uint8_t {
  kSetup,        ///< construction of a workload's objects
  kStart,        ///< service/population start(), initial fill
  kDispatch,     ///< a fixed chunk of sim.step() calls
  kTask,         ///< the replica Task the service fans out to
  kHook,         ///< the switchboard resize hook and the SLO publisher
  kRead,         ///< IMemoryAccessMethod::read
  kWrite,        ///< IMemoryAccessMethod::write
  kScrub,        ///< IMemoryAccessMethod::scrub_step
  kTick,         ///< FaultInjector::tick over every bank
  kManagerStep,  ///< AdaptiveMemoryManager::step (incl. migration)
  kExperiment,   ///< autonomic::run_adaptation_experiment
  kCount,
};

inline const char* span_name(SpanKind kind) noexcept {
  static constexpr std::array<const char*,
                              static_cast<std::size_t>(SpanKind::kCount)>
      kNames = {"setup", "start", "dispatch", "task", "hook", "read",
                "write", "scrub", "tick", "manager_step", "experiment"};
  return kNames[static_cast<std::size_t>(kind)];
}

/// In-memory span recorder.  Every span adds its self time (duration minus
/// the time its child spans cover) to a per-kind total; the first
/// `capacity` spans are also kept whole (start, end, parent) so they can be
/// written out when the run ends.
class Tracer {
 public:
  struct Span {
    std::uint64_t start_ns = 0;
    std::uint64_t end_ns = 0;
    std::uint32_t parent = kNoParent;  ///< index into spans(), or kNoParent
    SpanKind kind = SpanKind::kSetup;
  };
  static constexpr std::uint32_t kNoParent = ~std::uint32_t{0};

  explicit Tracer(std::size_t capacity) : capacity_(capacity) {
    spans_.reserve(capacity);
    open_.reserve(16);
  }

  void begin(SpanKind kind) {
    Open o;
    o.kind = kind;
    o.parent = open_.empty() ? kNoParent : open_.back().index;
    o.index = kNoParent;
    if (spans_.size() < capacity_) {
      o.index = static_cast<std::uint32_t>(spans_.size());
      spans_.push_back(Span{0, 0, o.parent, kind});
    }
    o.start_ns = now_ns();
    open_.push_back(o);
  }

  void end() {
    const std::uint64_t t = now_ns();
    const Open o = open_.back();
    open_.pop_back();
    const std::uint64_t dur = t - o.start_ns;
    const auto k = static_cast<std::size_t>(o.kind);
    self_ns_[k] += dur > o.child_ns ? dur - o.child_ns : 0;
    ++count_[k];
    if (!open_.empty()) open_.back().child_ns += dur;
    if (o.index != kNoParent) {
      spans_[o.index].start_ns = o.start_ns;
      spans_[o.index].end_ns = t;
    }
  }

  [[nodiscard]] std::uint64_t self_ns(SpanKind k) const noexcept {
    return self_ns_[static_cast<std::size_t>(k)];
  }
  [[nodiscard]] std::uint64_t count(SpanKind k) const noexcept {
    return count_[static_cast<std::size_t>(k)];
  }
  [[nodiscard]] const std::vector<Span>& spans() const noexcept {
    return spans_;
  }

 private:
  struct Open {
    std::uint64_t start_ns = 0;
    std::uint64_t child_ns = 0;
    std::uint32_t index = kNoParent;
    std::uint32_t parent = kNoParent;
    SpanKind kind = SpanKind::kSetup;
  };
  static constexpr std::size_t kKinds =
      static_cast<std::size_t>(SpanKind::kCount);

  std::size_t capacity_;
  std::vector<Span> spans_;
  std::vector<Open> open_;
  std::array<std::uint64_t, kKinds> self_ns_{};
  std::array<std::uint64_t, kKinds> count_{};
};

/// RAII span; a null tracer (the untraced run) makes it a no-op.
class SpanScope {
 public:
  SpanScope(Tracer* tracer, SpanKind kind) : tracer_(tracer) {
    if (tracer_ != nullptr) tracer_->begin(kind);
  }
  ~SpanScope() {
    if (tracer_ != nullptr) tracer_->end();
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  Tracer* tracer_;
};

}  // namespace pb
