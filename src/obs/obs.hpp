// Instrumentation access point: a per-thread current TraceSink,
// MetricsRegistry, and FlightRecorder, installed by benches (obs::ObsCli) or
// per campaign job (util::parallel_for_index), plus the AFT_TRACE /
// AFT_METRIC_ADD / AFT_SPAN / AFT_CAUSE macros the subsystems call.
//
// Cost when no sink is installed: one thread-local load and a predictable
// branch per site, plus a ~40-byte ring store into the always-on flight
// recorder (flight.hpp).  Cost when compiled out (-DAFT_OBS=OFF, which
// defines AFT_OBS_DISABLED): zero — the macros expand to (void)0 and the
// accessors collapse to constant nullptr, so every instrumentation site
// folds away.
//
// Threading model: the pointers are thread_local and never shared; each
// campaign worker installs its own per-job sink, and util::parallel_for_index
// merges the per-job results in job-index order, which is what keeps traces
// and metrics bit-identical for any AFT_THREADS value.
#pragma once

#include "obs/flight.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace aft::obs {

#if defined(AFT_OBS_DISABLED)

constexpr TraceSink* trace() noexcept { return nullptr; }
constexpr MetricsRegistry* metrics() noexcept { return nullptr; }
inline void set_trace(TraceSink*) noexcept {}
inline void set_metrics(MetricsRegistry*) noexcept {}
inline void set_obs_time(std::uint64_t) noexcept {}

#else

/// The calling thread's current sink/registry; nullptr when tracing is off.
[[nodiscard]] TraceSink* trace() noexcept;
[[nodiscard]] MetricsRegistry* metrics() noexcept;

void set_trace(TraceSink* sink) noexcept;
void set_metrics(MetricsRegistry* registry) noexcept;

/// Advances the logical clock of both the installed TraceSink (if any) and
/// the flight recorder, so black-box records stay timestamped even when
/// tracing is off.
void set_obs_time(std::uint64_t t) noexcept;

#endif  // AFT_OBS_DISABLED

/// RAII installer: swaps in a sink/registry pair for the current thread and
/// restores the previous pair on destruction (nestable).
class ScopedObs {
 public:
  ScopedObs(TraceSink* sink, MetricsRegistry* registry) noexcept
      : prev_trace_(trace()), prev_metrics_(metrics()) {
    set_trace(sink);
    set_metrics(registry);
  }
  ~ScopedObs() {
    set_trace(prev_trace_);
    set_metrics(prev_metrics_);
  }
  ScopedObs(const ScopedObs&) = delete;
  ScopedObs& operator=(const ScopedObs&) = delete;

 private:
  TraceSink* prev_trace_;
  MetricsRegistry* prev_metrics_;
};

/// RAII span: emits a "span-begin" record naming the span, makes its id the
/// sink's current span (so every event inside carries `span`, and nested
/// span-begins carry their parent), and emits "span-end" — stamped with the
/// span's own id — on destruction.  No-op when no sink is installed.
/// Instantiate via AFT_SPAN.
class SpanGuard {
 public:
  SpanGuard(const char* component, const char* name) noexcept
      : sink_(trace()) {
    if (sink_ == nullptr) return;
    component_ = component;
    prev_span_ = sink_->span();
    const EventId id = sink_->emit(component, "span-begin", {{"name", name}});
    if (id != kNoEvent) sink_->set_span(id);
  }
  ~SpanGuard() {
    if (sink_ == nullptr) return;
    sink_->emit(component_, "span-end");
    sink_->set_span(prev_span_);
  }
  SpanGuard(const SpanGuard&) = delete;
  SpanGuard& operator=(const SpanGuard&) = delete;

 private:
  TraceSink* sink_;
  const char* component_ = nullptr;
  EventId prev_span_ = kNoEvent;
};

/// RAII causal turn: makes one record the sink's current cause for the rest
/// of the scope and restores the previous cause on exit, so everything the
/// scope emits — and every continuation it schedules — chains back to it.
/// Emit a new record as the cause via AFT_CAUSE; reinstate a snapshotted
/// cause with CauseScope(id).  Compiles to nothing under AFT_OBS_DISABLED.
class CauseScope {
 public:
#if defined(AFT_OBS_DISABLED)
  explicit CauseScope(EventId) noexcept {}
#else
  /// Reinstates `id`; kNoEvent is installed too (a context that had no
  /// cause starts a fresh causal turn).
  explicit CauseScope(EventId id) noexcept : sink_(trace()) {
    if (sink_ == nullptr) return;
    prev_cause_ = sink_->cause();
    sink_->set_cause(id);
  }
  /// Installs the id `emit(sink, component, event)` returns; with no sink
  /// installed, notes the record in the flight recorder instead.
  template <typename Emit>
  CauseScope(std::string_view component, std::string_view event,
             Emit&& emit) noexcept
      : sink_(trace()) {
    if (sink_ == nullptr) {
      flight_note(component, event);
      return;
    }
    const EventId id = emit(*sink_, component, event);
    if (id == kNoEvent) {
      sink_ = nullptr;  // dropped by the cap: the ambient cause stands
      return;
    }
    prev_cause_ = sink_->cause();
    sink_->set_cause(id);
  }
  ~CauseScope() {
    if (sink_ != nullptr) sink_->set_cause(prev_cause_);
  }
#endif
  CauseScope(const CauseScope&) = delete;
  CauseScope& operator=(const CauseScope&) = delete;

#if !defined(AFT_OBS_DISABLED)
 private:
  TraceSink* sink_;
  EventId prev_cause_ = kNoEvent;
#endif
};

}  // namespace aft::obs

// Instrumentation macros.  `...` is a braced Field list, e.g.
//   AFT_TRACE("mem.remap", "remap", {{"logical", addr}, {"spare", spare}});
// Sites on genuinely hot paths should hoist obs::trace()/obs::metrics() into
// a local instead (see autonomic/experiment.cpp).
#if defined(AFT_OBS_DISABLED)

#define AFT_TRACE(component, event, ...) static_cast<void>(0)
#define AFT_METRIC_ADD(name, delta) static_cast<void>(0)
#define AFT_METRIC_OBSERVE(name, value) static_cast<void>(0)
#define AFT_OBS_SET_TIME(t) static_cast<void>(0)
#define AFT_SPAN(component, name) static_cast<void>(0)
#define AFT_CAUSE(component, event, ...) static_cast<void>(0)

#else

#define AFT_TRACE(component, event, ...)                                   \
  do {                                                                     \
    if (::aft::obs::TraceSink* aft_obs_sink_ = ::aft::obs::trace())        \
      aft_obs_sink_->emit((component), (event)__VA_OPT__(, __VA_ARGS__));  \
    else                                                                   \
      ::aft::obs::flight_note((component), (event));                       \
  } while (0)

#define AFT_METRIC_ADD(name, delta)                                      \
  do {                                                                   \
    if (::aft::obs::MetricsRegistry* aft_obs_reg_ = ::aft::obs::metrics()) \
      aft_obs_reg_->add((name), (delta));                                \
  } while (0)

/// Feeds one sample into histogram `name` (p50/p99/p999 in the "quantiles"
/// JSON export).  Genuinely hot sites should hoist a Stat& handle instead.
#define AFT_METRIC_OBSERVE(name, value)                                  \
  do {                                                                   \
    if (::aft::obs::MetricsRegistry* aft_obs_reg_ = ::aft::obs::metrics()) \
      aft_obs_reg_->observe((name), (value));                            \
  } while (0)

#define AFT_OBS_SET_TIME(t) ::aft::obs::set_obs_time(t)

#define AFT_OBS_CONCAT2(a, b) a##b
#define AFT_OBS_CONCAT(a, b) AFT_OBS_CONCAT2(a, b)

/// Opens a named span for the rest of the enclosing scope.
#define AFT_SPAN(component, name) \
  ::aft::obs::SpanGuard AFT_OBS_CONCAT(aft_span_, __LINE__)((component), (name))

/// Emits a record and makes it the current cause for the rest of the
/// enclosing scope (CauseScope).  `...` is a braced Field list, evaluated
/// only when a sink is installed.
#define AFT_CAUSE(component, event, ...)                                   \
  const ::aft::obs::CauseScope AFT_OBS_CONCAT(aft_cause_, __LINE__)(      \
      (component), (event),                                                \
      [&](::aft::obs::TraceSink& aft_obs_sink_, std::string_view aft_obs_c_, \
          std::string_view aft_obs_e_) {                                   \
        return aft_obs_sink_.emit(aft_obs_c_,                              \
                                  aft_obs_e_ __VA_OPT__(, __VA_ARGS__));   \
      })

#endif  // AFT_OBS_DISABLED
