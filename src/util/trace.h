// Structured span tracing: scoped request-level spans recorded into
// per-thread ring buffers and exported as Chrome trace-event JSON that
// Perfetto / chrome://tracing load directly.
//
// Design contract (the metrics layer's, applied to spans):
//
//  * **Per-thread rings.** Each thread owns one ring buffer; a span write
//    is one in-place slot store on top of the scope's two clock reads — no
//    locks, no allocation on the steady state. Rings keep the newest
//    events; overwritten history is counted and exported as
//    `dropped_events`, never silently lost.
//  * **Kill switch.** FEMTOCR_TRACE (off by default; "1"/"on"/"true"
//    enables) parsed once like FEMTOCR_METRICS. When off every trace op —
//    spans, anomaly notes, flight recording — is a relaxed load and a
//    branch: zero clock reads, zero ring writes. set_trace_enabled()
//    overrides the environment at runtime (--trace-out turns tracing on
//    unless the environment explicitly disabled it).
//  * **Observability never perturbs the simulation.** Tracing draws no
//    randomness and writes nothing to stdout; stdout is byte-identical
//    across FEMTOCR_TRACE on/off and any --threads value (pinned by
//    tests/test_trace_spans.cpp). Span *durations* are wall-clock and
//    vary run to run; span *counts per name* are thread-count invariant.
//  * **Parent linkage.** A thread-local span stack supplies each span's
//    nesting depth; Chrome's viewer reconstructs the tree from time
//    containment per tid, so "X" (complete) events are all we emit.
//
// The flight recorder rides on the rings: solver and fault sites tag the
// in-flight slot via trace_note_anomaly(), and the simulator's slot
// boundary harvests the notes — a tagged slot's span subtree plus its
// solver-context args is frozen into a bounded postmortem pool and dumped
// alongside the trace (the slowest-N slots are kept in a separate pool so
// a clean run reports exactly zero anomalies).
//
// Every timed site uses util::Scope, the one instrumentation primitive:
// a cached TimerStat handle names both the timer and the span, and one
// pair of clock reads feeds whichever sinks are on. Span catalogue and
// JSON schema: docs/OBSERVABILITY.md. Typical usage:
//
//   static util::TimerStat& t_solve = util::metrics().timer("core.dual.solve");
//   util::Scope scope(t_solve);
//   ...
//   scope.arg("iterations", static_cast<double>(result.iterations));
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

#include "util/metrics.h"
#include "util/timer.h"

namespace femtocr::util {

/// Maximum key=value args per span; extras are dropped (spans stay POD).
inline constexpr std::size_t kMaxSpanArgs = 6;

namespace trace_detail {

/// -1 = not yet resolved from the environment, 0 = off, 1 = on.
extern std::atomic<int> g_enabled;

/// Resolves FEMTOCR_TRACE once and caches the result in g_enabled.
bool enabled_slow();

struct ThreadRing;

/// The calling thread's ring, created and registered on first use.
ThreadRing* this_thread_ring();

/// One span as a ring slot stores it: filled in place by a Scope and
/// copied into the ring when the scope closes.
struct TraceEvent {
  struct Arg {
    const char* key = nullptr;
    double value = 0.0;
  };
  const char* name = nullptr;
  std::int64_t begin_ns = 0;
  std::int64_t dur_ns = 0;
  std::uint32_t tid = 0;
  std::uint32_t depth = 0;
  std::uint32_t num_args = 0;
  Arg args[kMaxSpanArgs];
};

}  // namespace trace_detail

/// True when FEMTOCR_TRACE=1/on/true or set_trace_enabled(true). Unlike
/// metrics, tracing defaults OFF — recording costs a ring store per scope.
inline bool trace_enabled() {
  const int e = trace_detail::g_enabled.load(std::memory_order_relaxed);
  return e >= 0 ? e != 0 : trace_detail::enabled_slow();
}

/// Runtime override of the kill switch (wins over the environment).
void set_trace_enabled(bool on);

/// True iff the environment EXPLICITLY disabled tracing (FEMTOCR_TRACE set
/// to 0/off/false). --trace-out enables tracing at startup unless this
/// holds — an explicit off always wins so kill-switch A/B diffs stay
/// trivial to script.
bool trace_env_disabled();

// ------------------------------------------------------------------ scope ----

/// RAII instrumentation scope over one TimerStat. Which sinks record is
/// decided at construction: the timer when metrics are on, a span named
/// stat.name() when tracing is on. The clock is read once at begin and
/// once at end, and that one duration feeds both sinks; with both off the
/// clock is never read and nothing is written. Arg keys must be string
/// literals (they are stored by pointer).
class Scope {
 public:
  explicit Scope(TimerStat& stat)
      : stat_(metrics_enabled() ? &stat : nullptr) {
    if (trace_enabled()) open_span(stat.name());
    open_ = timed();
    if (open_) event_.begin_ns = monotonic_now_ns();
  }
  ~Scope() { stop(); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  /// True when a sink was on at construction, i.e. stop() measures.
  bool timed() const { return stat_ != nullptr || ring_ != nullptr; }

  /// Attaches a numeric arg to the span (exported under "args"). No-op
  /// when tracing was off, after stop(), or once kMaxSpanArgs are set.
  void arg(const char* key, double value) {
    if (ring_ == nullptr || !open_ || event_.num_args >= kMaxSpanArgs) return;
    event_.args[event_.num_args++] = {key, value};
  }

  /// Closes the scope early and returns its duration in ns (0 when both
  /// sinks were off). Idempotent: later calls, and the destructor, record
  /// nothing more and return the same value.
  std::int64_t stop() {
    if (!open_) return event_.dur_ns;
    open_ = false;
    event_.dur_ns = monotonic_now_ns() - event_.begin_ns;
    if (stat_ != nullptr) stat_->record_ns(event_.dur_ns);
    if (ring_ != nullptr) close_span();
    return event_.dur_ns;
  }

 private:
  void open_span(const char* name);
  void close_span();

  TimerStat* stat_;                           ///< null when metrics were off
  trace_detail::ThreadRing* ring_ = nullptr;  ///< null when tracing was off
  /// The span in flight; its begin/duration also serve the timer alone.
  trace_detail::TraceEvent event_;
  bool open_ = false;
};

// -------------------------------------------------------- flight recorder ----

/// Tags the calling thread's in-flight slot as anomalous. `tag` must be a
/// string literal (it is stored by pointer); use the metric counter name
/// of the triggering event, e.g. "core.dual.fallback.best_iterate".
/// No-op when tracing is disabled.
void trace_note_anomaly(const char* tag);

/// Opaque cursor into the calling thread's ring, taken at a slot boundary
/// so trace_flight_record_slot() can freeze exactly this slot's events.
/// Returns 0 when tracing is disabled.
std::uint64_t trace_slot_mark();

/// Identity of the slot being closed, attached to every capture.
struct SlotPostmortemContext {
  std::uint64_t run = 0;
  std::uint64_t slot = 0;
  std::int64_t latency_ns = 0;  ///< the slot's decision latency
};

/// Slot-boundary harvest: consumes the thread's pending anomaly notes.
/// When any are pending, the events recorded since `mark` are frozen into
/// the anomaly pool (bounded; overflow counted, never blocking). Every
/// slot is also offered to the separate slowest-N pool keyed on
/// latency_ns. No-op when tracing is disabled.
void trace_flight_record_slot(const SlotPostmortemContext& ctx,
                              std::uint64_t mark);

/// Number of anomaly captures currently held (clean runs: exactly 0).
std::size_t trace_anomaly_captures();
/// Anomalies triggered in total, including ones the bounded pool dropped.
std::uint64_t trace_anomalies_total();

// ------------------------------------------------------- snapshot / export ---

/// Folded per-name span counts plus ring-drop accounting. Counts cover
/// only events still resident in the rings; `dropped` is the number of
/// overwritten (lost) events across all rings.
struct TraceCounts {
  std::vector<std::pair<std::string, std::uint64_t>> per_name;
  std::uint64_t dropped = 0;
};

/// Name-sorted counts of resident events. Call while workers are
/// quiescent (after the replication pool joined) — rings are single-writer
/// and the fold does not lock them.
TraceCounts trace_counts();

/// Clears rings, pending notes, and both flight-recorder pools. Thread
/// registrations (and ring tids) survive, mirroring MetricsRegistry::reset.
void reset_trace();

/// Writes everything as one Chrome trace-event JSON document:
///   {"traceEvents": [{"name","ph":"X","ts","dur","pid","tid","args"}...],
///    "displayTimeUnit": "ns",
///    "femtocr": {"manifest": {...}, "span_counts": {...},
///                "dropped_events": N, "flight_recorder": {...}}}
/// ts/dur are microseconds (Chrome's unit), rebased to the earliest event.
/// Schema gated by tools/trace_report.py --check.
void write_trace_json(std::ostream& os, const MetricsManifest& manifest);

/// write_trace_json to `path`; logs a warning and returns false on I/O
/// failure instead of throwing.
bool write_trace_file(const std::string& path,
                      const MetricsManifest& manifest);

}  // namespace femtocr::util
