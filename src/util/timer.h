// Monotonic wall-clock access for the whole tree.
//
// This header and timer.cpp are the ONLY places in the repository allowed
// to touch the raw std::chrono clocks (enforced by the no-raw-chrono-clock
// lint rule). Everything that needs wall time goes through
// monotonic_now_ns() or a Stopwatch, so "how the tree measures time" has
// exactly one definition. Library code outside src/util/ times a region
// with util::Scope (util/trace.h) instead, which feeds the metrics timer
// and the span ring from one pair of readings; the harnesses under bench/
// and perfbench/ use Stopwatch directly.
//
// Wall-clock readings are inherently nondeterministic; nothing printed to
// stdout may ever depend on them (the determinism contract of
// util/parallel.h). Timings flow to stderr or to --metrics-out JSON only.
#pragma once

#include <cstdint>
#include <string>

namespace femtocr::util {

/// Monotonic timestamp in nanoseconds (steady_clock under the hood). The
/// epoch is unspecified; only differences are meaningful.
std::int64_t monotonic_now_ns();

/// Current wall-clock time as a UTC ISO-8601 string ("2026-02-14T09:30:01Z",
/// system_clock under the hood). Provenance metadata for the JSON manifests
/// only — like every wall-clock reading, it must never reach stdout.
std::string wall_clock_iso8601();

/// Restartable wall-clock stopwatch over monotonic_now_ns().
class Stopwatch {
 public:
  Stopwatch() : start_ns_(monotonic_now_ns()) {}

  /// Re-arms the stopwatch at the current instant.
  void restart() { start_ns_ = monotonic_now_ns(); }

  std::int64_t elapsed_ns() const { return monotonic_now_ns() - start_ns_; }
  double elapsed_seconds() const {
    return static_cast<double>(elapsed_ns()) * 1e-9;
  }

 private:
  std::int64_t start_ns_;
};

}  // namespace femtocr::util
