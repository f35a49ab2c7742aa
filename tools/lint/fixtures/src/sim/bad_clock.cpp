// Seeded fixture: raw std::chrono clock reads that no-raw-chrono-clock
// must flag. The self-test pins exactly 5 violations in this file — the
// two ::now() calls (qualified and via namespace alias), the
// high_resolution_clock mention, and the hand-rolled util::Stopwatch and
// util::monotonic_now_ns() stopwatch outside src/util/. The suppressed
// line must NOT be reported.
#include <chrono>

#include "util/timer.h"

namespace femtocr::sim {

long fixture_raw_steady_read() {
  const auto t = std::chrono::steady_clock::now();
  return t.time_since_epoch().count();
}

long fixture_namespace_alias_read() {
  namespace sc = std::chrono;
  return sc::system_clock::now().time_since_epoch().count();
}

using bad_clock = std::chrono::high_resolution_clock;

long fixture_hand_rolled_stopwatch() {
  const util::Stopwatch watch;
  const long begin = util::monotonic_now_ns();
  return watch.elapsed_ns() - begin;
}

long fixture_allowed_read() {
  return std::chrono::steady_clock::now()  // lint-allow: no-raw-chrono-clock
      .time_since_epoch()
      .count();
}

}  // namespace femtocr::sim
