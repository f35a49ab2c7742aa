// Tests for the per-slot trace facility.
#include <gtest/gtest.h>

#include <sstream>

#include "sim/scenario.h"
#include "sim/simulator.h"
#include "sim/slot_log.h"

namespace femtocr::sim {
namespace {

Scenario tiny() {
  Scenario s = single_fbs_scenario(5);
  s.num_gops = 2;
  return s;
}

TEST(Trace, OneEntryPerSlotWithUserRows) {
  const Scenario s = tiny();
  SlotLog trace;
  Simulator sim(s, core::SchemeKind::kProposed, 0);
  sim.attach_slot_log(&trace);
  sim.run();
  ASSERT_EQ(trace.size(), s.gop_deadline * s.num_gops);
  for (const auto& e : trace.entries()) {
    EXPECT_EQ(e.users.size(), s.users.size());
    EXPECT_LE(e.collisions, e.available);
    EXPECT_GE(e.upper_bound, e.objective - 1e-9);
  }
  // Slot and GOP counters advance correctly.
  EXPECT_EQ(trace.entries().front().slot, 0u);
  EXPECT_EQ(trace.entries().back().slot, 19u);
  EXPECT_EQ(trace.entries().back().gop, 1u);
}

TEST(Trace, UserRowsAreConsistent) {
  const Scenario s = tiny();
  SlotLog trace;
  Simulator sim(s, core::SchemeKind::kHeuristic2, 0);
  sim.attach_slot_log(&trace);
  sim.run();
  for (const auto& e : trace.entries()) {
    for (const auto& u : e.users) {
      EXPECT_GE(u.rho, 0.0);
      EXPECT_LE(u.rho, 1.0 + 1e-9);
      EXPECT_GE(u.increment, 0.0);
      EXPECT_GT(u.psnr_after, 20.0);
    }
  }
}

TEST(Trace, TracingDoesNotPerturbResults) {
  const Scenario s = tiny();
  const RunResult plain = Simulator(s, core::SchemeKind::kProposed, 0).run();
  SlotLog trace;
  Simulator traced(s, core::SchemeKind::kProposed, 0);
  traced.attach_slot_log(&trace);
  const RunResult with_trace = traced.run();
  EXPECT_EQ(plain.user_mean_psnr, with_trace.user_mean_psnr);
}

TEST(Trace, CsvShape) {
  const Scenario s = tiny();
  SlotLog trace;
  Simulator sim(s, core::SchemeKind::kProposed, 0);
  sim.attach_slot_log(&trace);
  sim.run();
  std::ostringstream oss;
  trace.write_csv(oss);
  std::size_t lines = 0;
  for (char c : oss.str()) {
    if (c == '\n') ++lines;
  }
  EXPECT_EQ(lines, 1 + trace.size() * s.users.size());  // header + rows
  EXPECT_NE(oss.str().find("slot,gop,available"), std::string::npos);
  // The Eq. (23) bound-gap column sits between upper_bound and user so
  // scripts/plot_figures.py can plot it without recomputation.
  EXPECT_NE(oss.str().find("upper_bound,bound_gap,user"), std::string::npos);
  EXPECT_NE(oss.str().find("mbs"), std::string::npos);
}

TEST(Trace, ClearResets) {
  SlotLog trace;
  trace.record({});
  EXPECT_EQ(trace.size(), 1u);
  trace.clear();
  EXPECT_EQ(trace.size(), 0u);
}

}  // namespace
}  // namespace femtocr::sim
