// Online allocation engine (sim/engine.h): determinism across thread
// counts, churn accounting, both admission-rejection paths, graph
// verification, survival of zero-session stretches, equivalence with the
// batch driver, fault profiles, and each driver's counter set.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>

#include "sim/config_io.h"
#include "sim/engine.h"
#include "sim/scenario.h"
#include "sim/simulator.h"
#include "util/metrics.h"
#include "util/parallel.h"

namespace femtocr::sim {
namespace {

Scenario churn_scenario(std::uint64_t seed = 1) {
  Scenario s = fig1_scenario(seed);
  s.mobility.step_stddev = 3.0;
  s.finalize();
  return s;
}

EngineConfig churn_config() {
  EngineConfig cfg;
  cfg.slots = 120;
  cfg.churn.arrival_rate = 0.3;
  cfg.churn.mean_lifetime_slots = 40.0;
  cfg.churn.max_sessions_per_fbs = 4;
  cfg.churn.admission_min_psnr = 33.0;
  return cfg;
}

/// Every EngineReport field except the wall-clock latency block.
void expect_reports_identical(const EngineReport& a, const EngineReport& b) {
  EXPECT_EQ(a.slots, b.slots);
  EXPECT_EQ(a.arrivals, b.arrivals);
  EXPECT_EQ(a.admitted, b.admitted);
  EXPECT_EQ(a.rejected_capacity, b.rejected_capacity);
  EXPECT_EQ(a.rejected_qos, b.rejected_qos);
  EXPECT_EQ(a.departures, b.departures);
  EXPECT_EQ(a.handoffs, b.handoffs);
  EXPECT_EQ(a.peak_sessions, b.peak_sessions);
  EXPECT_EQ(a.idle_slots, b.idle_slots);
  EXPECT_EQ(a.max_components, b.max_components);
  EXPECT_EQ(a.completed_gops, b.completed_gops);
  EXPECT_EQ(a.mean_psnr, b.mean_psnr);  // bitwise, not approximate
  EXPECT_EQ(a.total_dual_iterations, b.total_dual_iterations);
  EXPECT_EQ(a.graph_cross_checks, b.graph_cross_checks);
}

struct ThreadDefaultGuard {
  ~ThreadDefaultGuard() { util::set_default_threads(0); }
};

TEST(Engine, ChurnRunIsDeterministicAcrossThreadCounts) {
  ThreadDefaultGuard guard;
  const Scenario s = churn_scenario();
  const EngineConfig cfg = churn_config();

  util::set_default_threads(1);
  const EngineReport reference = Engine(s, cfg, /*run_index=*/0).run();
  // The run must actually exercise the churn machinery, or determinism
  // over it is vacuous.
  EXPECT_GT(reference.arrivals, 0u);
  EXPECT_GT(reference.admitted, 0u);
  EXPECT_GT(reference.departures, 0u);
  EXPECT_GT(reference.completed_gops, 0u);
  EXPECT_GT(reference.mean_psnr, 0.0);

  for (const std::size_t threads : {std::size_t{2}, std::size_t{8}}) {
    util::set_default_threads(threads);
    const EngineReport rep = Engine(s, cfg, /*run_index=*/0).run();
    expect_reports_identical(reference, rep);
  }
}

TEST(Engine, RunIndexSelectsIndependentSubstreams) {
  const Scenario s = churn_scenario();
  const EngineConfig cfg = churn_config();
  const EngineReport r0 = Engine(s, cfg, 0).run();
  const EngineReport r1 = Engine(s, cfg, 1).run();
  // Different runs see different churn and fading; an identical delivered
  // quality would mean the run split is dead.
  EXPECT_NE(r0.mean_psnr, r1.mean_psnr);
  // And the same run index replays exactly.
  expect_reports_identical(r0, Engine(s, cfg, 0).run());
}

TEST(Engine, CapacityCapRejectsArrivals) {
  const Scenario s = churn_scenario();
  EngineConfig cfg = churn_config();
  cfg.churn.arrival_rate = 1.0;
  cfg.churn.mean_lifetime_slots = 200.0;  // nobody leaves: cells fill up
  cfg.churn.max_sessions_per_fbs = 2;     // fig1 starts at 2 per cell
  cfg.churn.admission_min_psnr = 0.0;     // isolate the capacity path
  const EngineReport rep = Engine(s, cfg, 0).run();
  EXPECT_GT(rep.rejected_capacity, 0u);
  EXPECT_EQ(rep.rejected_qos, 0u);
  EXPECT_EQ(rep.arrivals,
            rep.admitted + rep.rejected_capacity + rep.rejected_qos);
}

TEST(Engine, QosFloorRejectsArrivals) {
  const Scenario s = churn_scenario();
  EngineConfig cfg = churn_config();
  cfg.churn.arrival_rate = 0.5;
  cfg.churn.max_sessions_per_fbs = 100;  // capacity never binds
  cfg.churn.admission_min_psnr = 60.0;   // above any sequence's ceiling
  const EngineReport rep = Engine(s, cfg, 0).run();
  EXPECT_GT(rep.arrivals, 0u);
  EXPECT_EQ(rep.rejected_capacity, 0u);
  EXPECT_EQ(rep.rejected_qos, rep.arrivals);
  EXPECT_EQ(rep.admitted, 0u);
}

TEST(Engine, AdmissionPolicyDoesNotDesyncTheChurnStream) {
  // Lifetimes are drawn for rejected arrivals too, so the offered-traffic
  // process is invariant to the admission policy.
  const Scenario s = churn_scenario();
  EngineConfig open = churn_config();
  open.churn.admission_min_psnr = 0.0;
  open.churn.max_sessions_per_fbs = 100;
  EngineConfig closed = open;
  closed.churn.admission_min_psnr = 60.0;  // rejects everyone
  const EngineReport a = Engine(s, open, 0).run();
  const EngineReport b = Engine(s, closed, 0).run();
  EXPECT_EQ(a.arrivals, b.arrivals);
}

TEST(Engine, VerifyGraphCrossChecksEveryChurnAndMobilityEvent) {
  const Scenario s = churn_scenario();
  EngineConfig cfg = churn_config();
  cfg.verify_graph = true;
  const EngineReport rep = Engine(s, cfg, 0).run();
  // One check per churn slot plus one per mobility boundary; a divergence
  // would have aborted (FEMTOCR_CHECK), so arriving here IS the assertion.
  EXPECT_GE(rep.graph_cross_checks, rep.slots);
}

TEST(Engine, SurvivesZeroSessionStretches) {
  const Scenario s = churn_scenario();
  EngineConfig cfg = churn_config();
  cfg.slots = 200;
  cfg.churn.arrival_rate = 0.02;        // trickle in…
  cfg.churn.mean_lifetime_slots = 2.0;  // …and leave at once
  cfg.verify_graph = true;
  const EngineReport rep = Engine(s, cfg, 0).run();
  EXPECT_GT(rep.idle_slots, 0u);
  // The hard invariant is that the engine reached the horizon at all and
  // kept the graph consistent while the population drained to zero.
  EXPECT_EQ(rep.slots, cfg.slots);
}

TEST(Engine, NoChurnMatchesInitialPopulationServing) {
  // arrival_rate 0 disables churn: the initial population runs to the
  // horizon, nobody departs, no idle slots — and without mobility the
  // active graph equals the static one, so the engine is the batch driver
  // slot for slot. The two reports fold the same GOP readouts in a
  // different order (all readouts vs per-user means), hence the relative
  // tolerance on the PSNR; the solver work must match exactly.
  for (const bool distributed : {false, true}) {
    SCOPED_TRACE(distributed ? "dual solver" : "greedy + water-fill");
    Scenario s = fig1_scenario(1);
    s.use_distributed_solver = distributed;
    s.finalize();
    EngineConfig cfg;
    cfg.slots = s.gop_deadline * s.num_gops;
    const EngineReport rep = Engine(s, cfg, 0).run();
    EXPECT_EQ(rep.arrivals, 0u);
    EXPECT_EQ(rep.departures, 0u);
    EXPECT_EQ(rep.idle_slots, 0u);
    EXPECT_EQ(rep.peak_sessions, s.users.size());
    EXPECT_GT(rep.mean_psnr, 0.0);

    const RunResult batch =
        Simulator(s, core::SchemeKind::kProposed, 0).run();
    EXPECT_EQ(rep.total_dual_iterations, batch.total_dual_iterations);
    EXPECT_EQ(rep.max_components, batch.max_components);
    EXPECT_NEAR(rep.mean_psnr, batch.mean_psnr, 1e-12 * batch.mean_psnr);
  }
}

TEST(Engine, BatchDriverKeepsTheStaticGraph) {
  // The one driver-fixed difference: the engine allocates against the
  // active graph, the batch driver against the static coverage graph. On
  // this seed a handoff empties a cell; only the engine drops its edges.
  Scenario s = fig1_scenario(2);
  s.mobility.step_stddev = 3.0;
  s.finalize();
  EngineConfig cfg;
  cfg.slots = s.gop_deadline * s.num_gops;
  const EngineReport online = Engine(s, cfg, 0).run();
  const RunResult batch = Simulator(s, core::SchemeKind::kProposed, 0).run();
  EXPECT_EQ(online.max_components, 4u);
  EXPECT_EQ(batch.max_components, 3u);
  EXPECT_NEAR(online.mean_psnr, 34.97602, 5e-5);
  EXPECT_NEAR(batch.mean_psnr, 34.97950, 5e-5);
}

/// Registry counter total by name; 0 when it was never registered.
std::uint64_t counter_total(const std::string& name) {
  for (const auto& [n, v] : util::metrics().snapshot().counters) {
    if (n == name) return v;
  }
  return 0;
}

struct MetricsEnabledGuard {
  bool prev = util::metrics_enabled();
  MetricsEnabledGuard() { util::set_metrics_enabled(true); }
  ~MetricsEnabledGuard() { util::set_metrics_enabled(prev); }
};

TEST(Engine, FaultProfilesReachTheEngine) {
  ThreadDefaultGuard guard;
  const MetricsEnabledGuard metrics_on;
  std::ifstream in(std::string(FEMTOCR_SOURCE_DIR) +
                   "/tools/profiles/chaos_smoke.cfg");
  ASSERT_TRUE(in) << "chaos_smoke.cfg not found";
  std::ostringstream text;
  text << in.rdbuf();
  Scenario s = churn_scenario();
  apply_fault_profile_string(text.str(), s);
  s.finalize();
  const EngineConfig cfg = churn_config();

  util::set_default_threads(1);
  util::metrics().reset();
  const EngineReport reference = Engine(s, cfg, 0).run();
  for (const char* name :
       {"sim.faults.sensing_outages", "sim.faults.control_losses",
        "sim.faults.fbs_outages", "sim.faults.primary_bursts",
        "sim.faults.budget_squeezes"}) {
    EXPECT_GT(counter_total(name), 0u) << name;
  }
  EXPECT_GT(reference.admitted, 0u);
  EXPECT_GT(reference.departures, 0u);
  for (const std::size_t threads : {std::size_t{2}, std::size_t{8}}) {
    util::set_default_threads(threads);
    expect_reports_identical(reference, Engine(s, cfg, 0).run());
  }

  // A profile whose every rate is zero is off: bitwise the fault-free run.
  const Scenario plain = churn_scenario();
  Scenario disabled = plain;
  apply_fault_profile_string(
      "fault_sensing_outage_slots = 4\n"
      "fault_fbs_outage_slots = 3\n"
      "fault_budget_squeeze_iterations = 7\n",
      disabled);
  disabled.finalize();
  util::metrics().reset();
  expect_reports_identical(Engine(plain, cfg, 0).run(),
                           Engine(disabled, cfg, 0).run());
  EXPECT_EQ(counter_total("sim.faults.budget_squeezes"), 0u);
}

TEST(Engine, DriversKeepTheirOwnCounterSets) {
  // Each driver bumps only its own slot tallies: the benchmark compares
  // every non-sim.engine.* counter of Engine::run() with a replay that
  // never bumps sim.slots.
  const MetricsEnabledGuard metrics_on;
  const Scenario s = churn_scenario();
  const EngineConfig cfg = churn_config();

  util::metrics().reset();
  const EngineReport online = Engine(s, cfg, 0).run();
  EXPECT_EQ(counter_total("sim.slots"), 0u);
  EXPECT_EQ(counter_total("sim.engine.slots"), online.slots);
  EXPECT_EQ(counter_total("sim.engine.handoffs"), online.handoffs);
  EXPECT_GT(online.handoffs, 0u);

  util::metrics().reset();
  const RunResult batch = Simulator(s, core::SchemeKind::kProposed, 0).run();
  EXPECT_EQ(counter_total("sim.slots"), batch.slots);
  for (const auto& [name, value] : util::metrics().snapshot().counters) {
    if (name.rfind("sim.engine.", 0) == 0) {
      EXPECT_EQ(value, 0u) << name;
    }
  }
}

}  // namespace
}  // namespace femtocr::sim
