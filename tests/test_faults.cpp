// Tests for the deterministic fault-injection layer (sim/faults.h): plan
// determinism and inertness when disabled, bitwise invisibility of a
// disabled profile in full runs, thread-count invariance of faulty runs,
// the Eq. (7)/(9) collision-budget property under frozen beliefs, the
// PSNR cost of FBS outages, and the --fault-profile overlay parser.
#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <vector>

#include "sim/config_io.h"
#include "sim/experiment.h"
#include "sim/faults.h"
#include "sim/scenario.h"
#include "spectrum/access.h"
#include "util/metrics.h"
#include "util/parallel.h"
#include "util/rng.h"

namespace femtocr::sim {
namespace {

/// Restores the thread default on scope exit (test_determinism.cpp idiom).
struct ThreadDefaultGuard {
  ~ThreadDefaultGuard() { util::set_default_threads(0); }
};

FaultProfile chaos_profile() {
  FaultProfile f;
  f.sensing_outage_rate = 0.08;
  f.sensing_outage_slots = 2;
  f.control_loss_rate = 0.06;
  f.fbs_outage_rate = 0.05;
  f.fbs_outage_slots = 2;
  f.primary_burst_rate = 0.08;
  f.primary_burst_slots = 1;
  f.budget_squeeze_rate = 0.15;
  f.budget_squeeze_iterations = 5;
  return f;
}

void expect_identical(const RunResult& a, const RunResult& b) {
  EXPECT_EQ(a.mean_psnr, b.mean_psnr);  // bitwise, deliberately
  EXPECT_EQ(a.collision_rate, b.collision_rate);
  EXPECT_EQ(a.avg_available, b.avg_available);
  EXPECT_EQ(a.avg_expected_channels, b.avg_expected_channels);
  EXPECT_EQ(a.total_dual_iterations, b.total_dual_iterations);
  ASSERT_EQ(a.user_mean_psnr.size(), b.user_mean_psnr.size());
  for (std::size_t j = 0; j < a.user_mean_psnr.size(); ++j) {
    EXPECT_EQ(a.user_mean_psnr[j], b.user_mean_psnr[j]);
  }
}

TEST(FaultPlan, DisabledPlansAnswerNothing) {
  const FaultPlan defaulted;
  EXPECT_FALSE(defaulted.enabled());
  const FaultPlan zeros(FaultProfile{}, 200, 3, 8, /*seed=*/1,
                        /*run_index=*/0);
  EXPECT_FALSE(zeros.enabled());
  for (const FaultPlan* p : {&defaulted, &zeros}) {
    for (std::size_t t : {std::size_t{0}, std::size_t{7}, std::size_t{1999}}) {
      EXPECT_FALSE(p->sensing_outage(t));
      EXPECT_FALSE(p->control_loss(t));
      EXPECT_FALSE(p->fbs_down(t, 0));
      EXPECT_FALSE(p->primary_burst(t, 5));
      EXPECT_EQ(p->iteration_cap(t), 0u);
    }
  }
}

TEST(FaultPlan, DeterministicInSeedAndRunIndex) {
  const FaultProfile f = chaos_profile();
  const FaultPlan a(f, 300, 3, 8, 42, 1);
  const FaultPlan b(f, 300, 3, 8, 42, 1);
  const FaultPlan other_run(f, 300, 3, 8, 42, 2);
  bool any = false;
  bool differs = false;
  for (std::size_t t = 0; t < 300; ++t) {
    EXPECT_EQ(a.sensing_outage(t), b.sensing_outage(t));
    EXPECT_EQ(a.control_loss(t), b.control_loss(t));
    EXPECT_EQ(a.iteration_cap(t), b.iteration_cap(t));
    for (std::size_t i = 0; i < 3; ++i) {
      EXPECT_EQ(a.fbs_down(t, i), b.fbs_down(t, i));
    }
    for (std::size_t m = 0; m < 8; ++m) {
      EXPECT_EQ(a.primary_burst(t, m), b.primary_burst(t, m));
    }
    any = any || a.sensing_outage(t) || a.control_loss(t) ||
          a.iteration_cap(t) > 0;
    differs = differs || a.sensing_outage(t) != other_run.sensing_outage(t) ||
              a.control_loss(t) != other_run.control_loss(t);
  }
  EXPECT_TRUE(any) << "chaos profile never fired in 300 slots";
  EXPECT_TRUE(differs) << "run substreams are not independent";
}

TEST(FaultPlan, OutageIntervalsRespectDuration) {
  // With duration d, every outage start covers d consecutive slots, so the
  // flagged set decomposes into runs of length >= d (truncated at the end).
  FaultProfile f;
  f.sensing_outage_rate = 0.1;
  f.sensing_outage_slots = 4;
  const std::size_t slots = 400;
  const FaultPlan plan(f, slots, 1, 1, 7, 0);
  std::size_t run_length = 0;
  for (std::size_t t = 0; t < slots; ++t) {
    if (plan.sensing_outage(t)) {
      ++run_length;
    } else {
      if (run_length > 0) {
        EXPECT_GE(run_length, 4u) << "slot " << t;
      }
      run_length = 0;
    }
  }
}

TEST(FaultProfile, ValidateRejectsBadInputs) {
  FaultProfile f;
  f.sensing_outage_rate = 1.5;
  EXPECT_THROW(f.validate(), std::logic_error);
  f = FaultProfile{};
  f.control_loss_rate = -0.1;
  EXPECT_THROW(f.validate(), std::logic_error);
  f = FaultProfile{};
  f.fbs_outage_rate = 0.1;
  f.fbs_outage_slots = 0;
  EXPECT_THROW(f.validate(), std::logic_error);
  f = FaultProfile{};
  f.budget_squeeze_rate = 0.1;
  f.budget_squeeze_iterations = 0;
  EXPECT_THROW(f.validate(), std::logic_error);
  EXPECT_NO_THROW(FaultProfile{}.validate());
  EXPECT_NO_THROW(chaos_profile().validate());
}

TEST(FaultSim, DisabledProfileIsBitwiseInvisible) {
  // A profile whose rates are all zero must not perturb the run, whatever
  // its (unused) durations say — the simulator may not consume a single
  // draw on its behalf.
  Scenario plain = single_fbs_scenario(/*seed=*/11);
  Scenario zeroed = single_fbs_scenario(/*seed=*/11);
  zeroed.faults.sensing_outage_slots = 99;
  zeroed.faults.fbs_outage_slots = 42;
  zeroed.faults.budget_squeeze_iterations = 1;
  zeroed.finalize();
  const auto a = run_results(plain, core::SchemeKind::kProposed, 3);
  const auto b = run_results(zeroed, core::SchemeKind::kProposed, 3);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t r = 0; r < a.size(); ++r) expect_identical(a[r], b[r]);
}

TEST(FaultSim, FaultyRunsAreThreadCountInvariant) {
  // The whole point of realizing the plan up front: an active fault profile
  // (including solver squeezes and the fallback rung) must stay bitwise
  // identical across worker counts.
  ThreadDefaultGuard guard;
  Scenario scenario = single_fbs_scenario(/*seed=*/5);
  scenario.use_distributed_solver = true;
  scenario.dual.max_iterations = 400;
  scenario.dual.allow_fallback = true;
  scenario.faults = chaos_profile();
  scenario.finalize();

  util::set_default_threads(1);
  const auto reference = run_results(scenario, core::SchemeKind::kProposed, 4);
  for (const std::size_t threads : {std::size_t{2}, std::size_t{8}}) {
    util::set_default_threads(threads);
    const auto got = run_results(scenario, core::SchemeKind::kProposed, 4);
    ASSERT_EQ(got.size(), reference.size()) << threads << " threads";
    for (std::size_t r = 0; r < got.size(); ++r) {
      expect_identical(reference[r], got[r]);
    }
  }
}

TEST(FaultSim, AccessRuleHoldsGammaUnderFrozenBeliefs) {
  // Property: the collision budget is a property of the access *rule* —
  // (1 - P^A_m) P^D_m <= gamma — and must hold for any posterior vector the
  // network might act on, in particular the stale ones a sensing outage
  // freezes. Random posteriors (including the belief-update path's exact
  // 0 and 1 endpoints) x random budgets.
  util::Rng rng(4242);
  for (int trial = 0; trial < 200; ++trial) {
    const double gamma = 0.01 + 0.5 * rng.uniform();
    std::vector<double> posteriors(8);
    for (auto& p : posteriors) {
      const double u = rng.uniform();
      p = u < 0.05 ? 0.0 : (u > 0.95 ? 1.0 : rng.uniform());
    }
    const auto outcome = spectrum::decide_access(posteriors, gamma, rng);
    for (const auto& d : outcome.decisions) {
      EXPECT_GE(d.access_prob, 0.0);
      EXPECT_LE(d.access_prob, 1.0);
      EXPECT_LE((1.0 - d.posterior_idle) * d.access_prob,
                gamma * (1.0 + 1e-12))
          << "posterior " << d.posterior_idle << " gamma " << gamma;
    }
  }
}

TEST(FaultSim, FbsOutagesLowerDeliveredQuality) {
  Scenario healthy = single_fbs_scenario(/*seed=*/3);
  Scenario outages = single_fbs_scenario(/*seed=*/3);
  outages.faults.fbs_outage_rate = 0.25;
  outages.faults.fbs_outage_slots = 4;
  outages.finalize();
  const auto h = run_experiment(healthy, core::SchemeKind::kProposed, 3);
  const auto o = run_experiment(outages, core::SchemeKind::kProposed, 3);
  EXPECT_LT(o.mean_psnr.mean(), h.mean_psnr.mean());
  // The run completed through the outages with every contract intact and
  // the fault counters lit.
  EXPECT_GT(util::metrics().counter("sim.faults.fbs_outages").total(), 0u);
}

TEST(FaultConfig, OverlayParsesAndValidates) {
  Scenario s = single_fbs_scenario(/*seed=*/1);
  apply_fault_profile_string(
      "distributed_solver = on\n"
      "dual_fallback = on\n"
      "fault_sensing_outage_rate = 0.05 # with a comment\n"
      "fault_budget_squeeze_rate = 0.2\n"
      "fault_budget_squeeze_iterations = 7\n",
      s);
  EXPECT_TRUE(s.use_distributed_solver);
  EXPECT_TRUE(s.dual.allow_fallback);
  EXPECT_DOUBLE_EQ(s.faults.sensing_outage_rate, 0.05);
  EXPECT_DOUBLE_EQ(s.faults.budget_squeeze_rate, 0.2);
  EXPECT_EQ(s.faults.budget_squeeze_iterations, 7u);
  EXPECT_TRUE(s.faults.enabled());

  Scenario t = single_fbs_scenario(/*seed=*/1);
  // Scenario keys are not robustness keys: the overlay must reject them.
  EXPECT_THROW(apply_fault_profile_string("channels = 4\n", t),
               std::logic_error);
  EXPECT_THROW(apply_fault_profile_string("fault_control_loss_rate = 2.0\n", t),
               std::logic_error);
  EXPECT_THROW(apply_fault_profile_string(
                   "fault_fbs_outage_rate = 0.1\nfault_fbs_outage_slots = 0\n",
                   t),
               std::logic_error);
  EXPECT_THROW(apply_fault_profile_string("dual_fallback = maybe\n", t),
               std::logic_error);
  // There are no step-backoff retry keys: a profile that names one is
  // rejected, not silently run without retries.
  EXPECT_THROW(apply_fault_profile_string("dual_max_retries = 1\n", t),
               std::logic_error);
}

TEST(FaultConfig, ScenarioFileAcceptsRobustnessKeys) {
  const Scenario s = load_scenario_string(
      "base = single\n"
      "seed = 9\n"
      "distributed_solver = on\n"
      "dual_fallback = on\n"
      "fault_primary_burst_rate = 0.1\n");
  EXPECT_TRUE(s.use_distributed_solver);
  EXPECT_TRUE(s.dual.allow_fallback);
  EXPECT_DOUBLE_EQ(s.faults.primary_burst_rate, 0.1);
}

TEST(FaultConfig, SaveRoundTripsRobustnessKeys) {
  Scenario s = single_fbs_scenario(/*seed=*/1);
  s.use_distributed_solver = true;
  s.dual.allow_fallback = true;
  s.dual.best_iterate_stride = 16;
  s.faults = chaos_profile();
  s.finalize();
  std::ostringstream out;
  save_scenario(out, s, "single", 3);
  const Scenario loaded = load_scenario_string(out.str());
  EXPECT_TRUE(loaded.use_distributed_solver);
  EXPECT_TRUE(loaded.dual.allow_fallback);
  EXPECT_EQ(loaded.dual.best_iterate_stride, 16u);
  EXPECT_DOUBLE_EQ(loaded.faults.sensing_outage_rate,
                   s.faults.sensing_outage_rate);
  EXPECT_EQ(loaded.faults.budget_squeeze_iterations,
            s.faults.budget_squeeze_iterations);
}

}  // namespace
}  // namespace femtocr::sim
