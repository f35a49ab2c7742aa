// Property-based suites (parameterized over seeds): the paper's structural
// results — Theorem 1's binary assignment, Lemma 1's concavity, Lemma 4's
// interference feasibility, Theorem 2's bound — checked on randomized
// instances, plus Bayes-consistency of sensing fusion and the collision
// constraint, across the whole seed sweep.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "core/dual_solver.h"
#include "core/exact.h"
#include "core/greedy.h"
#include "core/kkt.h"
#include "core/objective.h"
#include "core/scheme.h"
#include "core/slot_cache.h"
#include "core/waterfill.h"
#include "spectrum/access.h"
#include "spectrum/sensing.h"
#include "test_helpers.h"
#include "util/metrics.h"
#include "util/rng.h"
#include "util/stats.h"

namespace femtocr {
namespace {

class SeededProperty : public ::testing::TestWithParam<std::uint64_t> {};

INSTANTIATE_TEST_SUITE_P(Seeds, SeededProperty,
                         ::testing::Range<std::uint64_t>(1, 21));

// Random interference graph on 3-4 vertices with random edges.
test::ContextFixture random_interfering_context(util::Rng& rng) {
  const std::size_t num_fbs = 3 + rng.index(2);
  std::vector<std::pair<std::size_t, std::size_t>> edges;
  for (std::size_t a = 0; a < num_fbs; ++a) {
    for (std::size_t b = a + 1; b < num_fbs; ++b) {
      if (rng.bernoulli(0.4)) edges.emplace_back(a, b);
    }
  }
  const std::size_t num_users = num_fbs * 2;
  const std::size_t num_channels = 2 + rng.index(2);
  return test::random_context(rng, num_users, num_fbs, num_channels, edges);
}

TEST_P(SeededProperty, Theorem1BinaryAssignment) {
  util::Rng rng(GetParam() * 7919);
  auto f = test::random_context(rng, 5, 2, 3);
  const std::vector<double> gt(2, f.ctx.total_expected_channels());
  const core::SlotAllocation a = core::waterfill_solve(f.ctx, gt);
  for (std::size_t j = 0; j < f.ctx.users.size(); ++j) {
    // p*q = 0: a user never splits a slot across both base stations.
    EXPECT_DOUBLE_EQ(a.rho_mbs[j] * a.rho_fbs[j], 0.0);
  }
}

TEST_P(SeededProperty, Lemma1ConcavityInShares) {
  // For a fixed assignment the objective is concave in (rho_mbs, rho_fbs):
  // value at the midpoint of two random feasible points dominates the
  // average of the endpoint values.
  util::Rng rng(GetParam() * 104729);
  auto f = test::random_context(rng, 4, 1, 3);
  const double g = f.ctx.total_expected_channels();
  auto random_alloc = [&] {
    core::SlotAllocation a = core::SlotAllocation::zeros(f.ctx);
    a.expected_channels = {g};
    double budget_mbs = 1.0, budget_fbs = 1.0;
    for (std::size_t j = 0; j < 4; ++j) {
      a.use_mbs[j] = j < 2;  // fixed assignment across both endpoints
      if (a.use_mbs[j]) {
        a.rho_mbs[j] = rng.uniform(0.0, budget_mbs);
        budget_mbs -= a.rho_mbs[j];
      } else {
        a.rho_fbs[j] = rng.uniform(0.0, budget_fbs);
        budget_fbs -= a.rho_fbs[j];
      }
    }
    return a;
  };
  const core::SlotAllocation x = random_alloc();
  const core::SlotAllocation y = random_alloc();
  core::SlotAllocation mid = x;
  for (std::size_t j = 0; j < 4; ++j) {
    mid.rho_mbs[j] = 0.5 * (x.rho_mbs[j] + y.rho_mbs[j]);
    mid.rho_fbs[j] = 0.5 * (x.rho_fbs[j] + y.rho_fbs[j]);
  }
  const double vx = core::slot_objective(f.ctx, x);
  const double vy = core::slot_objective(f.ctx, y);
  const double vm = core::slot_objective(f.ctx, mid);
  EXPECT_GE(vm, 0.5 * (vx + vy) - 1e-9);
}

TEST_P(SeededProperty, Lemma4InterferenceFeasibility) {
  util::Rng rng(GetParam() * 1299709);
  auto f = random_interfering_context(rng);
  const core::GreedyResult r = core::greedy_allocate(f.ctx);
  EXPECT_TRUE(r.allocation.feasible(f.ctx));
  for (std::size_t i = 0; i < f.ctx.num_fbs; ++i) {
    for (std::size_t n : f.ctx.graph->neighbors(i)) {
      for (std::size_t m : r.allocation.channels[i]) {
        for (std::size_t m2 : r.allocation.channels[n]) {
          ASSERT_NE(m, m2) << "FBS " << i << " and " << n
                           << " share channel " << m;
        }
      }
    }
  }
}

TEST_P(SeededProperty, Theorem2BoundOnRandomGraphs) {
  util::Rng rng(GetParam() * 15485863);
  auto f = random_interfering_context(rng);
  if (f.ctx.available.size() > 3 && f.ctx.num_fbs > 3) return;  // keep exact cheap
  const core::GreedyResult g = core::greedy_allocate(f.ctx);
  const core::ExactResult e = core::exact_allocate(f.ctx);
  const double greedy_gain = g.allocation.objective - g.q_empty;
  const double optimal_gain = e.allocation.objective - g.q_empty;
  const double dmax = static_cast<double>(f.ctx.graph->max_degree());
  // Theorem 2 (incremental form) and Eq. 23 dominance.
  EXPECT_GE(greedy_gain + 1e-6, optimal_gain / (1.0 + dmax));
  EXPECT_GE(g.bound_tight + 1e-6, e.allocation.objective);
  EXPECT_LE(g.bound_tight, g.bound_dmax + 1e-9);
}

TEST_P(SeededProperty, GreedyNeverBeatsExact) {
  util::Rng rng(GetParam() * 32452843);
  auto f = random_interfering_context(rng);
  if (f.ctx.available.size() > 3 && f.ctx.num_fbs > 3) return;
  const core::GreedyResult g = core::greedy_allocate(f.ctx);
  const core::ExactResult e = core::exact_allocate(f.ctx);
  EXPECT_LE(g.allocation.objective, e.allocation.objective + 1e-6);
}

TEST_P(SeededProperty, SensingFusionOrderInvariant) {
  // Eq. (2) is a product of likelihood ratios: fusing reports in any order
  // gives the same posterior.
  util::Rng rng(GetParam() * 49979687);
  const double eta = rng.uniform(0.2, 0.8);
  std::vector<spectrum::SensingReport> reports;
  const std::size_t n = 2 + rng.index(5);
  for (std::size_t i = 0; i < n; ++i) {
    spectrum::SensorModel s{rng.uniform(0.05, 0.45), rng.uniform(0.05, 0.45)};
    reports.push_back({rng.bernoulli(0.5) ? 1 : 0, s});
  }
  const double forward =
      spectrum::posterior_idle(util::Prob{eta}, reports).value();
  std::vector<spectrum::SensingReport> reversed(reports.rbegin(),
                                                reports.rend());
  EXPECT_NEAR(forward,
              spectrum::posterior_idle(util::Prob{eta}, reversed).value(),
              1e-12);
  // And the iterative recursion agrees with the batch form.
  double iterative = 1.0 - eta;
  for (const auto& r : reports) {
    iterative =
        spectrum::posterior_idle_update(util::Prob{iterative}, r).value();
  }
  EXPECT_NEAR(forward, iterative, 1e-12);
}

TEST_P(SeededProperty, CollisionConstraintEq6) {
  util::Rng rng(GetParam() * 67867967);
  for (int i = 0; i < 100; ++i) {
    const double pa = rng.uniform();
    const double gamma = rng.uniform();
    const double pd =
        spectrum::access_probability(util::Prob{pa}, util::Prob{gamma})
            .value();
    EXPECT_LE((1.0 - pa) * pd, gamma + 1e-12);
    EXPECT_GE(pd, 0.0);
    EXPECT_LE(pd, 1.0);
  }
}

TEST_P(SeededProperty, SchemesAlwaysFeasibleOnRandomInstances) {
  // Heuristic 1 is checked for slot-budget feasibility only: its
  // uncoordinated access violates the interference constraint by design on
  // interfering topologies.
  util::Rng rng(GetParam() * 86028121);
  auto f = random_interfering_context(rng);
  for (auto kind : {core::SchemeKind::kProposed, core::SchemeKind::kHeuristic1,
                    core::SchemeKind::kHeuristic2}) {
    auto scheme = core::make_scheme(kind);
    const core::SlotAllocation a = scheme->allocate(f.ctx);
    if (kind != core::SchemeKind::kHeuristic1 ||
        f.ctx.graph->num_edges() == 0) {
      EXPECT_TRUE(a.feasible(f.ctx)) << scheme->name();
    } else {
      double sum_mbs = 0.0;
      std::vector<double> sum_fbs(f.ctx.num_fbs, 0.0);
      for (std::size_t j = 0; j < f.ctx.users.size(); ++j) {
        sum_mbs += a.rho_mbs[j];
        sum_fbs[f.ctx.users[j].fbs] += a.rho_fbs[j];
      }
      EXPECT_LE(sum_mbs, 1.0 + 1e-9);
      for (double s : sum_fbs) EXPECT_LE(s, 1.0 + 1e-9);
    }
    EXPECT_GE(a.objective, 0.0);
  }
}

TEST_P(SeededProperty, WaterfillSatisfiesKkt) {
  // Full first-order certification of the production solver on random
  // instances: equalized water levels, no profitable exclusion, bound
  // budgets, no unspent-but-wanted capacity, no profitable flip.
  util::Rng rng(GetParam() * 179424673);
  const std::size_t num_users = 3 + rng.index(4);
  const std::size_t num_fbs = 1 + rng.index(2);
  auto f = test::random_context(rng, num_users, num_fbs, 3);
  std::vector<double> gt;
  for (std::size_t i = 0; i < num_fbs; ++i) gt.push_back(rng.uniform(0.3, 3.0));
  const core::SlotAllocation a = core::waterfill_solve(f.ctx, gt);
  const core::KktReport r = core::check_kkt(f.ctx, gt, a);
  EXPECT_TRUE(r.optimal(1e-4))
      << "stationarity " << r.stationarity_residual << " exclusion "
      << r.exclusion_residual << " budget " << r.budget_violation
      << " slack " << r.slack_residual << " regret " << r.assignment_regret;
}

TEST_P(SeededProperty, SensingPosteriorIsCalibrated) {
  // For random (eta, eps, delta), E[posterior] over sensing randomness
  // must equal the true idle probability (law of total expectation) — the
  // Bayes-consistency that makes expected-G_t accounting unbiased (A2).
  util::Rng rng(GetParam() * 198491317);
  const double eta = rng.uniform(0.2, 0.8);
  const spectrum::SensorModel sensor{rng.uniform(0.05, 0.45),
                                     rng.uniform(0.05, 0.45)};
  util::RunningStat posterior;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const bool busy = rng.bernoulli(eta);
    const std::vector<int> thetas = {sensor.sense(busy, rng),
                                     sensor.sense(busy, rng)};
    posterior.add(
        spectrum::posterior_idle(util::Prob{eta}, sensor, thetas).value());
  }
  EXPECT_NEAR(posterior.mean(), 1.0 - eta, 0.02);
}

TEST_P(SeededProperty, MoreChannelsNeverHurt) {
  // Monotonicity behind Fig. 4(b): adding an available channel (weakly)
  // increases the optimal objective in the non-interfering case.
  util::Rng rng(GetParam() * 122949829);
  auto f = test::random_context(rng, 4, 1, 4);
  double prev = -1e300;
  for (std::size_t used = 0; used <= 4; ++used) {
    double g = 0.0;
    for (std::size_t a = 0; a < used; ++a) g += f.ctx.posterior[a];
    const double q = core::waterfill_solve(f.ctx, {g}).objective;
    EXPECT_GE(q, prev - 1e-9);
    prev = q;
  }
}

// Wider 50-seed sweeps for the scale-out PR: the dual decomposition's
// recovered primal against the brute-force assignment optimum, and the
// Theorem-2 / Eq.-23 greedy guarantees on random interference graphs.
class WideSeededProperty : public ::testing::TestWithParam<std::uint64_t> {};

INSTANTIATE_TEST_SUITE_P(Seeds, WideSeededProperty,
                         ::testing::Range<std::uint64_t>(1, 51));

TEST_P(WideSeededProperty, DualRecoveredPrimalNearExhaustiveOptimum) {
  // Problem (12) for a fixed expected channel count: solve_dual's recovered
  // primal must (a) never beat the enumerated optimum (waterfill over all
  // 2^K assignments) and (b) land within a small duality/step-size gap of
  // it. Empirically the worst relative gap over this sweep is ~2e-3; the 1%
  // tolerance leaves ~5x margin without masking real regressions.
  util::Rng rng(GetParam() * 86028121ull);
  const std::size_t users = 4 + rng.index(5);
  const std::size_t fbs = 1 + rng.index(3);
  const std::size_t channels = 2 + rng.index(3);
  auto f = test::random_context(rng, users, fbs, channels);
  const std::vector<double> gt(fbs, f.ctx.total_expected_channels());
  const core::DualResult d = core::solve_dual(f.ctx, gt, core::DualOptions{});
  const core::SlotAllocation e = core::waterfill_solve_exhaustive(f.ctx, gt);
  EXPECT_TRUE(d.allocation.feasible(f.ctx));
  EXPECT_LE(d.allocation.objective, e.objective + 1e-9);
  const double slack = 0.01 * std::max(1.0, std::abs(e.objective));
  EXPECT_GE(d.allocation.objective + slack, e.objective);
}

TEST_P(WideSeededProperty, GreedyBoundsHoldOnRandomGraphs) {
  // Theorem 2's 1/(1+Dmax) guarantee and the tighter Eq. (23) bound,
  // re-checked across a wider seed range than the tier-1 sweep (the
  // instance distribution keeps exact_allocate cheap: <= 4 FBSs,
  // <= 3 channels).
  util::Rng rng(GetParam() * 275604541ull);
  auto f = random_interfering_context(rng);
  const core::GreedyResult g = core::greedy_allocate(f.ctx);
  const core::ExactResult e = core::exact_allocate(f.ctx);
  const double greedy_gain = g.allocation.objective - g.q_empty;
  const double optimal_gain = e.allocation.objective - g.q_empty;
  const double dmax = static_cast<double>(f.ctx.graph->max_degree());
  EXPECT_GE(greedy_gain + 1e-6, optimal_gain / (1.0 + dmax));
  EXPECT_GE(g.bound_tight + 1e-6, e.allocation.objective);
  EXPECT_LE(g.bound_tight, g.bound_dmax + 1e-9);
  EXPECT_LE(g.allocation.objective, e.allocation.objective + 1e-6);
}

// Random interference graph over 2-5 FBSs with 1-3 users each and 2-5
// channels. Each channel after the first copies an earlier channel's
// posterior with probability `tie_share`, so max-posterior ties occur.
test::ContextFixture random_scan_context(util::Rng& rng, double tie_share) {
  const std::size_t num_fbs = 2 + rng.index(4);
  std::vector<std::pair<std::size_t, std::size_t>> edges;
  for (std::size_t a = 0; a < num_fbs; ++a) {
    for (std::size_t b = a + 1; b < num_fbs; ++b) {
      if (rng.bernoulli(0.4)) edges.emplace_back(a, b);
    }
  }
  const std::size_t num_users = num_fbs * (1 + rng.index(3));
  const std::size_t num_channels = 2 + rng.index(4);
  auto f = test::random_context(rng, num_users, num_fbs, num_channels, edges);
  for (std::size_t a = 1; a < num_channels; ++a) {
    if (rng.bernoulli(tie_share)) {
      f.ctx.posterior[a] = f.ctx.posterior[rng.index(a)];
    }
  }
  return f;
}

// Rounding slack of the dominance argument: 8 ULP relative to q.
double ulp8(double q) {
  return 8.0 * std::numeric_limits<double>::epsilon() *
         std::max(1.0, std::abs(q));
}

TEST_P(WideSeededProperty, WaterfillObjectiveMonotoneInOneFbsChannelCount) {
  // The greedy prunes every candidate but the first max-posterior channel
  // of each FBS because Q is non-decreasing in a single G_i. Check it from
  // a random reachable greedy state: single steps of each posterior in
  // ascending order (the dominance itself), and cumulative steps.
  util::Rng rng(GetParam() * 373587883ull);
  auto f = random_scan_context(rng, 0.0);
  core::SlotCache cache;
  cache.build(f.ctx);
  std::vector<double> gt(f.ctx.num_fbs, 0.0);
  for (std::size_t i = 0; i < f.ctx.num_fbs; ++i) {
    for (const double p : f.ctx.posterior) {
      if (rng.bernoulli(0.5)) gt[i] += p;
    }
  }
  std::vector<double> sorted = f.ctx.posterior;
  std::sort(sorted.begin(), sorted.end());
  const double base = core::waterfill_solve_objective(f.ctx, cache, gt);
  for (std::size_t i = 0; i < f.ctx.num_fbs; ++i) {
    std::vector<double> trial = gt;
    double prev = base;
    for (const double p : sorted) {
      trial[i] = gt[i] + p;
      const double q = core::waterfill_solve_objective(f.ctx, cache, trial);
      EXPECT_GE(q, prev - ulp8(prev)) << "FBS " << i << ", single step " << p;
      prev = q;
    }
    trial = gt;
    prev = base;
    for (const double p : f.ctx.posterior) {
      trial[i] += p;
      const double q = core::waterfill_solve_objective(f.ctx, cache, trial);
      EXPECT_GE(q, prev - ulp8(prev)) << "FBS " << i << ", G_i " << trial[i];
      prev = q;
    }
  }
}

// Table III without dominance pruning: every surviving (FBS, channel) pair
// is solved each round and the first strict maximum in candidate order wins.
struct UnprunedScan {
  std::vector<std::pair<std::size_t, std::size_t>> steps;  // (fbs, channel)
  double objective = 0.0;
  std::uint64_t evals = 0;
};

UnprunedScan unpruned_table3(const core::SlotContext& ctx) {
  core::SlotCache cache;
  cache.build(ctx);
  std::vector<std::pair<std::size_t, std::size_t>> candidates;
  for (std::size_t i = 0; i < ctx.num_fbs; ++i) {
    if (cache.fbs_has_users[i] == 0) continue;
    for (std::size_t a = 0; a < ctx.available.size(); ++a) {
      candidates.emplace_back(i, a);
    }
  }
  std::vector<double> gt(ctx.num_fbs, 0.0);
  UnprunedScan out;
  out.objective = core::waterfill_solve(ctx, cache, gt).objective;
  while (!candidates.empty()) {
    out.evals += candidates.size();
    std::vector<double> objectives(candidates.size());
    for (std::size_t k = 0; k < candidates.size(); ++k) {
      const auto [i, a] = candidates[k];
      std::vector<double> trial = gt;
      trial[i] += ctx.posterior[a];
      objectives[k] = core::waterfill_solve_objective(ctx, cache, trial);
    }
    double best_q = -std::numeric_limits<double>::infinity();
    std::size_t best_idx = 0;
    for (std::size_t k = 0; k < candidates.size(); ++k) {
      if (objectives[k] > best_q) {
        best_q = objectives[k];
        best_idx = k;
      }
    }
    const auto [bi, ba] = candidates[best_idx];
    std::vector<double> trial = gt;
    trial[bi] += ctx.posterior[ba];
    out.objective = core::waterfill_solve(ctx, cache, trial).objective;
    out.steps.emplace_back(bi, ctx.available[ba]);
    gt[bi] += ctx.posterior[ba];
    const auto& nbrs = ctx.graph->neighbors(bi);
    std::erase_if(candidates, [&](const auto& cand) {
      if (cand.second != ba) return false;
      if (cand.first == bi) return true;
      return std::find(nbrs.begin(), nbrs.end(), cand.first) != nbrs.end();
    });
  }
  return out;
}

TEST_P(WideSeededProperty, PrunedGreedyMatchesUnprunedScan) {
  // greedy_allocate solves only the first max-posterior candidate per FBS.
  // It must take the unpruned scan's (FBS, channel) sequence and value;
  // where the two sequences part, the two winners must tie to 8 ULP: a
  // pruned candidate wins the unpruned fold only by tying the kept one,
  // exactly where Q is flat in G_i or by rounding.
  util::Rng rng(GetParam() * 49979687ull);
  auto f = random_scan_context(rng, 0.3);
  util::Counter& evals =
      util::metrics().counter("core.greedy.candidate_evals");
  util::Counter& pruned =
      util::metrics().counter("core.greedy.candidates_pruned");
  const std::uint64_t evals0 = evals.total();
  const std::uint64_t pruned0 = pruned.total();
  const core::GreedyResult g = core::greedy_allocate(f.ctx);
  const std::uint64_t n_kept = evals.total() - evals0;
  const std::uint64_t n_pruned = pruned.total() - pruned0;
  const UnprunedScan ref = unpruned_table3(f.ctx);

  std::vector<std::pair<std::size_t, std::size_t>> steps;
  for (const core::GreedyStep& s : g.steps) {
    steps.emplace_back(s.fbs, s.channel);
  }
  std::size_t r = 0;
  while (r < steps.size() && r < ref.steps.size() && steps[r] == ref.steps[r]) {
    ++r;
  }
  if (r == steps.size() && r == ref.steps.size()) {
    EXPECT_NEAR(g.allocation.objective, ref.objective,
                1e-12 * std::max(1.0, std::abs(ref.objective)));
    if (util::metrics_enabled()) {
      EXPECT_EQ(n_kept + n_pruned, ref.evals);
    }
    return;
  }
  // Identical prefixes leave identical candidate sets, so both scans have a
  // round r. Rebuild its G vector and re-solve both winners (the solve is
  // deterministic, so these are the values each fold compared).
  ASSERT_LT(r, steps.size());
  ASSERT_LT(r, ref.steps.size());
  core::SlotCache cache;
  cache.build(f.ctx);
  const auto position = [&](std::size_t channel) {
    return static_cast<std::size_t>(
        std::find(f.ctx.available.begin(), f.ctx.available.end(), channel) -
        f.ctx.available.begin());
  };
  std::vector<double> gt(f.ctx.num_fbs, 0.0);
  for (std::size_t s = 0; s < r; ++s) {
    gt[steps[s].first] += f.ctx.posterior[position(steps[s].second)];
  }
  const auto q_of = [&](std::pair<std::size_t, std::size_t> step) {
    std::vector<double> trial = gt;
    trial[step.first] += f.ctx.posterior[position(step.second)];
    return core::waterfill_solve_objective(f.ctx, cache, trial);
  };
  const double q_pruned = q_of(steps[r]);
  const double q_ref = q_of(ref.steps[r]);
  EXPECT_LE(std::abs(q_pruned - q_ref), ulp8(q_ref))
      << "round " << r << ": pruned scan took (" << steps[r].first << ", "
      << steps[r].second << "), unpruned took (" << ref.steps[r].first
      << ", " << ref.steps[r].second << ")";
}

}  // namespace
}  // namespace femtocr
