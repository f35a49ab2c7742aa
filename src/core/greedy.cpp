// femtocr:inner-loop-tu — Table III evaluates Q(c) for every undominated
// candidate pair each round; the scan runs through scratch buffers and
// parallel_for, with no per-candidate heap allocation.
#include "core/greedy.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "core/objective.h"
#include "core/scratch.h"
#include "core/slot_cache.h"
#include "core/waterfill.h"
#include "util/check.h"
#include "util/metrics.h"
#include "util/parallel.h"
#include "util/trace.h"

namespace femtocr::core {

namespace {

#if FEMTOCR_DCHECK_IS_ON()
/// Dominance verifier: solves every candidate the round pruned and checks
/// it cannot beat the kept candidate of its FBS by more than rounding. Q is
/// monotone in G_i in exact arithmetic; a larger gap is a counterexample
/// to the pruning, not noise.
void verify_dominance(const SlotContext& ctx, const SlotCache& cache,
                      GreedyScratch& gs) {
  std::size_t r = 0;  // kept index of the current FBS group
  for (std::size_t k = 0; k < gs.candidates.size(); ++k) {
    const auto [i, a] = gs.candidates[k];
    while (gs.candidates[gs.kept[r]].first != i) ++r;
    if (gs.kept[r] == k) continue;
    gs.trial.assign(gs.gt.begin(), gs.gt.end());
    gs.trial[i] += ctx.posterior[a];
    const double q = waterfill_solve_objective(ctx, cache, gs.trial);
    const double q_kept = gs.objectives[gs.kept[r]];
    FEMTOCR_DCHECK_LE(
        q,
        q_kept + 8.0 * std::numeric_limits<double>::epsilon() *
                     std::max(1.0, std::abs(q_kept)),
        "a pruned greedy candidate beats its FBS's max-posterior candidate");
  }
}
#endif

}  // namespace

GreedyResult greedy_allocate(const SlotContext& ctx, const SlotCache& cache) {
  static util::Counter& c_allocs =
      util::metrics().counter("core.greedy.allocations");
  static util::Counter& c_cand_evals =
      util::metrics().counter("core.greedy.candidate_evals");
  static util::Counter& c_pruned =
      util::metrics().counter("core.greedy.candidates_pruned");
  static util::Histogram& h_gap =
      util::metrics().histogram("core.greedy.bound_gap");
  static util::TimerStat& t_alloc =
      util::metrics().timer("core.greedy.allocate");
  const util::Scope scope(t_alloc);
  c_allocs.add();

  // The cache's build() validated the context; re-check only what is not
  // covered by it.
  FEMTOCR_CHECK(
      cache.num_users == ctx.users.size() && cache.num_fbs == ctx.num_fbs,
      "slot cache does not match the context");
  for (const double p : ctx.posterior) {
    FEMTOCR_CHECK_PROB(p, "channel availability posterior out of range");
  }
  GreedyResult result;

  // Candidate pairs (FBS, position into ctx.available). FBSs without users
  // are skipped: any channel given to them contributes Delta = 0.
  GreedyScratch& gs = slot_scratch().greedy;
  gs.candidates.clear();
  for (std::size_t i = 0; i < ctx.num_fbs; ++i) {
    if (cache.fbs_has_users[i] == 0) continue;
    for (std::size_t a = 0; a < ctx.available.size(); ++a) {
      gs.candidates.emplace_back(i, a);
    }
  }

  gs.gt.assign(ctx.num_fbs, 0.0);
  std::vector<std::vector<std::size_t>> channels(ctx.num_fbs);  // lint-allow: no-hot-loop-alloc (once per slot)

  SlotAllocation current = waterfill_solve(ctx, cache, gs.gt);
  result.q_empty = current.objective;

  while (!gs.candidates.empty()) {
    // Table III step 3: argmax over remaining pairs of Q(c + e) - Q(c).
    // A candidate's trial vector differs from gt only in gt[i] +=
    // posterior[a], and Q is non-decreasing in G_i, so within one FBS the
    // first candidate with the largest posterior reaches the FBS's best Q
    // (equal posteriors give bit-identical trials) and the others are
    // dominated. Where Q is flat in G_i (the FBS's users all stay on the
    // MBS) a dominated candidate ties it exactly; the max-posterior one is
    // taken. Candidates stay grouped by FBS in channel-position order
    // (built that way; erase_if keeps the order), so one pass keeps the
    // first max-posterior candidate per FBS and the rest are never solved.
    const std::size_t n_candidates = gs.candidates.size();
    gs.kept.clear();
    for (std::size_t k = 0; k < n_candidates; ++k) {
      const auto [i, a] = gs.candidates[k];
      if (gs.kept.empty() || gs.candidates[gs.kept.back()].first != i) {
        gs.kept.push_back(k);
      } else if (ctx.posterior[a] >
                 ctx.posterior[gs.candidates[gs.kept.back()].second]) {
        gs.kept.back() = k;
      }
    }
    const std::size_t n_kept = gs.kept.size();
    c_cand_evals.add(n_kept);
    c_pruned.add(n_candidates - n_kept);

    // Kept solves are independent given the shared read-only cache, so
    // they fan out across the pool; each worker fills only its candidate's
    // slot of the objective buffer (and uses its own thread-local scratch),
    // and the argmax below folds the buffer serially in candidate order —
    // the same first-strict-maximum the sequential scan produced. Pruned
    // slots hold -inf and never win.
    gs.objectives.assign(n_candidates,
                         -std::numeric_limits<double>::infinity());
    util::parallel_for(n_kept, [&](std::size_t r) {
      const std::size_t k = gs.kept[r];
      const auto [i, a] = gs.candidates[k];
      std::vector<double>& trial = slot_scratch().greedy.trial;
      trial.assign(gs.gt.begin(), gs.gt.end());
      trial[i] += ctx.posterior[a];
      gs.objectives[k] = waterfill_solve_objective(ctx, cache, trial);
    });

    double best_q = -std::numeric_limits<double>::infinity();
    std::size_t best_idx = 0;
    for (std::size_t k = 0; k < n_candidates; ++k) {
      if (gs.objectives[k] > best_q) {
        best_q = gs.objectives[k];
        best_idx = k;
      }
    }
#if FEMTOCR_DCHECK_IS_ON()
    verify_dominance(ctx, cache, gs);
#endif

    // Re-materialize the winner: the solve is deterministic, so this is the
    // bit-exact allocation behind gs.objectives[best_idx].
    const auto [bi, ba] = gs.candidates[best_idx];
    gs.trial.assign(gs.gt.begin(), gs.gt.end());
    gs.trial[bi] += ctx.posterior[ba];
    SlotAllocation best_alloc = waterfill_solve(ctx, cache, gs.trial);

    GreedyStep step;
    step.fbs = bi;
    step.channel = ctx.available[ba];
    step.delta = best_q - current.objective;
    step.degree = ctx.graph->degree(bi);
    result.steps.push_back(step);

    gs.gt[bi] += ctx.posterior[ba];
    channels[bi].push_back(ctx.available[ba]);
    current = std::move(best_alloc);

    // Table III steps 5–6: drop the chosen pair and every conflicting pair
    // R(i') x {m'}.
    const auto& nbrs = ctx.graph->neighbors(bi);
    std::erase_if(gs.candidates, [&](const auto& cand) {
      if (cand.second != ba) return false;
      if (cand.first == bi) return true;
      return std::find(nbrs.begin(), nbrs.end(), cand.first) != nbrs.end();
    });
  }

  current.channels = std::move(channels);
  current.expected_channels = gs.gt;
  result.d_bar = delta_weighted_degree(result.steps);
  result.bound_tight =
      upper_bound_tight(current.objective, result.q_empty, result.d_bar);
  result.bound_dmax = upper_bound_dmax(current.objective, result.q_empty,
                                       ctx.graph->max_degree());
  current.upper_bound = result.bound_tight;
  current.objective_empty = result.q_empty;

  // Theorem 2 exit contracts, per slot. The greedy value sits between the
  // channel-free baseline and both upper bounds, and the Dbar-weighted
  // bound never exceeds the Dmax one (Dbar <= Dmax by construction); i.e.
  // Q_greedy - Q_empty >= (Q_ub - Q_empty) / (1 + Dmax) holds exactly.
  // The ordering slack scales with the operands: the log-sum objectives grow
  // with the scenario, so an absolute 1e-9 would misfire on large instances.
  const auto slack = [](double a, double b) {
    return 1e-9 * std::max({1.0, std::abs(a), std::abs(b)});
  };
  FEMTOCR_CHECK_FINITE(current.objective, "greedy objective must be finite");
  FEMTOCR_CHECK_GE(current.objective,
                   result.q_empty - slack(current.objective, result.q_empty),
                   "adding licensed channels must never hurt");
  FEMTOCR_CHECK_GE(result.bound_tight,
                   current.objective -
                       slack(result.bound_tight, current.objective),
                   "Eq. (23) bound must dominate the greedy value");
  FEMTOCR_CHECK_GE(result.bound_dmax,
                   result.bound_tight -
                       slack(result.bound_dmax, result.bound_tight),
                   "Dmax bound must dominate the Dbar bound");
  FEMTOCR_DCHECK_GE(result.d_bar, 0.0, "Dbar is a convex combination");
  FEMTOCR_DCHECK_LE(
      result.d_bar, static_cast<double>(ctx.graph->max_degree()) + 1e-12,
      "Dbar is a convex combination of degrees");

  // Eq. (23) bound gap for this slot (clamped: the contract above already
  // pinned it nonnegative up to rounding slack).
  h_gap.observe(std::max(0.0, result.bound_tight - current.objective));

  result.allocation = std::move(current);
  return result;
}

GreedyResult greedy_allocate(const SlotContext& ctx) {
  SlotCache cache;
  cache.build(ctx);  // validates the context
  return greedy_allocate(ctx, cache);
}

}  // namespace femtocr::core
