// Distributed dual-decomposition solver (paper Section IV-A.3, Tables I & II).
//
// The per-slot convex program (12)/(17) is solved by Lagrangian dual
// decomposition: given prices lambda = [lambda_0, lambda_1..lambda_N] for
// the slot-budget constraints, each CR user independently solves the
// closed-form subproblem of Table I steps 3–8; the MBS then updates the
// prices by a projected subgradient step (Eq. 16/18/19)
//     lambda_i <- [lambda_i - s (1 - sum_j rho*_ij)]^+
// and broadcasts them. Iterate until sum_i (lambda_i' - lambda_i)^2 <= phi.
//
// This mirrors the message flow the paper describes (users -> MBS shares,
// MBS -> users prices); in-process it is a plain loop. The solver records
// the full price trace on request — Fig. 4(a) is a direct dump of it.
#pragma once

#include <cstddef>
#include <optional>
#include <vector>

#include "core/types.h"

namespace femtocr::core {

struct DualOptions {
  /// s in Eq. (16). Must be small relative to the optimal prices: at the
  /// library's scales (W ~ 30 dB, R ~ 0.6 dB/slot) lambda* is around
  /// S R / W ~ 0.02, so the default step is a few percent of that. Too
  /// large a step makes the prices orbit the optimum without settling —
  /// the classic subgradient failure mode.
  double step_size = 2e-4;
  /// phi: squared price movement to stop at. The subgradient has a kink
  /// wherever a user is indifferent between base stations, so the movement
  /// cannot fall below roughly (step * share-jump)^2 when the optimum sits
  /// at such a kink; the default is just above that floor.
  double tolerance = 1e-8;
  std::size_t max_iterations = 100000;
  double initial_lambda = 0.05; ///< starting price when no warm start given
  bool record_trace = false;    ///< keep lambda(tau) for every tau

  /// Warm start: prices from a previous solve (size num_fbs + 1). Beliefs
  /// and fading drift slowly across slots and adjacent sweep points, so a
  /// carried price lands near the new optimum and cuts iterations by an
  /// order of magnitude.
  std::optional<std::vector<double>> warm_start;
  /// Set by callers that run a warm-start chain (core/scheme.cpp, the
  /// stress bench): a solve entered without carried prices then counts a
  /// core.dual.warm_start.miss. When false (default) a priceless solve is
  /// just a cold solve and counts neither, keeping one-shot callers out of
  /// the hit-rate denominator. Passing `warm_start` always counts a hit.
  bool warm_start_enabled = false;

  /// Graceful-degradation knobs. Every sampled price vector is scored by
  /// the *same* primal recovery used at exit (best responses + budget
  /// projection + slot_objective), so on non-convergence the solver can
  /// return the best primal point the orbit visited instead of whatever
  /// the last iteration left (last-iterate recovery can be strictly worse
  /// under an oversized step — the headline bug this option fixes). A
  /// converged solve is bit-identical with tracking on or off.
  bool track_best_iterate = true;
  /// Score every Nth iterate (amortizes the O(K) recovery to ~K/N per
  /// iteration; 0 is treated as 1).
  std::size_t best_iterate_stride = 64;
  /// On non-convergence, admit the one degraded rung: the exact
  /// water-fill of the same slot (waterfill_solve), taken when its
  /// objective is strictly better than the recovered iterate (NaN never
  /// wins). Off by default — opt-in degraded mode.
  bool allow_fallback = false;
};

/// How the returned primal point was produced. Anything other than
/// kConverged means the subgradient did not meet the tolerance and the
/// result is a graceful-degradation recovery. The values are the
/// `recovery` arg of the core.dual.solve span, so they stay fixed.
enum class DualRecovery {
  kConverged = 0,    ///< loop met the movement tolerance; recovery at lambda*
  kLastIterate = 1,  ///< non-converged; primal at the final prices
  kBestIterate = 2,  ///< non-converged; best sampled iterate beat the last one
  kExact = 3,        ///< non-converged; the exact water-fill beat the iterate
};

struct DualResult {
  SlotAllocation allocation;
  std::vector<double> lambda;   ///< converged prices [lambda_0..lambda_N]
  bool converged = false;
  std::size_t iterations = 0;
  /// lambda(tau) per iteration when record_trace is set; index 0 is the
  /// initial point.
  std::vector<std::vector<double>> trace;
  /// How the allocation was recovered; mirrored by the
  /// core.dual.fallback.* counters (docs/ROBUSTNESS.md).
  DualRecovery recovery = DualRecovery::kConverged;
};

struct SlotCache;

/// Runs the Table I/II subgradient for the given expected channel counts
/// per FBS (all equal to ctx.total_expected_channels() in the
/// non-interfering cases; per-allocation G_i in the interfering case).
/// The returned primal allocation is recovered at the final prices and then
/// rescaled onto the slot budgets, so it is always feasible.
DualResult solve_dual(const SlotContext& ctx,
                      const std::vector<double>& gt_per_fbs,
                      const DualOptions& options = {});

/// Same solve against a prebuilt per-slot cache (core/slot_cache.h).
/// Bit-identical to the overload above — the cache holds the exact values
/// the solver would recompute — but skips the per-call table build, which
/// is how schemes that solve many times per slot should call it.
DualResult solve_dual(const SlotContext& ctx, const SlotCache& cache,
                      const std::vector<double>& gt_per_fbs,
                      const DualOptions& options = {});

}  // namespace femtocr::core
