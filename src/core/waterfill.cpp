// femtocr:inner-loop-tu — the greedy allocator evaluates Q(c) hundreds of
// times per slot through these paths; beyond first-use scratch growth they
// must not heap-allocate (tools/lint no-hot-loop-alloc).
#include "core/waterfill.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "core/objective.h"
#include "core/scratch.h"
#include "core/slot_cache.h"
#include "core/subproblem.h"
#include "util/check.h"
#include "util/mathx.h"
#include "util/metrics.h"
#include "util/trace.h"

namespace femtocr::core {

namespace {

constexpr double kLevelLo = 1e-12;  ///< "almost zero" price probe

/// Sum-of-shares at a fixed positive water level. Every share written is
/// bit-identical to a best_share call with the same operands: lambda is
/// always positive inside the level solvers, so best_share's free-resource
/// branch cannot trigger, and the clamp expression below is its remaining
/// path verbatim.
double shares_at_level(const double* successes, const double* pr,
                       const unsigned char* usable, std::size_t n,
                       double lambda, double* rho_out) {
  double sum = 0.0;
  for (std::size_t k = 0; k < n; ++k) {
    double r = 0.0;
    if (usable[k] != 0) {
      r = util::clamp(successes[k] / lambda - pr[k], 0.0, kRhoCap);
    }
    rho_out[k] = r;
    sum += r;
  }
  return sum;
}

/// Reference bisection on the budget-binding bracket [kLevelLo, hi] — the
/// pre-breakpoint level solver, kept verbatim as the analytic solver's
/// numerical fallback and as the equivalence-test oracle
/// (waterfill_resource_reference). Only called when the budget binds.
double bisect_level(const double* successes, const double* pr,
                    const unsigned char* usable, std::size_t n, double hi,
                    double* rho_out) {
  double lo = kLevelLo;
  constexpr int kBisectionSteps = 100;
  for (int iter = 0; iter < kBisectionSteps; ++iter) {
    const double mid = 0.5 * (lo + hi);
    if (shares_at_level(successes, pr, usable, n, mid, rho_out) > 1.0) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return hi;
}

/// Analytic water-level core shared by the public entry point and the
/// cached assignment evaluator. `pr[k]` must equal W_k / rate_k for usable
/// members and `usable[k]` the rate > 0 && success > 0 gate, both hoisted
/// out of the solve; `hi` is the max usable S R / W.
///
/// The share profile rho_k(λ) = clamp(S_k/λ − pr_k, 0, cap) makes the
/// budget g(λ) = Σ rho_k(λ) piecewise-hyperbolic in λ with two breakpoints
/// per member: λ_on = S/pr (the share turns on below it) and
/// λ_cap = S/(pr + cap) (the share saturates below it). Between
/// breakpoints g(λ) = A/λ − B + C·cap with A = Σ_active S, B = Σ_active pr
/// and C the capped count, so the binding level solves g(λ*) = 1 in closed
/// form: λ* = A / (1 + B − C·cap). One descending sweep over the sorted
/// events finds the interval containing the crossing; a single Newton
/// polish (an exact reclassification at the candidate, then the closed
/// form again) removes the streaming-prefix rounding. Replaces the
/// 100-step bisection PR 4 inherited — which therefore no longer feeds
/// core.dual.iterations (docs/OBSERVABILITY.md).
double waterfill_level(const double* successes, const double* pr,
                       const unsigned char* usable, std::size_t n, double hi,
                       double* rho_out, ResourceScratch& rs) {
  static util::Counter& c_level_solves =
      util::metrics().counter("core.waterfill.level_solves");
  static util::Counter& c_bp_solves =
      util::metrics().counter("core.waterfill.breakpoint.solves");
  static util::Counter& c_bp_events =
      util::metrics().counter("core.waterfill.breakpoint.events");
  static util::Counter& c_bp_polish =
      util::metrics().counter("core.waterfill.breakpoint.polish_moved");
  static util::Counter& c_bp_fallback =
      util::metrics().counter("core.waterfill.breakpoint.bisect_fallback");

  std::fill(rho_out, rho_out + n, 0.0);
  if (n == 0) return 0.0;
  c_level_solves.add();

  if (hi <= 0.0) {  // nobody can use this resource
    shares_at_level(successes, pr, usable, n, 1.0, rho_out);
    return 0.0;
  }

  if (shares_at_level(successes, pr, usable, n, kLevelLo, rho_out) <= 1.0) {
    // Budget slack even at (almost) zero price: caps bind, lambda* = 0.
    return 0.0;
  }

  // Build the event tables (SoA, scratch-backed): members with pr > 0 add
  // a turn-on event at S/pr and a cap event at S/(pr + cap); a pr == 0
  // member is active at every finite level, so it folds into the initial
  // prefix state and only adds its cap event.
  c_bp_solves.add();
  rs.ev_lambda.resize(2 * n);
  rs.ev_ds.resize(2 * n);
  rs.ev_dpr.resize(2 * n);
  rs.ev_dcap.resize(2 * n);
  rs.ev_order.resize(2 * n);
  std::size_t m = 0;
  double A = 0.0;  // Σ S over active members of the current interval
  double B = 0.0;  // Σ pr over active members
  double C = 0.0;  // capped-member count
  for (std::size_t k = 0; k < n; ++k) {
    if (usable[k] == 0) continue;
    const double s = successes[k];
    const double p = pr[k];
    if (p > 0.0) {
      rs.ev_lambda[m] = s / p;  // turn-on: crossing downward activates k
      rs.ev_ds[m] = s;
      rs.ev_dpr[m] = p;
      rs.ev_dcap[m] = 0.0;
      ++m;
    } else {
      A += s;  // active at every finite level
    }
    rs.ev_lambda[m] = s / (p + kRhoCap);  // cap: downward saturates k
    rs.ev_ds[m] = -s;
    rs.ev_dpr[m] = -p;
    rs.ev_dcap[m] = 1.0;
    ++m;
  }
  c_bp_events.add(m);
  for (std::size_t e = 0; e < m; ++e) {
    rs.ev_order[e] = static_cast<std::uint32_t>(e);
  }
  std::sort(rs.ev_order.begin(), rs.ev_order.begin() + m,
            [&](std::uint32_t a, std::uint32_t b) {
              if (rs.ev_lambda[a] != rs.ev_lambda[b]) {
                return rs.ev_lambda[a] > rs.ev_lambda[b];
              }
              return a < b;  // deterministic tie order
            });

  // Descending sweep: in each interval (bot, top] the closed-form
  // candidate is accepted iff it lands inside the interval. g is
  // continuous, non-increasing, and g(kLevelLo) > 1 was established
  // above — but not strictly decreasing: with the cap equal to the whole
  // budget, one saturated member makes g ≡ 1 across a flat region whose
  // every boundary interval accepts. The canonical level is the LOWEST
  // accepted candidate (the infimum of {λ : g(λ) <= 1}), which is the
  // point the reference bisection converges to; candidates only shrink as
  // the sweep descends, so the last acceptance wins.
  double level = -1.0;
  double top = std::numeric_limits<double>::infinity();
  std::size_t e = 0;
  while (true) {
    const double bot = e < m ? rs.ev_lambda[rs.ev_order[e]] : kLevelLo;
    if (A > 0.0) {
      const double denom = 1.0 + B - C * kRhoCap;
      if (denom > 0.0) {
        const double cand = A / denom;
        if (cand >= bot && cand <= top) level = cand;
      }
    }
    if (e >= m) break;
    const std::uint32_t ev = rs.ev_order[e];
    A += rs.ev_ds[ev];
    B += rs.ev_dpr[ev];
    C += rs.ev_dcap[ev];
    top = bot;
    ++e;
  }

  if (level > 0.0) {
    // Newton polish: reclassify every member exactly at the candidate and
    // re-apply the closed form, purging the sweep's streaming-sum rounding.
    // Within the correct interval this is one exact Newton step on the
    // hyperbolic piece; crossing into a neighboring piece is harmless
    // because g is continuous at breakpoints.
    double pa = 0.0;
    double pb = 0.0;
    double pc = 0.0;
    for (std::size_t k = 0; k < n; ++k) {
      if (usable[k] == 0) continue;
      const double r = successes[k] / level - pr[k];
      if (r >= kRhoCap) {
        pc += 1.0;
      } else if (r > 0.0) {
        pa += successes[k];
        pb += pr[k];
      }
    }
    const double denom = 1.0 + pb - pc * kRhoCap;
    if (pa > 0.0 && denom > 0.0) {
      const double polished = pa / denom;
      if (std::isfinite(polished) && polished > 0.0) {
        if (polished != level) c_bp_polish.add();
        level = polished;
      }
    }
  }

  double sum = level > 0.0
                   ? shares_at_level(successes, pr, usable, n, level, rho_out)
                   : 2.0;  // force the fallback
  if (!(sum <= 1.0 + 1e-9)) {
    // Numerical corner (never hit on the tested distributions): fall back
    // to the reference bisection, which maintains a feasible bracket side.
    c_bp_fallback.add();
    util::trace_note_anomaly("core.waterfill.breakpoint.bisect_fallback");
    level = bisect_level(successes, pr, usable, n, hi, rho_out);
    sum = shares_at_level(successes, pr, usable, n, level, rho_out);
  }
  // KKT exit contracts: a finite positive water level and a primal point
  // inside the slot budget.
  FEMTOCR_CHECK_FINITE(level, "water-filling level must be finite");
  FEMTOCR_DCHECK_LE(sum, 1.0 + 1e-9, "water-filled shares exceed the slot");
  FEMTOCR_DCHECK_GE(level, 0.0, "water-filling price must be nonnegative");
  return level;
}

/// Water-fills every resource of a fixed assignment. Writes the per-user
/// share images into as.rho_mbs / as.rho_fbs (zero on the unassigned
/// branch) and optionally the per-resource water levels. Member lists come
/// from the cache's per-FBS grouping instead of one full K-user scan per
/// FBS; group order is ascending user index — exactly the order the scan
/// produced — and every numeric expression matches it, so the shares are
/// bit-identical.
void waterfill_shares(const SlotContext& ctx, const SlotCache& cache,
                      const std::vector<double>& gt_per_fbs,
                      const unsigned char* use_mbs, AssignScratch& as,
                      ResourceScratch& rs, std::vector<double>* lambda_out) {
  static util::Counter& c_evals =
      util::metrics().counter("core.waterfill.evaluations");
  c_evals.add();

  const std::size_t K = cache.num_users;
  as.rho_mbs.assign(K, 0.0);
  as.rho_fbs.assign(K, 0.0);
  if (lambda_out != nullptr) lambda_out->assign(cache.num_fbs + 1, 0.0);

  // MBS resource: price offsets W / R_0 come straight from the cache.
  as.members.clear();
  as.successes.clear();
  rs.pr.clear();
  rs.usable.clear();
  double hi = 0.0;
  for (std::size_t j = 0; j < K; ++j) {
    if (use_mbs[j] == 0) continue;
    const UserState& u = ctx.users[j];
    as.members.push_back(j);
    as.successes.push_back(u.success_mbs);
    rs.pr.push_back(cache.pr_mbs[j]);
    rs.usable.push_back(cache.can_mbs[j]);
    if (u.rate_mbs > 0.0) hi = std::max(hi, cache.hi_mbs[j]);
  }
  if (!as.members.empty()) {
    as.rho.resize(as.members.size());
    const double lambda0 =
        waterfill_level(as.successes.data(), rs.pr.data(), rs.usable.data(),
                        as.members.size(), hi, as.rho.data(), rs);
    for (std::size_t k = 0; k < as.members.size(); ++k) {
      as.rho_mbs[as.members[k]] = as.rho[k];
    }
    if (lambda_out != nullptr) (*lambda_out)[0] = lambda0;
  }

  // One resource per FBS. Empty member lists never reached the level
  // solver before either (it returned ahead of its counters), so skipping
  // them wholesale keeps core.waterfill.* identical.
  for (std::size_t i = 0; i < cache.num_fbs; ++i) {
    const std::vector<std::size_t>& group = cache.users_by_fbs[i];
    if (group.empty()) continue;
    as.members.clear();
    as.successes.clear();
    rs.pr.clear();
    rs.usable.clear();
    double hi_i = 0.0;
    const double g = gt_per_fbs[i];
    for (const std::size_t j : group) {
      if (use_mbs[j] != 0) continue;
      const UserState& u = ctx.users[j];
      const double rate = u.rate_fbs * g;
      const bool ok = rate > 0.0 && u.success_fbs > 0.0;
      as.members.push_back(j);
      as.successes.push_back(u.success_fbs);
      rs.usable.push_back(ok ? 1 : 0);
      rs.pr.push_back(ok ? u.psnr / rate : 0.0);
      if (rate > 0.0) hi_i = std::max(hi_i, u.success_fbs * rate / u.psnr);
    }
    if (as.members.empty()) continue;
    as.rho.resize(as.members.size());
    const double li =
        waterfill_level(as.successes.data(), rs.pr.data(), rs.usable.data(),
                        as.members.size(), hi_i, as.rho.data(), rs);
    for (std::size_t k = 0; k < as.members.size(); ++k) {
      as.rho_fbs[as.members[k]] = as.rho[k];
    }
    if (lambda_out != nullptr) (*lambda_out)[i + 1] = li;
  }
}

/// slot_objective of the trial assignment, computed from the cached
/// tables: the summation runs in user index order with the exact
/// mbs_term / fbs_term operand grouping (fbs_term's log argument is
/// W + rho * g * R, in that multiplication order), collapsing the log to
/// the cached log W on zero-share branches (W + 0 * x == W bitwise).
/// Bit-identical to materializing the allocation and calling
/// slot_objective — the equivalence tests pin this.
double assignment_objective(const SlotContext& ctx, const SlotCache& cache,
                            const std::vector<double>& gt_per_fbs,
                            const unsigned char* use_mbs,
                            const AssignScratch& as) {
  double q = 0.0;
  for (std::size_t j = 0; j < cache.num_users; ++j) {
    const UserState& u = ctx.users[j];
    if (use_mbs[j] != 0) {
      const double rho = as.rho_mbs[j];
      const double a = rho <= 0.0 ? cache.log_psnr[j]
                                  : std::log(u.psnr + rho * u.rate_mbs);
      q += u.success_mbs * a + cache.loss_mbs[j];
    } else {
      const double rho = as.rho_fbs[j];
      const double a =
          rho <= 0.0 ? cache.log_psnr[j]
                     : std::log(u.psnr + rho * gt_per_fbs[u.fbs] * u.rate_fbs);
      q += u.success_fbs * a + cache.loss_fbs[j];
    }
  }
  FEMTOCR_DCHECK_FINITE(q, "water-filled slot objective must be finite");
  return q;
}

/// Objective-only evaluation of a trial assignment (the hill climb and the
/// greedy candidate scan compare Q values and discard everything else).
double evaluate_objective(const SlotContext& ctx, const SlotCache& cache,
                          const std::vector<double>& gt_per_fbs,
                          const unsigned char* use_mbs) {
  SlotScratch& sc = slot_scratch();
  waterfill_shares(ctx, cache, gt_per_fbs, use_mbs, sc.assign, sc.resource,
                   nullptr);
  return assignment_objective(ctx, cache, gt_per_fbs, use_mbs, sc.assign);
}

/// Water-fills every resource for a fixed assignment and returns the
/// completed allocation (objective included). The objective goes through
/// slot_objective — the uncached reference expression — which agrees
/// bitwise with assignment_objective above.
SlotAllocation evaluate_assignment(const SlotContext& ctx,
                                   const SlotCache& cache,
                                   const std::vector<double>& gt_per_fbs,
                                   const unsigned char* use_mbs,
                                   std::vector<double>* lambda_out) {
  SlotScratch& sc = slot_scratch();
  waterfill_shares(ctx, cache, gt_per_fbs, use_mbs, sc.assign, sc.resource,
                   lambda_out);
  SlotAllocation alloc = SlotAllocation::zeros(ctx);
  for (std::size_t j = 0; j < cache.num_users; ++j) {
    alloc.use_mbs[j] = use_mbs[j] != 0;
  }
  alloc.expected_channels = gt_per_fbs;
  alloc.rho_mbs = sc.assign.rho_mbs;
  alloc.rho_fbs = sc.assign.rho_fbs;
  alloc.objective = slot_objective(ctx, alloc);
  alloc.upper_bound = alloc.objective;
  FEMTOCR_DCHECK_FINITE(alloc.objective,
                        "water-filled slot objective must be finite");
  return alloc;
}

/// Hill climbing over base-station reassignments, with the inner
/// water-filling solved exactly for every trial assignment: single-user
/// flips first, then pair swaps (user j to the MBS while user k moves off
/// it), which escape the local optima single flips get stuck in when the
/// slot budgets are tight. Each accepted move strictly increases the
/// exactly-evaluated objective, so the search terminates; simultaneous
/// best-response would oscillate between all-on-MBS and all-on-FBS
/// assignments and miss mixed optima. Agreement with brute-force
/// assignment enumeration is pinned by tests. Leaves the best assignment
/// in `um` and returns its objective.
double hill_climb(const SlotContext& ctx, const SlotCache& cache,
                  const std::vector<double>& gt_per_fbs,
                  std::vector<unsigned char>& um) {
  const std::size_t K = cache.num_users;
  // Initial assignment: whole-slot comparison per user.
  um.resize(K);
  for (std::size_t j = 0; j < K; ++j) {
    const UserState& u = ctx.users[j];
    const double g = gt_per_fbs[u.fbs];
    um[j] = mbs_term(u, 1.0) > fbs_term(u, 1.0, g) ? 1 : 0;
  }

  double best = evaluate_objective(ctx, cache, gt_per_fbs, um.data());
  constexpr double kMinGain = 1e-12;
  constexpr std::size_t kMaxSweeps = 64;
  for (std::size_t sweep = 0; sweep < kMaxSweeps; ++sweep) {
    bool improved = false;
    auto try_move = [&](auto&& apply, auto&& revert) {
      apply();
      const double cand = evaluate_objective(ctx, cache, gt_per_fbs, um.data());
      if (cand > best + kMinGain) {
        best = cand;
        improved = true;
        return true;
      }
      revert();
      return false;
    };
    for (std::size_t j = 0; j < K; ++j) {
      try_move([&] { um[j] ^= 1U; }, [&] { um[j] ^= 1U; });
    }
    for (std::size_t j = 0; j < K; ++j) {
      for (std::size_t k = j + 1; k < K; ++k) {
        if (um[j] == um[k]) continue;  // swap changes nothing new
        try_move(
            [&] {
              um[j] ^= 1U;
              um[k] ^= 1U;
            },
            [&] {
              um[j] ^= 1U;
              um[k] ^= 1U;
            });
      }
    }
    if (!improved) break;
  }
  return best;
}

void check_cache_matches(const SlotContext& ctx, const SlotCache& cache,
                         const std::vector<double>& gt_per_fbs) {
  FEMTOCR_CHECK(
      cache.num_users == ctx.users.size() && cache.num_fbs == ctx.num_fbs,
      "slot cache does not match the context");
  FEMTOCR_CHECK(gt_per_fbs.size() == ctx.num_fbs,
                "need one expected channel count per FBS");
}

}  // namespace

namespace {

/// Shared prologue of waterfill_resource and its bisection reference:
/// validates the lists and hoists the price offsets, usable gate, and the
/// price upper bound (above max_k S_k R_k / W_k every share is zero) into
/// the scratch arena. Returns `hi`.
double prepare_resource(const SlotContext& ctx,
                        const std::vector<std::size_t>& users,
                        const std::vector<double>& rates,
                        const std::vector<double>& successes,
                        ResourceScratch& rs) {
  FEMTOCR_CHECK(users.size() == rates.size() && users.size() == successes.size(),
                "user, rate and success lists must align");
#if FEMTOCR_DCHECK_IS_ON()
  for (std::size_t k = 0; k < users.size(); ++k) {
    FEMTOCR_DCHECK_PROB(successes[k], "success probability out of range");
    FEMTOCR_DCHECK_GE(rates[k], 0.0, "effective rate must be nonnegative");
    FEMTOCR_DCHECK_FINITE(rates[k], "effective rate must be finite");
  }
#endif
  const std::size_t n = users.size();
  rs.pr.resize(n);
  rs.usable.resize(n);
  double hi = 0.0;
  for (std::size_t k = 0; k < n; ++k) {
    const UserState& u = ctx.users[users[k]];
    const bool ok = rates[k] > 0.0 && successes[k] > 0.0;
    rs.usable[k] = ok ? 1 : 0;
    rs.pr[k] = ok ? u.psnr / rates[k] : 0.0;
    if (rates[k] > 0.0) {
      hi = std::max(hi, successes[k] * rates[k] / u.psnr);
    }
  }
  return hi;
}

}  // namespace

double waterfill_resource(const SlotContext& ctx,
                          const std::vector<std::size_t>& users,
                          const std::vector<double>& rates,
                          const std::vector<double>& successes,
                          std::vector<double>& rho_out) {
  ResourceScratch& rs = slot_scratch().resource;
  const double hi = prepare_resource(ctx, users, rates, successes, rs);
  const std::size_t n = users.size();
  rho_out.resize(n);
  return waterfill_level(successes.data(), rs.pr.data(), rs.usable.data(), n,
                         hi, rho_out.data(), rs);
}

double waterfill_resource_reference(const SlotContext& ctx,
                                    const std::vector<std::size_t>& users,
                                    const std::vector<double>& rates,
                                    const std::vector<double>& successes,
                                    std::vector<double>& rho_out) {
  ResourceScratch& rs = slot_scratch().resource;
  const double hi = prepare_resource(ctx, users, rates, successes, rs);
  const std::size_t n = users.size();
  rho_out.resize(n);
  std::fill(rho_out.begin(), rho_out.end(), 0.0);
  if (n == 0) return 0.0;
  if (hi <= 0.0) {
    shares_at_level(successes.data(), rs.pr.data(), rs.usable.data(), n, 1.0,
                    rho_out.data());
    return 0.0;
  }
  if (shares_at_level(successes.data(), rs.pr.data(), rs.usable.data(), n,
                      kLevelLo, rho_out.data()) <= 1.0) {
    return 0.0;
  }
  const double level = bisect_level(successes.data(), rs.pr.data(),
                                    rs.usable.data(), n, hi, rho_out.data());
  shares_at_level(successes.data(), rs.pr.data(), rs.usable.data(), n, level,
                  rho_out.data());
  return level;
}

SlotAllocation waterfill_evaluate(const SlotContext& ctx,
                                  const SlotCache& cache,
                                  const std::vector<double>& gt_per_fbs,
                                  const std::vector<bool>& use_mbs) {
  check_cache_matches(ctx, cache, gt_per_fbs);
  FEMTOCR_CHECK(use_mbs.size() == ctx.users.size(),
                "need one assignment flag per user");
  std::vector<unsigned char>& um = slot_scratch().assign.use_mbs;
  um.resize(use_mbs.size());
  for (std::size_t j = 0; j < use_mbs.size(); ++j) {
    um[j] = use_mbs[j] ? 1 : 0;
  }
  return evaluate_assignment(ctx, cache, gt_per_fbs, um.data(), nullptr);
}

SlotAllocation waterfill_evaluate(const SlotContext& ctx,
                                  const std::vector<double>& gt_per_fbs,
                                  const std::vector<bool>& use_mbs) {
  SlotCache cache;
  cache.build(ctx);  // validates the context
  return waterfill_evaluate(ctx, cache, gt_per_fbs, use_mbs);
}

SlotAllocation waterfill_solve(const SlotContext& ctx, const SlotCache& cache,
                               const std::vector<double>& gt_per_fbs) {
  static util::Counter& c_solves =
      util::metrics().counter("core.waterfill.solves");
  static util::TimerStat& t_solve =
      util::metrics().timer("core.waterfill.solve");
  const util::Scope scope(t_solve);
  c_solves.add();

  check_cache_matches(ctx, cache, gt_per_fbs);
  std::vector<unsigned char>& um = slot_scratch().assign.use_mbs;
  hill_climb(ctx, cache, gt_per_fbs, um);
  // Re-waterfilling the winning assignment is deterministic, so the
  // materialized allocation (and its slot_objective) is bit-identical to
  // the best trial the climb kept.
  return evaluate_assignment(ctx, cache, gt_per_fbs, um.data(), nullptr);
}

double waterfill_solve_objective(const SlotContext& ctx,
                                 const SlotCache& cache,
                                 const std::vector<double>& gt_per_fbs) {
  static util::Counter& c_solves =
      util::metrics().counter("core.waterfill.solves");
  static util::TimerStat& t_solve =
      util::metrics().timer("core.waterfill.solve");
  const util::Scope scope(t_solve);
  c_solves.add();

  check_cache_matches(ctx, cache, gt_per_fbs);
  std::vector<unsigned char>& um = slot_scratch().assign.use_mbs;
  return hill_climb(ctx, cache, gt_per_fbs, um);
}

SlotAllocation waterfill_solve(const SlotContext& ctx,
                               const std::vector<double>& gt_per_fbs) {
  SlotCache cache;
  cache.build(ctx);  // validates the context
  return waterfill_solve(ctx, cache, gt_per_fbs);
}

SlotAllocation waterfill_solve_exhaustive(
    const SlotContext& ctx, const SlotCache& cache,
    const std::vector<double>& gt_per_fbs) {
  check_cache_matches(ctx, cache, gt_per_fbs);
  const std::size_t K = ctx.users.size();
  FEMTOCR_CHECK(K <= 16, "exhaustive assignment limited to 16 users");
  std::vector<unsigned char>& um = slot_scratch().assign.use_mbs;
  um.resize(K);
  double best_q = -1e300;
  std::size_t best_mask = 0;
  bool found = false;
  for (std::size_t mask = 0; mask < (std::size_t{1} << K); ++mask) {
    for (std::size_t j = 0; j < K; ++j) {
      um[j] = (mask >> j) & 1U;
    }
    const double q = evaluate_objective(ctx, cache, gt_per_fbs, um.data());
    if (q > best_q) {
      best_q = q;
      best_mask = mask;
      found = true;
    }
  }
  if (!found) {  // unreachable for a valid context; keep the old sentinel
    SlotAllocation best;
    best.objective = -1e300;
    return best;
  }
  for (std::size_t j = 0; j < K; ++j) {
    um[j] = (best_mask >> j) & 1U;
  }
  return evaluate_assignment(ctx, cache, gt_per_fbs, um.data(), nullptr);
}

SlotAllocation waterfill_solve_exhaustive(
    const SlotContext& ctx, const std::vector<double>& gt_per_fbs) {
  SlotCache cache;
  cache.build(ctx);  // validates the context
  return waterfill_solve_exhaustive(ctx, cache, gt_per_fbs);
}

}  // namespace femtocr::core
