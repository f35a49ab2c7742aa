// Reusable per-thread scratch arena for the per-slot solve hot paths.
//
// The dual-decomposition iteration (solve_dual), the water-filling
// evaluator (waterfill_resource / evaluate_assignment) and the Table III
// greedy all used to heap-allocate their working vectors on every call —
// for the greedy that means thousands of allocations per slot, inside the
// innermost loops. SlotScratch keeps one high-water-mark buffer set per
// thread instead: a routine grabs slot_scratch(), `assign()`s the field
// group it owns, and leaves the capacity behind for the next call.
//
// Ownership rules (also documented in docs/DEVELOPING.md, "Performance
// model & scratch-arena rules"):
//
//   * Each field group is owned by exactly one routine while that routine
//     is on the stack: `dual` by solve_dual, `resource` by
//     waterfill_resource, `assign` by evaluate_assignment /
//     evaluate_objective, `greedy` by greedy_allocate. The groups are
//     disjoint, so the natural nesting (greedy -> evaluate -> resource)
//     never aliases.
//   * slot_scratch() is thread-local. Workers inside util::parallel_for
//     each see their own arena, so parallel candidate evaluation needs no
//     locking; a coordinator may hand out index-addressed slices of its
//     own buffers (e.g. GreedyScratch::objectives) for workers to fill.
//   * Scratch never survives a call as *data* — only as capacity. No
//     routine may read a field it did not fill in the same invocation.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "core/subproblem.h"

namespace femtocr::core {

/// solve_dual's working set: price vectors, per-resource share sums, and
/// the per-solve SoA user tables hoisted out of the subgradient loop.
struct DualScratch {
  std::vector<double> lambda;  ///< current prices [lambda_0..lambda_N]
  std::vector<double> next;    ///< next prices (subgradient update target)
  std::vector<double> sums;    ///< per-resource share sums, index 0 = MBS
  // Per-user tables, fixed for the whole solve (the expected channel count
  // g is constant within one solve_dual call):
  std::vector<double> eff_rate_fbs;  ///< R_{i,j} G_i per user
  std::vector<double> pr_fbs;        ///< W_j / (R_{i,j} G_i), valid if usable
  std::vector<double> log_hi_mbs;    ///< log(W_j + R_{0,j}) — rho at the cap
  std::vector<double> log_hi_fbs;    ///< log(W_j + R_{i,j} G_i)
  // Clamp-case Lagrangian tables: at rho == 0 the user's value is
  // S log W + (1-S) log W with a +0.0 price term, and at rho == kRhoCap
  // the price term is exactly lambda — so both ends of the clamp need no
  // log and no multiply in the subgradient loop (see solve_user_cached).
  std::vector<double> val0_mbs;      ///< S_0j log W_j + loss_mbs, rho == 0
  std::vector<double> val0_fbs;      ///< S_ij log W_j + loss_fbs, rho == 0
  std::vector<double> cap_mbs;       ///< S_0j log_hi_mbs + loss_mbs, rho at cap
  std::vector<double> cap_fbs;       ///< S_ij log_hi_fbs + loss_fbs, rho at cap
  // Division screens: S < lambda * lo proves the share clamps at 0 and
  // S > lambda * hi proves it clamps at kRhoCap, each with a 1e-12
  // relative guard band; only the band in between pays the division.
  std::vector<double> lo_mbs;        ///< pr_mbs * (1 - guard)
  std::vector<double> hi_mbs;        ///< (pr_mbs + kRhoCap) * (1 + guard)
  std::vector<double> lo_fbs;        ///< pr_fbs * (1 - guard)
  std::vector<double> hi_fbs;        ///< (pr_fbs + kRhoCap) * (1 + guard)
  // SoA copies of the UserState fields every iteration touches: the AoS
  // walk costs one cache line per user, these three arrays stay in L1.
  std::vector<double> s_mbs;         ///< success_mbs per user
  std::vector<double> s_fbs;         ///< success_fbs per user
  std::vector<double> psnr;          ///< W_j per user
  std::vector<double> rate_mbs;      ///< R_{0,j} per user
  std::vector<std::uint32_t> fbsi;   ///< home FBS index per user
  std::vector<unsigned char> can_fbs;  ///< FBS branch usable (R G > 0, S > 0)
  // Index-addressed per-user outputs of one best-response pass (SoA so the
  // pass stores 17 bytes per user, not a padded struct).
  std::vector<double> choice_rho_mbs;
  std::vector<double> choice_rho_fbs;
  std::vector<unsigned char> choice_use_mbs;
  // Best-iterate tracking (graceful degradation): the best-scoring sampled
  // price vector, plus the budget-projection sums the periodic primal
  // recovery needs — hoisted here so scoring an iterate allocates nothing.
  std::vector<double> best_lambda;
  std::vector<double> rescale_sum_fbs;    ///< per-FBS share sums
  std::vector<double> rescale_scale_fbs;  ///< per-FBS projection factors
};

/// waterfill_resource's working set: the per-member price offsets
/// W_j / R_j hoisted out of the level solve, plus the breakpoint event
/// tables of the analytic solver (core/waterfill.cpp). Each usable member
/// contributes up to two events — the level where its share leaves the cap
/// and the level where it turns off — swept in descending-level order.
struct ResourceScratch {
  std::vector<double> pr;            ///< W / rate per member (usable only)
  std::vector<unsigned char> usable; ///< rate > 0 && success > 0
  std::vector<double> ev_lambda;     ///< event water level
  std::vector<double> ev_ds;         ///< ΔS crossing the event downward
  std::vector<double> ev_dpr;        ///< Δ(W/rate) crossing downward
  std::vector<double> ev_dcap;       ///< Δ(capped-member count), 0 or 1
  std::vector<std::uint32_t> ev_order;  ///< sort permutation, level desc
};

/// evaluate_assignment / evaluate_objective working set: one resource's
/// member list at a time plus per-user share images of the assignment.
struct AssignScratch {
  std::vector<std::size_t> members;
  std::vector<double> rates;
  std::vector<double> successes;
  std::vector<double> rho;      ///< waterfill_resource output buffer
  std::vector<double> rho_mbs;  ///< per-user shares of the trial assignment
  std::vector<double> rho_fbs;
  std::vector<unsigned char> use_mbs;  ///< trial assignment (bit-twiddle-free)
};

/// greedy_allocate's working set: the candidate list, the indices of the
/// candidates a round actually solves, the per-candidate objective buffer
/// the parallel evaluation fills, and per-thread trial expected-channel
/// vectors.
struct GreedyScratch {
  std::vector<std::pair<std::size_t, std::size_t>> candidates;
  std::vector<std::size_t> kept;   ///< undominated candidate indices, in order
  std::vector<double> objectives;  ///< slot k = candidate k's Q, fold serial
  std::vector<double> trial;       ///< per-thread trial G vector
  std::vector<double> gt;          ///< accumulated expected channel counts
};

/// The per-thread arena. Field groups are owned per the file comment.
struct SlotScratch {
  DualScratch dual;
  ResourceScratch resource;
  AssignScratch assign;
  GreedyScratch greedy;
};

/// The calling thread's scratch arena (thread-local, grown on demand,
/// never shrunk). See the ownership rules in the file comment.
SlotScratch& slot_scratch();

}  // namespace femtocr::core
