#include "core/shard.h"

#include <algorithm>
#include <utility>

#include "core/greedy.h"
#include "core/objective.h"
#include "core/slot_cache.h"
#include "core/waterfill.h"
#include "util/check.h"
#include "util/metrics.h"
#include "util/parallel.h"
#include "util/trace.h"

namespace femtocr::core {

namespace {

/// core.shard.* instruments, registered lazily on the first sharded solve
/// so runs that never shard keep byte-identical metrics dumps (the perf
/// gate compares the union of counter names — see sim.faults.* for the
/// same pattern).
struct ShardMetrics {
  util::Counter& solves;          ///< sharded slot solves
  util::Counter& components;     ///< components summed over sharded solves
  util::Histogram& component_size;  ///< per-component FBS count (max = largest)
  util::TimerStat& solve;        ///< wall clock of the whole sharded solve
};

ShardMetrics& shard_metrics() {
  static ShardMetrics m{util::metrics().counter("core.shard.solves"),
                        util::metrics().counter("core.shard.components"),
                        util::metrics().histogram("core.shard.component_size"),
                        util::metrics().timer("core.shard.solve")};
  return m;
}

/// One component's solve: exactly ProposedScheme::allocate's dispatch,
/// applied to the sub-context — edgeless components take the optimal
/// water-filling (or the warm-startable subgradient on the distributed
/// path), interfering components take the Table III greedy. Runs on a
/// parallel_for worker; everything it touches is component-local (its own
/// cache, the worker's thread-local scratch arena) or read-only.
SlotAllocation solve_component(const ComponentProblem& problem,
                               SlotCache& cache, const ShardOptions& options,
                               const std::vector<double>* warm,
                               ComponentOutcome& outcome) {
  const SlotContext& sub = problem.ctx;
  if (sub.users.empty()) {
    // No users, nothing to allocate: zeros is exact (Q == 0, bound == 0).
    return SlotAllocation::zeros(sub);
  }
  cache.build(sub);
  if (sub.graph->num_edges() == 0) {
    const std::vector<double> gt(sub.num_fbs, sub.total_expected_channels());
    if (options.use_distributed_solver) {
      DualOptions opts = options.dual;
      opts.warm_start_enabled = true;
      if (warm != nullptr && warm->size() == sub.num_fbs + 1) {
        opts.warm_start = *warm;
      }
      if (sub.solver_iteration_cap > 0) {
        opts.max_iterations =
            std::min(opts.max_iterations, sub.solver_iteration_cap);
      }
      DualResult res = solve_dual(sub, cache, gt, opts);
      outcome.dual_path = true;
      outcome.converged = res.converged;
      if (res.converged) outcome.lambda = std::move(res.lambda);
      res.allocation.channels.assign(sub.num_fbs, sub.available);
      res.allocation.objective_empty = res.allocation.objective;
      return std::move(res.allocation);
    }
    SlotAllocation alloc = waterfill_solve(sub, cache, gt);
    alloc.channels.assign(sub.num_fbs, sub.available);
    alloc.objective_empty = alloc.objective;
    return alloc;
  }
  GreedyResult res = greedy_allocate(sub, cache);
  return std::move(res.allocation);
}

}  // namespace

ShardPlan ShardPlan::build(const net::InterferenceGraph& graph) {
  ShardPlan plan;
  plan.components = graph.components();
  plan.component_of = graph.component_of();
  return plan;
}

std::size_t ShardPlan::max_component_size() const {
  std::size_t m = 0;
  for (const auto& c : components) m = std::max(m, c.size());
  return m;
}

std::vector<ComponentProblem> make_component_problems(const SlotContext& ctx,
                                                      const ShardPlan& plan) {
  FEMTOCR_CHECK(plan.component_of.size() == ctx.num_fbs,
                "shard plan does not match the context's FBS count");
  const std::size_t num_components = plan.components.size();
  std::vector<ComponentProblem> problems(num_components);
  std::vector<std::size_t> local_fbs(ctx.num_fbs, 0);
  for (std::size_t c = 0; c < num_components; ++c) {
    ComponentProblem& p = problems[c];
    p.global_fbs = plan.components[c];
    p.graph = ctx.graph->induced_subgraph(p.global_fbs);
    p.ctx.num_fbs = p.global_fbs.size();
    p.ctx.available = ctx.available;
    p.ctx.posterior = ctx.posterior;
    p.ctx.sinr_threshold = ctx.sinr_threshold;
    p.ctx.solver_iteration_cap = ctx.solver_iteration_cap;
    for (std::size_t i = 0; i < p.global_fbs.size(); ++i) {
      local_fbs[p.global_fbs[i]] = i;
    }
  }
  // One ascending user sweep: each component receives its users in global
  // index order, which is the order the monolithic solve sees them in.
  for (std::size_t j = 0; j < ctx.users.size(); ++j) {
    const std::size_t f = ctx.users[j].fbs;
    FEMTOCR_CHECK(f < ctx.num_fbs, "user associated with an unknown FBS");
    ComponentProblem& p = problems[plan.component_of[f]];
    UserState u = ctx.users[j];
    u.fbs = local_fbs[f];
    p.global_users.push_back(j);
    p.ctx.users.push_back(u);
  }
  // Graph pointers last, once no element will move again. Moving the
  // *vector* afterwards is fine — elements stay in place on the heap.
  for (ComponentProblem& p : problems) p.ctx.graph = &p.graph;
  return problems;
}

SlotAllocation fold_component_allocations(
    const SlotContext& ctx, const std::vector<ComponentProblem>& problems,
    const std::vector<SlotAllocation>& subs) {
  FEMTOCR_CHECK(problems.size() == subs.size(),
                "need one sub-allocation per component");
  SlotAllocation alloc = SlotAllocation::zeros(ctx);
  double sum_mbs = 0.0;
  for (std::size_t c = 0; c < problems.size(); ++c) {
    const ComponentProblem& p = problems[c];
    const SlotAllocation& sub = subs[c];
    // The component solvers (waterfill / dual / greedy) never emit the
    // per-user override fields — those belong to the heuristics.
    FEMTOCR_CHECK(sub.user_expected_channels.empty() &&
                      sub.user_channel.empty(),
                  "component sub-allocation carries per-user overrides");
    for (std::size_t i = 0; i < p.global_fbs.size(); ++i) {
      alloc.channels[p.global_fbs[i]] = sub.channels[i];
      alloc.expected_channels[p.global_fbs[i]] = sub.expected_channels[i];
    }
    for (std::size_t k = 0; k < p.global_users.size(); ++k) {
      const std::size_t j = p.global_users[k];
      alloc.use_mbs[j] = sub.use_mbs[k];
      alloc.rho_mbs[j] = sub.rho_mbs[k];
      alloc.rho_fbs[j] = sub.rho_fbs[k];
      sum_mbs += sub.rho_mbs[k];
    }
    alloc.upper_bound += sub.upper_bound;
    alloc.objective_empty += sub.objective_empty;
    alloc.dual_iterations += sub.dual_iterations;
  }
  // Each component solved against its own unit MBS budget; the shared slot
  // can only grant one. Project exactly like run_protocol's primal
  // recovery: uniform rescale when oversubscribed. The summed upper bound
  // still dominates — per-component budgets relax the coupled problem.
  if (sum_mbs > 1.0) {
    const double scale_mbs = 1.0 / sum_mbs;
    for (double& rho : alloc.rho_mbs) rho *= scale_mbs;
  }
  alloc.objective = slot_objective(ctx, alloc);
  return alloc;
}

ShardResult sharded_allocate(
    const SlotContext& ctx, const ShardPlan& plan, const ShardOptions& options,
    const std::vector<std::vector<double>>* warm_prices) {
  ShardMetrics& metrics = shard_metrics();
  util::Scope scope(metrics.solve);

  ShardResult result;
  const std::vector<ComponentProblem> problems =
      make_component_problems(ctx, plan);
  const std::size_t num_components = problems.size();
  result.num_components = num_components;
  result.max_component_size = plan.max_component_size();
  result.outcomes.assign(num_components, ComponentOutcome{});

  metrics.solves.add();
  metrics.components.add(num_components);
  for (const auto& component : plan.components) {
    metrics.component_size.observe(static_cast<double>(component.size()));
  }
  scope.arg("components", static_cast<double>(num_components));
  scope.arg("max_component_size",
            static_cast<double>(result.max_component_size));

  // Concurrent component solves: worker c writes only slot c of the
  // pre-sized buffers; per-component caches keep the read-only tables
  // apart, the thread-local scratch arenas keep the mutable state apart.
  // Solver-internal parallel_for calls (the greedy's candidate argmax)
  // nest and therefore run inline on the worker — deadlock-free by the
  // ThreadPool contract, deterministic because nesting never changes WHAT
  // is computed.
  std::vector<SlotAllocation> subs(num_components);
  std::vector<SlotCache> caches(num_components);
  util::parallel_for(num_components, [&](std::size_t c) {
    const std::vector<double>* warm =
        (warm_prices != nullptr && c < warm_prices->size())
            ? &(*warm_prices)[c]
            : nullptr;
    subs[c] = solve_component(problems[c], caches[c], options, warm,
                              result.outcomes[c]);
  });

  result.allocation = fold_component_allocations(ctx, problems, subs);
  return result;
}

}  // namespace femtocr::core
