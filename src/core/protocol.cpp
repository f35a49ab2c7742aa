#include "core/protocol.h"

#include <utility>

#include "core/objective.h"
#include "core/subproblem.h"
#include "util/check.h"
#include "util/mathx.h"
#include "util/parallel.h"
#include "util/trace.h"

namespace femtocr::core::protocol {

UserAgent::UserAgent(std::size_t id, UserState state, double expected_channels)
    : id_(id), state_(state), expected_channels_(expected_channels) {
  FEMTOCR_CHECK(expected_channels >= 0.0,
                "expected channel count must be nonnegative");
}

ShareReport UserAgent::on_broadcast(const PriceBroadcast& prices) const {
  FEMTOCR_CHECK(state_.fbs + 1 < prices.lambda.size(),
                "price broadcast does not cover this user's FBS");
  const UserChoice c = solve_user(state_, prices.lambda[0],
                                  prices.lambda[state_.fbs + 1],
                                  expected_channels_);
  ShareReport report;
  report.user = id_;
  report.use_mbs = c.use_mbs;
  report.rho_mbs = c.rho_mbs;
  report.rho_fbs = c.rho_fbs;
  return report;
}

MbsAgent::MbsAgent(std::size_t num_fbs, DualOptions options)
    : options_(std::move(options)),
      lambda_(num_fbs + 1, options_.initial_lambda) {
  if (options_.warm_start) {
    FEMTOCR_CHECK(options_.warm_start->size() == lambda_.size(),
                  "warm start must provide one price per resource");
    lambda_ = *options_.warm_start;
  }
}

PriceBroadcast MbsAgent::initial_broadcast() const {
  return {0, lambda_};
}

PriceBroadcast MbsAgent::on_reports(const std::vector<ShareReport>& reports,
                                    const std::vector<std::size_t>& user_fbs) {
  FEMTOCR_CHECK(reports.size() == user_fbs.size(),
                "need the FBS association of every reporting user");
  sums_.assign(lambda_.size(), 0.0);
  for (std::size_t k = 0; k < reports.size(); ++k) {
    sums_[0] += reports[k].rho_mbs;
    sums_[user_fbs[k] + 1] += reports[k].rho_fbs;
  }
  next_.resize(lambda_.size());
  for (std::size_t i = 0; i < lambda_.size(); ++i) {
    next_[i] =
        util::pos(lambda_[i] - options_.step_size * (1.0 - sums_[i]));
  }
  const double movement = util::squared_distance(next_, lambda_);
  std::swap(lambda_, next_);
  ++iteration_;
  if (movement <= options_.tolerance) converged_ = true;
  return {iteration_, lambda_};
}

ProtocolResult run_protocol(const SlotContext& ctx,
                            const std::vector<double>& gt_per_fbs,
                            const DualOptions& options) {
  static util::TimerStat& t_run = util::metrics().timer("core.protocol.run");
  util::Scope scope(t_run);
  ctx.validate();
  FEMTOCR_CHECK(gt_per_fbs.size() == ctx.num_fbs,
                "need one expected channel count per FBS");

  // Stand up the nodes. Each user agent holds only its own state.
  std::vector<UserAgent> users;
  std::vector<std::size_t> user_fbs;
  for (std::size_t j = 0; j < ctx.users.size(); ++j) {
    users.emplace_back(j, ctx.users[j], gt_per_fbs[ctx.users[j].fbs]);
    user_fbs.push_back(ctx.users[j].fbs);
  }
  MbsAgent mbs(ctx.num_fbs, options);

  ProtocolResult result;
  PriceBroadcast prices = mbs.initial_broadcast();
  ++result.downlink_broadcasts;
  std::vector<ShareReport> reports(users.size());
  for (std::size_t round = 0; round < options.max_iterations; ++round) {
    for (std::size_t j = 0; j < users.size(); ++j) {
      reports[j] = users[j].on_broadcast(prices);
      ++result.uplink_messages;
    }
    prices = mbs.on_reports(reports, user_fbs);
    ++result.downlink_broadcasts;
    ++result.rounds;
    if (mbs.converged()) break;
  }
  result.converged = mbs.converged();

  // Primal recovery at the final prices (one more local solve per user),
  // then projection onto the slot budgets.
  SlotAllocation alloc = SlotAllocation::zeros(ctx);
  alloc.expected_channels = gt_per_fbs;
  double sum_mbs = 0.0;
  std::vector<double> sum_fbs(ctx.num_fbs, 0.0);
  for (std::size_t j = 0; j < users.size(); ++j) {
    const ShareReport r = users[j].on_broadcast(prices);
    alloc.use_mbs[j] = r.use_mbs;
    alloc.rho_mbs[j] = r.rho_mbs;
    alloc.rho_fbs[j] = r.rho_fbs;
    sum_mbs += r.rho_mbs;
    sum_fbs[user_fbs[j]] += r.rho_fbs;
  }
  const double scale_mbs = sum_mbs > 1.0 ? 1.0 / sum_mbs : 1.0;
  for (std::size_t j = 0; j < users.size(); ++j) {
    alloc.rho_mbs[j] *= scale_mbs;
    if (sum_fbs[user_fbs[j]] > 1.0) {
      alloc.rho_fbs[j] /= sum_fbs[user_fbs[j]];
    }
  }
  alloc.objective = slot_objective(ctx, alloc);
  alloc.upper_bound = alloc.objective;
  alloc.dual_iterations = result.rounds;
  result.allocation = std::move(alloc);
  result.lambda = std::move(prices.lambda);
  scope.arg("rounds", static_cast<double>(result.rounds));
  scope.arg("converged", result.converged ? 1.0 : 0.0);
  scope.arg("uplink_messages", static_cast<double>(result.uplink_messages));
  return result;
}

ShardedProtocolResult run_protocol_sharded(const SlotContext& ctx,
                                           const ShardPlan& plan,
                                           const std::vector<double>& gt_per_fbs,
                                           const DualOptions& options) {
  static util::TimerStat& t_run =
      util::metrics().timer("core.protocol.run_sharded");
  util::Scope scope(t_run);
  ctx.validate();
  FEMTOCR_CHECK(gt_per_fbs.size() == ctx.num_fbs,
                "need one expected channel count per FBS");

  const std::vector<ComponentProblem> problems =
      make_component_problems(ctx, plan);
  ShardedProtocolResult result;
  result.per_component.resize(problems.size());

  // One exchange per component, concurrently: worker c writes only its own
  // result slot, folds stay serial in component order below.
  util::parallel_for(problems.size(), [&](std::size_t c) {
    const ComponentProblem& p = problems[c];
    if (p.ctx.users.empty()) {
      // No users, no exchange: the component contributes a zero allocation
      // and no signaling.
      ProtocolResult empty;
      empty.allocation = SlotAllocation::zeros(p.ctx);
      empty.converged = true;
      result.per_component[c] = std::move(empty);
      return;
    }
    std::vector<double> gt_local(p.ctx.num_fbs, 0.0);
    for (std::size_t i = 0; i < p.global_fbs.size(); ++i) {
      gt_local[i] = gt_per_fbs[p.global_fbs[i]];
    }
    result.per_component[c] = run_protocol(p.ctx, gt_local, options);
  });

  result.converged = true;
  std::vector<SlotAllocation> subs;
  subs.reserve(problems.size());
  for (const ProtocolResult& r : result.per_component) {
    result.converged = result.converged && r.converged;
    result.rounds = std::max(result.rounds, r.rounds);
    result.uplink_messages += r.uplink_messages;
    result.downlink_broadcasts += r.downlink_broadcasts;
    subs.push_back(r.allocation);
  }
  result.allocation = fold_component_allocations(ctx, problems, subs);
  scope.arg("components", static_cast<double>(problems.size()));
  scope.arg("rounds", static_cast<double>(result.rounds));
  scope.arg("converged", result.converged ? 1.0 : 0.0);
  return result;
}

}  // namespace femtocr::core::protocol
