#include "sim/simulator.h"

#include <utility>

namespace femtocr::sim {

namespace {

/// The batch horizon: the scenario's GOP count, churn off.
EngineConfig batch_config(const Scenario& s) {
  EngineConfig config;
  config.slots = s.gop_deadline * s.num_gops;
  return config;
}

}  // namespace

Simulator::Simulator(const Scenario& scenario, core::SchemeKind kind,
                     std::size_t run_index)
    : Simulator(scenario,
                core::make_scheme(kind, scenario.dual,
                                  scenario.use_distributed_solver),
                run_index) {}

Simulator::Simulator(const Scenario& scenario,
                     std::unique_ptr<core::Scheme> scheme,
                     std::size_t run_index)
    : loop_(scenario, std::move(scheme), batch_config(scenario), run_index,
            /*batch=*/true) {}

RunResult Simulator::run() {
  const EngineReport report = loop_.run();
  const Engine::BatchTally& tally = loop_.tally_;
  const auto slots = static_cast<double>(report.slots);

  RunResult result;
  result.slots = report.slots;
  result.total_dual_iterations = report.total_dual_iterations;
  result.max_components = report.max_components;
  result.decision_latency_p50_ns = report.decision_latency_p50_ns;
  result.decision_latency_p90_ns = report.decision_latency_p90_ns;
  result.decision_latency_p99_ns = report.decision_latency_p99_ns;
  result.energy_mbs_joules = tally.energy_mbs_joules;
  result.energy_fbs_joules = tally.energy_fbs_joules;
  result.collision_rate = tally.accessed > 0
                              ? static_cast<double>(tally.collided) /
                                    static_cast<double>(tally.accessed)
                              : 0.0;
  result.avg_available = tally.sum_available / slots;
  result.avg_expected_channels = tally.sum_expected / slots;

  double sum = 0.0;
  double bound_sum = 0.0;
  double compounded_sum = 0.0;
  for (const Engine::Session& s : loop_.sessions_) {
    const double delivered =
        s.packets ? s.packets->mean_gop_psnr() : s.video.mean_gop_psnr();
    result.user_mean_psnr.push_back(delivered);
    sum += delivered;
    bound_sum += s.bound->state_following.mean();
    compounded_sum += s.bound->compounded.mean_gop_psnr();
  }
  const auto users = static_cast<double>(loop_.sessions_.size());
  result.mean_psnr = sum / users;
  result.mean_bound_psnr = bound_sum / users;
  result.mean_bound_psnr_compounded = compounded_sum / users;
  return result;
}

}  // namespace femtocr::sim
