// Batch slot driver: a fixed user population over a fixed horizon (paper
// Section V methodology).
//
// The Simulator runs the one slot loop of sim/engine.h with churn off, for
// gop_deadline * num_gops slots, with the scheme under test, against the
// static coverage graph, and folds the loop's state into a RunResult: the
// per-user delivered GOP PSNR, the paper's Eq.-(23) upper-bound curves from
// the loop's parallel "bound trajectory" (see EXPERIMENTS.md for the exact
// transformation), collision and channel statistics, and the energy ledger.
// Fault profiles (sim/faults.h) and slot traces (sim/trace.h) act inside
// the loop.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "core/scheme.h"
#include "net/topology.h"
#include "sim/engine.h"
#include "sim/scenario.h"
#include "sim/trace.h"

namespace femtocr::sim {

/// Per-run outputs.
struct RunResult {
  std::vector<double> user_mean_psnr;  ///< mean delivered GOP PSNR per user
  double mean_psnr = 0.0;              ///< average of user_mean_psnr
  /// Eq.-(23) upper bound, per-slot (state-following) form: the delivered
  /// quality inflated by the average per-slot optimality slack of the
  /// greedy allocation — the form whose ~0.4 dB gap the paper plots.
  double mean_bound_psnr = 0.0;
  /// Compounded form: a parallel trajectory whose every slot's log-gain is
  /// amplified by the slot's bound ratio. A strictly looser, worst-case
  /// bound (several dB); reported by the bound ablation bench.
  double mean_bound_psnr_compounded = 0.0;
  double collision_rate = 0.0;  ///< collisions / accessed channel-slots
  double avg_available = 0.0;   ///< average |A(t)|
  /// Downlink transmit energy split by tier (joules over the whole run;
  /// slot duration from Scenario::gop_seconds / gop_deadline).
  double energy_mbs_joules = 0.0;
  double energy_fbs_joules = 0.0;
  double total_energy() const { return energy_mbs_joules + energy_fbs_joules; }
  double avg_expected_channels = 0.0;  ///< average G_t
  std::size_t total_dual_iterations = 0;
  std::size_t slots = 0;
  /// Largest per-slot interference-graph component count seen over the run
  /// (> 1 means the Proposed scheme's interfering slots decomposed and ran
  /// through the shard engine, core/shard.h). Graph-derived and
  /// deterministic; only mobility can move it mid-run. Never printed to
  /// stdout.
  std::size_t max_components = 0;
  /// Per-run decision-latency SLO fold (nearest-rank percentiles over the
  /// slot allocate latencies). Wall-clock values: populated only when
  /// metrics or tracing are enabled, exported to JSON/stderr only, and
  /// never allowed to feed a SchemeSummary or stdout.
  std::int64_t decision_latency_p50_ns = 0;
  std::int64_t decision_latency_p90_ns = 0;
  std::int64_t decision_latency_p99_ns = 0;
};

class Simulator {
 public:
  /// `scenario` must be finalized. The run's randomness derives only from
  /// scenario.seed and `run_index`.
  Simulator(const Scenario& scenario, core::SchemeKind kind,
            std::size_t run_index = 0);

  /// Same, with a caller-supplied scheme (extensions such as the QoS-floor
  /// allocator implement core::Scheme and plug in here).
  Simulator(const Scenario& scenario, std::unique_ptr<core::Scheme> scheme,
            std::size_t run_index = 0);

  RunResult run();

  /// Optional: record one SlotTraceEntry per slot into `recorder` (must
  /// outlive run()). Pass nullptr to detach.
  void attach_trace(TraceRecorder* recorder) { loop_.trace_ = recorder; }

  /// Warm-start plumbing across simulators: seeds the scheme's dual-price
  /// carry before the first slot (no-op for stateless schemes) and exposes
  /// whatever the scheme is carrying after run() — nullptr when cold. Used
  /// by sim::sweep's opt-in price-carry chains (adjacent sweep points drift
  /// slowly, so the previous point's prices land near the next optimum).
  void seed_prices(std::vector<double> lambda) {
    loop_.scheme_->seed_prices(std::move(lambda));
  }
  const std::vector<double>* final_prices() const {
    return loop_.scheme_->carried_prices();
  }

  const net::Topology& topology() const { return loop_.topology(); }

 private:
  Engine loop_;  ///< the slot loop, built in batch mode
};

}  // namespace femtocr::sim
