// Deterministic fault injection for the simulator (docs/ROBUSTNESS.md).
//
// The paper's premise is operation through uncertainty — imperfect sensing,
// primary-user collisions, a per-slot solve that must land inside the slot
// — so the robustness layer injects exactly those stresses: sensing outages
// that freeze the availability beliefs, control/feedback loss that severs
// the MBS's coordination for a slot, FBS outage intervals, bursts of
// primary activity the sensing stage never saw, and iteration-budget
// squeezes on the per-slot solver.
//
// Two contracts make the layer safe to ship enabled-by-configuration:
//
//   * Off by default, bitwise invisible when off. A FaultProfile with all
//     rates zero produces an empty FaultPlan whose queries are all
//     false/0; the simulator draws nothing from any fault stream and the
//     run is byte-identical to a build without this header.
//   * Deterministic and seed-split. The whole plan is realized up front
//     from a dedicated parent Rng derived from (scenario seed, run index),
//     one substream per fault type — never from the simulator's own
//     streams, whose split order is part of the bitwise-reproducibility
//     contract. Identical (profile, shape, seed, run) => identical plan,
//     for any thread count.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace femtocr::sim {

/// Per-run fault intensities. All rates are per-slot (per-FBS / per-channel
/// where applicable) probabilities that a fault *starts*; `*_slots` is the
/// deterministic duration once started. Everything off by default.
struct FaultProfile {
  /// Sensing outage: the report fusion pipeline is down, so the network
  /// reuses the previous slot's posteriors (frozen beliefs) and re-draws
  /// the Eq. (7) access decisions against them. The collision budget gamma
  /// holds by construction — the access rule is applied to whatever belief
  /// the network actually has.
  double sensing_outage_rate = 0.0;
  std::size_t sensing_outage_slots = 2;

  /// Control/feedback loss: the MBS's allocation never reaches the users
  /// this slot; every cell falls back to the purely local equal-allocation
  /// rule (core/heuristics.h).
  double control_loss_rate = 0.0;

  /// FBS outage: a femtocell radio is down for an interval; its users see
  /// success_fbs = 0 and must ride the common channel (or idle).
  double fbs_outage_rate = 0.0;
  std::size_t fbs_outage_slots = 2;

  /// Primary-activity burst: a primary user (re)enters the channel after
  /// the sensing stage, so the slot's ground truth flips to busy behind
  /// the posteriors' back — realized collisions rise, beliefs do not.
  double primary_burst_rate = 0.0;
  std::size_t primary_burst_slots = 1;

  /// Solver budget squeeze: the slot leaves only `budget_squeeze_iterations`
  /// subgradient iterations for the distributed solver — the graceful-
  /// degradation path of core::solve_dual (best-iterate recovery and the
  /// exact water-fill fallback) must absorb the rest.
  double budget_squeeze_rate = 0.0;
  std::size_t budget_squeeze_iterations = 50;

  /// True iff any fault can ever fire.
  bool enabled() const;

  /// Contract checks: rates are probabilities, durations/budgets of
  /// enabled faults are positive.
  void validate() const;
};

/// A fully realized fault schedule for one run: every query is a table
/// lookup, so the per-slot cost is O(1) and the plan cannot perturb any
/// other random stream. Default-constructed plans are disabled.
class FaultPlan {
 public:
  FaultPlan() = default;

  /// Realizes `profile` over `total_slots` slots, `num_fbs` femtocells and
  /// `num_channels` licensed channels. `seed` is the scenario seed;
  /// `run_index` selects the replication substream (mirroring the
  /// simulator's own per-run split discipline).
  FaultPlan(const FaultProfile& profile, std::size_t total_slots,
            std::size_t num_fbs, std::size_t num_channels, std::uint64_t seed,
            std::size_t run_index);

  bool enabled() const { return enabled_; }
  const FaultProfile& profile() const { return profile_; }

  bool sensing_outage(std::size_t slot) const { return flag(sensing_, slot); }
  bool control_loss(std::size_t slot) const { return flag(control_, slot); }
  bool fbs_down(std::size_t slot, std::size_t fbs) const {
    return flag(fbs_down_, slot * num_fbs_ + fbs);
  }
  bool primary_burst(std::size_t slot, std::size_t channel) const {
    return flag(burst_, slot * num_channels_ + channel);
  }
  /// Iteration cap for this slot's solver, 0 when unconstrained.
  std::size_t iteration_cap(std::size_t slot) const {
    return flag(squeeze_, slot) ? profile_.budget_squeeze_iterations : 0;
  }

 private:
  static bool flag(const std::vector<unsigned char>& v, std::size_t i) {
    return i < v.size() && v[i] != 0;
  }

  FaultProfile profile_;
  bool enabled_ = false;
  std::size_t num_fbs_ = 0;
  std::size_t num_channels_ = 0;
  std::vector<unsigned char> sensing_;   ///< per slot
  std::vector<unsigned char> control_;   ///< per slot
  std::vector<unsigned char> fbs_down_;  ///< slot-major [slot][fbs]
  std::vector<unsigned char> burst_;     ///< slot-major [slot][channel]
  std::vector<unsigned char> squeeze_;   ///< per slot
};

}  // namespace femtocr::sim
