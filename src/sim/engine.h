// The slot loop: one per-slot pipeline behind both slot drivers.
//
// Per slot (paper Section V methodology): at GOP boundaries users move and
// hand off; the primary channels evolve and are sensed and fused
// (SpectrumManager) and the fault plan (sim/faults.h) acts on the
// observation; sessions depart and arrive (ChurnConfig; a no-op when
// disabled); block fading realizes one SINR per link; the scheme allocates
// (on a control loss every cell falls back to the local equal-share rule);
// every session receives its realized PSNR increment, the energy ledger and
// (for the batch driver) the Eq.-(23) bound trajectory advance, and at GOP
// deadlines the delivered quality is read out.
//
// Two drivers build this loop. The Engine is the online one: a
// long-running pipeline where video sessions arrive by a Poisson process,
// live an exponential lifetime, and leave — with every topology
// consequence (association, links, the activity-filtered interference
// graph, the cached shard decomposition) applied *incrementally* per event
// instead of rebuilt per slot. The batch sim::Simulator (sim/simulator.h)
// is the same loop with churn off, a fixed horizon, any scheme, and its
// own report fold.
//
// Admission control: a new session is admitted only if (a) its nearest
// femtocell has capacity (`max_sessions_per_fbs`) and (b), when a quality
// floor is configured, the QoS layer (core/qos.h) reports the cell can
// still hold every attached session plus the newcomer at the floor given
// the slot's expected channel supply (`QosPlan::floors_met` on a per-cell
// probe context). Rejected arrivals never touch the topology.
//
// Interference model, fixed by the driver: the engine allocates against
// net::Topology::active_graph() — the coverage graph restricted to
// femtocells currently serving at least one session (an empty cell does
// not transmit, so its overlaps constrain nobody). Churn and handoffs
// therefore split and merge components at event granularity, which is
// exactly the workload the fingerprint-keyed shard warm starts
// (core/scheme.h) exist for. The batch driver allocates against the
// static coverage graph() its figures were produced with. With
// `verify_graph` on, the loop cross-checks the incremental graph against a
// from-scratch rebuild after every churn/mobility event (FEMTOCR_CHECK —
// active in release builds, the CI churn-smoke gate runs with it enabled).
//
// Determinism contract: spectrum/fading/mobility draw from the run RNG's
// 0xA1/0xB2/0xC3 substreams and churn from its 0xD4 substream, all drawn
// serially in the slot loop; faults come from their own seed universe.
// Every EngineReport field except the latency SLO block is bitwise
// identical for any --threads value and with FEMTOCR_METRICS=0. Lifetime
// draws happen for every arrival, admitted or not, so the substream stays
// aligned across admission-policy changes. The sensing population
// (spectrum::SpectrumConfig::num_users) stays fixed at the base scenario's
// deployment: sessions ride on top of the sensing infrastructure rather
// than re-wiring it per arrival.
//
// Observability: sim.engine.* counters (lazily registered and published
// once per engine run, so batch runs keep their exact historical counter
// set), sim.slot.* spans and timers, sim.faults.* counters, flight-recorder
// harvest per slot, and a per-run decision-latency SLO fold (nearest-rank
// p50/p90/p99) as a first-class report field. Wall-clock values never
// reach stdout.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/scheme.h"
#include "net/topology.h"
#include "sim/faults.h"
#include "sim/scenario.h"
#include "sim/trace.h"
#include "util/stats.h"
#include "video/packet_stream.h"
#include "video/session.h"

namespace femtocr::sim {

/// Session arrival/departure process. Rates are per slot.
struct ChurnConfig {
  /// Mean Poisson arrivals per slot; 0 disables churn entirely (the
  /// initial population then runs to the horizon, as in the Simulator).
  double arrival_rate = 0.0;
  /// Mean exponential session lifetime in slots (draws are rounded up, so
  /// every admitted session lives at least one slot).
  double mean_lifetime_slots = 80.0;
  /// Hard per-cell capacity: an arrival whose nearest FBS already serves
  /// this many sessions is rejected before any QoS probe runs.
  std::size_t max_sessions_per_fbs = 6;
  /// GOP-end PSNR floor (dB) the admission probe must certify for every
  /// session of the target cell, newcomer included. 0 = capacity-only
  /// admission.
  double admission_min_psnr = 0.0;

  bool enabled() const { return arrival_rate > 0.0; }
};

struct EngineConfig {
  std::size_t slots = 200;  ///< horizon (the engine itself is open-ended)
  ChurnConfig churn;
  /// Cross-check the incremental active graph + association invariants
  /// against a from-scratch rebuild after every churn/mobility event.
  /// FEMTOCR_CHECK-backed: aborts on divergence even in release builds.
  bool verify_graph = false;
};

/// Per-run engine outputs. Everything except the latency block is
/// deterministic (thread-count and metrics-toggle invariant).
struct EngineReport {
  std::size_t slots = 0;
  std::size_t arrivals = 0;            ///< Poisson arrivals offered
  std::size_t admitted = 0;
  std::size_t rejected_capacity = 0;   ///< cell at max_sessions_per_fbs
  std::size_t rejected_qos = 0;        ///< QoS probe refused the floor
  std::size_t departures = 0;          ///< lifetime expiries processed
  std::size_t handoffs = 0;            ///< mobility re-associations
  std::size_t peak_sessions = 0;       ///< max concurrent sessions seen
  std::size_t idle_slots = 0;          ///< slots served with zero sessions
  std::size_t max_components = 0;      ///< interference-graph component peak
  std::size_t completed_gops = 0;      ///< (session, GOP window) readouts
  double mean_psnr = 0.0;              ///< mean delivered GOP PSNR
  std::size_t total_dual_iterations = 0;
  std::size_t graph_cross_checks = 0;  ///< verify_graph passes executed

  /// Decision-latency SLO (nearest-rank percentiles over the engine's
  /// allocate calls). Wall-clock: populated only when metrics or tracing
  /// are enabled; JSON/stderr only, never stdout.
  std::int64_t decision_latency_p50_ns = 0;
  std::int64_t decision_latency_p90_ns = 0;
  std::int64_t decision_latency_p99_ns = 0;
};

class Engine {
 public:
  /// `scenario` must be finalized and use the fluid/expected delivery
  /// model (the engine's accounting path); its users become the initial
  /// session population.
  Engine(const Scenario& scenario, EngineConfig config,
         std::size_t run_index = 0);

  EngineReport run();

  const net::Topology& topology() const { return topology_; }

 private:
  friend class Simulator;  ///< the batch driver: builds and folds this loop

  /// A session's Eq.-(23) upper-bound curves (EXPERIMENTS.md).
  struct BoundTrack {
    /// Compounded form: a parallel trajectory whose every slot's log-gain
    /// is amplified by the slot's bound ratio.
    video::VideoSession compounded;
    /// State-following form: the delivered W_T inflated once per GOP by
    /// the GOP's mean per-slot optimality slack, one sample per GOP.
    util::RunningStat state_following;
  };

  /// One live session: delivered video state and the slot at whose start
  /// it leaves.
  struct Session {
    video::VideoSession video;
    /// The packet-level stream under DeliveryModel::kPacket, else null.
    std::unique_ptr<video::PacketStream> packets;
    /// Batch driver only, else null: only RunResult reports the bound, and
    /// its GOP history would grow an online session's memory every GOP.
    std::unique_ptr<BoundTrack> bound;
    std::size_t depart_slot;

    /// The delivered quality: the packet stream's when there is one.
    double psnr() const {
      return packets ? packets->current_psnr() : video.current_psnr();
    }
    const std::vector<double>& gop_history() const {
      return packets ? packets->gop_history() : video.gop_history();
    }
  };

  /// Spectrum and energy tallies only the batch report folds.
  struct BatchTally {
    std::size_t accessed = 0;   ///< accessed channel-slots
    std::size_t collided = 0;   ///< ... of which collided
    double sum_available = 0.0;
    double sum_expected = 0.0;  ///< sum of G_t
    double energy_mbs_joules = 0.0;
    double energy_fbs_joules = 0.0;
  };

  static constexpr std::size_t kNeverDeparts = static_cast<std::size_t>(-1);

  /// The loop proper. `batch` selects the batch driver's interference
  /// graph, metric names and bound trajectories; the public constructor
  /// builds the engine.
  Engine(const Scenario& scenario, std::unique_ptr<core::Scheme> scheme,
         EngineConfig config, std::size_t run_index, bool batch);

  /// The batch driver's static coverage graph, the engine's active one.
  const net::InterferenceGraph& graph() const {
    return batch_ ? topology_.graph() : topology_.active_graph();
  }

  Session make_session(const std::string& video_name,
                       std::size_t depart_slot) const;

  /// With verify_graph on: incremental-vs-rebuild cross-check.
  void verify_graph(EngineReport& report) const;

  /// Removes every session whose lifetime expired at or before slot t
  /// (descending index order; frees capacity before the slot's arrivals).
  void process_departures(std::size_t t, EngineReport& report);

  /// Draws and admits slot t's Poisson arrivals serially from `churn_rng`.
  /// `expected_channels` is the slot's G_t for the admission probe.
  void run_arrivals(std::size_t t, double expected_channels,
                    util::Rng& churn_rng, EngineReport& report);

  /// Admission test for a candidate at `position` streaming `video_name`:
  /// capacity cap, then the per-cell QoS probe. Returns true to admit;
  /// bumps the report's rejection tallies otherwise.
  bool admit(std::size_t t, phy::Point position,
             const std::string& video_name, double expected_channels,
             EngineReport& report) const;

  /// Gaussian per-GOP movement of every live user within the deployment's
  /// bounding box, through the incremental topology ops.
  void move_users(util::Rng& rng, EngineReport& report);

  /// Applies the slot's spectrum-side faults to `obs` in place: primary
  /// bursts flip ground truth to busy behind the posteriors' back; a
  /// sensing outage freezes the previous slot's posteriors and re-realizes
  /// the Eq. (7) access decisions against them (collision budget intact by
  /// construction). Only called with an enabled plan.
  void apply_spectrum_faults(std::size_t slot, spectrum::SlotObservation& obs);

  /// Slot context over the live sessions: fading draws, the slot's solver
  /// budget, and FBS outages.
  core::SlotContext make_context(const spectrum::SlotObservation& obs,
                                 util::Rng& fading_rng, std::size_t slot);

  /// Delivers the slot's allocation: PSNR increments (fluid or packet,
  /// expected or realized channels), the energy ledger, the compounded
  /// bound trajectory, and the optional trace entry.
  void deliver(std::size_t t, const spectrum::SlotObservation& obs,
               const core::SlotContext& ctx, const core::SlotAllocation& alloc,
               std::size_t components);

  Scenario scenario_;  ///< copied: the loop outlives the caller's config
  EngineConfig config_;
  std::size_t run_index_ = 0;  ///< postmortem identity for the flight recorder
  bool batch_ = false;
  net::Topology topology_;
  std::unique_ptr<core::Scheme> scheme_;
  util::Rng rng_;
  /// Fault layer (sim/faults.h). The plan is realized once per run from a
  /// dedicated seed universe; fault_rng_ exists only when the plan is
  /// enabled, so disabled runs are bitwise identical to pre-fault builds
  /// and pay nothing to set up.
  FaultPlan fault_plan_;
  std::optional<util::Rng> fault_rng_;
  std::vector<double> last_posteriors_;  ///< frozen under sensing outages
  /// Mobility bounding box: the union of the coverage disks plus
  /// Mobility::margin — users roam the neighbourhood but never wander off
  /// to infinity.
  phy::Point roam_min_;
  phy::Point roam_max_;
  std::vector<Session> sessions_;  ///< parallel to topology_.users()
  std::size_t next_video_ = 0;     ///< catalogue cursor for arrivals
  BatchTally tally_;
  TraceRecorder* trace_ = nullptr;
};

}  // namespace femtocr::sim
