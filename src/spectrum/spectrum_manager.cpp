#include "spectrum/spectrum_manager.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"
#include "util/metrics.h"
#include "util/trace.h"

namespace femtocr::spectrum {

void SpectrumConfig::validate() const {
  FEMTOCR_CHECK(num_licensed > 0, "need at least one licensed channel");
  occupancy.validate();
  if (!per_channel.empty()) {
    FEMTOCR_CHECK(per_channel.size() == num_licensed,
                  "per-channel parameters must cover every licensed channel");
    for (const auto& p : per_channel) p.validate();
  }
  FEMTOCR_CHECK(gamma >= 0.0 && gamma <= 1.0, "gamma must be a probability");
  user_sensor.validate();
  fbs_sensor.validate();
}

std::size_t SlotObservation::truly_idle_available() const {
  std::size_t n = 0;
  for (std::size_t m : available) {
    if (true_states[m] == ChannelState::kIdle) ++n;
  }
  return n;
}

std::size_t SlotObservation::collisions() const {
  return available.size() - truly_idle_available();
}

namespace {
PrimarySpectrum make_primary(const SpectrumConfig& config,
                             util::Rng& init_rng) {
  config.validate();  // before any channel construction
  if (!config.per_channel.empty()) {
    return PrimarySpectrum(config.per_channel, init_rng);
  }
  return PrimarySpectrum(config.num_licensed, config.occupancy, init_rng);
}
}  // namespace

namespace {
std::vector<MarkovParams> all_params(const SpectrumConfig& config) {
  if (!config.per_channel.empty()) return config.per_channel;
  return std::vector<MarkovParams>(config.num_licensed, config.occupancy);
}
}  // namespace

SpectrumManager::SpectrumManager(SpectrumConfig config, util::Rng& init_rng)
    : config_(std::move(config)),
      primary_(make_primary(config_, init_rng)),
      beliefs_(all_params(config_)) {
  // Precompute the uncertainty ranking from the stationary utilizations.
  uncertainty_order_.resize(config_.num_licensed);
  for (std::size_t m = 0; m < config_.num_licensed; ++m) {
    uncertainty_order_[m] = m;
  }
  std::stable_sort(uncertainty_order_.begin(), uncertainty_order_.end(),
                   [&](std::size_t a, std::size_t b) {
                     const double ua =
                         std::fabs(primary_.params(a).utilization() - 0.5);
                     const double ub =
                         std::fabs(primary_.params(b).utilization() - 0.5);
                     return ua < ub;
                   });
}

std::size_t SpectrumManager::sensed_channel(std::size_t user,
                                            std::size_t slot_index) const {
  const std::size_t M = config_.num_licensed;
  if (config_.assignment == SensingAssignment::kRoundRobin) {
    return (user + slot_index) % M;
  }
  // kUncertaintyFirst: concentrate the K user-sensors on the K most
  // uncertain channels (all of them when K >= M), rotating within that
  // pool so its members are covered evenly.
  const std::size_t pool = std::min(std::max<std::size_t>(config_.num_users, 1), M);
  return uncertainty_order_[(user + slot_index) % pool];
}

std::size_t SpectrumManager::reports_for_channel(std::size_t m,
                                                 std::size_t slot_index) const {
  std::size_t n = (config_.fbs_sense_all ? config_.num_fbs : 0);
  for (std::size_t u = 0; u < config_.num_users; ++u) {
    if (sensed_channel(u, slot_index) == m) ++n;
  }
  return n;
}

SlotObservation SpectrumManager::observe_slot(std::size_t slot_index,
                                              util::Rng& rng) {
  static util::TimerStat& t_observe =
      util::metrics().timer("spectrum.observe_slot");
  util::Scope scope(t_observe);
  scope.arg("slot", static_cast<double>(slot_index));
  primary_.step(rng);

  const std::size_t M = config_.num_licensed;
  SlotObservation obs;
  obs.true_states = primary_.snapshot();
  obs.posteriors.resize(M);

  if (config_.track_beliefs) beliefs_.predict();

  for (std::size_t m = 0; m < M; ++m) {
    const bool busy = (obs.true_states[m] == ChannelState::kBusy);
    std::vector<SensingReport> reports;
    if (config_.fbs_sense_all) {
      for (std::size_t f = 0; f < config_.num_fbs; ++f) {
        reports.push_back(
            {config_.fbs_sensor.sense(busy, rng), config_.fbs_sensor});
      }
    }
    for (std::size_t u = 0; u < config_.num_users; ++u) {
      if (sensed_channel(u, slot_index) == m) {
        reports.push_back(
            {config_.user_sensor.sense(busy, rng), config_.user_sensor});
      }
    }
    // A channel nobody sensed this slot falls back to its prior idle
    // probability (no reports folds zero likelihood ratios). With belief
    // tracking the prior is the one-step Markov prediction of last slot's
    // posterior; otherwise the paper's stationary 1 - eta.
    if (config_.track_beliefs) {
      obs.posteriors[m] = beliefs_.update(m, reports).value();
    } else {
      obs.posteriors[m] =
          posterior_idle(util::Prob{primary_.params(m).utilization()}, reports)
              .value();
    }
  }

  obs.access = decide_access(obs.posteriors, config_.gamma, rng);
  obs.available = obs.access.available();
  obs.expected_available = obs.access.expected_available();

  // Access outcomes vs ground truth: channels we used (accessed), the
  // busy ones among them (collisions with the primary), and truly idle
  // channels we left on the table (idle-slot waste).
  static util::Counter& c_accessed =
      util::metrics().counter("spectrum.access.accessed");
  static util::Counter& c_collisions =
      util::metrics().counter("spectrum.access.collisions");
  static util::Counter& c_idle_missed =
      util::metrics().counter("spectrum.access.idle_missed");
  std::size_t truly_idle_total = 0;
  for (std::size_t m = 0; m < M; ++m) {
    if (obs.true_states[m] == ChannelState::kIdle) ++truly_idle_total;
  }
  c_accessed.add(obs.available.size());
  c_collisions.add(obs.collisions());
  c_idle_missed.add(truly_idle_total - obs.truly_idle_available());
  return obs;
}

}  // namespace femtocr::spectrum
