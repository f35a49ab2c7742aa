// Plain-text scenario configuration (key = value format).
//
// Lets the CLI and scripts describe experiments without recompiling:
//
//     # campus.cfg
//     base = interfering        # or "single"
//     seed = 7
//     channels = 8
//     utilization = 0.4
//     gamma = 0.2
//     false_alarm = 0.3
//     miss_detection = 0.3
//     common_bandwidth = 0.3
//     licensed_bandwidth = 0.3
//     gop_deadline = 10
//     num_gops = 20
//     users_per_fbs = 3
//     accounting = expected     # or "realized"
//     delivery = fluid          # or "packet"
//
// Robustness keys (docs/ROBUSTNESS.md) are accepted both here and in the
// standalone --fault-profile overlay files:
//
//     distributed_solver = on   # Table I/II subgradient for Proposed
//     dual_fallback = on        # non-converged dual -> exact water-fill
//     fault_sensing_outage_rate = 0.05
//     fault_budget_squeeze_rate = 0.1
//     fault_budget_squeeze_iterations = 5
//     ...                       # see apply_fault_profile() for the full set
//
// Lines are `key = value`; '#' starts a comment; unknown keys are an
// error (typo safety). The `base` scenario supplies geometry and videos;
// every other key overrides that base.
#pragma once

#include <iosfwd>
#include <string>

#include "sim/scenario.h"

namespace femtocr::sim {

/// Parses a configuration from a stream. Throws std::logic_error with the
/// offending line on malformed input or unknown keys.
Scenario load_scenario(std::istream& in);

/// Convenience: parse from a string (used by tests and inline configs).
Scenario load_scenario_string(const std::string& text);

/// Applies a fault-profile overlay (the robustness subset of the config
/// keys: distributed_solver, dual_*, fault_*) to an already-loaded
/// scenario. Throws std::logic_error on malformed input, keys outside the
/// robustness set, or rates that fail FaultProfile::validate(). Backs the
/// CLI's --fault-profile= flag.
void apply_fault_profile(std::istream& in, Scenario& scenario);

/// Convenience: overlay from a string (tests and inline profiles).
void apply_fault_profile_string(const std::string& text, Scenario& scenario);

/// Writes a configuration that load_scenario() parses back into an
/// equivalent scenario (base geometry is referenced by name, not dumped).
/// Robustness keys are emitted only when they differ from the defaults.
void save_scenario(std::ostream& out, const Scenario& scenario,
                   const std::string& base_name, std::size_t users_per_fbs);

}  // namespace femtocr::sim
