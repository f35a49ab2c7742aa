#include "sim/config_io.h"

#include <cmath>
#include <istream>
#include <map>
#include <ostream>
#include <sstream>

#include "net/topology.h"
#include "util/check.h"
#include "util/rng.h"

namespace femtocr::sim {

namespace {

std::string trim(const std::string& s) {
  const auto first = s.find_first_not_of(" \t\r");
  if (first == std::string::npos) return "";
  const auto last = s.find_last_not_of(" \t\r");
  return s.substr(first, last - first + 1);
}

double to_double(const std::string& key, const std::string& value) {
  try {
    std::size_t pos = 0;
    const double v = std::stod(value, &pos);
    FEMTOCR_CHECK(pos == value.size(), "trailing junk");
    return v;
  } catch (const std::exception&) {
    throw std::logic_error("config key '" + key + "' expects a number, got '" +
                           value + "'");
  }
}

std::size_t to_size(const std::string& key, const std::string& value) {
  const double v = to_double(key, value);
  // Range-check BEFORE any cast: converting a negative or out-of-range
  // double to std::size_t is undefined behavior, so the old
  // validate-via-roundtrip idiom was itself the bug for '-1' or '1e300'.
  // 2^53 is the largest power of two below which every integer is exact in
  // a double (and comfortably inside std::size_t's range).
  constexpr double kMaxExactInteger = 9007199254740992.0;  // 2^53
  FEMTOCR_CHECK(v >= 0.0 && v <= kMaxExactInteger && std::floor(v) == v,
                "config key '" + key + "' expects a nonnegative integer");
  return static_cast<std::size_t>(v);
}

bool to_bool(const std::string& key, const std::string& value) {
  if (value == "on" || value == "true" || value == "1") return true;
  if (value == "off" || value == "false" || value == "0") return false;
  throw std::logic_error("config key '" + key +
                         "' expects on/off (or true/false), got '" + value +
                         "'");
}

/// Reads the whole stream as `key = value` lines ('#' comments, duplicate
/// keys rejected) — shared by scenario files and fault-profile overlays.
std::map<std::string, std::string> parse_kv(std::istream& in) {
  std::map<std::string, std::string> kv;
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    const auto hash = line.find('#');
    if (hash != std::string::npos) line = line.substr(0, hash);
    line = trim(line);
    if (line.empty()) continue;
    const auto eq = line.find('=');
    FEMTOCR_CHECK(eq != std::string::npos,
                  "config line " + std::to_string(line_no) +
                      " is not 'key = value': " + line);
    const std::string key = trim(line.substr(0, eq));
    const std::string value = trim(line.substr(eq + 1));
    FEMTOCR_CHECK(!key.empty() && !value.empty(),
                  "config line " + std::to_string(line_no) +
                      " has an empty key or value");
    FEMTOCR_CHECK(!kv.count(key), "duplicate config key: " + key);
    kv[key] = value;
  }
  return kv;
}

/// Consumes the robustness keys (solver options and fault rates) from `kv`
/// into `scenario`. Shared between full scenario files and the standalone
/// --fault-profile overlay so the two spellings cannot drift apart.
void apply_robustness_overrides(std::map<std::string, std::string>& kv,
                                Scenario& scenario) {
  auto take = [&](const char* key) {
    const auto it = kv.find(key);
    if (it == kv.end()) return std::string();
    std::string v = it->second;
    kv.erase(it);
    return v;
  };

  if (const auto v = take("distributed_solver"); !v.empty()) {
    scenario.use_distributed_solver = to_bool("distributed_solver", v);
  }
  if (const auto v = take("dual_step_size"); !v.empty()) {
    scenario.dual.step_size = to_double("dual_step_size", v);
    FEMTOCR_CHECK(scenario.dual.step_size > 0.0,
                  "dual_step_size must be positive");
  }
  if (const auto v = take("dual_max_iterations"); !v.empty()) {
    scenario.dual.max_iterations = to_size("dual_max_iterations", v);
    FEMTOCR_CHECK(scenario.dual.max_iterations > 0,
                  "dual_max_iterations must be positive");
  }
  if (const auto v = take("dual_fallback"); !v.empty()) {
    scenario.dual.allow_fallback = to_bool("dual_fallback", v);
  }
  if (const auto v = take("dual_track_best_iterate"); !v.empty()) {
    scenario.dual.track_best_iterate = to_bool("dual_track_best_iterate", v);
  }
  if (const auto v = take("dual_best_iterate_stride"); !v.empty()) {
    scenario.dual.best_iterate_stride =
        to_size("dual_best_iterate_stride", v);
  }

  FaultProfile& f = scenario.faults;
  if (const auto v = take("fault_sensing_outage_rate"); !v.empty()) {
    f.sensing_outage_rate = to_double("fault_sensing_outage_rate", v);
  }
  if (const auto v = take("fault_sensing_outage_slots"); !v.empty()) {
    f.sensing_outage_slots = to_size("fault_sensing_outage_slots", v);
  }
  if (const auto v = take("fault_control_loss_rate"); !v.empty()) {
    f.control_loss_rate = to_double("fault_control_loss_rate", v);
  }
  if (const auto v = take("fault_fbs_outage_rate"); !v.empty()) {
    f.fbs_outage_rate = to_double("fault_fbs_outage_rate", v);
  }
  if (const auto v = take("fault_fbs_outage_slots"); !v.empty()) {
    f.fbs_outage_slots = to_size("fault_fbs_outage_slots", v);
  }
  if (const auto v = take("fault_primary_burst_rate"); !v.empty()) {
    f.primary_burst_rate = to_double("fault_primary_burst_rate", v);
  }
  if (const auto v = take("fault_primary_burst_slots"); !v.empty()) {
    f.primary_burst_slots = to_size("fault_primary_burst_slots", v);
  }
  if (const auto v = take("fault_budget_squeeze_rate"); !v.empty()) {
    f.budget_squeeze_rate = to_double("fault_budget_squeeze_rate", v);
  }
  if (const auto v = take("fault_budget_squeeze_iterations"); !v.empty()) {
    f.budget_squeeze_iterations =
        to_size("fault_budget_squeeze_iterations", v);
  }
  f.validate();
}

}  // namespace

Scenario load_scenario(std::istream& in) {
  std::map<std::string, std::string> kv = parse_kv(in);

  auto take = [&](const char* key) {
    const auto it = kv.find(key);
    if (it == kv.end()) return std::string();
    std::string v = it->second;
    kv.erase(it);
    return v;
  };

  // Base geometry first — other keys override it.
  const std::string base = [&] {
    std::string b = take("base");
    return b.empty() ? std::string("single") : b;
  }();
  std::uint64_t seed = 1;
  if (const std::string s = take("seed"); !s.empty()) {
    seed = static_cast<std::uint64_t>(to_size("seed", s));
  }
  Scenario scenario;
  if (base == "single") {
    scenario = single_fbs_scenario(seed);
  } else if (base == "interfering") {
    scenario = interfering_scenario(seed);
  } else {
    throw std::logic_error("config 'base' must be 'single' or 'interfering', got '" +
                           base + "'");
  }

  if (const auto v = take("channels"); !v.empty()) {
    scenario.spectrum.num_licensed = to_size("channels", v);
  }
  if (const auto v = take("utilization"); !v.empty()) {
    scenario.set_utilization(to_double("utilization", v));
  }
  if (const auto v = take("gamma"); !v.empty()) {
    scenario.spectrum.gamma = to_double("gamma", v);
  }
  // Sensing errors: apply jointly so partially-specified configs keep the
  // base value for the other probability.
  {
    double eps = scenario.spectrum.user_sensor.false_alarm;
    double delta = scenario.spectrum.user_sensor.miss_detection;
    if (const auto v = take("false_alarm"); !v.empty()) {
      eps = to_double("false_alarm", v);
    }
    if (const auto v = take("miss_detection"); !v.empty()) {
      delta = to_double("miss_detection", v);
    }
    scenario.set_sensing_errors(eps, delta);
  }
  if (const auto v = take("common_bandwidth"); !v.empty()) {
    scenario.common_bandwidth = to_double("common_bandwidth", v);
  }
  if (const auto v = take("licensed_bandwidth"); !v.empty()) {
    scenario.licensed_bandwidth = to_double("licensed_bandwidth", v);
  }
  if (const auto v = take("gop_deadline"); !v.empty()) {
    scenario.gop_deadline = to_size("gop_deadline", v);
  }
  if (const auto v = take("num_gops"); !v.empty()) {
    scenario.num_gops = to_size("num_gops", v);
  }
  if (const auto v = take("gop_seconds"); !v.empty()) {
    scenario.gop_seconds = to_double("gop_seconds", v);
  }
  if (const auto v = take("packet_bits"); !v.empty()) {
    scenario.packet_bits = to_size("packet_bits", v);
  }
  if (const auto v = take("users_per_fbs"); !v.empty()) {
    const std::size_t per_fbs = to_size("users_per_fbs", v);
    FEMTOCR_CHECK(per_fbs > 0, "users_per_fbs must be positive");
    std::vector<std::string> videos;
    for (const auto& u : scenario.users) videos.push_back(u.video_name);
    util::Rng rng(seed ^ 0x515F00D);
    scenario.users =
        net::Topology::scatter_users(scenario.fbss, per_fbs, videos, rng);
  }
  if (const auto v = take("mobility_stddev"); !v.empty()) {
    scenario.mobility.step_stddev = to_double("mobility_stddev", v);
    FEMTOCR_CHECK(scenario.mobility.step_stddev >= 0.0,
                  "mobility_stddev must be nonnegative");
  }
  if (const auto v = take("sensing_assignment"); !v.empty()) {
    if (v == "round_robin") {
      scenario.spectrum.assignment = spectrum::SensingAssignment::kRoundRobin;
    } else if (v == "uncertainty_first") {
      scenario.spectrum.assignment =
          spectrum::SensingAssignment::kUncertaintyFirst;
    } else {
      throw std::logic_error(
          "config 'sensing_assignment' must be 'round_robin' or "
          "'uncertainty_first'");
    }
  }
  if (const auto v = take("accounting"); !v.empty()) {
    if (v == "expected") {
      scenario.accounting = Accounting::kExpected;
    } else if (v == "realized") {
      scenario.accounting = Accounting::kRealized;
    } else {
      throw std::logic_error(
          "config 'accounting' must be 'expected' or 'realized'");
    }
  }
  if (const auto v = take("delivery"); !v.empty()) {
    if (v == "fluid") {
      scenario.delivery = DeliveryModel::kFluid;
    } else if (v == "packet") {
      scenario.delivery = DeliveryModel::kPacket;
    } else {
      throw std::logic_error("config 'delivery' must be 'fluid' or 'packet'");
    }
  }

  apply_robustness_overrides(kv, scenario);

  if (!kv.empty()) {
    throw std::logic_error("unknown config key: " + kv.begin()->first);
  }
  scenario.finalize();
  return scenario;
}

void apply_fault_profile(std::istream& in, Scenario& scenario) {
  std::map<std::string, std::string> kv = parse_kv(in);
  apply_robustness_overrides(kv, scenario);
  if (!kv.empty()) {
    throw std::logic_error("unknown fault-profile key: " + kv.begin()->first);
  }
}

void apply_fault_profile_string(const std::string& text, Scenario& scenario) {
  std::istringstream in(text);
  apply_fault_profile(in, scenario);
}

Scenario load_scenario_string(const std::string& text) {
  std::istringstream in(text);
  return load_scenario(in);
}

void save_scenario(std::ostream& out, const Scenario& scenario,
                   const std::string& base_name, std::size_t users_per_fbs) {
  out << "# femtocr scenario configuration\n"
      << "base = " << base_name << '\n'
      << "seed = " << scenario.seed << '\n'
      << "channels = " << scenario.spectrum.num_licensed << '\n'
      << "utilization = " << scenario.spectrum.occupancy.utilization() << '\n'
      << "gamma = " << scenario.spectrum.gamma << '\n'
      << "false_alarm = " << scenario.spectrum.user_sensor.false_alarm << '\n'
      << "miss_detection = " << scenario.spectrum.user_sensor.miss_detection
      << '\n'
      << "common_bandwidth = " << scenario.common_bandwidth << '\n'
      << "licensed_bandwidth = " << scenario.licensed_bandwidth << '\n'
      << "gop_deadline = " << scenario.gop_deadline << '\n'
      << "num_gops = " << scenario.num_gops << '\n'
      << "gop_seconds = " << scenario.gop_seconds << '\n'
      << "packet_bits = " << scenario.packet_bits << '\n'
      << "users_per_fbs = " << users_per_fbs << '\n'
      << "mobility_stddev = " << scenario.mobility.step_stddev << '\n'
      << "sensing_assignment = "
      << (scenario.spectrum.assignment ==
                  spectrum::SensingAssignment::kRoundRobin
              ? "round_robin"
              : "uncertainty_first")
      << '\n'
      << "accounting = "
      << (scenario.accounting == Accounting::kExpected ? "expected"
                                                       : "realized")
      << '\n'
      << "delivery = "
      << (scenario.delivery == DeliveryModel::kFluid ? "fluid" : "packet")
      << '\n';

  // Robustness keys ride along only when they differ from the defaults, so
  // configs saved before the fault layer existed stay byte-identical.
  const core::DualOptions dd;
  const auto& d = scenario.dual;
  if (scenario.use_distributed_solver) out << "distributed_solver = on\n";
  if (d.step_size != dd.step_size) {
    out << "dual_step_size = " << d.step_size << '\n';
  }
  if (d.max_iterations != dd.max_iterations) {
    out << "dual_max_iterations = " << d.max_iterations << '\n';
  }
  if (d.allow_fallback != dd.allow_fallback) {
    out << "dual_fallback = " << (d.allow_fallback ? "on" : "off") << '\n';
  }
  if (d.track_best_iterate != dd.track_best_iterate) {
    out << "dual_track_best_iterate = "
        << (d.track_best_iterate ? "on" : "off") << '\n';
  }
  if (d.best_iterate_stride != dd.best_iterate_stride) {
    out << "dual_best_iterate_stride = " << d.best_iterate_stride << '\n';
  }
  if (scenario.faults.enabled()) {
    const FaultProfile& f = scenario.faults;
    out << "fault_sensing_outage_rate = " << f.sensing_outage_rate << '\n'
        << "fault_sensing_outage_slots = " << f.sensing_outage_slots << '\n'
        << "fault_control_loss_rate = " << f.control_loss_rate << '\n'
        << "fault_fbs_outage_rate = " << f.fbs_outage_rate << '\n'
        << "fault_fbs_outage_slots = " << f.fbs_outage_slots << '\n'
        << "fault_primary_burst_rate = " << f.primary_burst_rate << '\n'
        << "fault_primary_burst_slots = " << f.primary_burst_slots << '\n'
        << "fault_budget_squeeze_rate = " << f.budget_squeeze_rate << '\n'
        << "fault_budget_squeeze_iterations = "
        << f.budget_squeeze_iterations << '\n';
  }
}

}  // namespace femtocr::sim
