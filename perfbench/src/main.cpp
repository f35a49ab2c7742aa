// slot_bench: one workload run of the slot-pipeline benchmark.
//
//   slot_bench --workload=city|fleet|churn --seed=N --seconds=S --trace=0|1
//              [--trace-out=FILE]
//
// --trace=0 times sim::Engine::run() at 2 threads with tracing off and
// prints the end-to-end metrics. --trace=1 replays the same slots through
// the layers' public entry points with a span around each call (replay.h)
// and prints the per-layer metrics. Both modes also check the outputs:
// the 1-thread and 2-thread runs, and the traced and untraced runs, must
// agree bit for bit on every deterministic report field and registry
// counter. Human-readable lines go to stderr; the last stdout line is one
// JSON object {"correct", "attempted", "failed", "metrics"}.
#include <algorithm>
#include <cstdint>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <limits>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "replay.h"
#include "sim/engine.h"
#include "util/args.h"
#include "util/metrics.h"
#include "util/parallel.h"
#include "util/timer.h"
#include "util/trace.h"
#include "workloads.h"

namespace {

namespace sim = femtocr::sim;
namespace util = femtocr::util;
using perfbench::Layer;

/// Every end-to-end number is taken at this thread count (see README.md:
/// at nproc the dual solver's per-iteration pool dispatch dominates).
constexpr std::size_t kThreads = 2;
/// p99 needs at least ten samples beyond it.
constexpr std::size_t kMinDecisions = 1000;
/// Slots of episode 0 that the end-to-end run re-checks at 1 thread.
constexpr std::size_t kCheckSlots = 250;
/// setup_s: each sample is the mean over a batch of set-ups lasting at
/// least kSetupBatchS; a run takes at least kSetupSamples samples.
constexpr double kSetupBatchS = 0.05;
constexpr std::size_t kSetupSamples = 16;

using Counters = std::map<std::string, std::uint64_t>;

/// Registry counters, minus the engine's own sim.engine.* tallies (the
/// replay cannot bump those; its report fields are compared instead).
Counters counters(const util::MetricsSnapshot& snap) {
  Counters out;
  for (const auto& [name, value] : snap.counters) {
    if (name.rfind("sim.engine.", 0) != 0) out[name] = value;
  }
  return out;
}

std::uint64_t counter(const Counters& c, const std::string& name) {
  const auto it = c.find(name);
  return it == c.end() ? 0 : it->second;
}

/// Samples recorded by a registry histogram; 0 when it never registered.
std::uint64_t histogram_count(const util::MetricsSnapshot& snap,
                              const std::string& name) {
  for (const auto& [n, h] : snap.histograms) {
    if (n == name) return h.count;
  }
  return 0;
}

/// A registry timer's snapshot; an empty one when it never registered.
util::TimerSnapshot timer(const util::MetricsSnapshot& snap,
                          const std::string& name) {
  for (const auto& [n, t] : snap.timers) {
    if (n == name) return t;
  }
  return {};
}

double ratio(double num, double den, double if_empty) {
  return den > 0.0 ? num / den : if_empty;
}

/// Peak resident set of this process image in MB: VmHWM, which starts
/// afresh at exec (ru_maxrss would also count the launcher's memory, since
/// Linux carries it across exec).
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // reported in kB
    }
  }
  return 0.0;
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// The deterministic EngineReport fields, for exact comparison.
std::string fingerprint(const sim::EngineReport& r) {
  std::ostringstream out;
  out << std::setprecision(std::numeric_limits<double>::max_digits10)
      << "arrivals=" << r.arrivals << " admitted=" << r.admitted
      << " rejected_capacity=" << r.rejected_capacity
      << " rejected_qos=" << r.rejected_qos
      << " departures=" << r.departures << " handoffs=" << r.handoffs
      << " peak_sessions=" << r.peak_sessions
      << " idle_slots=" << r.idle_slots
      << " max_components=" << r.max_components
      << " completed_gops=" << r.completed_gops
      << " mean_psnr=" << r.mean_psnr
      << " total_dual_iterations=" << r.total_dual_iterations;
  return out.str();
}

/// Collects check failures; any failure makes the run incorrect.
class Checks {
 public:
  void expect(bool ok, const std::string& what) {
    if (ok) return;
    ok_ = false;
    std::cerr << "check failed: " << what << '\n';
  }
  void same_report(const sim::EngineReport& a, const sim::EngineReport& b,
                   const std::string& what) {
    const std::string fa = fingerprint(a), fb = fingerprint(b);
    expect(fa == fb, what + "\n  " + fa + "\n  " + fb);
  }
  void same_counters(const Counters& a, const Counters& b,
                     const std::string& what) {
    for (const auto& [name, value] : a) {
      expect(counter(b, name) == value,
             what + ": " + name + " " + std::to_string(value) + " vs " +
                 std::to_string(counter(b, name)));
    }
    for (const auto& [name, value] : b) {
      if (a.count(name) == 0) {
        expect(value == 0, what + ": " + name + " only on one side");
      }
    }
  }
  bool ok() const { return ok_; }

 private:
  bool ok_ = true;
};

struct EngineRun {
  sim::EngineReport report;
  double wall_s = 0.0;
  Counters counters;
  std::uint64_t latency_samples = 0;  ///< decisions whose latency was timed
};

/// One Engine::run() on a fresh engine; only run() is timed.
EngineRun run_engine(const perfbench::Workload& w) {
  sim::Engine engine(w.scenario, w.engine);
  util::metrics().reset();
  const util::Stopwatch watch;
  EngineRun out;
  out.report = engine.run();
  out.wall_s = watch.elapsed_seconds();
  const util::MetricsSnapshot snap = util::metrics().snapshot();
  out.counters = counters(snap);
  out.latency_samples =
      histogram_count(snap, "sim.slot.decision_latency_ns");
  return out;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void print_result(bool correct, std::size_t attempted, std::size_t failed,
                  const std::vector<Metric>& metrics) {
  std::cout << std::setprecision(std::numeric_limits<double>::max_digits10)
            << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << attempted << ", \"failed\": " << failed
            << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::cout << (i == 0 ? "" : ", ") << '"' << metrics[i].name
              << "\": {\"value\": " << metrics[i].value << ", \"unit\": \""
              << metrics[i].unit << "\"}";
  }
  std::cout << "}}" << std::endl;
}

void print_table(const std::string& title, const std::vector<Metric>& ms) {
  std::cerr << title << '\n';
  for (const Metric& m : ms) {
    std::cerr << "  " << std::left << std::setw(34) << m.name << std::right
              << std::setw(16) << std::setprecision(6) << m.value << ' '
              << m.unit << '\n';
  }
}

void structural_checks(const std::string& name, const EngineRun& run,
                       Checks& checks) {
  if (name == "fleet") {
    checks.expect(counter(run.counters, "core.greedy.allocations") == 0,
                  "fleet must never run the greedy");
    checks.expect(counter(run.counters, "core.dual.solves") > 0,
                  "fleet must run the dual solver");
  }
  if (name == "city") {
    checks.expect(run.report.max_components > 1,
                  "city must split into more than one component");
  }
}

/// Wakes the pool at kThreads and fills the solver's thread-local scratch
/// and the caches before anything is timed: a short engine run on each
/// workload instance.
void warm_up(const std::vector<perfbench::Workload>& workloads) {
  util::set_default_threads(kThreads);
  util::parallel_for(64, [](std::size_t) {});
  for (perfbench::Workload warm : workloads) {
    warm.engine.slots = 50;
    sim::Engine(warm.scenario, warm.engine).run();
  }
}

/// setup_s: scenario generation plus Engine construction for episode 0.
/// One untimed set-up first; then each sample is the mean over a batch of
/// set-ups lasting at least kSetupBatchS, so a set-up of a few
/// microseconds is not read off single clock samples. The host's speed
/// wanders over seconds, so the samples are taken in bursts spread over
/// the whole run, and setup_s is their median.
class SetupTimer {
 public:
  SetupTimer(std::string name, std::uint64_t seed)
      : name_(std::move(name)), seed_(seed) {
    once();
  }

  /// Takes `batches` samples.
  void sample(std::size_t batches) {
    for (std::size_t b = 0; b < batches; ++b) {
      const util::Stopwatch watch;
      std::size_t n = 0;
      do {
        once();
        ++n;
      } while (watch.elapsed_seconds() < kSetupBatchS);
      samples_.push_back(watch.elapsed_seconds() / static_cast<double>(n));
      setups_ += n;
    }
  }

  double median_s() const { return median(samples_); }
  std::size_t samples() const { return samples_.size(); }
  std::size_t setups() const { return setups_; }

 private:
  void once() const {
    const perfbench::Workload w = perfbench::make_workload(name_, seed_, 0);
    const sim::Engine engine(w.scenario, w.engine);
  }

  std::string name_;
  std::uint64_t seed_;
  std::vector<double> samples_;
  std::size_t setups_ = 0;
};

/// End-to-end run: set-up, warm-up, timed Engine::run() repetitions at
/// kThreads over the workload's episodes, then a 1-thread replay of a
/// prefix of episode 0 that must match the engine bit for bit.
int end_to_end(const std::string& name, std::uint64_t seed, double seconds) {
  SetupTimer setup(name, seed);
  std::vector<perfbench::Workload> episodes;
  for (std::size_t e = 0; e < perfbench::episodes(name); ++e) {
    episodes.push_back(perfbench::make_workload(name, seed, e));
  }

  warm_up(episodes);
  // One burst of set-up samples before the timed loop and one after each
  // of the first pass's episode runs: at least kSetupSamples in all.
  const std::size_t burst =
      std::max<std::size_t>(2, (kSetupSamples + episodes.size()) /
                                   (episodes.size() + 1));
  setup.sample(burst);

  // Timed: episodes in turn until `seconds` of run time, each at least
  // once. A repeated episode must reproduce its first run exactly. How
  // many repetitions fit depends on the host's speed, so each episode's
  // repetitions are folded to their median first (below): every run then
  // weighs the same episodes alike.
  Checks checks;
  std::vector<EngineRun> firsts;
  std::vector<std::vector<double>> walls(episodes.size()),
      p50s(episodes.size()), p99s(episodes.size());
  std::size_t decisions = 0, reps = 0;
  double timed = 0.0;
  for (std::size_t i = 0;
       i < episodes.size() || (timed < seconds && i < 400); ++i) {
    const std::size_t e = i % episodes.size();
    EngineRun run = run_engine(episodes[e]);
    ++reps;
    timed += run.wall_s;
    if (i < episodes.size()) setup.sample(burst);
    const sim::EngineReport& r = run.report;
    decisions += r.slots - r.idle_slots;
    walls[e].push_back(run.wall_s);
    p50s[e].push_back(static_cast<double>(r.decision_latency_p50_ns) * 1e-6);
    p99s[e].push_back(static_cast<double>(r.decision_latency_p99_ns) * 1e-6);
    if (run.latency_samples < kMinDecisions ||
        r.decision_latency_p99_ns <= 0) {
      std::cerr << "refusing decision_p99_ms: episode " << e << " recorded "
                << run.latency_samples << " decision latencies (need "
                << kMinDecisions << ") and p99 "
                << r.decision_latency_p99_ns << " ns\n";
      return 1;
    }
    if (e < firsts.size()) {
      checks.same_report(firsts[e].report, r,
                         "repeated Engine::run() reports differ");
      checks.same_counters(firsts[e].counters, run.counters,
                           "repeated Engine::run() counters differ");
    } else {
      structural_checks(name, run, checks);
      firsts.push_back(std::move(run));
    }
  }

  // Correctness on a prefix of episode 0: a 2-thread Engine::run() and a
  // 1-thread replay must agree bit for bit (the traced run checks whole
  // episodes; the prefix keeps a run's length dominated by timed work).
  perfbench::Workload prefix = episodes[0];
  prefix.engine.slots = std::min(prefix.engine.slots, kCheckSlots);
  const EngineRun reference = run_engine(prefix);
  util::set_default_threads(1);
  util::metrics().reset();
  const perfbench::ReplayResult check =
      perfbench::replay(prefix.scenario, prefix.engine, /*traced=*/false);
  const Counters check_counters = counters(util::metrics().snapshot());
  util::set_default_threads(kThreads);
  checks.same_report(reference.report, check.report,
                     "1-thread replay differs from 2-thread Engine::run()");
  checks.same_counters(reference.counters, check_counters,
                       "1-thread vs 2-thread registry counters");
  checks.expect(check.infeasible == 0,
                std::to_string(check.infeasible) + " infeasible allocations");

  // Deterministic metrics pool the first run of every episode.
  double psnr_sum = 0.0, gops = 0.0, admitted = 0.0, arrivals = 0.0;
  double converged = 0.0, solves = 0.0;
  for (const EngineRun& run : firsts) {
    psnr_sum += run.report.mean_psnr *
                static_cast<double>(run.report.completed_gops);
    gops += static_cast<double>(run.report.completed_gops);
    admitted += static_cast<double>(run.report.admitted);
    arrivals += static_cast<double>(run.report.arrivals);
    converged += static_cast<double>(counter(run.counters,
                                             "core.dual.converged"));
    solves += static_cast<double>(counter(run.counters, "core.dual.solves"));
  }

  // Timing metrics over the episodes' medians: slots_per_s is all slots
  // over the summed median walls; the percentiles are the mean over
  // episodes of each episode's median.
  const double limit_ms = perfbench::slot_limit_ms(episodes[0].scenario);
  double slots = 0.0, wall = 0.0, p50 = 0.0, p99 = 0.0;
  std::size_t late = 0;
  std::cerr << "workload=" << name << " seed=" << seed
            << " threads=" << kThreads << " episodes=" << episodes.size()
            << " slots/episode=" << episodes[0].engine.slots
            << " reps=" << reps << " decisions=" << decisions
            << " timed_s=" << timed << " setups=" << setup.setups()
            << " setup_samples=" << setup.samples() << '\n'
            << "by episode (reps, median slots_per_s p50_ms p99_ms):";
  for (std::size_t e = 0; e < episodes.size(); ++e) {
    const double n = static_cast<double>(firsts[e].report.slots);
    const double w = median(walls[e]);
    const double e50 = median(p50s[e]), e99 = median(p99s[e]);
    slots += n;
    wall += w;
    p50 += e50;
    p99 += e99;
    late += static_cast<std::size_t>(e99 > limit_ms);
    std::cerr << "  e" << e << ": " << walls[e].size() << ", " << n / w << ' '
              << e50 << ' ' << e99;
  }
  p50 /= static_cast<double>(episodes.size());
  p99 /= static_cast<double>(episodes.size());
  std::cerr << '\n'
            << "slot limit " << limit_ms << " ms: decision_p99_ms above it in "
            << late << " of " << episodes.size() << " episodes\n";

  const std::vector<Metric> metrics = {
      {"setup_s", setup.median_s(), "s"},
      {"slots_per_s", slots / wall, "1/s"},
      {"decision_p50_ms", p50, "ms"},
      {"decision_p99_ms", p99, "ms"},
      {"psnr_db", ratio(psnr_sum, gops, 0.0), "dB"},
      {"admit_share", ratio(admitted, arrivals, 1.0), "ratio"},
      {"solved_share", ratio(converged, solves, 1.0), "ratio"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
  };
  print_table("end-to-end (over " + std::to_string(episodes.size()) +
                  " episodes, " + std::to_string(reps) + " reps)",
              metrics);
  print_result(checks.ok(),
               decisions + reference.report.slots -
                   reference.report.idle_slots + check.decisions,
               check.infeasible, metrics);
  return checks.ok() ? 0 : 1;
}

/// Traced run on episode 0: untraced Engine::run() as the reference, then
/// the untraced and the traced replay alternating at kThreads, then a
/// traced replay at 1 thread; prints the per-layer metrics.
int per_layer(const std::string& name, std::uint64_t seed,
              const std::string& trace_out) {
  const perfbench::Workload w = perfbench::make_workload(name, seed, 0);
  warm_up({w});

  Checks checks;
  const EngineRun engine = run_engine(w);
  structural_checks(name, engine, checks);

  // The untraced and the traced replay run the same slot loop and
  // alternate twice; the overhead compares the faster run of each, which
  // host contention moves least. Per-layer numbers come from the second
  // traced replay.
  perfbench::ReplayResult traced;
  util::MetricsSnapshot snap;
  Counters c;
  double untraced_wall = std::numeric_limits<double>::infinity();
  double traced_wall = untraced_wall;
  for (int pass = 0; pass < 2; ++pass) {
    util::metrics().reset();
    const perfbench::ReplayResult untraced =
        perfbench::replay(w.scenario, w.engine, /*traced=*/false);
    untraced_wall = std::min(untraced_wall, untraced.wall_s);
    checks.same_report(engine.report, untraced.report,
                       "untraced replay differs from Engine::run()");
    checks.same_counters(engine.counters, counters(util::metrics().snapshot()),
                         "untraced replay vs Engine::run() registry counters");
    util::metrics().reset();
    traced = perfbench::replay(w.scenario, w.engine, /*traced=*/true);
    traced_wall = std::min(traced_wall, traced.wall_s);
    snap = util::metrics().snapshot();
    c = counters(snap);
    checks.same_report(engine.report, traced.report,
                       "traced replay differs from Engine::run()");
    checks.same_counters(engine.counters, c,
                         "traced vs untraced registry counters");
  }

  util::set_default_threads(1);
  util::metrics().reset();
  const perfbench::ReplayResult serial =
      perfbench::replay(w.scenario, w.engine, /*traced=*/true);
  const Counters serial_counters = counters(util::metrics().snapshot());
  util::set_default_threads(kThreads);

  checks.same_report(engine.report, serial.report,
                     "1-thread traced replay differs from Engine::run()");
  checks.same_counters(engine.counters, serial_counters,
                       "1-thread vs 2-thread registry counters");
  checks.expect(traced.infeasible + serial.infeasible == 0,
                "infeasible allocations in the replay");

  if (!trace_out.empty()) {
    std::ofstream out(trace_out);
    perfbench::write_trace(out, traced.spans);
    checks.expect(static_cast<bool>(out), "cannot write " + trace_out);
  }

  const std::vector<perfbench::LayerTime> layers =
      perfbench::fold_layers(traced.spans);
  const std::vector<perfbench::LayerTime> serial_layers =
      perfbench::fold_layers(serial.spans);
  const auto total = [&](Layer l) {
    return static_cast<double>(layers[static_cast<std::size_t>(l)].total_ns);
  };
  const double slots = static_cast<double>(traced.report.slots);
  const auto per_slot = [&](double v) { return v / slots; };
  const auto cnt = [&](const char* n) {
    return static_cast<double>(counter(c, n));
  };
  const double allocate_ms_2t = per_slot(total(Layer::kAllocate)) * 1e-6;
  const double allocate_ms_1t =
      static_cast<double>(
          serial_layers[static_cast<std::size_t>(Layer::kAllocate)].total_ns) /
      slots * 1e-6;
  const util::TimerSnapshot greedy = timer(snap, "core.greedy.allocate");
  const util::TimerSnapshot waterfill = timer(snap, "core.waterfill.solve");
  const util::TimerSnapshot dual = timer(snap, "core.dual.solve");
  const double dual_solves = cnt("core.dual.solves");
  const double warm = cnt("core.dual.warm_start.hits");
  const std::vector<Metric> metrics = {
      {"sim.slot_ms", per_slot(total(Layer::kSlot)) * 1e-6, "ms"},
      {"spectrum.observe_ms", per_slot(total(Layer::kSpectrum)) * 1e-6, "ms"},
      {"spectrum.reports_per_slot", per_slot(cnt("spectrum.sensing.reports")),
       "count"},
      {"net.mutate_us",
       ratio(total(Layer::kNet), static_cast<double>(traced.net_events), 0.0) *
           1e-3,
       "us"},
      {"net.events_per_slot",
       per_slot(static_cast<double>(traced.net_events)), "count"},
      {"net.graph_changes_per_slot",
       per_slot(static_cast<double>(traced.graph_changes)), "count"},
      {"admission.probe_us",
       ratio(total(Layer::kAdmission), static_cast<double>(traced.probes),
             0.0) *
           1e-3,
       "us"},
      {"admission.probes_per_slot",
       per_slot(static_cast<double>(traced.probes)), "count"},
      {"context.build_ms", per_slot(total(Layer::kContext)) * 1e-6, "ms"},
      {"deliver.us", per_slot(total(Layer::kDeliver)) * 1e-3, "us"},
      {"allocate.ms", allocate_ms_2t, "ms"},
      {"shard.components_per_slot", per_slot(cnt("core.shard.components")),
       "count"},
      {"slotcache.builds_per_slot", per_slot(cnt("core.slotcache.builds")),
       "count"},
      {"greedy.busy_ms_per_slot",
       per_slot(static_cast<double>(greedy.total_ns)) * 1e-6, "ms"},
      {"greedy.candidate_evals_per_slot",
       per_slot(cnt("core.greedy.candidate_evals")), "count"},
      {"waterfill.solves_per_slot", per_slot(cnt("core.waterfill.solves")),
       "count"},
      {"waterfill.us_per_solve",
       ratio(static_cast<double>(waterfill.total_ns),
             static_cast<double>(waterfill.count), 0.0) *
           1e-3,
       "us"},
      {"dual.busy_ms_per_slot",
       per_slot(static_cast<double>(dual.total_ns)) * 1e-6, "ms"},
      {"dual.iterations_per_slot", per_slot(cnt("core.dual.iterations")),
       "count"},
      {"dual.converged_share",
       ratio(cnt("core.dual.converged"), dual_solves, 1.0), "ratio"},
      {"dual.fallbacks_per_slot",
       per_slot(cnt("core.dual.fallback.nonconverged")), "count"},
      {"dual.warm_hit_share",
       ratio(warm, warm + cnt("core.dual.warm_start.misses"), 0.0), "ratio"},
      {"parallel.efficiency", allocate_ms_1t / (2.0 * allocate_ms_2t),
       "ratio"},
      {"trace.overhead_share", traced_wall / untraced_wall - 1.0, "ratio"},
  };

  std::cerr << "workload=" << name << " seed=" << seed << " slots="
            << traced.report.slots << " decisions=" << traced.decisions
            << '\n'
            << "parallel.efficiency base: allocate.ms 1 thread="
            << allocate_ms_1t << " 2 threads=" << allocate_ms_2t << '\n'
            << "trace.overhead_share base (faster of 2 replays each): traced "
               "wall_s="
            << traced_wall << " untraced wall_s=" << untraced_wall
            << " (Engine::run() wall_s=" << engine.wall_s << ")\n"
            << "layer self time (2 threads):\n";
  for (std::size_t l = 0; l < perfbench::kNumLayers; ++l) {
    std::cerr << "  " << std::left << std::setw(18)
              << perfbench::layer_name(static_cast<Layer>(l)) << std::right
              << " spans=" << std::setw(7) << layers[l].count
              << " total_ms=" << std::setw(10)
              << static_cast<double>(layers[l].total_ns) * 1e-6
              << " self_ms=" << std::setw(10)
              << static_cast<double>(layers[l].self_ns) * 1e-6 << '\n';
  }
  print_table("per-layer", metrics);
  // One engine run, two untraced and two traced replays, one 1-thread
  // replay.
  const std::size_t engine_decisions =
      engine.report.slots - engine.report.idle_slots;
  print_result(checks.ok(),
               engine_decisions + 4 * traced.decisions + serial.decisions,
               traced.infeasible + serial.infeasible, metrics);
  return checks.ok() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  // EngineReport's latency fields need metrics on; the timed runs must be
  // untraced whatever FEMTOCR_METRICS / FEMTOCR_TRACE say.
  util::set_metrics_enabled(true);
  util::set_trace_enabled(false);
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;
  try {
    const util::Args args(argc, argv);
    workload = args.get("workload", std::string());
    seed = static_cast<std::uint64_t>(args.get("seed", std::int64_t{1}));
    seconds = args.get("seconds", seconds);
    trace = args.get("trace", std::int64_t{0}) != 0;
    trace_out = args.get("trace-out", std::string());
    if (!args.unconsumed().empty()) {
      throw std::logic_error("unknown flag --" + args.unconsumed().front());
    }
    if (!perfbench::is_workload(workload)) {
      throw std::logic_error("--workload must be city, fleet or churn");
    }
  } catch (const std::exception& e) {
    std::cerr << "slot_bench: " << e.what() << '\n';
    return 2;
  }
  return trace ? per_layer(workload, seed, trace_out)
               : end_to_end(workload, seed, seconds);
}
