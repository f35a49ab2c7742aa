// Scale-out stress workload for the per-slot solve path.
//
// Sweeps users x FBSs x channels well past the paper's figure scenarios —
// up to 500 users / 50 FBSs / 64 licensed channels on the non-interfering
// dual-decomposition path (each replication a warm-started chain of
// drifting slots, so the warm-start hit rate is exercised at bench scale),
// and ring-interference cells up to 50 FBSs on
// the greedy + water-filling path (the greedy's candidate argmax is the
// intra-slot parallel section, so the interfering cells are the ones that
// scale with --threads). Not a figure: this bench exists to (a) pin the
// determinism contract at scale — stdout carries only solver outputs, so
// it must be byte-identical for any --threads and with FEMTOCR_METRICS=0 —
// and (b) feed the perf regression gate: the per-solve wall clock
// accumulates under the bench.stress.slot_solve timer in --metrics-out
// JSON, which CI compares against the committed BENCH_baseline.json with
// tools/metrics_report.py --gate (see docs/OBSERVABILITY.md).
//
//   --grid=smoke   CI-sized subset (default)
//   --grid=full    the whole sweep, 500-user / 50-FBS cells included
//   --grid=city    Matérn-clustered city topologies (hundreds to thousands
//                  of FBSs) solved through the component shard engine
//                  (core/shard.h); gated against BENCH_baseline_city.json.
//                  The point of this tier: slot-solve wall clock scales
//                  with the number (and size) of interference-graph
//                  components, not with the raw network size.
#include <cmath>
#include <iomanip>
#include <iostream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common.h"
#include "core/dual_solver.h"
#include "core/greedy.h"
#include "core/shard.h"
#include "core/slot_cache.h"
#include "core/types.h"
#include "net/interference_graph.h"
#include "sim/scenario.h"
#include "util/check.h"
#include "util/mathx.h"
#include "util/metrics.h"
#include "util/rng.h"
#include "util/trace.h"

namespace {

using namespace femtocr;

struct Cell {
  const char* kind;  // "dual" (non-interfering) or "greedy" (ring graph)
  std::size_t users;
  std::size_t fbs;
  std::size_t channels;
};

struct Fixture {
  std::unique_ptr<net::InterferenceGraph> graph;
  core::SlotContext ctx;
};

/// Deterministic instance for one (cell, replication): the seed folds in
/// the cell dimensions so every cell sweeps distinct but reproducible
/// channel posteriors and link states.
Fixture make_fixture(const Cell& cell, bool ring, std::uint64_t rep) {
  util::Rng rng(7u + 1000003u * rep + 31u * cell.users + 17u * cell.fbs +
                13u * cell.channels);
  Fixture f;
  std::vector<std::pair<std::size_t, std::size_t>> edges;
  if (ring && cell.fbs > 1) {
    for (std::size_t i = 0; i + 1 < cell.fbs; ++i) edges.emplace_back(i, i + 1);
    if (cell.fbs > 2) edges.emplace_back(cell.fbs - 1, std::size_t{0});
  }
  f.graph = std::make_unique<net::InterferenceGraph>(
      net::InterferenceGraph::from_edges(cell.fbs, edges));
  f.ctx.num_fbs = cell.fbs;
  f.ctx.graph = f.graph.get();
  for (std::size_t m = 0; m < cell.channels; ++m) {
    f.ctx.available.push_back(m);
    f.ctx.posterior.push_back(rng.uniform(0.4, 1.0));
  }
  for (std::size_t j = 0; j < cell.users; ++j) {
    core::UserState u;
    u.psnr = rng.uniform(28.0, 42.0);
    u.success_mbs = rng.uniform(0.55, 0.98);
    u.success_fbs = rng.uniform(0.55, 0.98);
    u.rate_mbs = rng.uniform(0.45, 0.7);
    u.rate_fbs = rng.uniform(0.45, 0.7);
    u.fbs = j % cell.fbs;
    f.ctx.users.push_back(u);
  }
  return f;
}

/// One slot of belief/fading drift for the dual chains: posteriors and
/// link states move a few percent per slot (beliefs evolve slowly — the
/// regime where carried prices pay), clamped back into their valid ranges.
void drift_fixture(Fixture& f, util::Rng& rng) {
  for (double& p : f.ctx.posterior) {
    p = util::clamp(p * rng.uniform(0.97, 1.03), 0.05, 1.0);
  }
  for (core::UserState& u : f.ctx.users) {
    u.success_mbs = util::clamp(u.success_mbs * rng.uniform(0.98, 1.02), 0.05, 0.999);
    u.success_fbs = util::clamp(u.success_fbs * rng.uniform(0.98, 1.02), 0.05, 0.999);
    u.rate_mbs = util::clamp(u.rate_mbs * rng.uniform(0.98, 1.02), 0.1, 1.0);
    u.rate_fbs = util::clamp(u.rate_fbs * rng.uniform(0.98, 1.02), 0.1, 1.0);
  }
}

/// One city cell: a scaled Matérn deployment (sim::city_scenario) whose
/// interference graph splits into many cluster-sized components. The
/// parent-disk radius shrinks with sqrt(clusters) so cluster density — and
/// therefore component size — stays constant across cells; only the
/// component COUNT grows. That is the scaling claim the gate pins.
struct CityFixture {
  std::unique_ptr<net::InterferenceGraph> graph;
  core::SlotContext ctx;
  std::size_t num_fbs = 0;
  std::size_t num_users = 0;
};

CityFixture make_city_fixture(std::size_t clusters, std::uint64_t rep) {
  sim::CityConfig cfg;
  cfg.clusters = clusters;
  // 1.4x the generator's default parent spacing: cluster merges (which
  // serialize — a component solves on one worker) stay small and rare, so
  // the critical path is a single cluster, not a merged blob.
  cfg.city_radius = 4200.0 * std::sqrt(static_cast<double>(clusters) / 250.0);
  cfg.fbs_per_cluster = 5.0;
  cfg.max_users_per_fbs = 4;
  cfg.num_licensed = 8;
  const sim::Scenario s = sim::city_scenario(cfg, /*seed=*/11 + rep);

  CityFixture f;
  f.num_fbs = s.fbss.size();
  f.num_users = s.users.size();
  f.graph = std::make_unique<net::InterferenceGraph>(
      net::InterferenceGraph::from_coverage(s.fbss));
  f.ctx.num_fbs = s.fbss.size();
  f.ctx.graph = f.graph.get();
  util::Rng rng(0xC17u + 1000003u * rep + 31u * clusters);
  for (std::size_t m = 0; m < cfg.num_licensed; ++m) {
    f.ctx.available.push_back(m);
    f.ctx.posterior.push_back(rng.uniform(0.4, 1.0));
  }
  for (const net::CrUser& su : s.users) {
    core::UserState u;
    u.psnr = rng.uniform(28.0, 42.0);
    u.success_mbs = rng.uniform(0.55, 0.98);
    u.success_fbs = rng.uniform(0.55, 0.98);
    u.rate_mbs = rng.uniform(0.45, 0.7);
    u.rate_fbs = rng.uniform(0.45, 0.7);
    u.fbs = su.fbs;
    f.ctx.users.push_back(u);
  }
  return f;
}

}  // namespace

int main(int argc, char** argv) {
  std::string grid = "smoke";
  benchutil::Harness harness(
      argc, argv, /*default_runs=*/1,
      [&grid](const util::Args& args) {
        grid = args.get("grid", std::string("smoke"));
      },
      " --grid=smoke|full|city");
  if (grid != "smoke" && grid != "full" && grid != "city") {
    std::cerr << "stress_scale: --grid must be smoke, full or city\n";
    return 2;
  }

  std::vector<Cell> cells = {
      {"dual", 60, 6, 8},
      {"dual", 192, 16, 16},
      {"greedy", 12, 12, 3},
      {"dual", 300, 25, 32},
      {"greedy", 25, 25, 3},
  };
  if (grid == "full") {
    cells.push_back({"dual", 500, 50, 64});
    cells.push_back({"greedy", 50, 50, 4});
  }

  // The regression-gate timer: wall clock of the solve calls only (fixture
  // construction and printing excluded).
  static util::TimerStat& t_solve =
      util::metrics().timer("bench.stress.slot_solve");
  // The simulator's sim.slot / sim.slot.allocate envelope, synthesized so
  // trace tooling applies the same nesting checks to bench traces.
  static util::TimerStat& t_slot = util::metrics().timer("sim.slot");
  static util::TimerStat& t_allocate =
      util::metrics().timer("sim.slot.allocate");
  static util::Counter& c_cells = util::metrics().counter("bench.stress.cells");
  static util::Counter& c_solves =
      util::metrics().counter("bench.stress.solves");

  std::cout << "Stress-scale sweep of the per-slot solve path (grid=" << grid
            << ", runs=" << harness.runs() << ")\n";
  std::cout << "kind    users  fbs  chan  sum_objective        work\n";

  std::size_t replications = 0;

  if (grid == "city") {
    // City tier: the whole per-slot solve goes through sharded_allocate;
    // `work` counts interference-graph components, the quantity the wall
    // clock is expected to track. Table columns print the rep-0 deployment
    // (seed-derived, so byte-identical for any --threads).
    for (const std::size_t clusters : {std::size_t{48}, std::size_t{96},
                                       std::size_t{192}}) {
      c_cells.add();
      double sum_objective = 0.0;
      std::size_t work = 0;
      std::size_t shown_users = 0;
      std::size_t shown_fbs = 0;
      for (std::size_t rep = 0; rep < harness.runs(); ++rep) {
        ++replications;
        const CityFixture f = make_city_fixture(clusters, rep);
        if (rep == 0) {
          shown_users = f.num_users;
          shown_fbs = f.num_fbs;
        }
        util::Scope slot_scope(t_slot);
        slot_scope.arg("run", static_cast<double>(rep));
        c_solves.add();
        const util::Scope alloc_scope(t_allocate);
        const core::ShardPlan plan = core::ShardPlan::build(*f.ctx.graph);
        FEMTOCR_CHECK(plan.num_components() > 1,
                      "city deployments must decompose into components");
        const util::Scope solve_scope(t_solve);
        const core::ShardResult res = core::sharded_allocate(f.ctx, plan);
        sum_objective += res.allocation.objective;
        work += res.num_components;
      }
      std::cout << std::left << std::setw(8) << "city" << std::right
                << std::setw(5) << shown_users << std::setw(5) << shown_fbs
                << std::setw(6) << 8 << "  " << std::setw(18)
                << std::setprecision(12) << sum_objective << "  "
                << std::setw(6) << work << "\n";
    }
    harness.report(replications);
    return 0;
  }

  for (const Cell& cell : cells) {
    c_cells.add();
    double sum_objective = 0.0;
    std::size_t work = 0;  // dual iterations resp. greedy steps
    for (std::size_t rep = 0; rep < harness.runs(); ++rep) {
      ++replications;
      if (std::string(cell.kind) == "dual") {
        // Warm-started slot chain: the fixture drifts a little per slot
        // and the previous slot's converged prices seed the next solve —
        // the live warm-start regime of core/scheme.cpp. Slot 0 is the
        // chain's one (counted) cold miss; every later slot should be a
        // core.dual.warm_start.hit.
        constexpr std::size_t kChainSlots = 6;
        Fixture f = make_fixture(cell, /*ring=*/false, rep);
        util::Rng drift_rng(0x5eed5u + 1000003u * rep + 31u * cell.users +
                            17u * cell.fbs + 13u * cell.channels);
        core::SlotCache cache;
        core::DualOptions opts;
        // Bound the subgradient so the 500-user cells stay bench-sized;
        // the result is deterministic either way.
        opts.max_iterations = 20000;
        opts.warm_start_enabled = true;
        std::vector<double> warm;
        for (std::size_t slot = 0; slot < kChainSlots; ++slot) {
          if (slot > 0) drift_fixture(f, drift_rng);
          util::Scope slot_scope(t_slot);
          slot_scope.arg("slot", static_cast<double>(slot));
          slot_scope.arg("run", static_cast<double>(rep));
          const std::vector<double> gt(cell.fbs,
                                       f.ctx.total_expected_channels());
          if (warm.size() == cell.fbs + 1) {
            opts.warm_start = warm;
          } else {
            opts.warm_start.reset();
          }
          c_solves.add();
          const util::Scope alloc_scope(t_allocate);
          cache.build(f.ctx);
          const util::Scope solve_scope(t_solve);
          const core::DualResult res =
              core::solve_dual(f.ctx, cache, gt, opts);
          if (res.converged) {
            warm = res.lambda;
          } else {
            warm.clear();  // never carry a degraded price vector
          }
          sum_objective += res.allocation.objective;
          work += res.iterations;
        }
      } else {
        Fixture f = make_fixture(cell, /*ring=*/true, rep);
        core::SlotCache cache;
        util::Scope slot_scope(t_slot);
        slot_scope.arg("run", static_cast<double>(rep));
        c_solves.add();
        const util::Scope alloc_scope(t_allocate);
        cache.build(f.ctx);
        const util::Scope solve_scope(t_solve);
        const core::GreedyResult res = core::greedy_allocate(f.ctx, cache);
        sum_objective += res.allocation.objective;
        work += res.steps.size();
      }
    }
    std::cout << std::left << std::setw(8) << cell.kind << std::right
              << std::setw(5) << cell.users << std::setw(5) << cell.fbs
              << std::setw(6) << cell.channels << "  " << std::setw(18)
              << std::setprecision(12) << sum_objective << "  " << std::setw(6)
              << work << "\n";
  }

  harness.report(replications);
  return 0;
}
