// The benchmark's three workloads: a scenario plus an engine horizon, each
// generated from the run seed and sized by a fixed rule (cluster count,
// cell count, slot count), never by choosing seeds.
#pragma once

#include <cstdint>
#include <string>

#include "sim/engine.h"
#include "sim/scenario.h"

namespace perfbench {

struct Workload {
  femtocr::sim::Scenario scenario;
  femtocr::sim::EngineConfig engine;
};

/// True for "city", "fleet" and "churn".
bool is_workload(const std::string& name);

/// Episodes per run: independent instances of the workload, each drawn from
/// its own substream of the run seed, so one run averages over several.
std::size_t episodes(const std::string& name);

/// Builds episode `episode` of workload `name` from `seed`: the same seed
/// gives the same inputs.
Workload make_workload(const std::string& name, std::uint64_t seed,
                       std::size_t episode);

/// Slot duration: one GOP's play-out time split over its deadline slots.
/// The per-slot decision must land inside it (16 frames at 30 fps over
/// T = 10 slots = 53.3 ms).
double slot_limit_ms(const femtocr::sim::Scenario& s);

}  // namespace perfbench
