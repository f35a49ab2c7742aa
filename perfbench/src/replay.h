// Traced replay of sim::Engine::run's slot loop through the layers' public
// entry points, with one in-memory span around each call.
//
// The replay draws from the same RNG substreams as the engine (0xA1
// spectrum, 0xB2 fading, 0xC3 mobility, 0xD4 churn) in the same order, so
// its deterministic report must equal Engine::run()'s bit for bit; the
// benchmark checks that before it prints a single per-layer number.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <vector>

#include "sim/engine.h"
#include "sim/scenario.h"

namespace perfbench {

/// The layer boundaries a span can mark.
enum class Layer : std::uint8_t {
  kSlot,       ///< one whole slot (sim.engine)
  kSpectrum,   ///< SpectrumManager::observe_slot
  kNet,        ///< one Topology add/remove/move event
  kAdmission,  ///< one admission probe: probe context + core::qos_solve
  kContext,    ///< begin_slot + SlotContext assembly (phy + video)
  kAllocate,   ///< Scheme::allocate
  kDeliver,    ///< VideoSession deliver/end_slot + GOP readout
};
inline constexpr std::size_t kNumLayers = 7;

/// Name of a layer as it appears in the trace file.
const char* layer_name(Layer layer);

struct Span {
  Layer layer;
  std::int32_t parent;  ///< index of the enclosing span, -1 at the root
  std::uint32_t slot;
  std::int64_t begin_ns;
  std::int64_t end_ns;
};

struct ReplayResult {
  /// Deterministic fields only; the latency block stays zero.
  femtocr::sim::EngineReport report;
  std::size_t decisions = 0;       ///< Scheme::allocate calls
  std::size_t infeasible = 0;      ///< allocations failing feasibility
  std::size_t net_events = 0;      ///< topology add/remove/move calls
  std::size_t graph_changes = 0;   ///< events that moved the graph version
  std::size_t probes = 0;          ///< admission probes run
  double wall_s = 0.0;             ///< wall time of the slot loop
  std::vector<Span> spans;         ///< empty unless traced
};

/// Replays `config.slots` slots of the engine on `scenario` (run index 0).
/// With `traced` each layer call is recorded as a Span.
ReplayResult replay(const femtocr::sim::Scenario& scenario,
                    const femtocr::sim::EngineConfig& config, bool traced);

/// Per-layer total and self time (span minus its children), nanoseconds.
struct LayerTime {
  std::int64_t total_ns = 0;
  std::int64_t self_ns = 0;
  std::size_t count = 0;
};
std::vector<LayerTime> fold_layers(const std::vector<Span>& spans);

/// Writes the spans as Chrome trace-event JSON (complete "X" events).
void write_trace(std::ostream& out, const std::vector<Span>& spans);

}  // namespace perfbench
