#include "util/trace.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <limits>
#include <map>
#include <memory>
#include <ostream>
#include <string_view>

#include "util/log.h"
#include "util/parallel.h"
#include "util/thread_annotations.h"

namespace femtocr::util {

namespace trace_detail {

std::atomic<int> g_enabled{-1};

namespace {

/// True when the FEMTOCR_TRACE value is in the explicit "off" set (shared
/// by enabled_slow and trace_env_disabled so the two can never disagree).
bool is_off_value(std::string_view v) {
  return v == "0" || v == "off" || v == "false" || v == "OFF" || v == "FALSE";
}

bool is_on_value(std::string_view v) {
  return v == "1" || v == "on" || v == "true" || v == "ON" || v == "TRUE";
}

}  // namespace

bool enabled_slow() {
  // FEMTOCR_METRICS precedence style, but the default is OFF: recording a
  // span costs a ring store per scope, so tracing is strictly opt-in
  // (--trace-out or the environment). Unrecognized values stay off.
  bool on = false;
  if (const char* env = std::getenv("FEMTOCR_TRACE")) {
    on = is_on_value(env);
  }
  int expected = -1;
  g_enabled.compare_exchange_strong(expected, on ? 1 : 0);
  return g_enabled.load(std::memory_order_relaxed) != 0;
}

namespace {

/// Newest-events-win ring capacity per thread. FEMTOCR_TRACE_BUFFER
/// overrides (events per thread, clamped); the default comfortably holds a
/// smoke-sized run on a single worker so thread-count invariance checks
/// never see drops.
constexpr std::size_t kDefaultRingCapacity = 1 << 16;
constexpr std::size_t kMinRingCapacity = 1 << 12;
constexpr std::size_t kMaxRingCapacity = 1 << 22;

/// Bounds on the postmortem pools: captures are meant for a human reading
/// one bad slot, not for bulk export.
constexpr std::size_t kMaxAnomalyCaptures = 16;
constexpr std::size_t kMaxSlowSlots = 8;
constexpr std::size_t kMaxCapturedEventsPerSlot = 512;
constexpr std::size_t kMaxPendingNotes = 16;

std::size_t ring_capacity_from_env() {
  std::size_t cap = kDefaultRingCapacity;
  if (const char* env = std::getenv("FEMTOCR_TRACE_BUFFER")) {
    char* end = nullptr;
    const unsigned long long v = std::strtoull(env, &end, 10);
    if (end != env && *end == '\0' && v > 0) {
      cap = static_cast<std::size_t>(v);
    }
  }
  return std::clamp(cap, kMinRingCapacity, kMaxRingCapacity);
}

}  // namespace

/// Single-writer span ring plus the owning thread's span-stack depth and
/// pending anomaly notes. Written only by the owning thread; read by the
/// exporting thread while the pool is quiescent (the replication pool's
/// join provides the happens-before edge, same as the metrics fold).
struct ThreadRing {
  ThreadRing(std::uint32_t id, std::size_t cap) : tid(id), events(cap) {}

  const std::uint32_t tid;
  std::vector<TraceEvent> events;  ///< fixed capacity, events.size() slots
  std::uint64_t head = 0;          ///< events ever pushed; slot = head % cap
  std::uint32_t depth = 0;         ///< current span nesting depth
  std::vector<const char*> notes;  ///< pending anomaly tags for this slot

  std::size_t capacity() const { return events.size(); }
  /// Sequence number of the oldest event still resident.
  std::uint64_t resident_begin() const {
    return head > events.size() ? head - events.size() : 0;
  }
};

namespace {

/// One frozen slot: identity, trigger tags, and the span subtree.
struct CapturedSlot {
  std::uint64_t run = 0;
  std::uint64_t slot = 0;
  std::int64_t latency_ns = 0;
  std::vector<const char*> triggers;
  std::vector<TraceEvent> events;
};

struct TraceRegistry {
  // Guards registration and the recorder pools only — ring event writes
  // stay lock-free on the owning thread.
  mutable Mutex mutex;
  std::vector<std::unique_ptr<ThreadRing>> rings FEMTOCR_GUARDED_BY(mutex);
  std::size_t ring_capacity FEMTOCR_GUARDED_BY(mutex) = 0;
  std::vector<CapturedSlot> anomalies FEMTOCR_GUARDED_BY(mutex);
  std::uint64_t anomalies_total FEMTOCR_GUARDED_BY(mutex) = 0;
  std::vector<CapturedSlot> slow_slots FEMTOCR_GUARDED_BY(mutex);
};

TraceRegistry& registry() {
  static TraceRegistry r;
  return r;
}

}  // namespace

ThreadRing* this_thread_ring() {
  thread_local ThreadRing* ring = nullptr;
  if (ring == nullptr) {
    TraceRegistry& reg = registry();
    MutexLock lock(reg.mutex);
    if (reg.ring_capacity == 0) reg.ring_capacity = ring_capacity_from_env();
    const auto tid = static_cast<std::uint32_t>(reg.rings.size());
    reg.rings.push_back(std::make_unique<ThreadRing>(tid, reg.ring_capacity));
    ring = reg.rings.back().get();
  }
  return ring;
}

}  // namespace trace_detail

void set_trace_enabled(bool on) {
  trace_detail::g_enabled.store(on ? 1 : 0, std::memory_order_relaxed);
}

bool trace_env_disabled() {
  const char* env = std::getenv("FEMTOCR_TRACE");
  return env != nullptr && trace_detail::is_off_value(env);
}

// ------------------------------------------------------------------ scope ----

void Scope::open_span(const char* name) {
  ring_ = trace_detail::this_thread_ring();
  event_.name = name;
  event_.tid = ring_->tid;
  event_.depth = ring_->depth++;
}

void Scope::close_span() {
  --ring_->depth;
  ring_->events[ring_->head++ % ring_->capacity()] = event_;
}

// -------------------------------------------------------- flight recorder ----

void trace_note_anomaly(const char* tag) {
  if (!trace_enabled()) return;
  trace_detail::ThreadRing* r = trace_detail::this_thread_ring();
  if (r->notes.size() < trace_detail::kMaxPendingNotes) r->notes.push_back(tag);
}

std::uint64_t trace_slot_mark() {
  if (!trace_enabled()) return 0;
  return trace_detail::this_thread_ring()->head;
}

void trace_flight_record_slot(const SlotPostmortemContext& ctx,
                              std::uint64_t mark) {
  if (!trace_enabled()) return;
  trace_detail::ThreadRing* r = trace_detail::this_thread_ring();

  // Consume the pending notes, deduplicating while preserving first-seen
  // order (fault sites may fire the same tag once per user).
  std::vector<const char*> triggers;
  triggers.swap(r->notes);
  auto last = triggers.begin();
  for (auto it = triggers.begin(); it != triggers.end(); ++it) {
    if (std::find_if(triggers.begin(), last, [&](const char* seen) {
          return std::string_view(seen) == std::string_view(*it);
        }) == last) {
      *last++ = *it;
    }
  }
  triggers.erase(last, triggers.end());

  const bool anomalous = !triggers.empty();
  trace_detail::TraceRegistry& reg = trace_detail::registry();
  MutexLock lock(reg.mutex);
  const bool want_slow =
      reg.slow_slots.size() < trace_detail::kMaxSlowSlots ||
      std::any_of(reg.slow_slots.begin(), reg.slow_slots.end(),
                  [&](const trace_detail::CapturedSlot& s) {
                    return ctx.latency_ns > s.latency_ns;
                  });
  if (!anomalous && !want_slow) return;

  // Freeze this slot's span subtree: everything recorded since `mark`
  // that the ring still holds, newest-biased when the slot overflowed the
  // per-capture bound.
  trace_detail::CapturedSlot cap;
  cap.run = ctx.run;
  cap.slot = ctx.slot;
  cap.latency_ns = ctx.latency_ns;
  cap.triggers = triggers;
  std::uint64_t lo = std::max(mark, r->resident_begin());
  if (r->head - lo > trace_detail::kMaxCapturedEventsPerSlot) {
    lo = r->head - trace_detail::kMaxCapturedEventsPerSlot;
  }
  cap.events.reserve(static_cast<std::size_t>(r->head - lo));
  for (std::uint64_t seq = lo; seq < r->head; ++seq) {
    cap.events.push_back(r->events[seq % r->capacity()]);
  }

  if (anomalous) {
    ++reg.anomalies_total;
    if (reg.anomalies.size() < trace_detail::kMaxAnomalyCaptures) {
      reg.anomalies.push_back(cap);
    }
  }
  if (reg.slow_slots.size() < trace_detail::kMaxSlowSlots) {
    reg.slow_slots.push_back(std::move(cap));
  } else {
    auto slowest_min = std::min_element(
        reg.slow_slots.begin(), reg.slow_slots.end(),
        [](const trace_detail::CapturedSlot& a,
           const trace_detail::CapturedSlot& b) {
          return a.latency_ns < b.latency_ns;
        });
    if (ctx.latency_ns > slowest_min->latency_ns) {
      *slowest_min = std::move(cap);
    }
  }
}

std::size_t trace_anomaly_captures() {
  trace_detail::TraceRegistry& reg = trace_detail::registry();
  MutexLock lock(reg.mutex);
  return reg.anomalies.size();
}

std::uint64_t trace_anomalies_total() {
  trace_detail::TraceRegistry& reg = trace_detail::registry();
  MutexLock lock(reg.mutex);
  return reg.anomalies_total;
}

// ------------------------------------------------------- snapshot / export ---

TraceCounts trace_counts() {
  trace_detail::TraceRegistry& reg = trace_detail::registry();
  MutexLock lock(reg.mutex);
  std::map<std::string, std::uint64_t> by_name;
  TraceCounts out;
  for (const auto& ring : reg.rings) {
    out.dropped += ring->resident_begin();
    for (std::uint64_t seq = ring->resident_begin(); seq < ring->head; ++seq) {
      ++by_name[ring->events[seq % ring->capacity()].name];
    }
  }
  out.per_name.assign(by_name.begin(), by_name.end());
  return out;
}

void reset_trace() {
  trace_detail::TraceRegistry& reg = trace_detail::registry();
  MutexLock lock(reg.mutex);
  for (const auto& ring : reg.rings) {
    ring->head = 0;
    ring->notes.clear();
  }
  reg.anomalies.clear();
  reg.anomalies_total = 0;
  reg.slow_slots.clear();
}

namespace {

// Local copies of the metrics JSON helpers (theirs live in an anonymous
// namespace by design — the writer is each subsystem's own business).
void json_escape(std::ostream& os, std::string_view s) {
  for (const char c : s) {
    switch (c) {
      case '"': os << "\\\""; break;
      case '\\': os << "\\\\"; break;
      case '\n': os << "\\n"; break;
      case '\t': os << "\\t"; break;
      case '\r': os << "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          constexpr const char* kHex = "0123456789abcdef";
          os << "\\u00" << kHex[(c >> 4) & 0xF] << kHex[c & 0xF];
        } else {
          os << c;
        }
    }
  }
}

void json_string(std::ostream& os, std::string_view s) {
  os << '"';
  json_escape(os, s);
  os << '"';
}

void json_number(std::ostream& os, double v) {
  if (std::isfinite(v)) {
    os << v;
  } else {
    os << "null";
  }
}

const char* build_type_string() {
#ifdef FEMTOCR_BUILD_TYPE
  return FEMTOCR_BUILD_TYPE;
#elif defined(NDEBUG)
  return "optimized";
#else
  return "debug";
#endif
}

/// Chrome wants microseconds; emit rebased nanoseconds as "us.nnn" in
/// fixed-point so no float formatting can lose a nanosecond.
void json_us(std::ostream& os, std::int64_t ns) {
  if (ns < 0) ns = 0;
  os << (ns / 1000) << '.' << std::setw(3) << std::setfill('0') << (ns % 1000)
     << std::setfill(' ');
}

void write_event(std::ostream& os, const trace_detail::TraceEvent& e,
                 std::int64_t t0, bool chrome_shape) {
  os << '{';
  if (chrome_shape) {
    os << "\"name\": ";
    json_string(os, e.name);
    os << ", \"ph\": \"X\", \"ts\": ";
    json_us(os, e.begin_ns - t0);
    os << ", \"dur\": ";
    json_us(os, e.dur_ns);
    os << ", \"pid\": 1, \"tid\": " << e.tid;
  } else {
    os << "\"name\": ";
    json_string(os, e.name);
    os << ", \"ts\": ";
    json_us(os, e.begin_ns - t0);
    os << ", \"dur\": ";
    json_us(os, e.dur_ns);
    os << ", \"tid\": " << e.tid;
  }
  os << ", \"args\": {\"depth\": " << e.depth;
  for (std::uint32_t a = 0; a < e.num_args; ++a) {
    os << ", ";
    json_string(os, e.args[a].key);
    os << ": ";
    json_number(os, e.args[a].value);
  }
  os << "}}";
}

void write_captured_slot(std::ostream& os, const trace_detail::CapturedSlot& c,
                         std::int64_t t0) {
  os << "{\"run\": " << c.run << ", \"slot\": " << c.slot
     << ", \"latency_ns\": " << c.latency_ns << ", \"triggers\": [";
  for (std::size_t i = 0; i < c.triggers.size(); ++i) {
    if (i > 0) os << ", ";
    json_string(os, c.triggers[i]);
  }
  os << "], \"events\": [";
  for (std::size_t i = 0; i < c.events.size(); ++i) {
    if (i > 0) os << ", ";
    write_event(os, c.events[i], t0, /*chrome_shape=*/false);
  }
  os << "]}";
}

}  // namespace

void write_trace_json(std::ostream& os, const MetricsManifest& manifest) {
  // Snapshot under the registry lock: resident events per ring (tid
  // order), both recorder pools, per-name counts, drop totals.
  std::vector<trace_detail::TraceEvent> events;
  std::vector<trace_detail::CapturedSlot> anomalies;
  std::vector<trace_detail::CapturedSlot> slow_slots;
  std::map<std::string, std::uint64_t> span_counts;
  std::uint64_t dropped = 0;
  std::uint64_t anomalies_total = 0;
  {
    trace_detail::TraceRegistry& reg = trace_detail::registry();
    MutexLock lock(reg.mutex);
    std::size_t resident = 0;
    for (const auto& ring : reg.rings) {
      resident += static_cast<std::size_t>(ring->head -
                                           ring->resident_begin());
    }
    events.reserve(resident);
    for (const auto& ring : reg.rings) {
      dropped += ring->resident_begin();
      for (std::uint64_t seq = ring->resident_begin(); seq < ring->head;
           ++seq) {
        const trace_detail::TraceEvent& e = ring->events[seq % ring->capacity()];
        events.push_back(e);
        ++span_counts[e.name];
      }
    }
    anomalies = reg.anomalies;
    slow_slots = reg.slow_slots;
    anomalies_total = reg.anomalies_total;
  }
  std::sort(slow_slots.begin(), slow_slots.end(),
            [](const trace_detail::CapturedSlot& a,
               const trace_detail::CapturedSlot& b) {
              return a.latency_ns > b.latency_ns;
            });

  // Rebase timestamps to the earliest event so viewers start near zero.
  std::int64_t t0 = std::numeric_limits<std::int64_t>::max();
  for (const auto& e : events) t0 = std::min(t0, e.begin_ns);
  for (const auto& c : anomalies) {
    for (const auto& e : c.events) t0 = std::min(t0, e.begin_ns);
  }
  for (const auto& c : slow_slots) {
    for (const auto& e : c.events) t0 = std::min(t0, e.begin_ns);
  }
  if (t0 == std::numeric_limits<std::int64_t>::max()) t0 = 0;

  const auto old_precision =
      os.precision(std::numeric_limits<double>::max_digits10);
  os << "{\n\"traceEvents\": [";
  for (std::size_t i = 0; i < events.size(); ++i) {
    os << (i > 0 ? ",\n " : "\n ");
    write_event(os, events[i], t0, /*chrome_shape=*/true);
  }
  os << (events.empty() ? "],\n" : "\n],\n");
  os << "\"displayTimeUnit\": \"ns\",\n";

  os << "\"femtocr\": {\n  \"manifest\": {\n";
  os << "    \"seed\": " << manifest.seed << ",\n";
  os << "    \"threads\": " << manifest.threads << ",\n";
  os << "    \"scheme\": ";
  json_string(os, manifest.scheme);
  os << ",\n    \"build_type\": ";
  json_string(os, build_type_string());
  os << ",\n    \"trace_enabled\": " << (trace_enabled() ? "true" : "false");
  os << ",\n    \"git_sha\": ";
  json_string(os, manifest.git_sha);
  os << ",\n    \"hostname\": ";
  json_string(os, manifest.hostname);
  os << ",\n    \"started_at\": ";
  json_string(os, manifest.started_at);
  os << ",\n    \"cli\": ";
  json_string(os, manifest.cli);
  os << "\n  },\n";

  os << "  \"span_counts\": {";
  bool first = true;
  for (const auto& [name, n] : span_counts) {
    os << (first ? "\n    " : ",\n    ");
    first = false;
    json_string(os, name);
    os << ": " << n;
  }
  os << (span_counts.empty() ? "},\n" : "\n  },\n");
  os << "  \"dropped_events\": " << dropped << ",\n";

  os << "  \"flight_recorder\": {\n";
  os << "    \"anomalies_total\": " << anomalies_total << ",\n";
  os << "    \"anomalies\": [";
  for (std::size_t i = 0; i < anomalies.size(); ++i) {
    os << (i > 0 ? ",\n     " : "\n     ");
    write_captured_slot(os, anomalies[i], t0);
  }
  os << (anomalies.empty() ? "],\n" : "\n    ],\n");
  os << "    \"slow_slots\": [";
  for (std::size_t i = 0; i < slow_slots.size(); ++i) {
    os << (i > 0 ? ",\n     " : "\n     ");
    write_captured_slot(os, slow_slots[i], t0);
  }
  os << (slow_slots.empty() ? "]\n" : "\n    ]\n");
  os << "  }\n}\n}\n";
  os.precision(old_precision);
}

bool write_trace_file(const std::string& path,
                      const MetricsManifest& manifest) {
  std::ofstream out(path);
  if (!out) {
    FEMTOCR_LOG_WARN << "cannot open trace output file: " << path;
    return false;
  }
  write_trace_json(out, manifest);
  return static_cast<bool>(out);
}

}  // namespace femtocr::util
