// Process-wide metrics registry: named counters, log-bucketed histograms
// and wall-clock timers, cheap enough to live on the solver hot paths.
//
// Design contract (mirrors the replication engine in util/parallel.h):
//
//  * **Sharded writes.** Every metric object owns kMetricShards slots;
//    each thread writes the slot picked by its stable thread id, so the
//    hot-path cost is one thread-local read plus one relaxed atomic add on
//    a cache line that (up to shard aliasing) only this thread touches.
//    Shards fold in fixed shard-index order at collection time. Counter
//    totals and histogram bucket counts are integer sums, so folded totals
//    are identical for any thread count — only wall-clock timer *values*
//    vary run to run, which is why timers never feed stdout.
//  * **Observability is not allowed to perturb the simulation.** No metric
//    op draws randomness, takes a lock on the hot path, or writes to
//    stdout; enabling/disabling metrics cannot change any simulation
//    result (pinned by tests/test_determinism.cpp).
//  * **Kill switch.** FEMTOCR_METRICS=0 (or off/false), parsed once like
//    FEMTOCR_THREADS, turns every op into a checked no-op: one relaxed
//    atomic load and a branch, no clock reads, no shard writes.
//    set_metrics_enabled() overrides the environment at runtime (tests and
//    overhead measurements toggle it directly).
//
// Naming scheme: `layer.component.metric`, e.g. core.dual.iterations,
// spectrum.access.collisions, sim.slot.allocate. See docs/OBSERVABILITY.md
// for the full catalogue and the JSON export schema.
//
// Typical hot-path usage (the registry lookup happens once per site):
//
//   static util::Counter& c_iters =
//       util::metrics().counter("core.dual.iterations");
//   ...
//   c_iters.add(iterations);
//
//   static util::TimerStat& t_solve = util::metrics().timer("core.dual.solve");
//   util::Scope scope(t_solve);  // util/trace.h: timer + span of that name
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <limits>
#include <string>
#include <vector>

namespace femtocr::util {

class Args;

/// Number of write shards per metric. Thread ids alias onto shards modulo
/// this, so correctness never depends on the thread count; 32 covers the
/// replication pool on any realistic host without aliasing.
inline constexpr std::size_t kMetricShards = 32;

namespace metrics_detail {

/// -1 = not yet resolved from the environment, 0 = off, 1 = on.
extern std::atomic<int> g_enabled;

/// Resolves FEMTOCR_METRICS once and caches the result in g_enabled.
bool enabled_slow();

/// Stable per-thread shard slot in [0, kMetricShards).
std::size_t shard_index();

/// Relaxed compare-exchange add for pre-C++20-fetch_add portability.
void add_double(std::atomic<double>& target, double v);
/// Relaxed compare-exchange min/max folds.
void fold_min(std::atomic<double>& target, double v);
void fold_max(std::atomic<double>& target, double v);
void fold_max_u64(std::atomic<std::uint64_t>& target, std::uint64_t v);

/// One cache line per shard so workers never false-share counter slots.
struct alignas(64) PaddedU64 {
  std::atomic<std::uint64_t> v{0};
};

}  // namespace metrics_detail

/// True unless FEMTOCR_METRICS=0/off/false or set_metrics_enabled(false).
inline bool metrics_enabled() {
  const int e = metrics_detail::g_enabled.load(std::memory_order_relaxed);
  return e >= 0 ? e != 0 : metrics_detail::enabled_slow();
}

/// Runtime override of the kill switch (wins over the environment).
void set_metrics_enabled(bool on);

// ---------------------------------------------------------------- counter ----

/// Monotonic event counter. add() is wait-free: shard lookup + relaxed add.
class Counter {
 public:
  Counter() = default;
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  void add(std::uint64_t n = 1) {
    if (n == 0 || !metrics_enabled()) return;
    shards_[metrics_detail::shard_index()].v.fetch_add(
        n, std::memory_order_relaxed);
  }

  /// Folds the shards in shard-index order. Integer addition is exact and
  /// commutative, so the total is thread-count invariant.
  std::uint64_t total() const;

  /// Zeroes every shard (handles stay valid; used by MetricsRegistry).
  void reset();

 private:
  metrics_detail::PaddedU64 shards_[kMetricShards];
};

// -------------------------------------------------------------- histogram ----

/// Log-bucketed histogram of nonnegative values. Bucket b (for binary
/// exponent e in [kMinExp, kMaxExp)) covers [2^e, 2^(e+1)); boundaries are
/// exact at powers of two (pinned by tests). Values below 2^kMinExp
/// (including 0 and negatives) land in the underflow bucket, values at or
/// above 2^kMaxExp in the overflow bucket.
class Histogram {
 public:
  static constexpr int kMinExp = -32;
  static constexpr int kMaxExp = 32;
  /// underflow + one bucket per exponent + overflow.
  static constexpr std::size_t kNumBuckets =
      static_cast<std::size_t>(kMaxExp - kMinExp) + 2;

  Histogram() = default;
  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  /// Bucket slot for `v` (exposed for tests; total function of the value).
  static std::size_t bucket_index(double v);
  /// Inclusive lower / exclusive upper boundary of bucket `index`.
  /// The underflow bucket reports lo = 0; the overflow bucket hi = +inf.
  static double bucket_lo(std::size_t index);
  static double bucket_hi(std::size_t index);

  void observe(double v) {
    if (!metrics_enabled()) return;
    Shard& s = shards_[metrics_detail::shard_index()];
    s.buckets[bucket_index(v)].fetch_add(1, std::memory_order_relaxed);
    s.count.fetch_add(1, std::memory_order_relaxed);
    metrics_detail::add_double(s.sum, v);
    metrics_detail::fold_min(s.min, v);
    metrics_detail::fold_max(s.max, v);
  }

  std::uint64_t count() const;
  double sum() const;
  /// 0 when empty.
  double min() const;
  double max() const;
  /// Folded per-bucket counts, shard-index order, all kNumBuckets slots.
  std::vector<std::uint64_t> bucket_counts() const;

  void reset();

 private:
  struct alignas(64) Shard {
    std::atomic<std::uint64_t> buckets[kNumBuckets]{};
    std::atomic<std::uint64_t> count{0};
    std::atomic<double> sum{0.0};
    // min/max start at the fold identities (+inf / -inf), matching what
    // reset() restores — a 0.0 start would pin the min of an all-positive
    // series (fold_min never replaces a smaller sentinel). The accessors
    // still skip shards with count == 0, so untouched shards never leak
    // the sentinels into the fold.
    std::atomic<double> min{std::numeric_limits<double>::infinity()};
    std::atomic<double> max{-std::numeric_limits<double>::infinity()};
  };
  Shard shards_[kMetricShards];
};

// ------------------------------------------------------------------ timer ----

/// Accumulated wall-clock statistic: call count, total and max nanoseconds,
/// plus log-bucketed duration counts (the Histogram bucketer applied to
/// nanoseconds) so p50/p90/p99 are derivable from any dump. Values are
/// nondeterministic by nature; they are exported to JSON only. Sites time
/// a region with util::Scope (util/trace.h), which also names its span
/// after the timer.
class TimerStat {
 public:
  /// `name` must outlive the timer: the registry passes its own map key.
  explicit TimerStat(const char* name) : name_(name) {}
  TimerStat(const TimerStat&) = delete;
  TimerStat& operator=(const TimerStat&) = delete;

  /// The registry name, also the span name util::Scope records under.
  const char* name() const { return name_; }

  void record_ns(std::int64_t ns) {
    if (!metrics_enabled()) return;
    const auto d = static_cast<std::uint64_t>(ns > 0 ? ns : 0);
    Shard& s = shards_[metrics_detail::shard_index()];
    s.count.fetch_add(1, std::memory_order_relaxed);
    s.total_ns.fetch_add(d, std::memory_order_relaxed);
    metrics_detail::fold_max_u64(s.max_ns, d);
    s.buckets[Histogram::bucket_index(static_cast<double>(d))].fetch_add(
        1, std::memory_order_relaxed);
  }

  std::uint64_t count() const;
  std::uint64_t total_ns() const;
  std::uint64_t max_ns() const;
  /// Folded per-bucket duration counts, all Histogram::kNumBuckets slots.
  std::vector<std::uint64_t> bucket_counts() const;

  void reset();

 private:
  struct alignas(64) Shard {
    std::atomic<std::uint64_t> count{0};
    std::atomic<std::uint64_t> total_ns{0};
    std::atomic<std::uint64_t> max_ns{0};
    std::atomic<std::uint64_t> buckets[Histogram::kNumBuckets]{};
  };
  const char* name_;
  Shard shards_[kMetricShards];
};

// --------------------------------------------------------------- snapshot ----

struct HistogramBucketSnapshot {
  double lo = 0.0;
  double hi = 0.0;
  std::uint64_t count = 0;
};

struct HistogramSnapshot {
  std::uint64_t count = 0;
  double sum = 0.0;
  double min = 0.0;
  double max = 0.0;
  std::vector<HistogramBucketSnapshot> buckets;  ///< nonzero buckets only
};

struct TimerSnapshot {
  std::uint64_t count = 0;
  std::uint64_t total_ns = 0;
  std::uint64_t max_ns = 0;
  std::vector<HistogramBucketSnapshot> buckets;  ///< nonzero buckets only
};

/// A folded, name-sorted copy of every registered metric.
struct MetricsSnapshot {
  std::vector<std::pair<std::string, std::uint64_t>> counters;
  std::vector<std::pair<std::string, HistogramSnapshot>> histograms;
  std::vector<std::pair<std::string, TimerSnapshot>> timers;
};

// --------------------------------------------------------------- registry ----

/// Process-wide registry. counter()/histogram()/timer() return stable
/// references (the registration mutex is off the hot path: call once per
/// site and cache the reference, as in the header comment's example).
class MetricsRegistry {
 public:
  static MetricsRegistry& instance();

  Counter& counter(const std::string& name);
  Histogram& histogram(const std::string& name);
  TimerStat& timer(const std::string& name);

  /// Zeroes every registered metric. References handed out earlier remain
  /// valid — reset clears values, never the registrations.
  void reset();

  /// Folds all shards (shard-index order) into a name-sorted snapshot.
  MetricsSnapshot snapshot() const;

 private:
  MetricsRegistry() = default;
  struct Impl;
  Impl& impl() const;
};

/// Shorthand for MetricsRegistry::instance().
MetricsRegistry& metrics();

// ------------------------------------------------------------ JSON export ----

/// Run provenance attached to every metrics dump.
struct MetricsManifest {
  std::uint64_t seed = 0;    ///< scenario seed, when the tool knows it
  std::size_t threads = 0;   ///< resolved worker count (default_threads())
  std::string scheme;        ///< scheme under test ("all" for comparisons)
  std::string cli;           ///< the argv the process was started with
  std::string git_sha;       ///< build's git revision ("unknown" outside git)
  std::string hostname;      ///< machine that produced the dump
  std::string started_at;    ///< UTC ISO-8601 process start (JSON-only:
                             ///< wall-clock data never reaches stdout)
};

/// Fills threads, the joined argv, and the provenance fields (git_sha from
/// the build, hostname and started_at from the runtime); seed/scheme stay
/// at their defaults for the caller to override.
MetricsManifest make_metrics_manifest(int argc, const char* const* argv);

/// Writes the full registry as one JSON document:
///   {"manifest": {seed, threads, scheme, build_type, cli},
///    "counters": {...}, "histograms": {...}, "timers_ns": {...}}
/// (schema documented in docs/OBSERVABILITY.md and validated by
/// tools/metrics_report.py --check).
void write_metrics_json(std::ostream& os, const MetricsManifest& manifest);

/// write_metrics_json to `path`; logs a warning and returns false on I/O
/// failure instead of throwing.
bool write_metrics_file(const std::string& path,
                        const MetricsManifest& manifest);

/// Convenience for the tools/examples: honours --metrics-out=FILE from
/// `args`, dumping the registry with a default manifest built from argv.
/// Returns true when a file was written.
bool write_metrics_if_requested(const Args& args, int argc,
                                const char* const* argv);

}  // namespace femtocr::util
