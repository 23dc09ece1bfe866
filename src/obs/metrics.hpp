// Typed metrics registry: the one store behind every count, gauge and
// latency distribution the library records.
//
// Where trace events answer "what happened" and spans answer "where did the
// time go", metrics answer "how much, in total": named counters, gauges,
// and fixed-bucket log-scaled histograms that accumulate for the lifetime
// of the process and snapshot to JSON or Prometheus text exposition (the
// `hcsched_cli stats` subcommand renders both).
//
// Shape:
//   * MetricCounter   — monotonically increasing uint64 (relaxed atomic).
//   * MetricGauge     — int64 point-in-time value, set/add (relaxed atomic).
//   * MetricHistogram — 32 fixed log4-scaled buckets (upper bound of bucket
//     i is 4^(i+1), last bucket +Inf) plus count and sum. Lock-free.
//   * MetricsRegistry — family name → series table. A family has one kind,
//     one help string and at most one label key; each series is one label
//     value (or the single unlabelled series). Registration is
//     mutex-guarded; instruments live in map nodes that never move, so call
//     sites can cache the returned reference and update with zero lock
//     traffic.
//
// Instrumented code uses the HCSCHED_METRIC_* macros below, which compile
// to nothing under -DHCSCHED_TRACE=0 (the same kill switch as trace events
// and spans — bench_trace_overhead pins the zero-cost claim) and otherwise
// cache the registry lookup in a function-local static. The hot-path
// operation counters of obs/counters.hpp buffer per thread and flush into
// the global registry's `hcsched_ops_total{op=...}` family. The query side
// (snapshot_json / prometheus_text) stays compiled in every configuration.
//
// Metric names follow Prometheus conventions ([a-zA-Z_:][a-zA-Z0-9_:]*,
// `hcsched_` prefix, `_total` suffix on counters, unit suffix like `_ns` on
// histograms) and every name registered from src/ must be documented in
// docs/OBSERVABILITY.md — the `metric-docs` analyzer rule enforces this.
#pragma once

#include <array>
#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/thread_annotations.hpp"
#include "obs/json.hpp"
#include "obs/trace.hpp"  // HCSCHED_TRACE default

namespace hcsched::obs {

class MetricCounter {
 public:
  void add(std::uint64_t n = 1) noexcept {
    // Memory-order audit: pure accumulator, read only by snapshots that
    // tolerate slight staleness — relaxed.
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() noexcept { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

class MetricGauge {
 public:
  void set(std::int64_t v) noexcept {
    // Memory-order audit: last-writer-wins sample, no ordering — relaxed.
    value_.store(v, std::memory_order_relaxed);
  }
  void add(std::int64_t n) noexcept {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  std::int64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() noexcept { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> value_{0};
};

/// Fixed log-scaled histogram: bucket i counts observed values v with
/// 4^i < v <= 4^(i+1) (bucket 0 additionally takes v in [0, 4]; the last
/// bucket is unbounded). 32 buckets cover [0, 4^31 ≈ 4.6e18], enough for
/// nanosecond latencies from single digits to ~146 years.
class MetricHistogram {
 public:
  static constexpr std::size_t kBuckets = 32;

  /// Upper bound of bucket i (inclusive, Prometheus `le` semantics). The
  /// last bucket is +Inf, reported here as the saturated uint64 max.
  static constexpr std::uint64_t bucket_upper_bound(std::size_t i) noexcept {
    if (i + 1 >= kBuckets) return ~std::uint64_t{0};
    return std::uint64_t{1} << (2 * (i + 1));
  }

  static constexpr std::size_t bucket_index(std::uint64_t v) noexcept {
    if (v <= 1) return 0;
    const auto width = static_cast<std::size_t>(std::bit_width(v - 1));
    const std::size_t i = (width + 1) / 2 - 1;
    return i < kBuckets ? i : kBuckets - 1;
  }

  void observe(std::uint64_t v) noexcept {
    // Memory-order audit: independent accumulators; snapshots tolerate
    // torn-across-cells reads (count/sum/buckets may momentarily disagree
    // by in-flight observations) — relaxed.
    buckets_[bucket_index(v)].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(v, std::memory_order_relaxed);
  }

  std::uint64_t count() const noexcept {
    return count_.load(std::memory_order_relaxed);
  }
  std::uint64_t sum() const noexcept {
    return sum_.load(std::memory_order_relaxed);
  }
  std::uint64_t bucket_count(std::size_t i) const noexcept {
    return buckets_[i].load(std::memory_order_relaxed);
  }
  double mean() const noexcept {
    const std::uint64_t n = count();
    return n == 0 ? 0.0 : static_cast<double>(sum()) / static_cast<double>(n);
  }
  /// Upper bound of the bucket holding quantile q in [0, 1]; 0 when empty.
  /// Coarse by design (log4 resolution); the +Inf bucket reports the
  /// saturated uint64 max.
  std::uint64_t quantile_upper_bound(double q) const noexcept;

  void reset() noexcept {
    for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
    count_.store(0, std::memory_order_relaxed);
    sum_.store(0, std::memory_order_relaxed);
  }

 private:
  std::array<std::atomic<std::uint64_t>, kBuckets> buckets_{};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_{0};
};

enum class MetricKind { kCounter, kGauge, kHistogram };

/// Returns "counter" / "gauge" / "histogram".
std::string_view to_string(MetricKind kind) noexcept;

/// The optional `key="value"` label of one series; an empty key means the
/// family's single unlabelled series.
struct MetricLabel {
  std::string_view key{};
  std::string_view value{};
};

/// Family → series table. Thread-safe; instrument references returned by
/// the accessors stay valid for the registry's lifetime (instruments are
/// never erased — reset() zeroes values but keeps registrations).
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Registers (or finds) the series `name{label}`. The family's first
  /// registration fixes its kind, help string and label key. Throws
  /// std::invalid_argument when `name` or the label key is not a valid
  /// Prometheus name, or when the kind or label key differs from the
  /// family's.
  MetricCounter& counter(std::string_view name, std::string_view help = {},
                         MetricLabel label = {}) HCSCHED_EXCLUDES(mutex_);
  MetricGauge& gauge(std::string_view name, std::string_view help = {},
                     MetricLabel label = {}) HCSCHED_EXCLUDES(mutex_);
  MetricHistogram& histogram(std::string_view name, std::string_view help = {},
                             MetricLabel label = {}) HCSCHED_EXCLUDES(mutex_);

  /// Every series of the named histogram family as (label value,
  /// histogram), sorted by label value ("" for an unlabelled family).
  /// Empty when no such histogram family is registered.
  std::vector<std::pair<std::string, const MetricHistogram*>>
  histogram_series(std::string_view name) const HCSCHED_EXCLUDES(mutex_);

  /// Number of registered series.
  std::size_t size() const HCSCHED_EXCLUDES(mutex_);

  /// {"metrics": [{name, kind, help, labels, ...value fields}, ...]}, one
  /// entry per series, sorted by name then label value. `labels` is a
  /// {key: value} object, present only on labelled series. Histograms carry
  /// {count, sum, buckets: [{le, count}, ...]} with empty buckets elided
  /// and a final {"le": "+Inf"} entry.
  JsonValue snapshot_json() const HCSCHED_EXCLUDES(mutex_);

  /// Prometheus text exposition format (version 0.0.4): one # HELP / # TYPE
  /// pair per family, then its sample lines; families sorted by name.
  std::string prometheus_text() const HCSCHED_EXCLUDES(mutex_);

  /// Zeroes every instrument, keeping registrations (and cached
  /// references) valid.
  void reset() HCSCHED_EXCLUDES(mutex_);

  /// The process-global registry the HCSCHED_METRIC_* macros feed. It is
  /// born with the 20-series `hcsched_ops_total{op=...}` family that the
  /// obs/counters.hpp thread buffers flush into.
  static MetricsRegistry& global();

 private:
  // One series; only the instrument matching the family's kind is used.
  // std::map nodes never move, so references handed out stay valid.
  struct Series {
    MetricCounter counter;
    MetricGauge gauge;
    MetricHistogram histogram;
  };
  struct Family {
    MetricKind kind;
    std::string help;
    std::string label_key;                               // "" = unlabelled
    std::map<std::string, Series, std::less<>> series{};  // by label value
  };

  Series& find_or_create(std::string_view name, std::string_view help,
                         MetricKind kind, MetricLabel label)
      HCSCHED_REQUIRES(mutex_);

  mutable core::Mutex mutex_;
  std::map<std::string, Family, std::less<>> families_
      HCSCHED_GUARDED_BY(mutex_){};
};

/// Convenience free functions over MetricsRegistry::global().
namespace metrics {

MetricCounter& counter(std::string_view name, std::string_view help = {},
                       MetricLabel label = {});
MetricGauge& gauge(std::string_view name, std::string_view help = {},
                   MetricLabel label = {});
MetricHistogram& histogram(std::string_view name, std::string_view help = {},
                           MetricLabel label = {});
std::vector<std::pair<std::string, const MetricHistogram*>> histogram_series(
    std::string_view name);

/// Both renderers flush the calling thread's operation-counter buffer first.
JsonValue snapshot_json();
std::string prometheus_text();
/// Zeroes the global registry and discards the calling thread's unflushed
/// operation counts. Other threads' unflushed buffers are untouched.
void reset();

}  // namespace metrics

}  // namespace hcsched::obs

#if HCSCHED_TRACE
/// Adds `n` to the named global counter (registered on first execution).
#define HCSCHED_METRIC_COUNT(name, help, n)                            \
  do {                                                                 \
    static ::hcsched::obs::MetricCounter& hcsched_metric_counter_ =    \
        ::hcsched::obs::metrics::counter((name), (help));              \
    hcsched_metric_counter_.add((n));                                  \
  } while (0)
/// Sets the named global gauge to `v`.
#define HCSCHED_METRIC_GAUGE_SET(name, help, v)                        \
  do {                                                                 \
    static ::hcsched::obs::MetricGauge& hcsched_metric_gauge_ =        \
        ::hcsched::obs::metrics::gauge((name), (help));                \
    hcsched_metric_gauge_.set(static_cast<std::int64_t>(v));           \
  } while (0)
/// Records `v` into the named global histogram.
#define HCSCHED_METRIC_OBSERVE(name, help, v)                          \
  do {                                                                 \
    static ::hcsched::obs::MetricHistogram& hcsched_metric_histogram_ = \
        ::hcsched::obs::metrics::histogram((name), (help));            \
    hcsched_metric_histogram_.observe(static_cast<std::uint64_t>(v));  \
  } while (0)
#else
#define HCSCHED_METRIC_COUNT(name, help, n) \
  do {                                      \
  } while (0)
#define HCSCHED_METRIC_GAUGE_SET(name, help, v) \
  do {                                          \
  } while (0)
#define HCSCHED_METRIC_OBSERVE(name, help, v) \
  do {                                        \
  } while (0)
#endif
