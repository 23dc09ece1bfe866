#include "obs/metrics.hpp"

#include <algorithm>
#include <stdexcept>

#include "obs/counters.hpp"

namespace hcsched::obs {
namespace {

constexpr std::string_view kOpsName = "hcsched_ops_total";
constexpr std::string_view kOpsHelp =
    "Monotonic operation counters (see docs/OBSERVABILITY.md)";

constexpr std::array<std::string_view, kNumCounters> kCounterNames = {
    "heuristic_invocations", "etc_cell_evaluations",
    "tie_decisions",         "tie_events",
    "ga_steps",              "ga_crossovers",
    "ga_mutations",          "ga_evaluations",
    "search_nodes_expanded", "iterative_runs",
    "iterative_iterations",  "pool_tasks_submitted",
    "pool_tasks_completed",  "fastpath_rescores",
    "fastpath_replays",      "faults_injected",
    "trials_quarantined",    "studies_cancelled",
    "checkpoint_trials_written", "checkpoint_trials_replayed",
    "checkpoint_corrupt_lines",
};

bool valid_metric_name(std::string_view name, bool allow_colon) {
  if (name.empty()) return false;
  auto head = [allow_colon](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_' ||
           (allow_colon && c == ':');
  };
  if (!head(name.front())) return false;
  for (char c : name) {
    if (!head(c) && !(c >= '0' && c <= '9')) return false;
  }
  return true;
}

/// `key="value"` with the exposition format's escapes (\\, \", \n).
std::string label_pair(std::string_view key, std::string_view value) {
  std::string out(key);
  out += "=\"";
  for (char c : value) {
    if (c == '\n') {
      out += "\\n";
      continue;
    }
    if (c == '\\' || c == '"') out += '\\';
    out += c;
  }
  out += '"';
  return out;
}

/// The cached `hcsched_ops_total{op=...}` series, in Counter order.
const std::array<MetricCounter*, kNumCounters>& op_counters() {
  static const std::array<MetricCounter*, kNumCounters> table = [] {
    std::array<MetricCounter*, kNumCounters> out{};
    for (std::size_t i = 0; i < kNumCounters; ++i) {
      out[i] = &MetricsRegistry::global().counter(kOpsName, kOpsHelp,
                                                  {"op", kCounterNames[i]});
    }
    return out;
  }();
  return table;
}

// Memory-order audit: the registry counters a buffer flushes into are
// monotone accumulators, so relaxed adds suffice. Cross-thread visibility
// of *buffered* values comes from thread join / CounterScope destruction,
// not from the atomics; contention scales with flush frequency, not with
// add() frequency.
struct ThreadBuffer {
  std::array<std::uint64_t, kNumCounters> values{};
  bool dirty = false;

  ~ThreadBuffer() { publish(); }

  void publish() noexcept {
    if (!dirty) return;
    const auto& counters = op_counters();
    for (std::size_t i = 0; i < kNumCounters; ++i) {
      if (values[i] != 0) {
        counters[i]->add(values[i]);
        values[i] = 0;
      }
    }
    dirty = false;
  }
};

ThreadBuffer& thread_buffer() noexcept {
  thread_local ThreadBuffer buffer;
  return buffer;
}

}  // namespace

std::string_view to_string(Counter c) noexcept {
  return kCounterNames[static_cast<std::size_t>(c)];
}

namespace counters {

void add(Counter c, std::uint64_t n) noexcept {
  ThreadBuffer& buffer = thread_buffer();
  buffer.values[static_cast<std::size_t>(c)] += n;
  buffer.dirty = true;
}

void flush_thread() noexcept { thread_buffer().publish(); }

std::uint64_t read(Counter c) {
  flush_thread();
  return op_counters()[static_cast<std::size_t>(c)]->value();
}

}  // namespace counters

std::uint64_t MetricHistogram::quantile_upper_bound(double q) const noexcept {
  const std::uint64_t n = count();
  if (n == 0) return 0;
  q = std::clamp(q, 0.0, 1.0);
  const auto rank = static_cast<std::uint64_t>(q * static_cast<double>(n - 1));
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    seen += bucket_count(i);
    if (seen > rank) return bucket_upper_bound(i);
  }
  // Only reachable while writers race the read (count ran ahead of the
  // buckets); the widest bound is the honest answer.
  return bucket_upper_bound(kBuckets - 1);
}

std::string_view to_string(MetricKind kind) noexcept {
  switch (kind) {
    case MetricKind::kCounter:
      return "counter";
    case MetricKind::kGauge:
      return "gauge";
    case MetricKind::kHistogram:
      return "histogram";
  }
  return "unknown";
}

MetricsRegistry::Series& MetricsRegistry::find_or_create(
    std::string_view name, std::string_view help, MetricKind kind,
    MetricLabel label) {
  auto family = families_.find(name);
  if (family == families_.end()) {
    if (!valid_metric_name(name, /*allow_colon=*/true)) {
      throw std::invalid_argument("invalid metric name '" +
                                  std::string(name) + "'");
    }
    if (!label.key.empty() &&
        (!valid_metric_name(label.key, /*allow_colon=*/false) ||
         (kind == MetricKind::kHistogram && label.key == "le"))) {
      throw std::invalid_argument("invalid label key '" +
                                  std::string(label.key) + "' on metric '" +
                                  std::string(name) + "'");
    }
    family = families_
                 .emplace(std::string(name),
                          Family{kind, std::string(help),
                                 std::string(label.key)})
                 .first;
  } else if (family->second.kind != kind) {
    throw std::invalid_argument("metric '" + std::string(name) +
                                "' already registered as " +
                                std::string(to_string(family->second.kind)));
  } else if (family->second.label_key != label.key) {
    throw std::invalid_argument("metric '" + std::string(name) +
                                "' already registered with label key '" +
                                family->second.label_key + "'");
  }
  auto& series = family->second.series;
  if (auto it = series.find(label.value); it != series.end()) {
    return it->second;
  }
  return series.try_emplace(std::string(label.value)).first->second;
}

MetricCounter& MetricsRegistry::counter(std::string_view name,
                                        std::string_view help,
                                        MetricLabel label) {
  core::MutexLock lock(mutex_);
  return find_or_create(name, help, MetricKind::kCounter, label).counter;
}

MetricGauge& MetricsRegistry::gauge(std::string_view name,
                                    std::string_view help, MetricLabel label) {
  core::MutexLock lock(mutex_);
  return find_or_create(name, help, MetricKind::kGauge, label).gauge;
}

MetricHistogram& MetricsRegistry::histogram(std::string_view name,
                                            std::string_view help,
                                            MetricLabel label) {
  core::MutexLock lock(mutex_);
  return find_or_create(name, help, MetricKind::kHistogram, label).histogram;
}

std::vector<std::pair<std::string, const MetricHistogram*>>
MetricsRegistry::histogram_series(std::string_view name) const {
  core::MutexLock lock(mutex_);
  std::vector<std::pair<std::string, const MetricHistogram*>> out;
  const auto family = families_.find(name);
  if (family == families_.end() ||
      family->second.kind != MetricKind::kHistogram) {
    return out;
  }
  for (const auto& [label_value, series] : family->second.series) {
    out.emplace_back(label_value, &series.histogram);
  }
  return out;
}

std::size_t MetricsRegistry::size() const {
  core::MutexLock lock(mutex_);
  std::size_t n = 0;
  for (const auto& [name, family] : families_) n += family.series.size();
  return n;
}

JsonValue MetricsRegistry::snapshot_json() const {
  core::MutexLock lock(mutex_);
  JsonValue::Array metrics;
  for (const auto& [name, family] : families_) {
    for (const auto& [label_value, series] : family.series) {
      JsonValue::Object m;
      m.emplace_back("name", JsonValue(name));
      m.emplace_back("kind", JsonValue(to_string(family.kind)));
      if (!family.help.empty()) {
        m.emplace_back("help", JsonValue(family.help));
      }
      if (!family.label_key.empty()) {
        JsonValue::Object labels{{family.label_key, JsonValue(label_value)}};
        m.emplace_back("labels", JsonValue(std::move(labels)));
      }
      switch (family.kind) {
        case MetricKind::kCounter:
          m.emplace_back("value", JsonValue(series.counter.value()));
          break;
        case MetricKind::kGauge:
          m.emplace_back("value", JsonValue(series.gauge.value()));
          break;
        case MetricKind::kHistogram: {
          const MetricHistogram& h = series.histogram;
          m.emplace_back("count", JsonValue(h.count()));
          m.emplace_back("sum", JsonValue(h.sum()));
          JsonValue::Array buckets;
          for (std::size_t i = 0; i < MetricHistogram::kBuckets; ++i) {
            const std::uint64_t n = h.bucket_count(i);
            const bool last = i + 1 == MetricHistogram::kBuckets;
            if (n == 0 && !last) continue;
            const JsonValue le =
                last ? JsonValue("+Inf")
                     : JsonValue(MetricHistogram::bucket_upper_bound(i));
            buckets.emplace_back(
                JsonValue::Object{{"le", le}, {"count", JsonValue(n)}});
          }
          m.emplace_back("buckets", JsonValue(std::move(buckets)));
          break;
        }
      }
      metrics.emplace_back(JsonValue(std::move(m)));
    }
  }
  JsonValue::Object root;
  root.emplace_back("metrics", JsonValue(std::move(metrics)));
  return JsonValue(std::move(root));
}

std::string MetricsRegistry::prometheus_text() const {
  core::MutexLock lock(mutex_);
  std::string out;
  // One sample line: name[suffix]{labels} value.
  auto sample = [&out](std::string_view name, std::string_view suffix,
                       const std::string& labels, const std::string& value) {
    out += name;
    out += suffix;
    if (!labels.empty()) {
      out += '{';
      out += labels;
      out += '}';
    }
    out += ' ';
    out += value;
    out += '\n';
  };
  for (const auto& [name, family] : families_) {
    if (!family.help.empty()) {
      out += "# HELP " + name + ' ' + family.help + '\n';
    }
    out += "# TYPE " + name + ' ' + std::string(to_string(family.kind)) + '\n';
    for (const auto& [label_value, series] : family.series) {
      const std::string labels =
          family.label_key.empty() ? std::string()
                                   : label_pair(family.label_key, label_value);
      switch (family.kind) {
        case MetricKind::kCounter:
          sample(name, "", labels, std::to_string(series.counter.value()));
          break;
        case MetricKind::kGauge:
          sample(name, "", labels, std::to_string(series.gauge.value()));
          break;
        case MetricKind::kHistogram: {
          const MetricHistogram& h = series.histogram;
          const std::string sep = labels.empty() ? "" : ",";
          std::uint64_t cumulative = 0;
          for (std::size_t i = 0; i < MetricHistogram::kBuckets; ++i) {
            cumulative += h.bucket_count(i);
            const std::string le =
                i + 1 < MetricHistogram::kBuckets
                    ? std::to_string(MetricHistogram::bucket_upper_bound(i))
                    : "+Inf";
            sample(name, "_bucket", labels + sep + label_pair("le", le),
                   std::to_string(cumulative));
          }
          sample(name, "_sum", labels, std::to_string(h.sum()));
          sample(name, "_count", labels, std::to_string(h.count()));
          break;
        }
      }
    }
  }
  return out;
}

void MetricsRegistry::reset() {
  core::MutexLock lock(mutex_);
  for (auto& [name, family] : families_) {
    for (auto& [label_value, series] : family.series) {
      series.counter.reset();
      series.gauge.reset();
      series.histogram.reset();
    }
  }
}

MetricsRegistry& MetricsRegistry::global() {
  // Leaked on purpose: instrument references cached by the macros and by
  // thread buffers flushing at thread exit stay valid for the whole
  // process, with no destruction-order hazard.
  static MetricsRegistry* const registry = [] {
    auto* r = new MetricsRegistry();
    for (std::string_view op : kCounterNames) {
      r->counter(kOpsName, kOpsHelp, {"op", op});
    }
    return r;
  }();
  return *registry;
}

namespace metrics {

MetricCounter& counter(std::string_view name, std::string_view help,
                       MetricLabel label) {
  return MetricsRegistry::global().counter(name, help, label);
}

MetricGauge& gauge(std::string_view name, std::string_view help,
                   MetricLabel label) {
  return MetricsRegistry::global().gauge(name, help, label);
}

MetricHistogram& histogram(std::string_view name, std::string_view help,
                           MetricLabel label) {
  return MetricsRegistry::global().histogram(name, help, label);
}

std::vector<std::pair<std::string, const MetricHistogram*>> histogram_series(
    std::string_view name) {
  return MetricsRegistry::global().histogram_series(name);
}

JsonValue snapshot_json() {
  counters::flush_thread();
  return MetricsRegistry::global().snapshot_json();
}

std::string prometheus_text() {
  counters::flush_thread();
  return MetricsRegistry::global().prometheus_text();
}

void reset() {
  ThreadBuffer& buffer = thread_buffer();
  buffer.values.fill(0);
  buffer.dirty = false;
  MetricsRegistry::global().reset();
}

}  // namespace metrics

}  // namespace hcsched::obs
