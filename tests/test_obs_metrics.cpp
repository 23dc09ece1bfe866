// Typed metrics registry: bucket boundaries, registration semantics,
// snapshot JSON round-trips, the Prometheus text exposition golden, reset
// behaviour, and the HCSCHED_TRACE kill switch on the macros. (Named
// test_obs_metrics to keep clear of test_metrics.cpp, which covers the
// scheduling-quality metrics of the paper.)
#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>

#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace {

using namespace hcsched;
using obs::MetricHistogram;

TEST(MetricHistogramBuckets, IndexMatchesLog4Boundaries) {
  // Bucket i holds 4^i < v <= 4^(i+1); bucket 0 additionally takes [0, 4].
  EXPECT_EQ(MetricHistogram::bucket_index(0), 0u);
  EXPECT_EQ(MetricHistogram::bucket_index(1), 0u);
  EXPECT_EQ(MetricHistogram::bucket_index(4), 0u);
  EXPECT_EQ(MetricHistogram::bucket_index(5), 1u);
  EXPECT_EQ(MetricHistogram::bucket_index(16), 1u);
  EXPECT_EQ(MetricHistogram::bucket_index(17), 2u);
  EXPECT_EQ(MetricHistogram::bucket_index(64), 2u);
  EXPECT_EQ(MetricHistogram::bucket_index(65), 3u);
  EXPECT_EQ(MetricHistogram::bucket_index(~std::uint64_t{0}),
            MetricHistogram::kBuckets - 1);
}

TEST(MetricHistogramBuckets, UpperBoundsArePowersOfFourThenInf) {
  EXPECT_EQ(MetricHistogram::bucket_upper_bound(0), 4u);
  EXPECT_EQ(MetricHistogram::bucket_upper_bound(1), 16u);
  EXPECT_EQ(MetricHistogram::bucket_upper_bound(2), 64u);
  EXPECT_EQ(MetricHistogram::bucket_upper_bound(MetricHistogram::kBuckets - 1),
            ~std::uint64_t{0});
  // Every observed value lands in the bucket whose bound covers it.
  for (std::size_t i = 0; i + 1 < MetricHistogram::kBuckets; ++i) {
    const std::uint64_t bound = MetricHistogram::bucket_upper_bound(i);
    EXPECT_EQ(MetricHistogram::bucket_index(bound), i);
    EXPECT_EQ(MetricHistogram::bucket_index(bound + 1), i + 1);
  }
}

TEST(MetricsRegistry, SameNameYieldsSameInstrument) {
  obs::MetricsRegistry registry;
  obs::MetricCounter& a = registry.counter("hcsched_test_ops_total", "ops");
  obs::MetricCounter& b = registry.counter("hcsched_test_ops_total");
  EXPECT_EQ(&a, &b);
  EXPECT_EQ(registry.size(), 1u);
  a.add(2);
  EXPECT_EQ(b.value(), 2u);
}

TEST(MetricsRegistry, KindMismatchThrows) {
  obs::MetricsRegistry registry;
  registry.counter("hcsched_test_mixed");
  EXPECT_THROW(registry.gauge("hcsched_test_mixed"), std::invalid_argument);
  EXPECT_THROW(registry.histogram("hcsched_test_mixed"),
               std::invalid_argument);
}

TEST(MetricsRegistry, InvalidNamesThrow) {
  obs::MetricsRegistry registry;
  EXPECT_THROW(registry.counter(""), std::invalid_argument);
  EXPECT_THROW(registry.counter("9leading_digit"), std::invalid_argument);
  EXPECT_THROW(registry.counter("has-dash"), std::invalid_argument);
  EXPECT_THROW(registry.counter("has space"), std::invalid_argument);
}

TEST(MetricsRegistry, SnapshotJsonRoundTripsThroughParser) {
  obs::MetricsRegistry registry;
  registry.counter("hcsched_test_ops_total", "Test ops").add(3);
  registry.gauge("hcsched_test_depth").set(-2);
  obs::MetricHistogram& h =
      registry.histogram("hcsched_test_lat_ns", "Latency");
  h.observe(1);
  h.observe(5);
  h.observe(100);

  const obs::JsonValue parsed =
      obs::JsonValue::parse(registry.snapshot_json().dump());
  const auto& metrics = parsed.at("metrics").as_array();
  ASSERT_EQ(metrics.size(), 3u);  // sorted by name
  EXPECT_EQ(metrics[0].at("name").as_string(), "hcsched_test_depth");
  EXPECT_EQ(metrics[0].at("kind").as_string(), "gauge");
  EXPECT_DOUBLE_EQ(metrics[0].at("value").as_number(), -2.0);
  EXPECT_EQ(metrics[0].find("help"), nullptr);  // empty help elided

  EXPECT_EQ(metrics[1].at("name").as_string(), "hcsched_test_lat_ns");
  EXPECT_EQ(metrics[1].at("kind").as_string(), "histogram");
  EXPECT_DOUBLE_EQ(metrics[1].at("count").as_number(), 3.0);
  EXPECT_DOUBLE_EQ(metrics[1].at("sum").as_number(), 106.0);
  const auto& buckets = metrics[1].at("buckets").as_array();
  // Non-empty buckets 0 (v=1), 1 (v=5), 3 (v=100) plus the pinned +Inf.
  ASSERT_EQ(buckets.size(), 4u);
  EXPECT_DOUBLE_EQ(buckets[0].at("le").as_number(), 4.0);
  EXPECT_DOUBLE_EQ(buckets[0].at("count").as_number(), 1.0);
  EXPECT_DOUBLE_EQ(buckets[2].at("le").as_number(), 256.0);
  EXPECT_DOUBLE_EQ(buckets[2].at("count").as_number(), 1.0);
  EXPECT_EQ(buckets[3].at("le").as_string(), "+Inf");

  EXPECT_EQ(metrics[2].at("name").as_string(), "hcsched_test_ops_total");
  EXPECT_EQ(metrics[2].at("help").as_string(), "Test ops");
  EXPECT_DOUBLE_EQ(metrics[2].at("value").as_number(), 3.0);
}

TEST(MetricsRegistry, PrometheusExpositionMatchesGolden) {
  // A LOCAL registry: the global one accumulates across the whole test
  // binary and cannot be pinned.
  obs::MetricsRegistry registry;
  registry.counter("hcsched_test_ops_total", "Test ops").add(3);
  registry.gauge("hcsched_test_depth").set(-2);
  obs::MetricHistogram& h =
      registry.histogram("hcsched_test_lat_ns", "Latency");
  h.observe(1);
  h.observe(5);
  h.observe(100);

  const std::string text = registry.prometheus_text();

  // Families appear sorted by name; the gauge (no help string) leads.
  EXPECT_EQ(text.rfind("# TYPE hcsched_test_depth gauge\n"
                       "hcsched_test_depth -2\n",
                       0),
            0u);
  EXPECT_NE(text.find("# HELP hcsched_test_lat_ns Latency\n"
                      "# TYPE hcsched_test_lat_ns histogram\n"),
            std::string::npos);
  // Cumulative bucket counts: 1 at le=4, 2 from le=16, 3 from le=256 on.
  EXPECT_NE(text.find("hcsched_test_lat_ns_bucket{le=\"4\"} 1\n"),
            std::string::npos);
  EXPECT_NE(text.find("hcsched_test_lat_ns_bucket{le=\"16\"} 2\n"),
            std::string::npos);
  EXPECT_NE(text.find("hcsched_test_lat_ns_bucket{le=\"64\"} 2\n"),
            std::string::npos);
  EXPECT_NE(text.find("hcsched_test_lat_ns_bucket{le=\"256\"} 3\n"),
            std::string::npos);
  EXPECT_NE(text.find("hcsched_test_lat_ns_bucket{le=\"+Inf\"} 3\n"),
            std::string::npos);
  EXPECT_NE(text.find("hcsched_test_lat_ns_sum 106\n"), std::string::npos);
  EXPECT_NE(text.find("hcsched_test_lat_ns_count 3\n"), std::string::npos);
  EXPECT_NE(text.find("# HELP hcsched_test_ops_total Test ops\n"
                      "# TYPE hcsched_test_ops_total counter\n"
                      "hcsched_test_ops_total 3\n"),
            std::string::npos);

  // Exposition-format sanity: every line is a comment or `name[{labels}]
  // value` with a parseable numeric value.
  std::size_t begin = 0;
  while (begin < text.size()) {
    std::size_t end = text.find('\n', begin);
    ASSERT_NE(end, std::string::npos) << "missing trailing newline";
    const std::string line = text.substr(begin, end - begin);
    begin = end + 1;
    if (line.rfind("# ", 0) == 0) continue;
    const std::size_t space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos) << line;
    EXPECT_NO_THROW({
      (void)std::stod(line.substr(space + 1));
    }) << line;
  }
}

TEST(MetricsRegistry, LabelledFamilyRendersOnceWithOneSeriesPerLabel) {
  obs::MetricsRegistry registry;
  registry.counter("hcsched_test_ops_total", "Ops", {"op", "b"}).add(2);
  registry.counter("hcsched_test_ops_total", "Ops", {"op", "a"}).add(1);
  obs::MetricHistogram& h = registry.histogram(
      "hcsched_test_map_ns", "Map latency", {"heuristic", "Min-Min"});
  h.observe(3);
  h.observe(100);
  EXPECT_EQ(&registry.counter("hcsched_test_ops_total", "", {"op", "a"}),
            &registry.counter("hcsched_test_ops_total", "", {"op", "a"}));
  EXPECT_EQ(registry.size(), 3u);

  const std::string text = registry.prometheus_text();
  // One # HELP / # TYPE per family, series sorted by label value.
  EXPECT_NE(text.find("# HELP hcsched_test_ops_total Ops\n"
                      "# TYPE hcsched_test_ops_total counter\n"
                      "hcsched_test_ops_total{op=\"a\"} 1\n"
                      "hcsched_test_ops_total{op=\"b\"} 2\n"),
            std::string::npos)
      << text;
  EXPECT_EQ(text.find("# TYPE hcsched_test_ops_total"),
            text.rfind("# TYPE hcsched_test_ops_total"));
  // The series label precedes `le` on bucket lines; _sum/_count keep it.
  EXPECT_NE(text.find("hcsched_test_map_ns_bucket{heuristic=\"Min-Min\","
                      "le=\"4\"} 1\n"),
            std::string::npos);
  EXPECT_NE(text.find("hcsched_test_map_ns_bucket{heuristic=\"Min-Min\","
                      "le=\"+Inf\"} 2\n"),
            std::string::npos);
  EXPECT_NE(text.find("hcsched_test_map_ns_sum{heuristic=\"Min-Min\"} 103\n"
                      "hcsched_test_map_ns_count{heuristic=\"Min-Min\"} 2\n"),
            std::string::npos);

  const obs::JsonValue parsed =
      obs::JsonValue::parse(registry.snapshot_json().dump());
  const auto& metrics = parsed.at("metrics").as_array();
  ASSERT_EQ(metrics.size(), 3u);
  EXPECT_EQ(metrics[0].at("name").as_string(), "hcsched_test_map_ns");
  EXPECT_EQ(metrics[0].at("labels").at("heuristic").as_string(), "Min-Min");
  EXPECT_DOUBLE_EQ(metrics[0].at("sum").as_number(), 103.0);
  EXPECT_EQ(metrics[1].at("labels").at("op").as_string(), "a");
  EXPECT_DOUBLE_EQ(metrics[1].at("value").as_number(), 1.0);
  EXPECT_EQ(metrics[2].at("labels").at("op").as_string(), "b");
  EXPECT_EQ(metrics[2].at("help").as_string(), "Ops");
  EXPECT_DOUBLE_EQ(metrics[2].at("value").as_number(), 2.0);

  const auto series = registry.histogram_series("hcsched_test_map_ns");
  ASSERT_EQ(series.size(), 1u);
  EXPECT_EQ(series[0].first, "Min-Min");
  EXPECT_EQ(series[0].second, &h);
  EXPECT_TRUE(registry.histogram_series("hcsched_test_ops_total").empty());
}

TEST(MetricsRegistry, LabelValuesAreEscapedAndLabelKeysChecked) {
  obs::MetricsRegistry registry;
  registry.gauge("hcsched_test_g", "", {"k", "a\"b\\c\nd"}).set(1);
  EXPECT_NE(registry.prometheus_text().find(
                "hcsched_test_g{k=\"a\\\"b\\\\c\\nd\"} 1\n"),
            std::string::npos);
  // One label key per family; unlabelled and labelled series do not mix.
  EXPECT_THROW(registry.gauge("hcsched_test_g", "", {"other", "x"}),
               std::invalid_argument);
  EXPECT_THROW(registry.gauge("hcsched_test_g"), std::invalid_argument);
  EXPECT_THROW(registry.counter("hcsched_test_c", "", {"bad-key", "x"}),
               std::invalid_argument);
  EXPECT_THROW(registry.histogram("hcsched_test_h", "", {"le", "x"}),
               std::invalid_argument);
}

TEST(MetricsRegistry, ResetZeroesButKeepsRegistrations) {
  obs::MetricsRegistry registry;
  obs::MetricCounter& c = registry.counter("hcsched_test_reset_total");
  c.add(7);
  obs::MetricHistogram& h = registry.histogram("hcsched_test_reset_ns");
  h.observe(42);
  registry.reset();
  EXPECT_EQ(registry.size(), 2u);
  EXPECT_EQ(c.value(), 0u);  // cached reference stays valid
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.sum(), 0u);
  c.add(1);
  EXPECT_EQ(c.value(), 1u);
}

TEST(MetricsMacros, HonourCompileTimeKillSwitch) {
  // The macro registers in the GLOBAL registry on first execution — but
  // only when tracing is compiled in; under -DHCSCHED_TRACE=0 the site
  // vanishes and the name never appears.
  HCSCHED_METRIC_COUNT("hcsched_test_macro_probe_total", "Macro probe", 1);
  bool found = false;
  const obs::JsonValue snapshot = obs::metrics::snapshot_json();
  for (const obs::JsonValue& m : snapshot.at("metrics").as_array()) {
    if (m.at("name").as_string() == "hcsched_test_macro_probe_total") {
      found = true;
      EXPECT_GE(m.at("value").as_number(), 1.0);
    }
  }
  EXPECT_EQ(found, obs::kTraceCompiledIn);
}

}  // namespace
