// Operation counters and latency histograms: thread-local buffers must be
// additive across pool threads and flush into the registry's
// hcsched_ops_total{op} family, the NVI wrapper must count heuristic
// invocations and time them per heuristic, and the log4 histograms must
// bound their quantiles.
//
// Counter tests reset global state, so they would race any concurrently
// counting test; gtest runs tests in one thread, and the pools joined here
// flush before assertions read the registry.
#include <gtest/gtest.h>

#include <future>
#include <vector>

#include "core/paper_examples.hpp"
#include "heuristics/registry.hpp"
#include "obs/counters.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "rng/tie_break.hpp"
#include "sim/thread_pool.hpp"

namespace {

using namespace hcsched;
using obs::Counter;
using obs::counters::read;

TEST(Counters, AdditiveAcrossPoolThreads) {
  obs::metrics::reset();
  constexpr std::uint64_t kJobs = 64;
  constexpr std::uint64_t kPerJob = 3;
  {
    sim::ThreadPool pool(4);
    std::vector<std::future<void>> futures;
    futures.reserve(kJobs);
    for (std::uint64_t i = 0; i < kJobs; ++i) {
      futures.push_back(
          pool.submit([] { obs::counters::add(Counter::kGaSteps, kPerJob); }));
    }
    for (auto& f : futures) f.get();
  }  // joining the pool flushes every worker's buffer

  EXPECT_EQ(read(Counter::kGaSteps), kJobs * kPerJob);
  if (obs::kTraceCompiledIn) {
    EXPECT_EQ(read(Counter::kPoolTasksSubmitted), kJobs);
    EXPECT_EQ(read(Counter::kPoolTasksCompleted), kJobs);
    EXPECT_GE(obs::metrics::histogram("hcsched_pool_wait_ns").count(), kJobs);
    EXPECT_GE(obs::metrics::histogram("hcsched_pool_run_ns").count(), kJobs);
  }
}

TEST(Counters, HeuristicInvocationsCountedThroughNvi) {
  if (!obs::kTraceCompiledIn) {
    GTEST_SKIP() << "library built with HCSCHED_TRACE=0";
  }
  obs::metrics::reset();
  const auto ex = core::minmin_example();
  const auto heuristic = heuristics::make_heuristic(ex.heuristic);
  const sched::Problem problem = sched::Problem::full(*ex.matrix);
  rng::TieBreaker ties;
  heuristic->map(problem, ties);
  heuristic->map(problem, ties);

  EXPECT_EQ(read(Counter::kHeuristicInvocations), 2u);
  EXPECT_GT(read(Counter::kEtcCellEvaluations), 0u);
  EXPECT_GT(read(Counter::kTieDecisions), 0u);

  bool found = false;
  for (const auto& [name, timing] :
       obs::metrics::histogram_series("hcsched_heuristic_map_ns")) {
    if (name == "Min-Min") {
      found = true;
      EXPECT_EQ(timing->count(), 2u);
      EXPECT_GT(timing->mean(), 0.0);
    }
  }
  EXPECT_TRUE(found);
}

TEST(Counters, IterativeRunCountsIterations) {
  if (!obs::kTraceCompiledIn) {
    GTEST_SKIP() << "library built with HCSCHED_TRACE=0";
  }
  obs::metrics::reset();
  const auto result = core::run_paper_example(core::minmin_example());
  EXPECT_EQ(read(Counter::kIterativeRuns), 1u);
  EXPECT_EQ(read(Counter::kIterativeIterations), result.iterations.size());
}

TEST(Counters, SnapshotDeltaSaturatesAtZero) {
  // Counts are monotone between resets: a later read minus an earlier one
  // is the work in between, and never wraps below the earlier read.
  obs::metrics::reset();
  obs::counters::add(Counter::kGaMutations, 5);
  const std::uint64_t before = read(Counter::kGaMutations);
  obs::counters::add(Counter::kGaMutations, 2);
  const std::uint64_t after = read(Counter::kGaMutations);

  EXPECT_EQ(after - before, 2u);
  EXPECT_GE(after, before);
  // Reset zeroes the series and discards this thread's unflushed counts.
  obs::counters::add(Counter::kGaMutations, 9);
  obs::metrics::reset();
  EXPECT_EQ(read(Counter::kGaMutations), 0u);
}

TEST(Counters, SnapshotSerializesEveryCounter) {
  obs::metrics::reset();
  obs::counters::add(Counter::kSearchNodesExpanded, 7);
  const obs::JsonValue json = obs::metrics::snapshot_json();
  std::size_t ops = 0;
  for (const obs::JsonValue& m : json.at("metrics").as_array()) {
    if (m.at("name").as_string() != "hcsched_ops_total") continue;
    ++ops;
    EXPECT_EQ(m.at("kind").as_string(), "counter");
    const std::string op = m.at("labels").at("op").as_string();
    if (op == "search_nodes_expanded") {
      EXPECT_DOUBLE_EQ(m.at("value").as_number(), 7.0);
    }
  }
  EXPECT_EQ(ops, obs::kNumCounters);
}

TEST(LatencyHistogram, BucketsBoundQuantilesAndMax) {
  obs::MetricHistogram hist;
  hist.observe(0);
  hist.observe(10);
  hist.observe(1000);
  hist.observe(1'000'000);

  EXPECT_EQ(hist.count(), 4u);
  EXPECT_EQ(hist.sum(), 1'001'010u);
  EXPECT_DOUBLE_EQ(hist.mean(), 1'001'010.0 / 4.0);
  // The p100 bucket upper bound covers the max sample within one log4 step;
  // p0 covers the min.
  EXPECT_GE(hist.quantile_upper_bound(1.0), 1'000'000u);
  EXPECT_LT(hist.quantile_upper_bound(1.0), 4u * 1'000'000u);
  EXPECT_LE(hist.quantile_upper_bound(0.0), 16u);

  hist.reset();
  EXPECT_EQ(hist.count(), 0u);
  EXPECT_EQ(hist.quantile_upper_bound(0.5), 0u);
}

TEST(LatencyHistogram, JsonSnapshotHasStableKeys) {
  obs::metrics::reset();
  {
    sim::ThreadPool pool(1);
    pool.submit([] {}).get();
  }
  const auto result = core::run_paper_example(core::minmin_example());
  const obs::JsonValue json =
      obs::to_json(obs::build_run_report("Min-Min", result));
  for (const char* histogram : {"pool_wait", "pool_run"}) {
    const obs::JsonValue& summary = json.at(histogram);
    for (const char* key :
         {"count", "total_ns", "mean_ns", "p50_ns", "p99_ns"}) {
      EXPECT_NE(summary.find(key), nullptr) << histogram << "." << key;
    }
    EXPECT_DOUBLE_EQ(summary.at("count").as_number(),
                     obs::kTraceCompiledIn ? 1.0 : 0.0);
  }
}

}  // namespace
