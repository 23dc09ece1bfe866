// Span emission: well-formed trees from the instrumented study pipeline,
// deterministic IDs for seeded traces, completeness under quarantine and
// cancellation, the HCSCHED_TRACE kill switch, and SpanCollector
// aggregation (the --profile data model).
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "core/cancel.hpp"
#include "core/iterative.hpp"
#include "etc/etc_matrix.hpp"
#include "heuristics/registry.hpp"
#include "obs/profile.hpp"
#include "obs/span.hpp"
#include "obs/trace.hpp"
#include "rng/tie_break.hpp"
#include "sched/problem.hpp"
#include "sim/experiment.hpp"
#include "sim/fault/fault.hpp"
#include "sim/thread_pool.hpp"

namespace {

using namespace hcsched;

sim::StudyParams small_study() {
  sim::StudyParams params;
  params.heuristics = {"MET", "Min-Min"};
  params.trials = 3;
  params.cvb.num_tasks = 8;
  params.cvb.num_machines = 3;
  params.seed = 11;
  return params;
}

/// Structural identity of one span event, timing fields excluded.
using SpanShape =
    std::tuple<std::string, std::string, std::string, std::string>;

SpanShape shape_of(const obs::TraceEvent& event) {
  const obs::JsonValue json = event.to_json();
  std::string parent;
  if (const obs::JsonValue* p = json.find("parent_span_id")) {
    parent = p->as_string();
  }
  return {json.at("name").as_string(), json.at("trace_id").as_string(),
          json.at("span_id").as_string(), parent};
}

/// Every span closed, so every parent referenced by a captured span must
/// itself have been captured (no dangling open spans), and IDs are unique.
void expect_well_formed(const std::vector<obs::TraceEvent>& spans) {
  std::set<std::string> ids;
  for (const obs::TraceEvent& event : spans) {
    const obs::JsonValue json = event.to_json();
    const std::string id = json.at("span_id").as_string();
    EXPECT_NE(obs::parse_span_id(id), 0u) << "malformed span_id " << id;
    EXPECT_TRUE(ids.insert(id).second) << "duplicate span_id " << id;
    EXPECT_NE(obs::parse_span_id(json.at("trace_id").as_string()), 0u);
    EXPECT_GE(json.at("duration_ns").as_number(), 0.0);
    EXPECT_GE(json.at("start_ns").as_number(), 0.0);
  }
  for (const obs::TraceEvent& event : spans) {
    const obs::JsonValue json = event.to_json();
    if (const obs::JsonValue* parent = json.find("parent_span_id")) {
      EXPECT_EQ(ids.count(parent->as_string()), 1u)
          << json.at("name").as_string() << " dangles from parent "
          << parent->as_string();
    }
  }
}

TEST(Spans, StudyEmitsWellFormedTree) {
  if (!obs::kTraceCompiledIn) {
    GTEST_SKIP() << "library built with HCSCHED_TRACE=0";
  }
  auto ring = std::make_shared<obs::RingBufferSink>(1 << 14);
  const obs::ScopedSink scope(ring);
  sim::ThreadPool pool(2);
  const sim::StudyReport report =
      sim::run_iterative_study_report(small_study(), pool);
  ASSERT_EQ(report.trials_completed, 3u);
  ASSERT_EQ(obs::spans::thread_depth(), 0u);

  const auto spans = ring->events_named("span");
  ASSERT_EQ(ring->dropped(), 0u);
  expect_well_formed(spans);

  // The instrumented layers all show up: study root, one span per trial,
  // per-heuristic iterative runs with nested iterations, NVI map spans.
  std::map<std::string, std::size_t> by_name;
  for (const auto& event : spans) {
    ++by_name[event.to_json().at("name").as_string()];
  }
  EXPECT_EQ(by_name["study"], 1u);
  EXPECT_EQ(by_name["trial"], 3u);
  EXPECT_EQ(by_name["iterative:MET"], 3u);
  EXPECT_EQ(by_name["iterative:Min-Min"], 3u);
  EXPECT_GE(by_name["iteration"], 6u);
  EXPECT_GE(by_name["map:Min-Min"], 3u);

  // The trial spans nest under the per-trial seeded roots, not the study's:
  // each carries its own deterministic trace_id.
  std::set<std::string> trial_traces;
  for (const auto& event : spans) {
    const obs::JsonValue json = event.to_json();
    if (json.at("name").as_string() == "trial") {
      trial_traces.insert(json.at("trace_id").as_string());
    }
  }
  EXPECT_EQ(trial_traces.size(), 3u);
}

TEST(Spans, IterationMachineLabels) {
  if (!obs::kTraceCompiledIn) {
    GTEST_SKIP() << "library built with HCSCHED_TRACE=0";
  }
  auto ring = std::make_shared<obs::RingBufferSink>(1 << 10);
  const obs::ScopedSink scope(ring);
  // The paper's Table 1 matrix: three iterations, each with a makespan
  // machine whose span attribute reads "m<id>".
  const etc::EtcMatrix m =
      etc::EtcMatrix::from_rows({{5, 9, 9}, {9, 1, 2}, {9, 1, 9}, {9, 9, 4}});
  const auto heuristic = heuristics::make_heuristic("Min-Min");
  rng::TieBreaker ties;
  const core::IterativeResult result = core::IterativeMinimizer().run(
      *heuristic, sched::Problem::full(m), ties);

  std::vector<std::string> labels;
  for (const obs::TraceEvent& event : ring->events_named("span")) {
    const obs::JsonValue json = event.to_json();
    if (json.at("name").as_string() == "iteration") {
      labels.push_back(json.at("makespan_machine").as_string());
    }
  }
  ASSERT_EQ(labels.size(), result.iterations.size());
  for (std::size_t i = 0; i < labels.size(); ++i) {
    EXPECT_EQ(labels[i], std::string(1, 'm') += std::to_string(
                             result.iterations[i].makespan_machine));
  }
}

TEST(Spans, SeededTracesAreDeterministicAcrossRuns) {
  if (!obs::kTraceCompiledIn) {
    GTEST_SKIP() << "library built with HCSCHED_TRACE=0";
  }
  // Two identical studies on fresh pools. Seeded traces (study + trial
  // roots) must emit identical ID graphs; pool.job spans root from a
  // process-local counter and are excluded.
  const auto run = [] {
    auto ring = std::make_shared<obs::RingBufferSink>(1 << 14);
    const obs::ScopedSink scope(ring);
    sim::ThreadPool pool(2);
    (void)sim::run_iterative_study_report(small_study(), pool);
    std::set<std::string> seeded_traces;
    for (const auto& event : ring->events_named("span")) {
      const obs::JsonValue json = event.to_json();
      const std::string name = json.at("name").as_string();
      if (name == "study" || name == "trial") {
        seeded_traces.insert(json.at("trace_id").as_string());
      }
    }
    std::vector<SpanShape> shapes;
    for (const auto& event : ring->events_named("span")) {
      const obs::JsonValue json = event.to_json();
      if (seeded_traces.count(json.at("trace_id").as_string()) != 0) {
        shapes.push_back(shape_of(event));
      }
    }
    std::sort(shapes.begin(), shapes.end());
    return shapes;
  };
  const std::vector<SpanShape> first = run();
  const std::vector<SpanShape> second = run();
  ASSERT_FALSE(first.empty());
  EXPECT_EQ(first, second);
}

TEST(Spans, QuarantinedTrialsStillFlushCompleteTrees) {
  if (!obs::kTraceCompiledIn) {
    GTEST_SKIP() << "library built with HCSCHED_TRACE=0";
  }
  auto ring = std::make_shared<obs::RingBufferSink>(1 << 14);
  const obs::ScopedSink scope(ring);
  // Rate 1: every heuristic map throws, every trial quarantines; stack
  // unwinding must still close (and therefore emit) every open span.
  const sim::fault::ScopedFault fault(
      {sim::fault::Site::kHeuristicMap, 1.0, 5});
  sim::ThreadPool pool(2);
  const sim::StudyReport report =
      sim::run_iterative_study_report(small_study(), pool);
  EXPECT_FALSE(report.quarantined.empty());
  EXPECT_EQ(obs::spans::thread_depth(), 0u);

  const auto spans = ring->events_named("span");
  ASSERT_EQ(ring->dropped(), 0u);
  expect_well_formed(spans);
  std::size_t quarantined_trials = 0;
  std::size_t trials = 0;
  for (const auto& event : spans) {
    const obs::JsonValue json = event.to_json();
    if (json.at("name").as_string() != "trial") continue;
    ++trials;
    if (const obs::JsonValue* q = json.find("quarantined")) {
      EXPECT_TRUE(q->as_bool());
      ++quarantined_trials;
    }
  }
  EXPECT_EQ(trials, 3u);
  EXPECT_EQ(quarantined_trials, 3u);
}

TEST(Spans, CancelledStudyClosesItsSpans) {
  if (!obs::kTraceCompiledIn) {
    GTEST_SKIP() << "library built with HCSCHED_TRACE=0";
  }
  auto ring = std::make_shared<obs::RingBufferSink>(1 << 14);
  const obs::ScopedSink scope(ring);
  const core::CancelToken token;
  token.request_cancel();  // cancelled before the first trial
  sim::StudyHooks hooks;
  hooks.cancel = &token;
  sim::ThreadPool pool(2);
  const sim::StudyReport report =
      sim::run_iterative_study_report(small_study(), pool, hooks);
  EXPECT_TRUE(report.cancelled);
  EXPECT_EQ(obs::spans::thread_depth(), 0u);
  const auto spans = ring->events_named("span");
  expect_well_formed(spans);
  // The study root span itself still flushes.
  EXPECT_EQ(ring->events_named("span").empty(), false);
}

TEST(Spans, MacroHonoursCompileTimeKillSwitch) {
  auto ring = std::make_shared<obs::RingBufferSink>();
  const obs::ScopedSink scope(ring);
  {
    HCSCHED_SPAN(span, "kill-switch-probe");
    HCSCHED_SPAN_ATTR(span, "probe", obs::JsonValue(true));
  }
  if (obs::kTraceCompiledIn) {
    EXPECT_EQ(ring->events_named("span").size(), 1u);
  } else {
    EXPECT_EQ(ring->size(), 0u);
  }
}

TEST(Spans, NoSinkMeansNoRecordingAndNoIds) {
  if (!obs::kTraceCompiledIn) {
    GTEST_SKIP() << "library built with HCSCHED_TRACE=0";
  }
  const obs::ScopedSpan span("unwatched");
  EXPECT_FALSE(span.recording());
  EXPECT_EQ(span.span_id(), 0u);
  EXPECT_EQ(obs::spans::thread_depth(), 0u);
}

TEST(Spans, ParentAccessorMirrorsNesting) {
  if (!obs::kTraceCompiledIn) {
    GTEST_SKIP() << "library built with HCSCHED_TRACE=0";
  }
  auto ring = std::make_shared<obs::RingBufferSink>();
  const obs::ScopedSink scope(ring);
  obs::ScopedSpan outer("outer");
  const obs::ScopedSpan inner("inner");
  EXPECT_EQ(outer.parent_span_id(), 0u);
  EXPECT_EQ(inner.parent_span_id(), outer.span_id());
}

TEST(Spans, NullSpanIsInertAndParentless) {
  constexpr obs::NullSpan null;
  EXPECT_FALSE(null.recording());
  EXPECT_EQ(null.trace_id(), 0u);
  EXPECT_EQ(null.span_id(), 0u);
  EXPECT_EQ(null.parent_span_id(), 0u);
}

TEST(Spans, IdFormatRoundTrips) {
  EXPECT_EQ(obs::format_span_id(0xdeadbeef01020304ULL).size(), 16u);
  EXPECT_EQ(obs::parse_span_id(obs::format_span_id(0xdeadbeef01020304ULL)),
            0xdeadbeef01020304ULL);
  EXPECT_EQ(obs::parse_span_id("not-a-span-id!!!"), 0u);
  EXPECT_EQ(obs::parse_span_id("abc"), 0u);
}

TEST(Spans, TeeSinkFansOutToCollectorAndRing) {
  if (!obs::kTraceCompiledIn) {
    GTEST_SKIP() << "library built with HCSCHED_TRACE=0";
  }
  auto ring = std::make_shared<obs::RingBufferSink>();
  auto collector = std::make_shared<obs::SpanCollector>();
  const obs::ScopedSink scope(std::make_shared<obs::TeeSink>(
      std::vector<std::shared_ptr<obs::TraceSink>>{ring, collector}));
  {
    obs::ScopedSpan outer("outer");
    const obs::ScopedSpan inner("inner");
  }
  EXPECT_EQ(ring->events_named("span").size(), 2u);
  EXPECT_EQ(collector->size(), 2u);
}

TEST(Spans, CollectorAggregatesNestingIntoProfileTree) {
  if (!obs::kTraceCompiledIn) {
    GTEST_SKIP() << "library built with HCSCHED_TRACE=0";
  }
  auto collector = std::make_shared<obs::SpanCollector>();
  const obs::ScopedSink scope(collector);
  for (int i = 0; i < 3; ++i) {
    obs::ScopedSpan outer("phase");
    const obs::ScopedSpan inner("step");
  }
  const std::vector<obs::ProfileNode> roots = collector->aggregate();
  ASSERT_EQ(roots.size(), 1u);
  EXPECT_EQ(roots[0].name, "phase");
  EXPECT_EQ(roots[0].count, 3u);
  ASSERT_EQ(roots[0].children.size(), 1u);
  EXPECT_EQ(roots[0].children[0].name, "step");
  EXPECT_EQ(roots[0].children[0].count, 3u);
  EXPECT_LE(roots[0].self_ns, roots[0].total_ns);
  EXPECT_GE(roots[0].total_ns, roots[0].children[0].total_ns);

  const obs::JsonValue json = collector->to_json();
  EXPECT_EQ(json.at("profile").as_string(), "hcsched.profile.v1");
  EXPECT_DOUBLE_EQ(json.at("spans").as_number(), 6.0);
  EXPECT_EQ(json.at("roots").as_array().size(), 1u);
}

}  // namespace
