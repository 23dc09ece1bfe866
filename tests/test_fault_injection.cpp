// Fault-matrix suite for the deterministic fault-injection framework
// (docs/ROBUSTNESS.md): every registered site crossed with {never, always,
// rate+seed} arming, quarantine reports pinned against the decision
// function, and the headline property — surviving-trial statistics are
// bit-identical to a clean run restricted to the surviving executions.
#include "sim/fault/fault.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "obs/counters.hpp"
#include "obs/trace.hpp"
#include "sim/checkpoint.hpp"
#include "sim/experiment.hpp"

namespace {

using hcsched::sim::fold_outcomes;
using hcsched::sim::QuarantineRecord;
using hcsched::sim::run_iterative_study_report;
using hcsched::sim::StudyParams;
using hcsched::sim::StudyReport;
using hcsched::sim::StudyRow;
using hcsched::sim::ThreadPool;
using hcsched::sim::TrialOutcome;
namespace fault = hcsched::sim::fault;

StudyParams small_params() {
  StudyParams params;
  params.heuristics = {"MCT", "Min-Min", "Sufferage"};
  params.cvb.num_tasks = 10;
  params.cvb.num_machines = 4;
  params.trials = 12;
  params.seed = 42;
  // Random ties stress the per-heuristic stream isolation that the
  // surviving-statistics property depends on.
  params.tie_policy = hcsched::rng::TiePolicy::kRandom;
  return params;
}

/// Exact (bitwise) equality of two folded study rows. Doubles are compared
/// with EXPECT_EQ on purpose: the determinism contract is bit-identity,
/// not tolerance.
void expect_rows_identical(const std::vector<StudyRow>& a,
                           const std::vector<StudyRow>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    SCOPED_TRACE(a[i].heuristic);
    EXPECT_EQ(a[i].heuristic, b[i].heuristic);
    EXPECT_EQ(a[i].trials, b[i].trials);
    EXPECT_EQ(a[i].machines_improved, b[i].machines_improved);
    EXPECT_EQ(a[i].machines_unchanged, b[i].machines_unchanged);
    EXPECT_EQ(a[i].machines_worsened, b[i].machines_worsened);
    EXPECT_EQ(a[i].makespan_increases, b[i].makespan_increases);
    EXPECT_EQ(a[i].finish_delta.count(), b[i].finish_delta.count());
    EXPECT_EQ(a[i].finish_delta.mean(), b[i].finish_delta.mean());
    EXPECT_EQ(a[i].finish_delta.variance(), b[i].finish_delta.variance());
    EXPECT_EQ(a[i].mean_completion_delta.count(),
              b[i].mean_completion_delta.count());
    EXPECT_EQ(a[i].mean_completion_delta.mean(),
              b[i].mean_completion_delta.mean());
    EXPECT_EQ(a[i].mean_completion_delta.variance(),
              b[i].mean_completion_delta.variance());
    EXPECT_EQ(a[i].original_makespan.count(), b[i].original_makespan.count());
    EXPECT_EQ(a[i].original_makespan.mean(), b[i].original_makespan.mean());
    EXPECT_EQ(a[i].original_makespan.variance(),
              b[i].original_makespan.variance());
  }
}

/// The (trial, heuristic) executions a heuristic-map plan will kill,
/// computed from the documented key layout key = trial * H + h.
std::set<std::pair<std::size_t, std::size_t>> predicted_map_faults(
    const StudyParams& params) {
  std::set<std::pair<std::size_t, std::size_t>> out;
  const std::size_t h_count = params.heuristics.size();
  for (std::size_t trial = 0; trial < params.trials; ++trial) {
    for (std::size_t h = 0; h < h_count; ++h) {
      if (fault::should_inject(fault::Site::kHeuristicMap,
                               trial * h_count + h)) {
        out.emplace(trial, h);
      }
    }
  }
  return out;
}

class FaultMatrixTest : public ::testing::Test {
 protected:
  void SetUp() override { fault::disarm_all(); }
  void TearDown() override { fault::disarm_all(); }
};

TEST_F(FaultMatrixTest, SiteNamesRoundTrip) {
  for (std::size_t i = 0; i < fault::kNumSites; ++i) {
    const auto site = static_cast<fault::Site>(i);
    const auto parsed = fault::parse_site(fault::to_string(site));
    ASSERT_TRUE(parsed.has_value()) << fault::to_string(site);
    EXPECT_EQ(*parsed, site);
  }
  EXPECT_FALSE(fault::parse_site("no-such-site").has_value());
  EXPECT_FALSE(fault::parse_site("").has_value());
}

TEST_F(FaultMatrixTest, SpecParsing) {
  const auto full = fault::parse_spec("heuristic-map:0.25:17");
  ASSERT_TRUE(full.has_value());
  EXPECT_EQ(full->site, fault::Site::kHeuristicMap);
  EXPECT_DOUBLE_EQ(full->rate, 0.25);
  EXPECT_EQ(full->seed, 17u);

  const auto defaulted = fault::parse_spec("etc-generate:1");
  ASSERT_TRUE(defaulted.has_value());
  EXPECT_EQ(defaulted->site, fault::Site::kEtcGenerate);
  EXPECT_DOUBLE_EQ(defaulted->rate, 1.0);
  EXPECT_EQ(defaulted->seed, 1u);

  for (const char* bad :
       {"", "heuristic-map", "bogus:0.5", "heuristic-map:1.5",
        "heuristic-map:-0.1", "heuristic-map:x", "heuristic-map:0.5:",
        "heuristic-map:0.5:abc", "heuristic-map::3", "heuristic-map:0.5x"}) {
    EXPECT_FALSE(fault::parse_spec(bad).has_value()) << "'" << bad << "'";
  }
}

TEST_F(FaultMatrixTest, DecisionIsDeterministicAndRateShaped) {
  const fault::FaultPlan plan{fault::Site::kHeuristicMap, 0.3, 5};
  std::size_t fired = 0;
  for (std::uint64_t key = 0; key < 2000; ++key) {
    const double value = fault::decision_value(plan, key);
    EXPECT_GE(value, 0.0);
    EXPECT_LT(value, 1.0);
    EXPECT_EQ(value, fault::decision_value(plan, key)) << key;  // pure
    if (value < plan.rate) ++fired;
  }
  // ~600 expected; a generous band catches a broken mixer, not noise.
  EXPECT_GT(fired, 400u);
  EXPECT_LT(fired, 800u);

  // Different seeds and different sites decorrelate the decision.
  const fault::FaultPlan other_seed{fault::Site::kHeuristicMap, 0.3, 6};
  const fault::FaultPlan other_site{fault::Site::kEtcGenerate, 0.3, 5};
  bool seed_differs = false;
  bool site_differs = false;
  for (std::uint64_t key = 0; key < 64; ++key) {
    seed_differs |= fault::decision_value(plan, key) !=
                    fault::decision_value(other_seed, key);
    site_differs |= fault::decision_value(plan, key) !=
                    fault::decision_value(other_site, key);
  }
  EXPECT_TRUE(seed_differs);
  EXPECT_TRUE(site_differs);
}

TEST_F(FaultMatrixTest, ArmDisarmLifecycle) {
  EXPECT_FALSE(fault::any_armed());
  fault::arm({fault::Site::kEtcGenerate, 1.0, 3});
  EXPECT_TRUE(fault::any_armed());
  ASSERT_TRUE(fault::armed(fault::Site::kEtcGenerate).has_value());
  EXPECT_FALSE(fault::armed(fault::Site::kHeuristicMap).has_value());
  {
    const fault::ScopedFault scoped({fault::Site::kEtcGenerate, 0.5, 9});
    EXPECT_DOUBLE_EQ(fault::armed(fault::Site::kEtcGenerate)->rate, 0.5);
  }
  // ScopedFault restored the outer plan, not the disarmed state.
  ASSERT_TRUE(fault::armed(fault::Site::kEtcGenerate).has_value());
  EXPECT_DOUBLE_EQ(fault::armed(fault::Site::kEtcGenerate)->rate, 1.0);
  fault::disarm(fault::Site::kEtcGenerate);
  EXPECT_FALSE(fault::any_armed());
  EXPECT_NO_THROW(fault::maybe_inject(fault::Site::kEtcGenerate, 0));
}

TEST_F(FaultMatrixTest, MaybeInjectThrowsTypedError) {
  const fault::ScopedFault scoped({fault::Site::kHeuristicMap, 1.0, 1});
  try {
    fault::maybe_inject(fault::Site::kHeuristicMap, 41);
    FAIL() << "expected FaultInjected";
  } catch (const fault::FaultInjected& error) {
    EXPECT_EQ(error.site(), fault::Site::kHeuristicMap);
    EXPECT_EQ(error.key(), 41u);
    EXPECT_NE(std::string(error.what()).find("heuristic-map"),
              std::string::npos);
  }
}

// -- The matrix: every site with a rate-0 plan is a no-op ------------------

TEST_F(FaultMatrixTest, NeverFiringPlansLeaveStudyBitIdentical) {
  const StudyParams params = small_params();
  ThreadPool pool(2);
  const StudyReport clean = run_iterative_study_report(params, pool);
  for (std::size_t i = 0; i < fault::kNumSites; ++i) {
    SCOPED_TRACE(fault::to_string(static_cast<fault::Site>(i)));
    const fault::ScopedFault scoped(
        {static_cast<fault::Site>(i), 0.0, 123});
    const StudyReport report = run_iterative_study_report(params, pool);
    EXPECT_TRUE(report.quarantined.empty());
    EXPECT_EQ(report.trials_completed, params.trials);
    expect_rows_identical(clean.rows, report.rows);
  }
}

// -- always-firing plans, site by site -------------------------------------

TEST_F(FaultMatrixTest, EtcGenerateAlwaysQuarantinesEveryTrialWhole) {
  const StudyParams params = small_params();
  const fault::ScopedFault scoped({fault::Site::kEtcGenerate, 1.0, 1});
  ThreadPool pool(2);
  const StudyReport report = run_iterative_study_report(params, pool);
  // One quarantine record per trial (no heuristic ever ran), zero rows.
  ASSERT_EQ(report.quarantined.size(), params.trials);
  for (const QuarantineRecord& q : report.quarantined) {
    EXPECT_EQ(q.site, "etc-generate");
    EXPECT_TRUE(q.heuristic.empty());
    EXPECT_EQ(q.study_seed, params.seed);
  }
  for (const StudyRow& row : report.rows) {
    EXPECT_EQ(row.trials, 0u);
    EXPECT_EQ(row.original_makespan.count(), 0u);
  }
  // Trials still *completed* (they produced a definite, quarantined
  // outcome); nothing was silently dropped.
  EXPECT_EQ(report.trials_completed, params.trials);
}

TEST_F(FaultMatrixTest, HeuristicMapAlwaysQuarantinesEveryExecution) {
  const StudyParams params = small_params();
  const fault::ScopedFault scoped({fault::Site::kHeuristicMap, 1.0, 1});
  ThreadPool pool(2);
  const StudyReport report = run_iterative_study_report(params, pool);
  ASSERT_EQ(report.quarantined.size(),
            params.trials * params.heuristics.size());
  // (trial, heuristic) order, every heuristic named.
  std::size_t index = 0;
  for (std::size_t trial = 0; trial < params.trials; ++trial) {
    for (const std::string& name : params.heuristics) {
      const QuarantineRecord& q = report.quarantined[index++];
      EXPECT_EQ(q.trial, trial);
      EXPECT_EQ(q.heuristic, name);
      EXPECT_EQ(q.site, "heuristic-map");
    }
  }
  for (const StudyRow& row : report.rows) EXPECT_EQ(row.trials, 0u);
}

TEST_F(FaultMatrixTest, CheckpointWriteAlwaysLosesPersistenceNotResults) {
  const StudyParams params = small_params();
  const std::string path =
      ::testing::TempDir() + "fault_ckpt_write_always.jsonl";
  std::remove(path.c_str());
  ThreadPool pool(2);
  const StudyReport clean = run_iterative_study_report(params, pool);
  StudyReport report;
  {
    const fault::ScopedFault scoped({fault::Site::kCheckpointWrite, 1.0, 1});
    hcsched::sim::CheckpointWriter writer(path);
    hcsched::sim::StudyHooks hooks;
    hooks.checkpoint = &writer;
    report = run_iterative_study_report(params, pool, hooks);
  }
  // The study is unharmed — bit-identical to the clean run — but nothing
  // was persisted, so a resume would recompute from scratch.
  EXPECT_TRUE(report.quarantined.empty());
  expect_rows_identical(clean.rows, report.rows);
  const auto data = hcsched::sim::load_checkpoint(path);
  EXPECT_TRUE(data.trials.empty());
  std::remove(path.c_str());
}

TEST_F(FaultMatrixTest, PoolJobStartAlwaysAbortsTheRun) {
  const StudyParams params = small_params();
  const fault::ScopedFault scoped({fault::Site::kPoolJobStart, 1.0, 1});
  ThreadPool pool(2);
  // Worker loss is not quarantinable — the chunk never ran. The typed
  // error reaches the caller; checkpoint/resume is the recovery path.
  EXPECT_THROW((void)run_iterative_study_report(params, pool),
               fault::FaultInjected);
}

// -- rate + seed plans: the injected set is exactly the predicted set ------

TEST_F(FaultMatrixTest, RateSeededQuarantineMatchesPredictedSet) {
  const StudyParams params = small_params();
  const fault::ScopedFault scoped({fault::Site::kHeuristicMap, 0.4, 99});
  const auto predicted = predicted_map_faults(params);
  ASSERT_FALSE(predicted.empty()) << "rate 0.4 over 36 keys never fired; "
                                     "decision function changed?";
  ASSERT_LT(predicted.size(), params.trials * params.heuristics.size());

  ThreadPool pool(2);
  const StudyReport report = run_iterative_study_report(params, pool);
  std::set<std::pair<std::size_t, std::size_t>> observed;
  for (const QuarantineRecord& q : report.quarantined) {
    const auto it = std::find(params.heuristics.begin(),
                              params.heuristics.end(), q.heuristic);
    ASSERT_NE(it, params.heuristics.end()) << q.heuristic;
    observed.emplace(q.trial, static_cast<std::size_t>(
                                  it - params.heuristics.begin()));
    EXPECT_EQ(q.site, "heuristic-map");
  }
  EXPECT_EQ(observed, predicted);
  // Surviving executions per heuristic = trials - its predicted kills.
  for (std::size_t h = 0; h < params.heuristics.size(); ++h) {
    const auto killed = static_cast<std::size_t>(std::count_if(
        predicted.begin(), predicted.end(),
        [h](const auto& pair) { return pair.second == h; }));
    EXPECT_EQ(report.rows[h].trials, params.trials - killed)
        << params.heuristics[h];
  }
}

TEST_F(FaultMatrixTest, SurvivingStatisticsBitIdenticalToRestrictedCleanRun) {
  // The headline quarantine-exactness property: take the clean study, strike
  // out exactly the executions the armed plan kills, fold — the result must
  // equal the faulty run bit for bit. This fails if a fault perturbs any
  // surviving execution (e.g. by advancing a shared tie-break RNG).
  const StudyParams params = small_params();
  ThreadPool pool(2);
  const StudyReport clean = run_iterative_study_report(params, pool);

  const fault::ScopedFault scoped({fault::Site::kHeuristicMap, 0.4, 99});
  const auto predicted = predicted_map_faults(params);
  ASSERT_FALSE(predicted.empty());
  const StudyReport faulty = run_iterative_study_report(params, pool);

  std::vector<TrialOutcome> restricted = clean.outcomes;
  for (const auto& [trial, h] : predicted) {
    auto& records = restricted[trial].records;
    const std::string& name = params.heuristics[h];
    records.erase(std::remove_if(records.begin(), records.end(),
                                 [&name](const auto& record) {
                                   return record.heuristic == name;
                                 }),
                  records.end());
  }
  const StudyReport expected = fold_outcomes(params, std::move(restricted));
  expect_rows_identical(expected.rows, faulty.rows);
}

TEST_F(FaultMatrixTest, InjectionCountersTrack) {
  if (!hcsched::obs::kTraceCompiledIn) {
    GTEST_SKIP() << "library built with HCSCHED_TRACE=0";
  }
  const StudyParams params = small_params();
  ThreadPool pool(2);
  using hcsched::obs::Counter;
  using hcsched::obs::counters::read;
  const std::uint64_t faults_before = read(Counter::kFaultsInjected);
  const std::uint64_t quarantined_before = read(Counter::kTrialsQuarantined);
  const fault::ScopedFault scoped({fault::Site::kHeuristicMap, 1.0, 1});
  const StudyReport report = run_iterative_study_report(params, pool);
  EXPECT_EQ(read(Counter::kFaultsInjected) - faults_before,
            params.trials * params.heuristics.size());
  EXPECT_EQ(read(Counter::kTrialsQuarantined) - quarantined_before,
            params.trials);
  EXPECT_EQ(report.quarantined.size(),
            params.trials * params.heuristics.size());
}

}  // namespace
