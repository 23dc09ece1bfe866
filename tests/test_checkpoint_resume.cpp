// Checkpoint/resume contract (docs/ROBUSTNESS.md): the JSONL trial
// checkpoint round-trips exactly, tolerates crash artifacts (truncated or
// corrupt lines), and a resumed study folds to statistics bit-identical to
// an uninterrupted run — the paper's numbers cannot depend on whether the
// sweep that produced them was interrupted.
#include "sim/checkpoint.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "core/cancel.hpp"
#include "etc/consistency.hpp"
#include "obs/counters.hpp"
#include "sim/experiment.hpp"
#include "sim/sweep.hpp"
#include "sim/thread_pool.hpp"

namespace {

using hcsched::etc::Consistency;
using hcsched::sim::CheckpointData;
using hcsched::sim::CheckpointKey;
using hcsched::sim::CheckpointWriter;
using hcsched::sim::QuarantineRecord;
using hcsched::sim::StudyHooks;
using hcsched::sim::StudyParams;
using hcsched::sim::StudyReport;
using hcsched::sim::StudyRow;
using hcsched::sim::ThreadPool;
using hcsched::sim::TrialOutcome;
using hcsched::sim::TrialRecord;

std::string tmp_path(const std::string& name) {
  return testing::TempDir() + "hcsched_ckpt_" + name + ".jsonl";
}

void write_file(const std::string& path, const std::string& contents) {
  std::ofstream out(path, std::ios::trunc);
  out << contents;
}

StudyParams small_params() {
  StudyParams params;
  params.heuristics = {"MCT", "Min-Min", "Sufferage"};
  params.cvb.num_tasks = 10;
  params.cvb.num_machines = 4;
  params.trials = 8;
  params.seed = 77;
  return params;
}

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
  }
}

TrialOutcome sample_outcome() {
  TrialOutcome outcome;
  outcome.completed = true;
  TrialRecord r;
  r.heuristic = "Min-Min";
  r.machines_improved = 2;
  r.machines_unchanged = 1;
  r.machines_worsened = 0;
  // Awkward doubles on purpose: shortest-round-trip formatting must bring
  // them back bit-identical.
  r.finish_deltas = {-0.1234567890123456789, 0.0, 1.0 / 3.0, -1e-17};
  r.has_mean_completion_delta = true;
  r.mean_completion_delta = -0.07000000000000001;
  r.makespan_increased = true;
  r.original_makespan = 123.45600000000002;
  outcome.records.push_back(r);

  TrialRecord empty;
  empty.heuristic = "MCT";
  empty.has_mean_completion_delta = false;  // serialized as null
  outcome.records.push_back(empty);

  QuarantineRecord q;
  q.trial = 3;
  q.study_seed = 77;
  q.heuristic = "Sufferage";
  q.site = "heuristic-map";
  q.error = "fault injected at heuristic-map (key 11) with \"quotes\"";
  outcome.quarantined.push_back(q);
  return outcome;
}

// -- codec ----------------------------------------------------------------

TEST(CheckpointCodec, RoundTripPreservesEveryField) {
  const CheckpointKey key{"consistent HiLo", 0xFFFFFFFFFFFFFFFFULL, 42};
  const TrialOutcome outcome = sample_outcome();
  const std::string line = hcsched::sim::encode_trial(key, outcome);
  EXPECT_EQ(line.find('\n'), std::string::npos);

  const auto decoded = hcsched::sim::decode_trial(line);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->first.point, key.point);
  EXPECT_EQ(decoded->first.seed, key.seed);  // uint64 max: no double loss
  EXPECT_EQ(decoded->first.trial, key.trial);

  const TrialOutcome& back = decoded->second;
  EXPECT_TRUE(back.completed);
  ASSERT_EQ(back.records.size(), outcome.records.size());
  for (std::size_t i = 0; i < back.records.size(); ++i) {
    const TrialRecord& a = outcome.records[i];
    const TrialRecord& b = back.records[i];
    EXPECT_EQ(a.heuristic, b.heuristic);
    EXPECT_EQ(a.machines_improved, b.machines_improved);
    EXPECT_EQ(a.machines_unchanged, b.machines_unchanged);
    EXPECT_EQ(a.machines_worsened, b.machines_worsened);
    ASSERT_EQ(a.finish_deltas.size(), b.finish_deltas.size());
    for (std::size_t d = 0; d < a.finish_deltas.size(); ++d) {
      EXPECT_EQ(a.finish_deltas[d], b.finish_deltas[d]);  // bit-exact
    }
    EXPECT_EQ(a.has_mean_completion_delta, b.has_mean_completion_delta);
    if (a.has_mean_completion_delta) {
      EXPECT_EQ(a.mean_completion_delta, b.mean_completion_delta);
    }
    EXPECT_EQ(a.makespan_increased, b.makespan_increased);
    EXPECT_EQ(a.original_makespan, b.original_makespan);
  }
  ASSERT_EQ(back.quarantined.size(), 1u);
  EXPECT_EQ(back.quarantined[0].heuristic, "Sufferage");
  EXPECT_EQ(back.quarantined[0].site, "heuristic-map");
  EXPECT_EQ(back.quarantined[0].error, outcome.quarantined[0].error);
}

TEST(CheckpointCodec, RejectsCorruptInput) {
  const std::string good =
      hcsched::sim::encode_trial(CheckpointKey{"", 1, 0}, sample_outcome());
  EXPECT_TRUE(hcsched::sim::decode_trial(good).has_value());

  // The crash artifact this format is designed around: a line cut short.
  EXPECT_FALSE(
      hcsched::sim::decode_trial(good.substr(0, good.size() / 2)).has_value());
  EXPECT_FALSE(hcsched::sim::decode_trial("").has_value());
  EXPECT_FALSE(hcsched::sim::decode_trial("not json at all").has_value());
  EXPECT_FALSE(hcsched::sim::decode_trial("{}").has_value());
  EXPECT_FALSE(hcsched::sim::decode_trial(
                   R"({"v":2,"point":"","seed":1,"trial":0,"records":[]})")
                   .has_value());
}

// A line of 2,000,000 '[' once overflowed the reader's stack (SIGSEGV on
// --resume); past JsonValue::kMaxDepth it is an ordinary corrupt line.
TEST(CheckpointCodec, DeepNesting) {
  using hcsched::obs::JsonParseError;
  using hcsched::obs::JsonValue;
  EXPECT_FALSE(
      hcsched::sim::decode_trial(std::string(2'000'000, '[')).has_value());
  const std::size_t max = JsonValue::kMaxDepth;
  EXPECT_NO_THROW(
      (void)JsonValue::parse(std::string(max, '[') + std::string(max, ']')));
  EXPECT_THROW(
      (void)JsonValue::parse(std::string(max + 1, '[') +
                             std::string(max + 1, ']')),
      JsonParseError);
  std::string objects;
  for (std::size_t i = 0; i <= max; ++i) objects += "{\"a\":";
  objects += "0" + std::string(max + 1, '}');
  EXPECT_THROW((void)JsonValue::parse(objects), JsonParseError);
  EXPECT_THROW((void)JsonValue::parse("[1,"), JsonParseError);
}

// -- load -----------------------------------------------------------------

TEST(CheckpointLoad, MissingFileIsEmpty) {
  const CheckpointData data =
      hcsched::sim::load_checkpoint(tmp_path("does_not_exist"));
  EXPECT_TRUE(data.trials.empty());
  EXPECT_EQ(data.lines_read, 0u);
  EXPECT_EQ(data.corrupt_lines, 0u);
  EXPECT_EQ(data.find("", 1, 0), nullptr);
}

TEST(CheckpointLoad, SkipsCorruptLinesWithCount) {
  const std::string path = tmp_path("corrupt");
  const std::string a =
      hcsched::sim::encode_trial(CheckpointKey{"", 9, 0}, sample_outcome());
  const std::string b =
      hcsched::sim::encode_trial(CheckpointKey{"", 9, 1}, sample_outcome());
  // Corruption mid-file (an fsck-style scramble) and at the tail (a killed
  // process mid-append; no trailing newline).
  write_file(path, a + "\n" + "garbage{{{\n" + b + "\n" + b.substr(0, 20));

  const CheckpointData data = hcsched::sim::load_checkpoint(path);
  EXPECT_EQ(data.lines_read, 4u);
  EXPECT_EQ(data.corrupt_lines, 2u);
  EXPECT_EQ(data.trials.size(), 2u);
  EXPECT_NE(data.find("", 9, 0), nullptr);
  EXPECT_NE(data.find("", 9, 1), nullptr);
  EXPECT_EQ(data.find("", 9, 2), nullptr);
  std::remove(path.c_str());
}

TEST(CheckpointLoad, LaterDuplicateWins) {
  const std::string path = tmp_path("dup");
  TrialOutcome first = sample_outcome();
  first.records[0].machines_improved = 1;
  TrialOutcome second = sample_outcome();
  second.records[0].machines_improved = 9;
  const CheckpointKey key{"", 5, 2};
  write_file(path, hcsched::sim::encode_trial(key, first) + "\n" +
                       hcsched::sim::encode_trial(key, second) + "\n");

  const CheckpointData data = hcsched::sim::load_checkpoint(path);
  ASSERT_EQ(data.trials.size(), 1u);
  const TrialOutcome* stored = data.find("", 5, 2);
  ASSERT_NE(stored, nullptr);
  EXPECT_EQ(stored->records[0].machines_improved, 9u);
  std::remove(path.c_str());
}

// -- study-level resume ----------------------------------------------------

class CheckpointResumeTest : public testing::Test {
 protected:
  // Simulates a run interrupted after `k` completed trials: a first process
  // checkpoints trials 0..k-1, a second resumes the full study from its
  // file. Trial streams are derived from (seed, trial), so the first k
  // trials of the short run are exactly the first k of the full one.
  void expect_resume_bit_identical(StudyParams params, std::size_t k,
                                   const std::string& tag) {
    SCOPED_TRACE(tag);
    ThreadPool pool(3);
    const StudyReport clean =
        hcsched::sim::run_iterative_study_report(params, pool);

    const std::string path = tmp_path(tag);
    std::remove(path.c_str());
    {
      StudyParams first = params;
      first.trials = k;
      CheckpointWriter writer(path);
      StudyHooks hooks;
      hooks.checkpoint = &writer;
      hcsched::sim::run_iterative_study_report(first, pool, hooks);
    }

    const CheckpointData data = hcsched::sim::load_checkpoint(path);
    EXPECT_EQ(data.trials.size(), k);
    EXPECT_EQ(data.corrupt_lines, 0u);
    StudyHooks hooks;
    hooks.resume = &data;
    const StudyReport resumed =
        hcsched::sim::run_iterative_study_report(params, pool, hooks);
    EXPECT_EQ(resumed.trials_replayed, k);
    EXPECT_EQ(resumed.trials_completed, params.trials);
    EXPECT_FALSE(resumed.cancelled);
    expect_rows_identical(clean.rows, resumed.rows);
    std::remove(path.c_str());
  }
};

TEST_F(CheckpointResumeTest, BitIdenticalAcrossConsistencyClassesAndCutPoints) {
  const struct {
    Consistency consistency;
    const char* name;
  } classes[] = {{Consistency::kInconsistent, "inc"},
                 {Consistency::kSemiConsistent, "semi"},
                 {Consistency::kConsistent, "con"}};
  for (const auto& c : classes) {
    StudyParams params = small_params();
    params.consistency = c.consistency;
    // Boundary cut points: nothing checkpointed, one trial, all but one.
    for (const std::size_t k : {std::size_t{0}, std::size_t{1},
                                params.trials - 1}) {
      expect_resume_bit_identical(params, k,
                                  std::string(c.name) + "_k" +
                                      std::to_string(k));
    }
  }
}

TEST_F(CheckpointResumeTest, FullyCheckpointedRunReplaysEveryTrial) {
  StudyParams params = small_params();
  expect_resume_bit_identical(params, params.trials, "full");
}

TEST_F(CheckpointResumeTest, RandomTiesSurviveResume) {
  // kRandom ties draw from per-(trial, heuristic) streams; replaying some
  // trials from disk must not shift the streams of recomputed ones.
  StudyParams params = small_params();
  params.tie_policy = hcsched::rng::TiePolicy::kRandom;
  expect_resume_bit_identical(params, 3, "random_ties");
}

TEST_F(CheckpointResumeTest, CorruptTailDoesNotPoisonResume) {
  StudyParams params = small_params();
  ThreadPool pool(3);
  const StudyReport clean =
      hcsched::sim::run_iterative_study_report(params, pool);

  const std::string path = tmp_path("corrupt_tail");
  std::remove(path.c_str());
  {
    StudyParams first = params;
    first.trials = 4;
    CheckpointWriter writer(path);
    StudyHooks hooks;
    hooks.checkpoint = &writer;
    hcsched::sim::run_iterative_study_report(first, pool, hooks);
  }
  {
    // The killed-mid-append artifact: a truncated final line.
    std::ofstream out(path, std::ios::app);
    out << R"({"v":1,"point":"","seed":77,"tri)";
  }
  const CheckpointData data = hcsched::sim::load_checkpoint(path);
  EXPECT_EQ(data.corrupt_lines, 1u);
  EXPECT_EQ(data.trials.size(), 4u);
  StudyHooks hooks;
  hooks.resume = &data;
  const StudyReport resumed =
      hcsched::sim::run_iterative_study_report(params, pool, hooks);
  EXPECT_EQ(resumed.trials_replayed, 4u);
  expect_rows_identical(clean.rows, resumed.rows);
  std::remove(path.c_str());
}

TEST_F(CheckpointResumeTest, ResumeIgnoresOtherPointsSeedsAndTrials) {
  StudyParams params = small_params();
  ThreadPool pool(3);
  const StudyReport clean =
      hcsched::sim::run_iterative_study_report(params, pool);

  // A checkpoint from a *different* sweep cell, seed, and trial range:
  // nothing matches this study's keys, so everything recomputes.
  const std::string path = tmp_path("foreign");
  std::remove(path.c_str());
  {
    CheckpointWriter writer(path);
    writer.append_trial(CheckpointKey{"other point", params.seed, 0},
                        sample_outcome());
    writer.append_trial(CheckpointKey{"", params.seed + 1, 1},
                        sample_outcome());
    writer.append_trial(CheckpointKey{"", params.seed, params.trials + 5},
                        sample_outcome());
  }
  const CheckpointData data = hcsched::sim::load_checkpoint(path);
  StudyHooks hooks;
  hooks.resume = &data;
  const StudyReport resumed =
      hcsched::sim::run_iterative_study_report(params, pool, hooks);
  EXPECT_EQ(resumed.trials_replayed, 0u);
  expect_rows_identical(clean.rows, resumed.rows);
  std::remove(path.c_str());
}

TEST_F(CheckpointResumeTest, NonPrefixSubsetReplaysExactly) {
  // Replay runs before the computed trials are chunked, so a checkpoint
  // with holes (odd trials plus the last) leaves an interleaved pending
  // set; random ties pin that each recomputed trial keeps its own streams.
  StudyParams params = small_params();
  params.trials = 9;
  params.tie_policy = hcsched::rng::TiePolicy::kRandom;
  ThreadPool pool(3);
  const StudyReport clean =
      hcsched::sim::run_iterative_study_report(params, pool);

  const std::string path = tmp_path("non_prefix");
  std::remove(path.c_str());
  {
    CheckpointWriter writer(path);
    StudyHooks hooks;
    hooks.checkpoint = &writer;
    hcsched::sim::run_iterative_study_report(params, pool, hooks);
  }
  const CheckpointData full = hcsched::sim::load_checkpoint(path);
  ASSERT_EQ(full.trials.size(), params.trials);
  CheckpointData subset;
  for (const auto& [key, outcome] : full.trials) {
    if (key.trial % 2 == 1 || key.trial + 1 == params.trials) {
      subset.trials.emplace(key, outcome);
    }
  }
  ASSERT_EQ(subset.trials.size(), 5u);  // 1, 3, 5, 7, 8

  using hcsched::obs::Counter;
  const std::uint64_t replayed_before =
      hcsched::obs::counters::read(Counter::kCheckpointTrialsReplayed);
  StudyHooks hooks;
  hooks.resume = &subset;
  const StudyReport resumed =
      hcsched::sim::run_iterative_study_report(params, pool, hooks);
  EXPECT_EQ(resumed.trials_replayed, 5u);
  EXPECT_EQ(resumed.trials_completed, params.trials);
  EXPECT_FALSE(resumed.cancelled);
  expect_rows_identical(clean.rows, resumed.rows);
  if (hcsched::obs::kTraceCompiledIn) {
    EXPECT_EQ(hcsched::obs::counters::read(
                  Counter::kCheckpointTrialsReplayed) -
                  replayed_before,
              5u);
  }
  std::remove(path.c_str());
}

TEST_F(CheckpointResumeTest, PreFiredCancelReplaysAndComputesNothing) {
  StudyParams params = small_params();
  ThreadPool pool(3);
  const std::string path = tmp_path("pre_fired");
  std::remove(path.c_str());
  {
    StudyParams first = params;
    first.trials = 4;
    CheckpointWriter writer(path);
    StudyHooks hooks;
    hooks.checkpoint = &writer;
    hcsched::sim::run_iterative_study_report(first, pool, hooks);
  }
  const CheckpointData data = hcsched::sim::load_checkpoint(path);
  const hcsched::core::CancelToken token;
  token.request_cancel();
  StudyHooks hooks;
  hooks.resume = &data;
  hooks.cancel = &token;
  const StudyReport report =
      hcsched::sim::run_iterative_study_report(params, pool, hooks);
  EXPECT_EQ(report.trials_completed, 0u);
  EXPECT_EQ(report.trials_replayed, 0u);
  EXPECT_TRUE(report.cancelled);
  std::remove(path.c_str());
}

// -- sweep-level resume ----------------------------------------------------

TEST(SweepResume, PointLabelsNamespaceKeysAndReplayExactly) {
  StudyParams base = small_params();
  base.trials = 3;
  std::vector<hcsched::sim::SweepPoint> points(2);
  points[0].label = "inconsistent HiHi";
  points[0].consistency = Consistency::kInconsistent;
  points[1].label = "consistent LoLo";
  points[1].consistency = Consistency::kConsistent;
  points[1].v_task = 0.3;
  points[1].v_machine = 0.3;

  ThreadPool pool(3);
  const auto clean = hcsched::sim::run_sweep_report(base, points, pool);

  const std::string path = tmp_path("sweep");
  std::remove(path.c_str());
  {
    CheckpointWriter writer(path);
    StudyHooks hooks;
    hooks.checkpoint = &writer;
    hcsched::sim::run_sweep_report(base, points, pool, hooks);
  }
  const CheckpointData data = hcsched::sim::load_checkpoint(path);
  EXPECT_EQ(data.trials.size(), 2 * base.trials);
  for (const auto& point : points) {
    for (std::size_t t = 0; t < base.trials; ++t) {
      EXPECT_NE(data.find(point.label, base.seed, t), nullptr)
          << point.label << " trial " << t;
    }
  }

  StudyHooks hooks;
  hooks.resume = &data;
  const auto resumed = hcsched::sim::run_sweep_report(base, points, pool, hooks);
  ASSERT_EQ(resumed.size(), clean.size());
  for (std::size_t p = 0; p < resumed.size(); ++p) {
    SCOPED_TRACE(points[p].label);
    EXPECT_EQ(resumed[p].report.trials_replayed, base.trials);
    expect_rows_identical(clean[p].report.rows, resumed[p].report.rows);
  }
  std::remove(path.c_str());
}

// -- observability ---------------------------------------------------------

TEST(CheckpointCounters, WrittenReplayedAndCorruptAreCounted) {
  if (!hcsched::obs::kTraceCompiledIn) {
    GTEST_SKIP() << "counters compiled out";
  }
  StudyParams params = small_params();
  params.trials = 4;
  ThreadPool pool(2);
  const std::string path = tmp_path("counters");
  std::remove(path.c_str());

  using hcsched::obs::Counter;
  using hcsched::obs::counters::read;
  const std::uint64_t written_before = read(Counter::kCheckpointTrialsWritten);
  const std::uint64_t replayed_before =
      read(Counter::kCheckpointTrialsReplayed);
  const std::uint64_t corrupt_before = read(Counter::kCheckpointCorruptLines);
  {
    CheckpointWriter writer(path);
    StudyHooks hooks;
    hooks.checkpoint = &writer;
    hcsched::sim::run_iterative_study_report(params, pool, hooks);
  }
  {
    std::ofstream out(path, std::ios::app);
    out << "garbage\n";
  }
  const CheckpointData data = hcsched::sim::load_checkpoint(path);
  StudyHooks hooks;
  hooks.resume = &data;
  hcsched::sim::run_iterative_study_report(params, pool, hooks);

  EXPECT_EQ(read(Counter::kCheckpointTrialsWritten) - written_before,
            params.trials);
  EXPECT_EQ(read(Counter::kCheckpointTrialsReplayed) - replayed_before,
            params.trials);
  EXPECT_EQ(read(Counter::kCheckpointCorruptLines) - corrupt_before, 1u);
  std::remove(path.c_str());
}

}  // namespace
