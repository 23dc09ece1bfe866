// Differential test of Genitor (paper §3.1) against the Member-vector
// implementation it replaced (tests/support/legacy_genitor.*). For the same
// config and inputs both must decode the same schedule, report bit-equal
// RunStats and increment the Genitor counters by the same amounts: the slab
// population, in-place operators and contiguous-table fitness may change
// speed, never a result.
#include "ga/genitor.hpp"

#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "core/cancel.hpp"
#include "core/iterative.hpp"
#include "etc/cvb_generator.hpp"
#include "ga/chromosome.hpp"
#include "obs/counters.hpp"
#include "support/legacy_genitor.hpp"

namespace {

using hcsched::core::CancelToken;
using hcsched::core::IterativeMinimizer;
using hcsched::core::IterativeResult;
using hcsched::core::ScopedCancel;
using hcsched::etc::CvbEtcGenerator;
using hcsched::etc::CvbParams;
using hcsched::etc::EtcMatrix;
using hcsched::ga::Genitor;
using hcsched::ga::GenitorConfig;
using hcsched::obs::Counter;
using hcsched::rng::Rng;
using hcsched::rng::TieBreaker;
using hcsched::sched::MachineId;
using hcsched::sched::Problem;
using hcsched::sched::Schedule;
using hcsched::sched::TaskId;
using LegacyGenitor = hcsched::legacy::Genitor;

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

EtcMatrix cvb_matrix(std::uint64_t seed, std::size_t tasks,
                     std::size_t machines) {
  Rng rng(seed);
  CvbParams p;
  p.num_tasks = tasks;
  p.num_machines = machines;
  return CvbEtcGenerator(p).generate(rng);
}

EtcMatrix constant_matrix(std::size_t tasks, std::size_t machines) {
  EtcMatrix m(tasks, machines);
  for (std::size_t t = 0; t < tasks; ++t) {
    for (std::size_t j = 0; j < machines; ++j) {
      m.at(static_cast<TaskId>(t), static_cast<MachineId>(j)) = 3.0;
    }
  }
  return m;
}

/// A sub-problem that exercises the gather: tasks in a rotated order,
/// machines reversed, and non-zero initial ready times.
Problem shuffled_problem(const EtcMatrix& m, std::uint64_t seed) {
  std::vector<TaskId> tasks;
  for (std::size_t t = 0; t < m.num_tasks(); ++t) {
    tasks.push_back(static_cast<TaskId>((t + 1) % m.num_tasks()));
  }
  std::vector<MachineId> machines;
  std::vector<double> ready;
  Rng rng(seed);
  for (std::size_t j = m.num_machines(); j-- > 0;) {
    machines.push_back(static_cast<MachineId>(j));
    ready.push_back(rng.uniform01() * 50.0);
  }
  return Problem(m, std::move(tasks), std::move(machines), std::move(ready));
}

struct Outcome {
  Schedule schedule;
  Genitor::RunStats stats;
  std::array<std::uint64_t, 3> counts{};
};

std::array<std::uint64_t, 3> ga_counts() {
  using hcsched::obs::counters::read;
  return {read(Counter::kGaSteps), read(Counter::kGaCrossovers),
          read(Counter::kGaMutations)};
}

template <typename G>
Outcome run_one(const G& genitor, const Problem& p, const Schedule* seed) {
  const std::array<std::uint64_t, 3> before = ga_counts();
  TieBreaker ties;
  Schedule s = seed != nullptr ? genitor.map_seeded(p, ties, seed)
                               : genitor.map(p, ties);
  std::array<std::uint64_t, 3> delta = ga_counts();
  for (std::size_t i = 0; i < delta.size(); ++i) delta[i] -= before[i];
  return Outcome{std::move(s), genitor.last_run(), delta};
}

void expect_same(const Outcome& slab, const Outcome& legacy,
                 const std::string& where) {
  EXPECT_TRUE(slab.schedule.same_mapping(legacy.schedule)) << where;
  EXPECT_EQ(bits(slab.schedule.makespan()), bits(legacy.schedule.makespan()))
      << where;
  EXPECT_EQ(slab.stats.steps_executed, legacy.stats.steps_executed) << where;
  EXPECT_EQ(slab.stats.improvements, legacy.stats.improvements) << where;
  EXPECT_EQ(bits(slab.stats.initial_best), bits(legacy.stats.initial_best))
      << where;
  EXPECT_EQ(bits(slab.stats.final_best), bits(legacy.stats.final_best))
      << where;
  EXPECT_EQ(slab.counts, legacy.counts) << where;
}

/// Both implementations on `p`, via map() and via map_seeded() with a
/// random seed mapping.
void compare_on(const GenitorConfig& cfg, const Problem& p,
                const std::string& where) {
  const Genitor slab(cfg);
  const LegacyGenitor legacy(cfg);
  expect_same(run_one(slab, p, nullptr), run_one(legacy, p, nullptr),
              where + " map");
  Rng rng(cfg.seed ^ 0x5EEDULL);
  const Schedule seed = hcsched::ga::Chromosome::random(p, rng).decode(p);
  expect_same(run_one(slab, p, &seed), run_one(legacy, p, &seed),
              where + " map_seeded");
}

struct Variant {
  const char* name;
  GenitorConfig config;
};

std::vector<Variant> variants() {
  GenitorConfig base;
  base.population_size = 30;
  base.total_steps = 400;
  base.seed = 2007;
  std::vector<Variant> out{{"base", base}};
  GenitorConfig v = base;
  v.seed_with_minmin = false;
  out.push_back({"no-minmin", v});
  v = base;
  v.selection_bias = 1.0;
  out.push_back({"uniform-selection", v});
  v = base;
  v.selection_bias = 2.0;
  out.push_back({"max-selection", v});
  v = base;
  v.population_size = 2;
  out.push_back({"population-2", v});
  v = base;
  v.population_size = 2;
  v.seed_with_minmin = false;
  out.push_back({"population-2-no-minmin", v});
  v = base;
  v.total_steps = 100000;
  v.stop_after_stale = 5;
  out.push_back({"stop-after-stale", v});
  return out;
}

class GenitorDifferential
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t>> {};

TEST_P(GenitorDifferential, SameScheduleStatsAndCounters) {
  const auto [n, m] = GetParam();
  const EtcMatrix matrix = cvb_matrix(1000 + 16 * n + m, n, m);
  const Problem full = Problem::full(matrix);
  const Problem shuffled = shuffled_problem(matrix, n * 31 + m);
  for (const Variant& v : variants()) {
    const std::string where = std::to_string(n) + "x" + std::to_string(m) +
                              " " + v.name;
    compare_on(v.config, full, where + " full");
    compare_on(v.config, shuffled, where + " shuffled+ready");
  }
}

// All cells equal: fitness ties everywhere (on one machine every member
// ties), so the insert-before-equals rank order alone decides which
// member is selected, evicted and returned.
TEST_P(GenitorDifferential, AllEqualEtcTieOrder) {
  const auto [n, m] = GetParam();
  const EtcMatrix matrix = constant_matrix(n, m);
  const Problem full = Problem::full(matrix);
  const Problem shuffled = shuffled_problem(matrix, n + m);
  for (const Variant& v : variants()) {
    const std::string where = std::to_string(n) + "x" + std::to_string(m) +
                              " equal-etc " + v.name;
    compare_on(v.config, full, where + " full");
    compare_on(v.config, shuffled, where + " shuffled+ready");
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GenitorDifferential,
    ::testing::Combine(::testing::Values<std::size_t>(1, 2, 24, 128),
                       ::testing::Values<std::size_t>(1, 6, 16)));

TEST(GenitorDifferentialCancel, CancelledBeforeTheFirstStep) {
  const EtcMatrix matrix = cvb_matrix(77, 24, 6);
  const Problem p = Problem::full(matrix);
  GenitorConfig cfg;
  cfg.population_size = 30;
  CancelToken token;
  token.request_cancel();
  const ScopedCancel scope(token);
  const Outcome slab = run_one(Genitor(cfg), p, nullptr);
  const Outcome legacy = run_one(LegacyGenitor(cfg), p, nullptr);
  EXPECT_EQ(slab.stats.steps_executed, 0u);
  expect_same(slab, legacy, "pre-cancelled");
}

// A run cut by a deadline after some k steps must equal an uncancelled run
// of exactly k steps in the other implementation, whatever k the clock
// produced — each side's anytime state is checked at an arbitrary cut.
TEST(GenitorDifferentialCancel, CancelledMidRun) {
  const EtcMatrix matrix = cvb_matrix(78, 128, 16);
  const Problem p = shuffled_problem(matrix, 5);
  GenitorConfig cfg;
  cfg.population_size = 30;
  cfg.total_steps = 100000000;

  const auto cut_run = [&](const auto& genitor) {
    CancelToken token;
    token.cancel_after(std::chrono::milliseconds(20));
    const ScopedCancel scope(token);
    return run_one(genitor, p, nullptr);
  };

  const Outcome slab_cut = cut_run(Genitor(cfg));
  ASSERT_LT(slab_cut.stats.steps_executed, cfg.total_steps);
  EXPECT_GT(slab_cut.stats.steps_executed, 0u);
  GenitorConfig fixed = cfg;
  fixed.total_steps = slab_cut.stats.steps_executed;
  expect_same(slab_cut, run_one(LegacyGenitor(fixed), p, nullptr),
              "slab cut at " + std::to_string(fixed.total_steps));

  const Outcome legacy_cut = cut_run(LegacyGenitor(cfg));
  ASSERT_LT(legacy_cut.stats.steps_executed, cfg.total_steps);
  fixed.total_steps = legacy_cut.stats.steps_executed;
  expect_same(run_one(Genitor(fixed), p, nullptr), legacy_cut,
              "legacy cut at " + std::to_string(fixed.total_steps));
}

// The paper's protocol end to end: seeded iterative Genitor with the
// default configuration, every iteration compared.
void compare_iterative(std::size_t n, std::size_t m, std::uint64_t seed) {
  const EtcMatrix matrix = cvb_matrix(seed, n, m);
  const Problem p = Problem::full(matrix);
  const Genitor slab;
  const LegacyGenitor legacy;
  const IterativeMinimizer minimizer;
  TieBreaker t1;
  TieBreaker t2;
  const IterativeResult a = minimizer.run(slab, p, t1);
  const IterativeResult b = minimizer.run(legacy, p, t2);
  ASSERT_EQ(a.iterations.size(), b.iterations.size());
  for (std::size_t i = 0; i < a.iterations.size(); ++i) {
    const auto& x = a.iterations[i];
    const auto& y = b.iterations[i];
    EXPECT_TRUE(x.schedule.same_mapping(y.schedule)) << "iteration " << i;
    EXPECT_EQ(x.makespan_machine, y.makespan_machine) << "iteration " << i;
    EXPECT_EQ(bits(x.makespan), bits(y.makespan)) << "iteration " << i;
  }
  ASSERT_EQ(a.final_finishing_times.size(), b.final_finishing_times.size());
  for (std::size_t j = 0; j < a.final_finishing_times.size(); ++j) {
    EXPECT_EQ(a.final_finishing_times[j].first,
              b.final_finishing_times[j].first);
    EXPECT_EQ(bits(a.final_finishing_times[j].second),
              bits(b.final_finishing_times[j].second))
        << "machine " << a.final_finishing_times[j].first;
  }
}

TEST(GenitorDifferentialIterative, PaperCell24x6) {
  compare_iterative(24, 6, 2007);
}

TEST(GenitorDifferentialIterative, Large128x16) {
  compare_iterative(128, 16, 2008);
}

}  // namespace
