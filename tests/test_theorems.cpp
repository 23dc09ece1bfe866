// Property tests for the paper's theorems (§3.2-3.4) and the Genitor
// monotonicity claim (§3.1).
#include "core/theorems.hpp"

#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "core/paper_examples.hpp"
#include "core/witness.hpp"
#include "etc/cvb_generator.hpp"
#include "ga/genitor.hpp"
#include "heuristics/registry.hpp"

namespace {

using hcsched::core::check_mapping_invariance;
using hcsched::core::check_monotone_makespan;
using hcsched::core::IterativeMinimizer;
using hcsched::core::IterativeOptions;
using hcsched::core::verify_theorem;
using hcsched::etc::EtcMatrix;
using hcsched::rng::Rng;
using hcsched::rng::TieBreaker;
using hcsched::sched::Problem;

EtcMatrix continuous_matrix(std::uint64_t seed, std::size_t tasks,
                            std::size_t machines) {
  Rng rng(seed);
  hcsched::etc::CvbParams p;
  p.num_tasks = tasks;
  p.num_machines = machines;
  return hcsched::etc::CvbEtcGenerator(p).generate(rng);
}

/// Small-integer matrices deliberately provoke ties, exercising the
/// deterministic tie-breaking path of the theorems.
EtcMatrix tie_rich_matrix(std::uint64_t seed, std::size_t tasks,
                          std::size_t machines) {
  Rng rng(seed);
  EtcMatrix m(tasks, machines);
  for (std::size_t t = 0; t < tasks; ++t) {
    for (std::size_t j = 0; j < machines; ++j) {
      m.at(static_cast<int>(t), static_cast<int>(j)) =
          static_cast<double>(rng.between(1, 4));
    }
  }
  return m;
}

// The theorems: Min-Min, MCT and MET mappings are invariant across
// iterations under deterministic tie-breaking. Swept over both continuous
// (tie-free) and tie-rich integer matrices.
class TheoremTest
    : public ::testing::TestWithParam<std::tuple<std::string, int>> {};

TEST_P(TheoremTest, MappingInvariantUnderDeterministicTies) {
  const auto& [name, seed] = GetParam();
  const auto heuristic = hcsched::heuristics::make_heuristic(name);
  {
    const EtcMatrix m =
        continuous_matrix(static_cast<std::uint64_t>(seed), 18, 5);
    const auto report = verify_theorem(*heuristic, Problem::full(m));
    EXPECT_TRUE(report.holds) << name << ": " << report.violation;
  }
  {
    const EtcMatrix m =
        tie_rich_matrix(static_cast<std::uint64_t>(seed) + 1000, 14, 4);
    const auto report = verify_theorem(*heuristic, Problem::full(m));
    EXPECT_TRUE(report.holds) << name << " (tie-rich): " << report.violation;
  }
}

INSTANTIATE_TEST_SUITE_P(
    MinMinMctMet, TheoremTest,
    ::testing::Combine(::testing::Values(std::string("Min-Min"),
                                         std::string("MCT"),
                                         std::string("MET")),
                       ::testing::Range(1, 26)),
    [](const ::testing::TestParamInfo<std::tuple<std::string, int>>& param_info) {
      std::string name = std::get<0>(param_info.param);
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name + "_seed" + std::to_string(std::get<1>(param_info.param));
    });

TEST(Theorems, InvarianceImpliesNoMakespanIncrease) {
  // Direct corollary check on a batch of tie-rich instances.
  for (const char* name : {"Min-Min", "MCT", "MET"}) {
    const auto heuristic = hcsched::heuristics::make_heuristic(name);
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
      const EtcMatrix m = tie_rich_matrix(seed, 10, 3);
      TieBreaker det;
      const auto result =
          IterativeMinimizer{IterativeOptions{.use_seeding = false}}.run(
              *heuristic, Problem::full(m), det);
      EXPECT_FALSE(result.makespan_increased()) << name << " seed " << seed;
      EXPECT_TRUE(hcsched::core::no_machine_worsened(result))
          << name << " seed " << seed;
    }
  }
}

TEST(Theorems, SwaKpbSufferageAreNotInvariant) {
  // The paper's §3.5-3.7 claims: witnesses exist where the mapping changes
  // (and the makespan increases) even with deterministic ties. Use the
  // witness search to exhibit one for each heuristic.
  for (const char* name : {"SWA", "KPB", "Sufferage"}) {
    const auto heuristic = hcsched::heuristics::make_heuristic(name);
    hcsched::core::WitnessSpec spec;
    spec.num_tasks = 6;
    spec.num_machines = 3;
    spec.half_integers = true;
    Rng rng(2026);
    const auto witness = hcsched::core::find_makespan_increase_witness(
        *heuristic, spec, rng, 300000);
    ASSERT_TRUE(witness.has_value()) << name;
    const auto report = check_mapping_invariance(witness->result);
    EXPECT_FALSE(report.holds) << name;
    EXPECT_TRUE(witness->result.makespan_increased()) << name;
  }
}

TEST(Theorems, GenitorWithSeedingIsMonotone) {
  hcsched::ga::GenitorConfig cfg;
  cfg.population_size = 30;
  cfg.total_steps = 200;
  const hcsched::ga::Genitor genitor(cfg);
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const EtcMatrix m = continuous_matrix(seed + 500, 16, 4);
    TieBreaker ties;
    const auto result =
        IterativeMinimizer{IterativeOptions{.use_seeding = true}}.run(
            genitor, Problem::full(m), ties);
    const auto report = check_monotone_makespan(result);
    EXPECT_TRUE(report.holds) << "seed " << seed << ": " << report.violation;
    EXPECT_FALSE(result.makespan_increased()) << "seed " << seed;
  }
}

// The same §3.1 claim with the default GenitorConfig (100 members, 2000
// steps): seeding plus elitism keep every iteration's makespan at or below
// the original mapping's, at the paper's cell and well beyond it.
void expect_default_genitor_monotone(std::size_t tasks, std::size_t machines,
                                     std::uint64_t seed) {
  const hcsched::ga::Genitor genitor;
  const EtcMatrix m = continuous_matrix(seed, tasks, machines);
  TieBreaker ties;
  const auto result =
      IterativeMinimizer{IterativeOptions{.use_seeding = true}}.run(
          genitor, Problem::full(m), ties);
  const auto report = check_monotone_makespan(result);
  EXPECT_TRUE(report.holds) << tasks << "x" << machines << " seed " << seed
                            << ": " << report.violation;
  EXPECT_FALSE(result.makespan_increased()) << "seed " << seed;
}

TEST(Theorems, DefaultGenitorIsMonotoneAt512x32) {
  for (std::uint64_t seed = 1; seed <= 2; ++seed) {
    expect_default_genitor_monotone(512, 32, seed + 700);
  }
}

TEST(Theorems, DefaultGenitorIsMonotoneAt24x6Over50Seeds) {
  for (std::uint64_t seed = 1; seed <= 50; ++seed) {
    expect_default_genitor_monotone(24, 6, seed + 800);
  }
}

TEST(Theorems, CheckMonotoneDetectsViolations) {
  // Feed it a result that *does* increase: the MET paper example.
  const auto example = hcsched::core::met_example();
  const auto result = hcsched::core::run_paper_example(example);
  EXPECT_FALSE(check_monotone_makespan(result).holds);
}

TEST(Theorems, CheckInvarianceDetectsMovedTask) {
  const auto example = hcsched::core::mct_example();
  const auto result = hcsched::core::run_paper_example(example);
  const auto report = check_mapping_invariance(result);
  EXPECT_FALSE(report.holds);
  EXPECT_FALSE(report.violation.empty());
}

}  // namespace
