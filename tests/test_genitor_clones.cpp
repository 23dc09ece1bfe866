// Clone inheritance in Genitor (docs/ALGORITHMS.md, "Clone inheritance"): a
// crossover offspring or mutant whose genes equal a parent's takes the
// parent's makespan instead of a fresh fitness pass. The classifier is
// checked against a brute-force oracle at every cut, and each branch is
// driven through whole runs compared with the legacy Genitor
// (tests/support/legacy_genitor.*), which evaluates every offspring.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "etc/cvb_generator.hpp"
#include "ga/genitor.hpp"
#include "ga/operators.hpp"
#include "obs/counters.hpp"
#include "support/legacy_genitor.hpp"

namespace {

using hcsched::etc::CvbEtcGenerator;
using hcsched::etc::CvbParams;
using hcsched::etc::EtcMatrix;
using hcsched::ga::Genitor;
using hcsched::ga::GenitorConfig;
using hcsched::ga::Offspring;
using hcsched::ga::offspring_of;
using hcsched::obs::Counter;
using hcsched::rng::Rng;
using hcsched::rng::TieBreaker;
using hcsched::sched::MachineId;
using hcsched::sched::Problem;
using hcsched::sched::TaskId;
using Genes = std::vector<std::uint32_t>;

/// What the offspring of `a` x `b` at `cut` are, by building them.
Offspring oracle(const Genes& a, const Genes& b, std::size_t cut) {
  Genes x = a;
  Genes y = b;
  for (std::size_t i = 0; i < cut; ++i) std::swap(x[i], y[i]);
  if (x == a && y == b) return Offspring::kSameAsParents;
  if (x == b && y == a) return Offspring::kSwappedParents;
  return Offspring::kNew;
}

TEST(GenitorClones, OracleEveryCut) {
  // Parents that differ only at genes 2 and 4: cuts up to 2 leave the
  // parents, cuts from 5 swap them, cuts 3 and 4 mix them.
  const Genes a = {0, 1, 2, 3, 4, 5, 6, 7};
  const Genes b = {0, 1, 5, 3, 6, 5, 6, 7};
  for (std::size_t cut = 0; cut <= a.size(); ++cut) {
    const Offspring want = cut <= 2   ? Offspring::kSameAsParents
                           : cut >= 5 ? Offspring::kSwappedParents
                                      : Offspring::kNew;
    EXPECT_EQ(offspring_of(a, b, cut), want) << "cut " << cut;
    EXPECT_EQ(oracle(a, b, cut), want) << "cut " << cut;
  }
  // Every pair of 2-slot chromosomes up to 5 genes, at every cut.
  for (std::size_t n = 0; n <= 5; ++n) {
    for (std::uint32_t bits_a = 0; bits_a < (1u << n); ++bits_a) {
      for (std::uint32_t bits_b = 0; bits_b < (1u << n); ++bits_b) {
        Genes x(n);
        Genes y(n);
        for (std::size_t i = 0; i < n; ++i) {
          x[i] = (bits_a >> i) & 1u;
          y[i] = (bits_b >> i) & 1u;
        }
        for (std::size_t cut = 0; cut <= n; ++cut) {
          ASSERT_EQ(offspring_of(x, y, cut), oracle(x, y, cut))
              << "n " << n << " a " << bits_a << " b " << bits_b << " cut "
              << cut;
        }
      }
    }
  }
  EXPECT_THROW((void)offspring_of(a, Genes(3), 1), std::invalid_argument);
  EXPECT_THROW((void)offspring_of(a, b, a.size() + 1), std::invalid_argument);

  // crossover() reports the cut it drew, and 0 when n < 2 draws nothing.
  Rng rng(3);
  for (std::size_t n : {0u, 1u}) {
    Genes x(n, 1);
    Genes y(n, 2);
    Rng before = rng;
    EXPECT_EQ(hcsched::ga::crossover(std::span(x), std::span(y), rng), 0u);
    EXPECT_EQ(rng.next_u64(), before.next_u64()) << "n < 2 draws nothing";
  }
  for (int i = 0; i < 50; ++i) {
    Genes x = {0, 0, 0, 0, 0, 0};
    Genes y = {1, 1, 1, 1, 1, 1};
    const std::size_t cut =
        hcsched::ga::crossover(std::span(x), std::span(y), rng);
    ASSERT_GE(cut, 1u);
    ASSERT_LE(cut, 5u);
    for (std::size_t g = 0; g < x.size(); ++g) {
      EXPECT_EQ(x[g], g < cut ? 1u : 0u);
      EXPECT_EQ(y[g], g < cut ? 0u : 1u);
    }
  }
}

EtcMatrix cvb_matrix(std::uint64_t seed, std::size_t tasks,
                     std::size_t machines) {
  Rng rng(seed);
  CvbParams p;
  p.num_tasks = tasks;
  p.num_machines = machines;
  return CvbEtcGenerator(p).generate(rng);
}

EtcMatrix equal_matrix(std::size_t tasks, std::size_t machines) {
  EtcMatrix m(tasks, machines);
  for (std::size_t t = 0; t < tasks; ++t) {
    for (std::size_t j = 0; j < machines; ++j) {
      m.at(static_cast<TaskId>(t), static_cast<MachineId>(j)) = 3.0;
    }
  }
  return m;
}

/// `m` with every machine busy for a distinct time already, so inherited
/// makespans depend on the initial ready times too.
Problem busy_problem(const EtcMatrix& m) {
  std::vector<TaskId> tasks;
  for (std::size_t t = 0; t < m.num_tasks(); ++t) {
    tasks.push_back(static_cast<TaskId>(t));
  }
  std::vector<MachineId> machines;
  std::vector<double> ready;
  for (std::size_t j = 0; j < m.num_machines(); ++j) {
    machines.push_back(static_cast<MachineId>(j));
    ready.push_back(0.7 * static_cast<double>(j) + 0.1);
  }
  return Problem(m, std::move(tasks), std::move(machines), std::move(ready));
}

std::uint64_t evaluations() {
  return hcsched::obs::counters::read(Counter::kGaEvaluations);
}

/// Runs both implementations on `p`; returns the new one's fitness passes.
std::uint64_t expect_matches_legacy(const GenitorConfig& cfg, const Problem& p,
                                    const std::string& where) {
  const Genitor genitor(cfg);
  const hcsched::legacy::Genitor legacy(cfg);
  TieBreaker t1;
  TieBreaker t2;
  const std::uint64_t before = evaluations();
  const auto got = genitor.map(p, t1);
  const std::uint64_t passes = evaluations() - before;
  const auto want = legacy.map(p, t2);
  EXPECT_TRUE(got.same_mapping(want)) << where;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got.makespan()),
            std::bit_cast<std::uint64_t>(want.makespan()))
      << where;
  const auto& a = genitor.last_run();
  const auto& b = legacy.last_run();
  EXPECT_EQ(a.steps_executed, b.steps_executed) << where;
  EXPECT_EQ(a.improvements, b.improvements) << where;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.initial_best),
            std::bit_cast<std::uint64_t>(b.initial_best))
      << where;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.final_best),
            std::bit_cast<std::uint64_t>(b.final_best))
      << where;
  return passes;
}

// One machine: every chromosome is all zeros, so every crossover keeps its
// parents and every mutation redraws the gene's own slot. Only the initial
// population is ever evaluated.
TEST(GenitorClones, SingleMachineEvaluatesOnlyTheInitialPopulation) {
  GenitorConfig cfg;
  cfg.population_size = 6;
  cfg.total_steps = 300;
  for (std::size_t n : {1u, 2u, 24u}) {
    const EtcMatrix m = cvb_matrix(40 + n, n, 1);
    const std::uint64_t passes = expect_matches_legacy(
        cfg, busy_problem(m), "n " + std::to_string(n));
    if (hcsched::obs::kTraceCompiledIn) {
      EXPECT_EQ(passes, cfg.population_size) << "n " << n;
    }
  }
}

// Converged populations (Min-Min seed on an all-equal table, and small
// populations on CVB tables) drive the same-parents, swapped-parents and
// no-op-mutation branches thousands of times; n = 1 never draws a cut.
TEST(GenitorClones, ConvergedPopulationsMatchLegacy) {
  struct Shape {
    std::size_t n;
    std::size_t m;
    bool equal;
  };
  const Shape shapes[] = {{1, 3, false},  {2, 2, false},  {3, 2, true},
                          {24, 6, true},  {24, 2, false}, {24, 6, false},
                          {64, 16, false}};
  for (const Shape& s : shapes) {
    const EtcMatrix m =
        s.equal ? equal_matrix(s.n, s.m) : cvb_matrix(7 * s.n + s.m, s.n, s.m);
    for (const std::size_t population : {2u, 4u, 12u}) {
      for (const double bias : {1.0, 1.5, 2.0}) {
        GenitorConfig cfg;
        cfg.population_size = population;
        cfg.total_steps = 800;
        cfg.selection_bias = bias;
        cfg.seed = 11 * s.n + s.m + population;
        const std::string where =
            std::to_string(s.n) + "x" + std::to_string(s.m) +
            (s.equal ? " equal" : " cvb") + " pop " +
            std::to_string(population) + " bias " + std::to_string(bias);
        const Problem full = Problem::full(m);
        const std::uint64_t passes = expect_matches_legacy(cfg, full, where);
        expect_matches_legacy(cfg, busy_problem(m), where + " busy");
        if (hcsched::obs::kTraceCompiledIn) {
          // The legacy Genitor runs every one of these passes; at least
          // one seed or random member is always evaluated.
          const std::uint64_t every =
              population + 3 * static_cast<std::uint64_t>(cfg.total_steps);
          EXPECT_GE(passes, population) << where;
          EXPECT_LT(passes, every) << where;
          // n = 1: no crossover offspring is ever evaluated.
          if (s.n == 1) {
            EXPECT_LE(passes, population + cfg.total_steps) << where;
          }
        }
      }
    }
  }
}

}  // namespace
