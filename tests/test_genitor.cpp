#include "ga/genitor.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "etc/cvb_generator.hpp"
#include "ga/operators.hpp"
#include "ga/population.hpp"
#include "heuristics/minmin.hpp"
#include "sched/validate.hpp"

namespace {

using hcsched::etc::CvbEtcGenerator;
using hcsched::etc::CvbParams;
using hcsched::etc::EtcMatrix;
using hcsched::ga::Chromosome;
using hcsched::ga::Genitor;
using hcsched::ga::GenitorConfig;
using hcsched::ga::Population;
using hcsched::rng::Rng;
using hcsched::rng::TieBreaker;
using hcsched::sched::Problem;
using hcsched::sched::Schedule;

EtcMatrix random_matrix(std::uint64_t seed, std::size_t tasks = 20,
                        std::size_t machines = 4) {
  Rng rng(seed);
  CvbParams p;
  p.num_tasks = tasks;
  p.num_machines = machines;
  return CvbEtcGenerator(p).generate(rng);
}

TEST(Chromosome, EvaluateMatchesDecodedSchedule) {
  const EtcMatrix m = random_matrix(1);
  const Problem p = Problem::full(m);
  Rng rng(2);
  for (int i = 0; i < 10; ++i) {
    const Chromosome c = Chromosome::random(p, rng);
    EXPECT_NEAR(c.evaluate(p), c.decode(p).makespan(), 1e-9);
  }
}

TEST(Chromosome, FromScheduleRoundTrips) {
  const EtcMatrix m = random_matrix(3);
  const Problem p = Problem::full(m);
  Rng rng(4);
  const Chromosome c = Chromosome::random(p, rng);
  const Schedule s = c.decode(p);
  const Chromosome back = Chromosome::from_schedule(p, s);
  EXPECT_EQ(c, back);
}

TEST(Chromosome, SizeMismatchThrows) {
  const EtcMatrix m = random_matrix(5);
  const Problem p = Problem::full(m);
  Chromosome wrong(std::vector<std::uint32_t>{0, 1});
  EXPECT_THROW((void)wrong.evaluate(p), std::invalid_argument);
  EXPECT_THROW((void)wrong.decode(p), std::invalid_argument);
}

TEST(Operators, CrossoverExchangesPrefix) {
  Chromosome a(std::vector<std::uint32_t>{0, 0, 0, 0, 0});
  Chromosome b(std::vector<std::uint32_t>{1, 1, 1, 1, 1});
  Rng rng(6);
  const auto [x, y] = hcsched::ga::crossover(a, b, rng);
  // Per-position: each offspring holds one parent's gene and the genes are
  // complementary.
  std::size_t boundary_changes = 0;
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(x.genes()[i] + y.genes()[i], 1u);
    if (i > 0 && x.genes()[i] != x.genes()[i - 1]) ++boundary_changes;
  }
  EXPECT_EQ(boundary_changes, 1u);  // single cut point
}

TEST(Operators, CrossoverSizeMismatchThrows) {
  Chromosome a(std::vector<std::uint32_t>{0, 0});
  Chromosome b(std::vector<std::uint32_t>{1});
  Rng rng(7);
  EXPECT_THROW((void)hcsched::ga::crossover(a, b, rng),
               std::invalid_argument);
}

TEST(Operators, MutateChangesExactlyOneGeneSlot) {
  Chromosome c(std::vector<std::uint32_t>{0, 0, 0, 0});
  Rng rng(8);
  const std::size_t idx = hcsched::ga::mutate(c, 5, rng);
  ASSERT_NE(idx, hcsched::ga::kNpos);
  for (std::size_t i = 0; i < 4; ++i) {
    if (i != idx) {
      EXPECT_EQ(c.genes()[i], 0u);
    }
  }
  EXPECT_LT(c.genes()[idx], 5u);
}

/// Acquires a slot, writes `gene` into its one-gene row and ranks it.
bool add(Population& pop, double makespan, std::uint32_t gene = 0) {
  const std::size_t slot = pop.acquire();
  pop.genes(slot)[0] = gene;
  return pop.insert(slot, makespan);
}

TEST(Population, KeepsSortedAndBounded) {
  Population pop(3, 1);
  add(pop, 5.0);
  add(pop, 2.0);
  add(pop, 8.0);
  EXPECT_DOUBLE_EQ(pop.best_makespan(), 2.0);
  EXPECT_DOUBLE_EQ(pop.worst_makespan(), 8.0);
  // Overflow: inserting 1.0 evicts 8.0.
  EXPECT_TRUE(add(pop, 1.0));
  EXPECT_EQ(pop.size(), 3u);
  EXPECT_DOUBLE_EQ(pop.best_makespan(), 1.0);
  EXPECT_DOUBLE_EQ(pop.worst_makespan(), 5.0);
  // Inserting something worse than the worst dies immediately.
  EXPECT_FALSE(add(pop, 9.0));
  EXPECT_DOUBLE_EQ(pop.worst_makespan(), 5.0);
  for (std::size_t r = 1; r < pop.size(); ++r) {
    EXPECT_LE(pop.makespan_at(r - 1), pop.makespan_at(r));
  }
}

TEST(Population, NewMemberRanksAheadOfEqualMakespans) {
  Population pop(4, 1);
  add(pop, 3.0, 10);
  add(pop, 3.0, 11);
  add(pop, 1.0, 12);
  add(pop, 3.0, 13);
  // Ties: the latest insertion holds the first of the equal ranks.
  const std::uint32_t expected[] = {12, 13, 11, 10};
  for (std::size_t r = 0; r < 4; ++r) {
    EXPECT_EQ(pop.genes(pop.slot_at(r))[0], expected[r]) << "rank " << r;
  }
  // An equal-makespan overflow evicts the oldest of the tied members, and
  // the newcomer survives.
  EXPECT_TRUE(add(pop, 3.0, 14));
  EXPECT_EQ(pop.genes(pop.slot_at(1))[0], 14u);
  EXPECT_EQ(pop.genes(pop.slot_at(3))[0], 11u);
}

TEST(Population, EvictedSlotIsReused) {
  Population pop(2, 3);
  add(pop, 1.0);
  add(pop, 2.0);
  const std::size_t worst_slot = pop.slot_at(1);
  EXPECT_TRUE(add(pop, 1.5));  // evicts the 2.0 member
  EXPECT_EQ(pop.acquire(), worst_slot);
  // A member that is its own overflow victim frees its slot at once.
  const std::size_t loser = pop.acquire();
  EXPECT_FALSE(pop.insert(loser, 9.0));
  EXPECT_EQ(pop.acquire(), loser);
}

TEST(Population, LiveSlotsAreNeverAliased) {
  constexpr std::size_t kCapacity = 5;
  Population pop(kCapacity, 2);
  Rng rng(10);
  for (int i = 0; i < 200; ++i) {
    const std::size_t a = pop.acquire();
    const std::size_t b = pop.acquire();
    std::set<std::size_t> live;
    for (std::size_t r = 0; r < pop.size(); ++r) live.insert(pop.slot_at(r));
    EXPECT_EQ(live.size(), pop.size());
    EXPECT_NE(a, b);
    EXPECT_FALSE(live.count(a) || live.count(b));
    EXPECT_LT(std::max(a, b), kCapacity + 2);
    // Write distinct genes to the held rows and check no live row moved.
    std::vector<std::uint32_t> before;
    for (std::size_t r = 0; r < pop.size(); ++r) {
      before.push_back(pop.genes(pop.slot_at(r))[0]);
    }
    pop.genes(a)[0] = 1000u + static_cast<std::uint32_t>(i);
    pop.genes(b)[0] = 2000u + static_cast<std::uint32_t>(i);
    for (std::size_t r = 0; r < pop.size(); ++r) {
      EXPECT_EQ(pop.genes(pop.slot_at(r))[0], before[r]);
    }
    pop.insert(a, static_cast<double>(rng.below(8)));
    pop.insert(b, static_cast<double>(rng.below(8)));
  }
  EXPECT_EQ(pop.size(), kCapacity);
}

TEST(Population, MisuseThrows) {
  Population pop(1, 1);
  const std::size_t a = pop.acquire();
  EXPECT_THROW(pop.insert(a + 1, 1.0), std::logic_error);  // never acquired
  EXPECT_TRUE(pop.insert(a, 1.0));
  EXPECT_THROW(pop.insert(a, 1.0), std::logic_error);  // already live
  (void)pop.acquire();
  (void)pop.acquire();
  EXPECT_THROW((void)pop.acquire(), std::logic_error);  // slab exhausted
  EXPECT_THROW(pop.insert(99, 1.0), std::logic_error);  // out of range
}

TEST(Population, SelectionPrefersGoodRanks) {
  Population pop(50, 1, 1.9);
  for (int i = 0; i < 50; ++i) {
    add(pop, static_cast<double>(i));
  }
  Rng rng(9);
  std::size_t top_half = 0;
  constexpr int kDraws = 20000;
  for (int i = 0; i < kDraws; ++i) {
    if (pop.select_rank(rng) < 25) ++top_half;
  }
  EXPECT_GT(static_cast<double>(top_half) / kDraws, 0.60);
}

TEST(Population, RejectsBadConfig) {
  EXPECT_THROW(Population(0, 1), std::invalid_argument);
  EXPECT_THROW(Population(5, 1, 0.5), std::invalid_argument);
  EXPECT_THROW(Population(5, 1, 2.5), std::invalid_argument);
}

TEST(Genitor, NeverWorseThanItsMinMinSeed) {
  GenitorConfig cfg;
  cfg.population_size = 40;
  cfg.total_steps = 300;
  const Genitor genitor(cfg);
  hcsched::heuristics::MinMin minmin;
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const EtcMatrix m = random_matrix(seed + 20);
    const Problem p = Problem::full(m);
    TieBreaker t1;
    TieBreaker t2;
    const double ga_span = genitor.map(p, t1).makespan();
    const double mm_span = minmin.map(p, t2).makespan();
    EXPECT_LE(ga_span, mm_span + 1e-9) << "seed " << seed;
  }
}

TEST(Genitor, SeededRunNeverWorseThanSeed) {
  GenitorConfig cfg;
  cfg.population_size = 30;
  cfg.total_steps = 200;
  cfg.seed_with_minmin = false;
  const Genitor genitor(cfg);
  const EtcMatrix m = random_matrix(42);
  const Problem p = Problem::full(m);
  // A deliberately bad seed: everything on machine 0.
  Schedule bad(p);
  for (int t : p.tasks()) bad.assign(t, 0);
  TieBreaker ties;
  const Schedule out = genitor.map_seeded(p, ties, &bad);
  EXPECT_LE(out.makespan(), bad.makespan() + 1e-9);
  EXPECT_TRUE(hcsched::sched::is_valid(out));
}

TEST(Genitor, ReproducibleFromConfigSeed) {
  GenitorConfig cfg;
  cfg.population_size = 25;
  cfg.total_steps = 150;
  cfg.seed = 777;
  const Genitor genitor(cfg);
  const EtcMatrix m = random_matrix(55);
  const Problem p = Problem::full(m);
  TieBreaker t1;
  TieBreaker t2;
  const Schedule a = genitor.map(p, t1);
  const Schedule b = genitor.map(p, t2);
  EXPECT_TRUE(a.same_mapping(b));
}

TEST(Genitor, ImprovesOverRandomInitialBest) {
  GenitorConfig cfg;
  cfg.population_size = 40;
  cfg.total_steps = 500;
  cfg.seed_with_minmin = false;  // pure random start
  const Genitor genitor(cfg);
  const EtcMatrix m = random_matrix(66, 30, 5);
  const Problem p = Problem::full(m);
  TieBreaker ties;
  genitor.map(p, ties);
  const auto& stats = genitor.last_run();
  EXPECT_LT(stats.final_best, stats.initial_best);
  EXPECT_GT(stats.improvements, 0u);
}

TEST(Genitor, EarlyStoppingCapsSteps) {
  GenitorConfig cfg;
  cfg.population_size = 20;
  cfg.total_steps = 100000;
  cfg.stop_after_stale = 50;
  const Genitor genitor(cfg);
  const EtcMatrix m = random_matrix(77, 10, 3);
  TieBreaker ties;
  genitor.map(Problem::full(m), ties);
  EXPECT_LT(genitor.last_run().steps_executed, 100000u);
}

TEST(Genitor, RejectsBadConfig) {
  GenitorConfig cfg;
  cfg.population_size = 1;
  EXPECT_THROW(Genitor{cfg}, std::invalid_argument);
}

}  // namespace
