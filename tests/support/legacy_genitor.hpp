// The Member-vector Genitor as it stood before the population became a gene
// slab: every offspring is a heap-owning Chromosome copy, every evaluation
// allocates its ready-time vector and reads cells through Problem::etc_at,
// and the population is a sorted std::vector<Member> shifted on insert.
//
// Kept verbatim, operators and fitness included, as the oracle of
// test_genitor_differential.cpp: the slab Genitor in src/ga must reproduce
// its schedules, run statistics and counter increments bit for bit. It is
// test-support code and is never linked into libhcsched.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "ga/chromosome.hpp"
#include "ga/genitor.hpp"
#include "heuristics/heuristic.hpp"
#include "rng/rng.hpp"

namespace hcsched::legacy {

using ga::Chromosome;
using sched::Problem;
using sched::Schedule;

Chromosome random_chromosome(const Problem& problem, rng::Rng& rng);
double evaluate(const Chromosome& c, const Problem& problem);
std::pair<Chromosome, Chromosome> crossover(const Chromosome& a,
                                            const Chromosome& b,
                                            rng::Rng& rng);
std::size_t mutate(Chromosome& c, std::size_t num_machine_slots,
                   rng::Rng& rng);

struct Member {
  Chromosome chromosome{};
  double makespan = 0.0;
};

class Population {
 public:
  explicit Population(std::size_t capacity, double bias = 1.5);

  bool insert(Member member);
  std::size_t select_rank(rng::Rng& rng) const;

  const Member& best() const { return members_.front(); }
  const Member& at(std::size_t rank) const { return members_[rank]; }
  std::size_t size() const noexcept { return members_.size(); }

 private:
  std::size_t capacity_;
  double bias_;
  std::vector<Member> members_{};  // sorted ascending by makespan
};

class Genitor final : public heuristics::Heuristic {
 public:
  explicit Genitor(ga::GenitorConfig config = {});

  std::string_view name() const noexcept override { return "Genitor"; }
  bool deterministic_given_ties() const noexcept override { return false; }
  const ga::Genitor::RunStats& last_run() const noexcept { return last_run_; }

 protected:
  Schedule do_map(const Problem& problem,
                  heuristics::TieBreaker& ties) const override;
  Schedule do_map_seeded(const Problem& problem, heuristics::TieBreaker& ties,
                         const Schedule* seed) const override;

 private:
  ga::GenitorConfig config_;
  mutable ga::Genitor::RunStats last_run_{};
};

}  // namespace hcsched::legacy
