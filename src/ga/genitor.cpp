#include "ga/genitor.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <stdexcept>

#include "core/cancel.hpp"
#include "ga/operators.hpp"
#include "ga/population.hpp"
#include "heuristics/fastpath/etc_view.hpp"
#include "heuristics/minmin.hpp"
#include "obs/counters.hpp"

namespace hcsched::ga {

Genitor::Genitor(GenitorConfig config) : config_(config) {
  if (config_.population_size < 2) {
    throw std::invalid_argument("Genitor: population_size must be >= 2");
  }
}

Schedule Genitor::do_map(const Problem& problem,
                      heuristics::TieBreaker& ties) const {
  return do_map_seeded(problem, ties, nullptr);
}

Schedule Genitor::do_map_seeded(const Problem& problem,
                             heuristics::TieBreaker& ties,
                             const Schedule* seed) const {
  if (problem.num_machines() == 0) {
    throw std::invalid_argument("Genitor: no machines");
  }
  rng::Rng rng(config_.seed);

  // One gather per call; every evaluation below reads this contiguous table.
  const heuristics::fastpath::EtcView view(problem);
  Fitness fitness(view.cells(), problem.initial_ready_times());
  Population population(config_.population_size, problem.num_tasks(),
                        config_.selection_bias);
  const auto rank = [&](std::size_t slot) {
    HCSCHED_COUNT(obs::Counter::kGaEvaluations);
    population.insert(slot, fitness(population.genes(slot)));
  };
  // Clone inheritance: fitness is a pure function of the genes (same table,
  // same initial ready times, same addition order), so a member whose genes
  // equal a live member's gets that member's makespan bit for bit.
  const auto rank_as = [&](std::size_t slot, double makespan) {
    HCSCHED_INVARIANT(std::bit_cast<std::uint64_t>(makespan) ==
                          std::bit_cast<std::uint64_t>(
                              fitness(population.genes(slot))),
                      "inherited makespan ", makespan,
                      " differs from a fresh evaluation of slot ", slot);
    population.insert(slot, makespan);
  };
  const auto copy_of = [&](std::size_t parent) {
    const std::size_t slot = population.acquire();
    const auto genes = population.genes(parent);
    std::copy(genes.begin(), genes.end(), population.genes(slot).begin());
    return slot;
  };

  const auto add_mapping = [&](const Schedule& mapping) {
    const std::size_t slot = population.acquire();
    encode(problem, mapping, population.genes(slot));
    rank(slot);
  };

  if (seed != nullptr) add_mapping(*seed);
  if (config_.seed_with_minmin) {
    heuristics::MinMin minmin;
    rng::TieBreaker det;  // deterministic ties for the seed mapping
    add_mapping(minmin.map(problem, det));
  }
  while (population.size() < config_.population_size) {
    const std::size_t slot = population.acquire();
    randomize(population.genes(slot), problem.num_machines(), rng);
    rank(slot);
  }

  last_run_ = RunStats{};
  last_run_.initial_best = population.best_makespan();

  double best = population.best_makespan();
  std::size_t stale = 0;
  for (std::size_t step = 0; step < config_.total_steps; ++step) {
    // Anytime contract: a cancelled budget stops evolution within one
    // steady-state step; the population's best is always a complete mapping.
    if (core::cancellation_requested()) break;
    ++last_run_.steps_executed;
    HCSCHED_COUNT(obs::Counter::kGaSteps);
    // Crossover trial (Figure 1, step 3a): both offspring are written into
    // free slots before either is ranked. In a converged population most
    // offspring equal a parent and inherit its makespan; the parents are
    // classified before either insert can evict one of them.
    HCSCHED_COUNT(obs::Counter::kGaCrossovers);
    const std::size_t ra = population.select_rank(rng);
    const std::size_t rb = population.select_rank(rng);
    const std::size_t pa = population.slot_at(ra);
    const std::size_t pb = population.slot_at(rb);
    const double ma = population.makespan_at(ra);
    const double mb = population.makespan_at(rb);
    const std::size_t oa = copy_of(pa);
    const std::size_t ob = copy_of(pb);
    const std::size_t cut =
        crossover(population.genes(oa), population.genes(ob), rng);
    switch (offspring_of(population.genes(pa), population.genes(pb), cut)) {
      case Offspring::kSameAsParents:
        rank_as(oa, ma);
        rank_as(ob, mb);
        break;
      case Offspring::kSwappedParents:
        rank_as(oa, mb);
        rank_as(ob, ma);
        break;
      case Offspring::kNew:
        rank(oa);
        rank(ob);
        break;
    }

    // Mutation trial (Figure 1, step 3b). Redrawing a gene's own slot
    // leaves a clone of the parent.
    HCSCHED_COUNT(obs::Counter::kGaMutations);
    const std::size_t rm = population.select_rank(rng);
    const std::size_t parent = population.slot_at(rm);
    const std::size_t mutant = copy_of(parent);
    const std::size_t gene =
        mutate(population.genes(mutant), problem.num_machines(), rng);
    if (gene == kNpos ||
        population.genes(mutant)[gene] == population.genes(parent)[gene]) {
      rank_as(mutant, population.makespan_at(rm));
    } else {
      rank(mutant);
    }

    if (population.best_makespan() < best) {
      best = population.best_makespan();
      ++last_run_.improvements;
      stale = 0;
    } else if (config_.stop_after_stale != 0 &&
               ++stale >= config_.stop_after_stale) {
      break;
    }
  }
  last_run_.final_best = population.best_makespan();

  (void)ties;  // Genitor's stochastic decisions come from its own stream.
  return decode(problem, population.genes(population.slot_at(0)));
}

}  // namespace hcsched::ga
