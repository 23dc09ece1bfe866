#include "legacy_genitor.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "core/cancel.hpp"
#include "heuristics/minmin.hpp"
#include "obs/counters.hpp"

namespace hcsched::legacy {

Chromosome random_chromosome(const Problem& problem, rng::Rng& rng) {
  std::vector<std::uint32_t> genes(problem.num_tasks());
  for (auto& g : genes) {
    g = static_cast<std::uint32_t>(rng.below(problem.num_machines()));
  }
  return Chromosome(std::move(genes));
}

double evaluate(const Chromosome& c, const Problem& problem) {
  const auto& genes = c.genes();
  if (genes.size() != problem.num_tasks()) {
    throw std::invalid_argument("Chromosome::evaluate: gene count mismatch");
  }
  std::vector<double> ready = problem.initial_ready_times();
  for (std::size_t i = 0; i < genes.size(); ++i) {
    ready[genes[i]] += problem.etc_at(problem.tasks()[i], genes[i]);
  }
  return ready.empty() ? 0.0 : *std::max_element(ready.begin(), ready.end());
}

std::pair<Chromosome, Chromosome> crossover(const Chromosome& a,
                                            const Chromosome& b,
                                            rng::Rng& rng) {
  if (a.size() != b.size()) {
    throw std::invalid_argument("crossover: parent size mismatch");
  }
  const std::size_t n = a.size();
  if (n < 2) return {a, b};
  const auto cut =
      1 + static_cast<std::size_t>(rng.below(static_cast<std::uint64_t>(n - 1)));
  Chromosome x = a;
  Chromosome y = b;
  for (std::size_t i = 0; i < cut; ++i) {
    std::swap(x.genes()[i], y.genes()[i]);
  }
  return {std::move(x), std::move(y)};
}

std::size_t mutate(Chromosome& c, std::size_t num_machine_slots,
                   rng::Rng& rng) {
  if (c.size() == 0 || num_machine_slots == 0) {
    return static_cast<std::size_t>(-1);
  }
  const auto gene = static_cast<std::size_t>(rng.below(c.size()));
  c.genes()[gene] = static_cast<std::uint32_t>(rng.below(num_machine_slots));
  return gene;
}

Population::Population(std::size_t capacity, double bias)
    : capacity_(capacity), bias_(bias) {
  if (capacity == 0) {
    throw std::invalid_argument("Population: capacity must be positive");
  }
  if (bias < 1.0 || bias > 2.0) {
    throw std::invalid_argument("Population: bias must be in [1, 2]");
  }
  members_.reserve(capacity + 1);
}

bool Population::insert(Member member) {
  const auto pos = std::lower_bound(
      members_.begin(), members_.end(), member,
      [](const Member& a, const Member& b) { return a.makespan < b.makespan; });
  const bool inserted_at_end = (pos == members_.end());
  members_.insert(pos, std::move(member));
  if (members_.size() > capacity_) {
    members_.pop_back();
    return !inserted_at_end;
  }
  return true;
}

std::size_t Population::select_rank(rng::Rng& rng) const {
  if (members_.empty()) {
    throw std::logic_error("Population::select_rank: empty population");
  }
  const double u = rng.uniform01();
  double index = 0.0;
  if (bias_ > 1.0) {
    const double disc = bias_ * bias_ - 4.0 * (bias_ - 1.0) * u;
    index = static_cast<double>(members_.size()) *
            (bias_ - std::sqrt(disc)) / (2.0 * (bias_ - 1.0));
  } else {
    index = u * static_cast<double>(members_.size());
  }
  auto rank = static_cast<std::size_t>(index);
  if (rank >= members_.size()) rank = members_.size() - 1;
  return rank;
}

Genitor::Genitor(ga::GenitorConfig config) : config_(config) {
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

  Population population(config_.population_size, config_.selection_bias);
  if (seed != nullptr) {
    Chromosome c = Chromosome::from_schedule(problem, *seed);
    const double fit = evaluate(c, problem);
    population.insert(Member{std::move(c), fit});
  }
  if (config_.seed_with_minmin) {
    heuristics::MinMin minmin;
    rng::TieBreaker det;
    Chromosome c = Chromosome::from_schedule(problem, minmin.map(problem, det));
    const double fit = evaluate(c, problem);
    population.insert(Member{std::move(c), fit});
  }
  while (population.size() < config_.population_size) {
    Chromosome c = random_chromosome(problem, rng);
    const double fit = evaluate(c, problem);
    population.insert(Member{std::move(c), fit});
  }

  last_run_ = ga::Genitor::RunStats{};
  last_run_.initial_best = population.best().makespan;

  double best = population.best().makespan;
  std::size_t stale = 0;
  for (std::size_t step = 0; step < config_.total_steps; ++step) {
    if (core::cancellation_requested()) break;
    ++last_run_.steps_executed;
    HCSCHED_COUNT(obs::Counter::kGaSteps);
    HCSCHED_COUNT(obs::Counter::kGaCrossovers);
    const Member& pa = population.at(population.select_rank(rng));
    const Member& pb = population.at(population.select_rank(rng));
    auto [oa, ob] = crossover(pa.chromosome, pb.chromosome, rng);
    const double fa = evaluate(oa, problem);
    const double fb = evaluate(ob, problem);
    population.insert(Member{std::move(oa), fa});
    population.insert(Member{std::move(ob), fb});

    HCSCHED_COUNT(obs::Counter::kGaMutations);
    Chromosome mutant = population.at(population.select_rank(rng)).chromosome;
    mutate(mutant, problem.num_machines(), rng);
    const double fm = evaluate(mutant, problem);
    population.insert(Member{std::move(mutant), fm});

    if (population.best().makespan < best) {
      best = population.best().makespan;
      ++last_run_.improvements;
      stale = 0;
    } else if (config_.stop_after_stale != 0 &&
               ++stale >= config_.stop_after_stale) {
      break;
    }
  }
  last_run_.final_best = population.best().makespan;

  (void)ties;
  return population.best().chromosome.decode(problem);
}

}  // namespace hcsched::legacy
