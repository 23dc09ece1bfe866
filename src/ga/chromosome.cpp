#include "ga/chromosome.hpp"

#include <stdexcept>
#include <string>

namespace hcsched::ga {

void randomize(std::span<std::uint32_t> genes, std::size_t num_slots,
               rng::Rng& rng) {
  for (auto& g : genes) {
    g = static_cast<std::uint32_t>(rng.below(num_slots));
  }
}

void encode(const Problem& problem, const Schedule& s,
            std::span<std::uint32_t> genes) {
  if (genes.size() != problem.num_tasks()) {
    throw std::invalid_argument("ga::encode: gene count mismatch");
  }
  for (std::size_t i = 0; i < problem.num_tasks(); ++i) {
    const auto machine = s.machine_of(problem.tasks()[i]);
    if (!machine.has_value()) {
      throw std::invalid_argument(
          "Chromosome::from_schedule: schedule does not map task " +
          std::to_string(problem.tasks()[i]));
    }
    const std::size_t slot = problem.slot_of(*machine);
    if (slot == Problem::npos) {
      throw std::invalid_argument(
          "Chromosome::from_schedule: machine not in problem");
    }
    genes[i] = static_cast<std::uint32_t>(slot);
  }
}

Schedule decode(const Problem& problem, std::span<const std::uint32_t> genes) {
  if (genes.size() != problem.num_tasks()) {
    throw std::invalid_argument("Chromosome::decode: gene count mismatch");
  }
  Schedule s(problem);
  for (std::size_t i = 0; i < genes.size(); ++i) {
    s.assign(problem.tasks()[i], problem.machines()[genes[i]]);
  }
  return s;
}

Fitness::Fitness(std::span<const double> costs,
                 std::span<const double> initial_ready)
    : costs_(costs),
      initial_ready_(initial_ready),
      ready_(initial_ready.size()) {
  if (initial_ready.empty() || costs.size() % initial_ready.size() != 0) {
    throw std::invalid_argument(
        "Fitness: cost table is not a whole number of slot rows");
  }
}

double Fitness::operator()(std::span<const std::uint32_t> genes) {
  const std::size_t slots = initial_ready_.size();
  if (genes.size() * slots != costs_.size()) {
    throw std::invalid_argument("Fitness: gene count mismatch");
  }
  std::copy(initial_ready_.begin(), initial_ready_.end(), ready_.begin());
  const double* costs = costs_.data();
  return accumulate_makespan(
      genes, ready_,
      [costs, slots](std::size_t i, std::uint32_t slot) {
        return costs[i * slots + slot];
      });
}

Chromosome Chromosome::random(const Problem& problem, rng::Rng& rng) {
  std::vector<std::uint32_t> genes(problem.num_tasks());
  randomize(genes, problem.num_machines(), rng);
  return Chromosome(std::move(genes));
}

Chromosome Chromosome::from_schedule(const Problem& problem,
                                     const Schedule& s) {
  std::vector<std::uint32_t> genes(problem.num_tasks());
  encode(problem, s, genes);
  return Chromosome(std::move(genes));
}

double Chromosome::evaluate(const Problem& problem) const {
  if (genes_.size() != problem.num_tasks()) {
    throw std::invalid_argument("Chromosome::evaluate: gene count mismatch");
  }
  std::vector<double> ready = problem.initial_ready_times();
  return accumulate_makespan(
      genes_, ready, [&problem](std::size_t i, std::uint32_t slot) {
        return problem.etc_at(problem.tasks()[i], slot);
      });
}

Schedule Chromosome::decode(const Problem& problem) const {
  return ga::decode(problem, genes_);
}

}  // namespace hcsched::ga
