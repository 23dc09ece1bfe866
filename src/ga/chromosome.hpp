// Chromosome: one candidate mapping for Genitor (paper §3.1, Figure 1).
//
// genes[i] is the machine *slot* (position in Problem::machines()) assigned
// to the i-th task of Problem::tasks(). Slots rather than machine ids keep
// chromosomes valid as the iterative technique shrinks the machine set: a
// fresh chromosome is always expressed against the current problem.
//
// Every gene-level routine exists once, over a span of genes: randomize,
// encode, decode and the canonical fitness sum. Genitor applies them to rows
// of its population slab (population.hpp); the Chromosome class owns one
// gene vector and forwards to them, for SA, GSA and tabu search.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "rng/rng.hpp"
#include "sched/schedule.hpp"

namespace hcsched::ga {

using sched::Problem;
using sched::Schedule;

/// Fills `genes` with uniformly random slots in [0, num_slots), one draw per
/// gene in index order.
void randomize(std::span<std::uint32_t> genes, std::size_t num_slots,
               rng::Rng& rng);

/// Writes the slots `s` assigns to the tasks of `problem` into `genes`
/// (sized num_tasks). Throws std::invalid_argument when a task is unmapped,
/// mapped off the problem, or the size differs.
void encode(const Problem& problem, const Schedule& s,
            std::span<std::uint32_t> genes);

/// Materializes `genes` as a Schedule (tasks assigned in list order).
Schedule decode(const Problem& problem, std::span<const std::uint32_t> genes);

/// The canonical fitness sum, shared by every evaluator. `ready` holds the
/// initial ready times on entry; task i's cost on slot genes[i] is added for
/// i = 0, 1, ... in that order, and the makespan is the maximum ready time.
/// Schedules stay bit-identical across evaluators only because the order of
/// these additions is fixed here.
template <typename CostOf>
double accumulate_makespan(std::span<const std::uint32_t> genes,
                           std::span<double> ready, CostOf&& cost_of) {
  for (std::size_t i = 0; i < genes.size(); ++i) {
    ready[genes[i]] += cost_of(i, genes[i]);
  }
  return ready.empty() ? 0.0 : *std::max_element(ready.begin(), ready.end());
}

/// Makespan evaluator over a contiguous row-major cost table:
/// costs[i * num_slots + s] is the ETC of the task at position i on slot s,
/// where num_slots = initial_ready.size(). The ready-time buffer is reused
/// across calls, so an evaluation allocates nothing. The spans must outlive
/// the evaluator; genes must be < num_slots.
class Fitness {
 public:
  Fitness(std::span<const double> costs, std::span<const double> initial_ready);

  double operator()(std::span<const std::uint32_t> genes);

 private:
  std::span<const double> costs_;
  std::span<const double> initial_ready_;
  std::vector<double> ready_;
};

class Chromosome {
 public:
  Chromosome() = default;
  explicit Chromosome(std::vector<std::uint32_t> genes)
      : genes_(std::move(genes)) {}

  /// Uniformly random mapping.
  static Chromosome random(const Problem& problem, rng::Rng& rng);

  /// Chromosome encoding an existing schedule of the same problem.
  static Chromosome from_schedule(const Problem& problem, const Schedule& s);

  const std::vector<std::uint32_t>& genes() const noexcept { return genes_; }
  std::vector<std::uint32_t>& genes() noexcept { return genes_; }
  std::size_t size() const noexcept { return genes_.size(); }

  /// Makespan of the encoded mapping (no Schedule materialization).
  double evaluate(const Problem& problem) const;

  /// Materializes the mapping as a Schedule (tasks assigned in list order).
  Schedule decode(const Problem& problem) const;

  bool operator==(const Chromosome&) const = default;

 private:
  std::vector<std::uint32_t> genes_{};
};

}  // namespace hcsched::ga
