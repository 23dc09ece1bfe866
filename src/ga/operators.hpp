// Genetic operators (paper Figure 1, steps 3a and 3b).
//
// Crossover: a random cut point is generated and the machine assignments of
// the tasks below the cut are exchanged between the two parents, producing
// two offspring. Mutation: a random task's machine assignment is replaced by
// a uniformly random machine slot.
//
// Each operator is implemented once, in place over gene spans (Genitor runs
// them on its population slab); the Chromosome overloads forward to them.
#pragma once

#include <span>
#include <utility>

#include "ga/chromosome.hpp"
#include "rng/rng.hpp"

namespace hcsched::ga {

/// Single-point crossover in place: `x` and `y` hold copies of the parents
/// and leave as the offspring. The cut is drawn from [1, n-1] and the genes
/// below it are swapped, so both offspring mix genes from both parents.
/// Returns the cut; for n < 2 nothing is drawn or changed and it returns 0.
/// Throws on a length mismatch.
std::size_t crossover(std::span<std::uint32_t> x, std::span<std::uint32_t> y,
                      rng::Rng& rng);

/// Which parents the offspring of a crossover at `cut` equal, gene for
/// gene. Parents `a` and `b` yield offspring x = b[0, cut) ++ a[cut, n) and
/// y = a[0, cut) ++ b[cut, n): when the parents agree below the cut,
/// (x, y) == (a, b); when they agree from the cut on, (x, y) == (b, a).
enum class Offspring { kNew, kSameAsParents, kSwappedParents };
Offspring offspring_of(std::span<const std::uint32_t> a,
                       std::span<const std::uint32_t> b, std::size_t cut);

/// Single-point crossover of two chromosomes into two new offspring.
std::pair<Chromosome, Chromosome> crossover(const Chromosome& a,
                                            const Chromosome& b,
                                            rng::Rng& rng);

/// In-place point mutation; returns the index of the mutated gene (or npos,
/// drawing nothing, for empty genes or no slots).
std::size_t mutate(std::span<std::uint32_t> genes,
                   std::size_t num_machine_slots, rng::Rng& rng);

inline std::size_t mutate(Chromosome& c, std::size_t num_machine_slots,
                          rng::Rng& rng) {
  return mutate(std::span<std::uint32_t>(c.genes()), num_machine_slots, rng);
}

inline constexpr std::size_t kNpos = static_cast<std::size_t>(-1);

}  // namespace hcsched::ga
