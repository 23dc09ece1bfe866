#include "ga/operators.hpp"

#include <algorithm>
#include <stdexcept>

namespace hcsched::ga {

void crossover(std::span<std::uint32_t> x, std::span<std::uint32_t> y,
               rng::Rng& rng) {
  if (x.size() != y.size()) {
    throw std::invalid_argument("crossover: parent size mismatch");
  }
  const std::size_t n = x.size();
  if (n < 2) return;
  const auto cut =
      1 + static_cast<std::size_t>(rng.below(static_cast<std::uint64_t>(n - 1)));
  std::swap_ranges(x.begin(), x.begin() + static_cast<std::ptrdiff_t>(cut),
                   y.begin());
}

std::pair<Chromosome, Chromosome> crossover(const Chromosome& a,
                                            const Chromosome& b,
                                            rng::Rng& rng) {
  Chromosome x = a;
  Chromosome y = b;
  crossover(std::span<std::uint32_t>(x.genes()),
            std::span<std::uint32_t>(y.genes()), rng);
  return {std::move(x), std::move(y)};
}

std::size_t mutate(std::span<std::uint32_t> genes,
                   std::size_t num_machine_slots, rng::Rng& rng) {
  if (genes.empty() || num_machine_slots == 0) return kNpos;
  const auto gene = static_cast<std::size_t>(rng.below(genes.size()));
  genes[gene] = static_cast<std::uint32_t>(rng.below(num_machine_slots));
  return gene;
}

}  // namespace hcsched::ga
