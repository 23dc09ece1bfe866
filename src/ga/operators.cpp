#include "ga/operators.hpp"

#include <algorithm>
#include <stdexcept>

namespace hcsched::ga {

std::size_t crossover(std::span<std::uint32_t> x, std::span<std::uint32_t> y,
                      rng::Rng& rng) {
  if (x.size() != y.size()) {
    throw std::invalid_argument("crossover: parent size mismatch");
  }
  const std::size_t n = x.size();
  if (n < 2) return 0;
  const auto cut =
      1 + static_cast<std::size_t>(rng.below(static_cast<std::uint64_t>(n - 1)));
  std::swap_ranges(x.begin(), x.begin() + static_cast<std::ptrdiff_t>(cut),
                   y.begin());
  return cut;
}

Offspring offspring_of(std::span<const std::uint32_t> a,
                       std::span<const std::uint32_t> b, std::size_t cut) {
  if (a.size() != b.size() || cut > a.size()) {
    throw std::invalid_argument("offspring_of: bad parents or cut");
  }
  const auto at_cut = static_cast<std::ptrdiff_t>(cut);
  if (std::equal(a.begin(), a.begin() + at_cut, b.begin())) {
    return Offspring::kSameAsParents;
  }
  if (std::equal(a.begin() + at_cut, a.end(), b.begin() + at_cut)) {
    return Offspring::kSwappedParents;
  }
  return Offspring::kNew;
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
