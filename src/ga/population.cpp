#include "ga/population.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace hcsched::ga {

Population::Population(std::size_t capacity, std::size_t num_genes,
                       double bias)
    : capacity_(capacity), num_genes_(num_genes), bias_(bias) {
  if (capacity == 0) {
    throw std::invalid_argument("Population: capacity must be positive");
  }
  if (bias < 1.0 || bias > 2.0) {
    throw std::invalid_argument("Population: bias must be in [1, 2]");
  }
  const std::size_t slots = capacity + 2;
  slab_.resize(slots * num_genes);
  ranks_.reserve(capacity + 1);
  held_.assign(slots, 0);
  free_.reserve(slots);
  for (std::size_t slot = slots; slot-- > 0;) free_.push_back(slot);
}

std::size_t Population::acquire() {
  if (free_.empty()) {
    throw std::logic_error("Population::acquire: no free slot");
  }
  const std::size_t slot = free_.back();
  free_.pop_back();
  held_[slot] = 1;
  return slot;
}

bool Population::insert(std::size_t slot, double makespan) {
  if (slot >= held_.size() || held_[slot] == 0) {
    throw std::logic_error("Population::insert: slot was not acquired");
  }
  held_[slot] = 0;
  const auto pos = std::lower_bound(
      ranks_.begin(), ranks_.end(), makespan,
      [](const Ranked& r, double value) { return r.makespan < value; });
  const bool inserted_at_end = (pos == ranks_.end());
  ranks_.insert(pos, Ranked{makespan, slot});
  if (ranks_.size() > capacity_) {
    free_.push_back(ranks_.back().slot);
    ranks_.pop_back();
    // The new member survived unless it itself was the overflow victim.
    return !inserted_at_end;
  }
  return true;
}

std::size_t Population::select_rank(rng::Rng& rng) const {
  if (ranks_.empty()) {
    throw std::logic_error("Population::select_rank: empty population");
  }
  const double u = rng.uniform01();
  double index = 0.0;
  if (bias_ > 1.0) {
    // Whitley (1989): rank = n * (bias - sqrt(bias^2 - 4(bias-1)u)) /
    //                        (2 (bias - 1))
    const double disc = bias_ * bias_ - 4.0 * (bias_ - 1.0) * u;
    index = static_cast<double>(ranks_.size()) *
            (bias_ - std::sqrt(disc)) / (2.0 * (bias_ - 1.0));
  } else {
    index = u * static_cast<double>(ranks_.size());
  }
  auto rank = static_cast<std::size_t>(index);
  if (rank >= ranks_.size()) rank = ranks_.size() - 1;
  return rank;
}

}  // namespace hcsched::ga
