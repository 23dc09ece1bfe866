// Ranked steady-state population (paper §3.1, Figure 1 steps 2-3).
//
// Members are kept sorted by makespan (best first). Insertion is by rank;
// whenever the population exceeds its fixed capacity the worst member is
// removed — Genitor's defining steady-state replacement. Parent selection
// uses Whitley's linear-rank bias: rank-based allocation of reproductive
// trials is the core idea of the Genitor paper [17].
//
// Storage never moves a chromosome. Genes live in one slab of
// (capacity + 2) fixed rows ("slots") of num_genes machine slots each: room
// for a full population plus the two offspring of a crossover before they
// are ranked. Ranking touches only an array of (makespan, slot) pairs. A
// new member goes in front of any members of equal makespan
// (std::lower_bound); on overflow the last rank is evicted and its slot
// returns to a free-slot stack, from which acquire() hands out rows for new
// members.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "core/check.hpp"
#include "rng/rng.hpp"

namespace hcsched::ga {

class Population {
 public:
  /// Fixed-capacity population of `num_genes`-gene members; `bias` in
  /// [1, 2] controls selection pressure (1 = uniform, 2 = maximal
  /// preference for good ranks).
  Population(std::size_t capacity, std::size_t num_genes, double bias = 1.5);

  /// Takes a free slot for a new member and returns it; write its genes via
  /// genes(slot), then rank it with insert(). Throws std::logic_error when
  /// every slot is live or already held (at most two may be held while the
  /// population is full).
  std::size_t acquire();

  /// Gene row of `slot` (valid for held and live slots).
  std::span<std::uint32_t> genes(std::size_t slot) {
    HCSCHED_PRECONDITION(slot < held_.size(), "Population::genes: slot ",
                         slot, " out of ", held_.size());
    return {slab_.data() + slot * num_genes_, num_genes_};
  }
  std::span<const std::uint32_t> genes(std::size_t slot) const {
    HCSCHED_PRECONDITION(slot < held_.size(), "Population::genes: slot ",
                         slot, " out of ", held_.size());
    return {slab_.data() + slot * num_genes_, num_genes_};
  }

  /// Ranks the held `slot` with `makespan`, ahead of members of equal
  /// makespan; evicts the worst member when above capacity. Returns true
  /// when the new member survived insertion (i.e. was not immediately the
  /// overflow victim). Throws std::logic_error for a slot not held.
  bool insert(std::size_t slot, double makespan);

  /// Rank-biased parent rank (0 = best).
  std::size_t select_rank(rng::Rng& rng) const;

  std::size_t slot_at(std::size_t rank) const { return ranks_[rank].slot; }
  double makespan_at(std::size_t rank) const { return ranks_[rank].makespan; }
  double best_makespan() const { return ranks_.front().makespan; }
  double worst_makespan() const { return ranks_.back().makespan; }

  std::size_t size() const noexcept { return ranks_.size(); }
  std::size_t capacity() const noexcept { return capacity_; }
  double bias() const noexcept { return bias_; }

 private:
  struct Ranked {
    double makespan;
    std::size_t slot;
  };

  std::size_t capacity_;
  std::size_t num_genes_;
  double bias_;
  std::vector<std::uint32_t> slab_{};
  std::vector<Ranked> ranks_{};      // sorted ascending by makespan
  std::vector<std::size_t> free_{};  // stack of unused slots
  std::vector<char> held_{};         // acquired, not yet inserted
};

}  // namespace hcsched::ga
