// xoshiro256** 1.0 (Blackman & Vigna 2018): the repo's primary PRNG.
//
// 256 bits of state, period 2^256 - 1, passes BigCrush. All stochastic
// components (random tie-breaking, ETC generation, Genitor, Monte-Carlo
// sweeps) draw from this engine through the Rng facade so that every
// experiment in the repo is reproducible from a single 64-bit seed.
#pragma once

#include <array>
#include <cstdint>

namespace hcsched::rng {

class Xoshiro256ss {
 public:
  using result_type = std::uint64_t;

  /// Coefficients of a polynomial q over GF(2), lowest degree first (bit j
  /// of the 256 is the coefficient of x^j).
  using JumpPolynomial = std::array<std::uint64_t, 4>;

  /// Seeds the four state words by expanding `seed` with SplitMix64, as
  /// recommended by the generator's authors.
  explicit Xoshiro256ss(std::uint64_t seed) noexcept;

  std::uint64_t next() noexcept;
  std::uint64_t operator()() noexcept { return next(); }

  static constexpr std::uint64_t min() noexcept { return 0; }
  static constexpr std::uint64_t max() noexcept { return ~0ULL; }

  /// Replaces the state s by q(T)·s, where T is one next() step. The engine
  /// is GF(2)-linear, so for q = x^n mod p (p its characteristic
  /// polynomial) this equals n calls to next(), at the cost of 256.
  void jump_by(const JumpPolynomial& poly) noexcept;

  /// Equivalent to 2^128 calls to next(); used to derive statistically
  /// independent streams for worker threads.
  void jump() noexcept;

  /// Equivalent to 2^exponent calls to jump(), for exponent in [0, 64],
  /// at the cost of one.
  void jump_pow2(unsigned exponent) noexcept;

  const std::array<std::uint64_t, 4>& state() const noexcept { return s_; }

 private:
  std::array<std::uint64_t, 4> s_{};
};

}  // namespace hcsched::rng
