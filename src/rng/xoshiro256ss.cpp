#include "rng/xoshiro256ss.hpp"

#include <cstddef>

#include "core/check.hpp"
#include "rng/splitmix64.hpp"

namespace hcsched::rng {

namespace {

using State = std::array<std::uint64_t, 4>;

constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
  return (x << k) | (x >> (64 - k));
}

/// One state transition T: next() without its output scrambler.
void advance(State& s) noexcept {
  const std::uint64_t t = s[1] << 17;
  s[2] ^= s[0];
  s[3] ^= s[1];
  s[1] ^= s[2];
  s[0] ^= s[3];
  s[2] ^= t;
  s[3] = rotl(s[3], 45);
}

/// x^(2^128) mod p, from Blackman & Vigna's reference code.
constexpr Xoshiro256ss::JumpPolynomial kJump = {
    0x180ec6d33cfd0abaULL, 0xd5a61266f0c9392cULL, 0xa9582618e03fc9aaULL,
    0x39abdc4529b1661cULL};

/// Largest jump_pow2 exponent: 2^64 jumps, what split(SIZE_MAX) needs.
constexpr unsigned kMaxJumpExponent = 64;

// -- GF(2)[x] arithmetic for the jump table ---------------------------------

/// A polynomial of degree < 512; bit j is the coefficient of x^j.
using Poly = std::array<std::uint64_t, 8>;

template <std::size_t Words>
bool coefficient(const std::array<std::uint64_t, Words>& a, std::size_t j) {
  return ((a[j / 64] >> (j % 64)) & 1U) != 0;
}

void flip(Poly& a, std::size_t j) { a[j / 64] ^= 1ULL << (j % 64); }

/// a += x^shift · b (terms of degree >= 512 are dropped; callers stay below).
void add_shifted(Poly& a, const Poly& b, std::size_t shift) {
  const std::size_t words = shift / 64;
  const std::size_t bits = shift % 64;
  for (std::size_t w = 0; w + words < a.size(); ++w) {
    a[w + words] ^= b[w] << bits;
    if (bits != 0 && w + words + 1 < a.size()) {
      a[w + words + 1] ^= b[w] >> (64 - bits);
    }
  }
}

/// The engine's characteristic polynomial p (degree 256). Berlekamp–Massey
/// over 512 output bits (bit 0 of s[0]) recovers the minimal polynomial of
/// that sequence; p is primitive, so for any nonzero start state that
/// minimal polynomial is p itself.
Poly characteristic_polynomial() {
  constexpr std::size_t kBits = 512;
  std::array<bool, kBits> sequence{};
  State s = {1, 0, 0, 0};
  for (bool& b : sequence) {
    b = (s[0] & 1U) != 0;
    advance(s);
  }
  // Connection polynomial c = 1 + c_1 x + ... + c_L x^L of the shortest
  // recurrence s_n = sum c_i s_(n-i); b is c before its last length change.
  Poly c{1};
  Poly b{1};
  std::size_t length = 0;
  std::size_t shift = 1;
  for (std::size_t n = 0; n < kBits; ++n) {
    bool discrepancy = sequence[n];
    for (std::size_t i = 1; i <= length; ++i) {
      discrepancy ^= coefficient(c, i) && sequence[n - i];
    }
    if (!discrepancy) {
      ++shift;
      continue;
    }
    const Poly before = c;
    add_shifted(c, b, shift);
    if (2 * length <= n) {
      length = n + 1 - length;
      b = before;
      shift = 1;
    } else {
      ++shift;
    }
  }
  HCSCHED_INVARIANT(length == 256, "xoshiro256 recurrence has length ",
                    length, ", expected 256");
  // p(x) = x^L c(1/x): the recurrence's characteristic polynomial.
  Poly p{};
  for (std::size_t i = 0; i <= length; ++i) {
    if (coefficient(c, i)) flip(p, length - i);
  }
  return p;
}

/// a² mod p for deg a < 256 and deg p = 256.
Xoshiro256ss::JumpPolynomial square_mod(const Xoshiro256ss::JumpPolynomial& a,
                                        const Poly& p) {
  // Over GF(2), squaring spreads coefficient j to 2j.
  Poly r{};
  for (std::size_t j = 0; j < 256; ++j) {
    if (coefficient(a, j)) flip(r, 2 * j);
  }
  for (std::size_t j = 510; j >= 256; --j) {
    if (coefficient(r, j)) add_shifted(r, p, j - 256);
  }
  return {r[0], r[1], r[2], r[3]};
}

/// P_i = x^(2^128 · 2^i) mod p for i = 0..64: applying P_i equals 2^i
/// jumps. Built once from p by repeated squaring.
const std::array<Xoshiro256ss::JumpPolynomial, kMaxJumpExponent + 1>&
jump_table() {
  static const auto table = [] {
    const Poly p = characteristic_polynomial();
    Xoshiro256ss::JumpPolynomial q = {2, 0, 0, 0};  // x
    for (int i = 0; i < 128; ++i) q = square_mod(q, p);
    std::array<Xoshiro256ss::JumpPolynomial, kMaxJumpExponent + 1> t{};
    t[0] = q;
    for (std::size_t i = 1; i < t.size(); ++i) t[i] = square_mod(t[i - 1], p);
    HCSCHED_INVARIANT(t[0] == kJump,
                      "derived x^(2^128) mod p differs from the jump "
                      "polynomial");
    return t;
  }();
  return table;
}

}  // namespace

Xoshiro256ss::Xoshiro256ss(std::uint64_t seed) noexcept {
  SplitMix64 sm{seed};
  for (auto& word : s_) word = sm.next();
  // An all-zero state is the one forbidden fixed point; SplitMix64 cannot
  // produce four consecutive zeros from any seed, but guard anyway.
  if (s_[0] == 0 && s_[1] == 0 && s_[2] == 0 && s_[3] == 0) s_[0] = 1;
}

std::uint64_t Xoshiro256ss::next() noexcept {
  const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
  advance(s_);
  return result;
}

void Xoshiro256ss::jump_by(const JumpPolynomial& poly) noexcept {
  State acc{};
  for (std::uint64_t word : poly) {
    for (int bit = 0; bit < 64; ++bit) {
      if (word & (1ULL << bit)) {
        for (std::size_t i = 0; i < 4; ++i) acc[i] ^= s_[i];
      }
      advance(s_);
    }
  }
  s_ = acc;
}

void Xoshiro256ss::jump() noexcept { jump_by(kJump); }

void Xoshiro256ss::jump_pow2(unsigned exponent) noexcept {
  HCSCHED_PRECONDITION(exponent <= kMaxJumpExponent, "jump exponent ",
                       exponent, " exceeds ", kMaxJumpExponent);
  jump_by(jump_table()[exponent]);
}

}  // namespace hcsched::rng
