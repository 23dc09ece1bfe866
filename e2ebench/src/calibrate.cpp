#include "calibrate.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <thread>
#include <vector>

namespace e2e {

namespace {

std::uint64_t xorshift(std::uint64_t& x) {
  x ^= x << 13;
  x ^= x >> 7;
  x ^= x << 17;
  return x;
}

/// Two phases with the instruction mix of the study's hot paths. The first
/// is branchy integer and floating-point updates over a 16 KiB table, like
/// the greedy heuristics' scans. The second is a steady-state population of
/// small heap vectors: each step allocates a 24-gene child, sums its loads
/// through an index, and inserts it in order among 100 members, like
/// Genitor's evaluate and insert.
double kernel(std::uint64_t seed) {
  std::vector<double> table(2048);
  for (std::size_t i = 0; i < table.size(); ++i) {
    table[i] = static_cast<double>(i % 97) * 0.5;
  }
  std::uint64_t x = seed | 1U;
  double acc = 0.0;
  for (int it = 0; it < 30'000'000; ++it) {
    double& v = table[xorshift(x) & 2047U];
    if (v > acc * 1e-6) {
      acc += v;
    } else {
      acc -= 0.5 * v;
    }
    v = v * 0.999 + 1.0;
  }

  struct Member {
    double fitness = 0.0;
    std::vector<std::uint32_t> genes{};
  };
  std::vector<Member> population(100);
  for (int step = 0; step < 400'000; ++step) {
    Member child;
    child.genes.resize(24);
    for (auto& g : child.genes) g = static_cast<std::uint32_t>(xorshift(x) % 6U);
    std::vector<double> ready(6, 0.0);
    for (std::size_t t = 0; t < child.genes.size(); ++t) {
      ready[child.genes[t]] += table[(t * 6 + child.genes[t]) & 2047U];
    }
    for (const double r : ready) child.fitness = std::max(child.fitness, r);
    auto pos = population.begin();
    while (pos != population.end() && pos->fitness <= child.fitness) ++pos;
    population.insert(pos, std::move(child));
    population.pop_back();
  }
  return acc + population.front().fitness;
}

double cpu_seconds() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  const auto seconds = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) +
           1e-6 * static_cast<double>(t.tv_usec);
  };
  return seconds(u.ru_utime) + seconds(u.ru_stime);
}

}  // namespace

MachineFactor machine_factor(std::size_t threads) {
  std::vector<double> results(threads, 0.0);
  const double cpu_start = cpu_seconds();
  const auto start = std::chrono::steady_clock::now();
  {
    std::vector<std::jthread> workers;
    for (std::size_t t = 0; t < threads; ++t) {
      workers.emplace_back([&results, t] { results[t] = kernel(t + 1); });
    }
  }  // joins
  const std::chrono::duration<double> wall =
      std::chrono::steady_clock::now() - start;
  const double cpu = cpu_seconds() - cpu_start;
  // Publish the results so the kernel cannot be optimized away.
  static volatile double sink = 0.0;
  for (const double r : results) sink = sink + r;
  return MachineFactor{
      wall.count() / kReferenceSeconds,
      cpu / (static_cast<double>(threads) * kReferenceSeconds)};
}

MachineFactor mean(const MachineFactor& a, const MachineFactor& b) {
  return MachineFactor{0.5 * (a.wall + b.wall), 0.5 * (a.cpu + b.cpu)};
}

}  // namespace e2e
