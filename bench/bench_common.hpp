// Shared machinery for the paper-example bench binaries: prints the
// reproduced tables (ETC matrix, per-iteration allocations, completion
// times) and figures (ASCII Gantt charts), compares against the paper's
// reported values, then hands control to google-benchmark for the timing
// section.
#pragma once

#include <benchmark/benchmark.h>

#include <array>
#include <cstdint>

#include "core/paper_examples.hpp"
#include "obs/counters.hpp"

namespace hcsched::bench {

/// Every operation count, in Counter order.
using OpCounts = std::array<std::uint64_t, obs::kNumCounters>;

/// Reads every operation count from the metrics registry.
OpCounts read_op_counts();

/// Prints a table of the operation counts accumulated since `before` (one
/// row per counter).
void print_counter_deltas(const OpCounts& before);

/// Prints the full reproduction of one worked example:
///  * the reconstructed ETC matrix (paper's "Table N: ETC matrix ..."),
///  * the original mapping table + Gantt figure,
///  * the first iterative mapping table + Gantt figure,
///  * paper-reported vs measured completion times and makespans.
/// Returns false (and prints FAIL) if the measured values disagree with the
/// example's locked expectations.
bool print_example_reproduction(const core::PaperExample& example);

/// Registers the standard timing benchmarks for an example: the single
/// heuristic mapping and the full iterative run. `example` must outlive the
/// benchmark run (pass a function-local static).
void register_example_benchmarks(const core::PaperExample& example);

/// Shared main body: print reproduction, then run google-benchmark.
int run_example_main(int argc, char** argv, const core::PaperExample& example);

}  // namespace hcsched::bench
