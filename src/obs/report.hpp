// Run-report builder.
//
// Snapshots everything one run of the iterative technique produced into a
// single JSON-ready document: per-iteration scheduler state (machine
// removed, frozen completion time, completion-time vector, balance index —
// the paper's per-iteration trajectory), the final finishing times, the
// operation counts, per-heuristic timings, and the thread-pool latency
// summaries — all read from the metrics registry. The CLI `report`
// subcommand pretty-prints it; the production_pipeline example prints one.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/iterative.hpp"
#include "obs/counters.hpp"
#include "obs/json.hpp"

namespace hcsched::obs {

/// One iteration of the technique, summarized for reporting.
struct IterationSummary {
  std::size_t index = 0;
  std::size_t num_tasks = 0;
  std::size_t num_machines = 0;
  double makespan = 0.0;
  /// Machine whose finishing time was frozen and removed after this
  /// iteration; -1 for the terminal iteration (nothing removed).
  sched::MachineId removed_machine = -1;
  /// The removed machine's frozen completion time (== makespan) for
  /// non-terminal iterations; 0 otherwise.
  double frozen_completion_time = 0.0;
  /// min(CT)/max(CT) over this iteration's machines (SWA's balance index).
  double balance_index = 0.0;
  /// (machine, completion time) for every machine alive this iteration.
  std::vector<std::pair<sched::MachineId, double>> completion_times{};
};

/// One `hcsched_heuristic_map_ns{heuristic=...}` series: its count is the
/// number of calls and its sum the total nanoseconds.
struct HeuristicTiming {
  std::uint64_t calls = 0;
  std::uint64_t total_ns = 0;

  double mean_ns() const noexcept {
    return calls == 0 ? 0.0
                      : static_cast<double>(total_ns) /
                            static_cast<double>(calls);
  }
};

struct RunReport {
  std::string heuristic{};
  std::size_t num_tasks = 0;
  std::size_t num_machines = 0;
  double original_makespan = 0.0;
  double final_makespan = 0.0;
  bool makespan_increased = false;
  std::vector<IterationSummary> iterations{};
  /// (machine, final finishing time), initial machine order.
  std::vector<std::pair<sched::MachineId, double>> final_finishing_times{};
  /// Operation counts at build time, in Counter order (whole-process; call
  /// metrics::reset() before the run to scope them to it).
  std::array<std::uint64_t, kNumCounters> counters{};
  /// (heuristic name, timing) pairs sorted by name.
  std::vector<std::pair<std::string, HeuristicTiming>> heuristic_timings{};
};

/// Builds the report from a finished IterativeResult, reading the operation
/// counts and heuristic timings from the global metrics registry.
RunReport build_run_report(std::string_view heuristic,
                           const core::IterativeResult& result);

/// The full report as one JSON document. `pool_wait` / `pool_run`
/// summarize the live `hcsched_pool_{wait,run}_ns` histograms as {count,
/// total_ns, mean_ns, p50_ns, p99_ns}; the quantiles are bucket upper
/// bounds (log4 resolution).
JsonValue to_json(const RunReport& report);

/// Human-readable rendering (tables) for the CLI `report` subcommand.
std::string to_text(const RunReport& report);

}  // namespace hcsched::obs
