// Traced replay of a workload unit: per-layer attribution from outside the
// library.
//
// The replay runs the study loop of sim/experiment.cpp in the same order —
// Rng(seed).split(trial), generate + shape_consistency, Problem::full,
// split(h), IterativeMinimizer::run — inside parallel_for_chunks chunks, and
// folds with fold_outcomes. Every public call is wrapped in a steady_clock
// span recorded in this benchmark's own accumulators; each heuristic is
// wrapped in a forwarding Heuristic subclass, so map time is measured
// without changing RNG use. The result must equal the untraced report bit
// for bit.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "workload.hpp"

namespace e2e {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

/// Per-layer accumulators of one traced unit. Each chunk fills its own copy
/// and merges it after its last trial. Times are seconds of worker time
/// unless noted.
struct Layers {
  double rng_split_s = 0.0;
  double rng_split_max_s = 0.0;
  std::uint64_t rng_splits = 0;
  double etc_generate_s = 0.0;  ///< generate + shape_consistency
  std::uint64_t etc_cells = 0;
  double sched_problem_s = 0.0;  ///< Problem::full
  /// Map time per heuristic, indexed like Workload::heuristics (Genitor's
  /// slot stays 0: it is booked under ga_map_s).
  std::vector<double> map_s{};
  std::uint64_t map_calls = 0;  ///< greedy heuristic calls
  double ga_map_s = 0.0;
  std::uint64_t ga_calls = 0;
  std::uint64_t ga_steps = 0;
  std::uint64_t ga_improvements = 0;
  double iterate_s = 0.0;  ///< IterativeMinimizer::run, map calls included
  std::uint64_t iterations = 0;
  double pool_busy_s = 0.0;        ///< chunk bodies
  double pool_queue_wait_s = 0.0;  ///< dispatch to chunk start
  double checkpoint_load_s = 0.0;  ///< main thread
  double checkpoint_append_s = 0.0;
  double checkpoint_replay_s = 0.0;  ///< resume lookup + copy
  std::uint64_t checkpoint_lines = 0;
  std::uint64_t checkpoint_bytes = 0;
  std::uint64_t checkpoint_replayed = 0;
  double fold_s = 0.0;  ///< main thread
  /// Wall time of every computed (not replayed) trial, milliseconds.
  std::vector<double> trial_ms{};

  void merge(const Layers& other);
  double map_total_s() const;
  /// Worker time spent inside a timed public call.
  double attributed_s() const;
};

struct TracedUnit {
  UnitResult result{};
  Layers layers{};
  double wall_s = 0.0;
  std::size_t corrupt_lines = 0;  ///< skipped by load_checkpoint
};

/// Replays one unit. With `checkpoint` non-empty the unit resumes from that
/// file and appends the trials it computes to it, like the untraced resume
/// unit.
TracedUnit run_traced_unit(const Workload& w, const sim::StudyParams& base,
                           sim::ThreadPool& pool,
                           const std::string& checkpoint);

}  // namespace e2e
