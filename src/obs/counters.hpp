// Operation counters: the hot-path write side of the metrics registry.
//
// Wall-clock alone is a dishonest currency for comparing heuristics (fast
// local-search literature counts *evaluations*), so hot paths count
// operations from a fixed catalog. add() writes a plain thread-local buffer
// (no atomics on the hot path); the buffer flushes into the global
// MetricsRegistry's `hcsched_ops_total{op="<name>"}` counters when a
// CounterScope exits, when the owning thread exits, or when the calling
// thread reads (counters::read, metrics::snapshot_json/prometheus_text).
//
// Instrument with HCSCHED_COUNT(...), which compiles away entirely under
// -DHCSCHED_TRACE=0 (the same kill switch as tracing). The query API is
// always compiled so tooling builds in every configuration.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>

#include "obs/trace.hpp"  // HCSCHED_TRACE

namespace hcsched::obs {

enum class Counter : std::size_t {
  kHeuristicInvocations = 0,  ///< Heuristic::map / map_seeded calls
  kEtcCellEvaluations,        ///< ready + ETC(task, machine) lookups scored
  kTieDecisions,              ///< TieBreaker choose_* calls
  kTieEvents,                 ///< genuine ties (candidate set > 1)
  kGaSteps,                   ///< Genitor steady-state steps
  kGaCrossovers,              ///< Genitor crossovers applied
  kGaMutations,               ///< Genitor mutation trials
  kGaEvaluations,             ///< Genitor full fitness passes run
  kSearchNodesExpanded,       ///< A* / branch-and-bound nodes expanded
  kIterativeRuns,             ///< IterativeMinimizer::run calls
  kIterativeIterations,       ///< iterations across all runs
  kPoolTasksSubmitted,        ///< ThreadPool::submit calls
  kPoolTasksCompleted,        ///< pool tasks finished
  kFastpathRescores,          ///< fast-path kernel full task rescores
  kFastpathReplays,           ///< fast-path kernel cached-decision replays
  kFaultsInjected,            ///< fault::maybe_inject decisions that fired
  kTrialsQuarantined,         ///< study trials captured instead of aborting
  kStudiesCancelled,          ///< studies stopped early by a CancelToken
  kCheckpointTrialsWritten,   ///< trial outcomes appended to a checkpoint
  kCheckpointTrialsReplayed,  ///< trials resumed from a checkpoint
  kCheckpointCorruptLines,    ///< checkpoint lines skipped as unreadable
  kCount
};

inline constexpr std::size_t kNumCounters =
    static_cast<std::size_t>(Counter::kCount);

/// Stable snake_case name of a counter: its `op` label value.
std::string_view to_string(Counter c) noexcept;

namespace counters {

/// Adds `n` to the calling thread's buffer for `c` (cheap, no atomics).
void add(Counter c, std::uint64_t n = 1) noexcept;

/// Flushes the calling thread's buffer into the registry. Called
/// automatically at thread exit and by CounterScope / read().
void flush_thread() noexcept;

/// Flushes the calling thread's buffer, then reads
/// `hcsched_ops_total{op="<to_string(c)>"}` from the global registry. Counts
/// buffered by *other* live threads that have not flushed yet are not
/// included.
std::uint64_t read(Counter c);

/// RAII: flushes this thread's counter buffer on scope exit. Place one at
/// the top of a worker's chunk so its counts land in the registry as soon
/// as the chunk finishes.
class CounterScope {
 public:
  CounterScope() = default;
  ~CounterScope() { flush_thread(); }
  CounterScope(const CounterScope&) = delete;
  CounterScope& operator=(const CounterScope&) = delete;
};

}  // namespace counters

}  // namespace hcsched::obs

#if HCSCHED_TRACE
#define HCSCHED_COUNT(counter, ...) \
  ::hcsched::obs::counters::add((counter), ##__VA_ARGS__)
#else
#define HCSCHED_COUNT(counter, ...) \
  do {                              \
  } while (0)
#endif
