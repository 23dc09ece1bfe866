// Workload definitions and correctness gates of the end-to-end benchmark.
//
// A workload is one fixed study or sweep shape. Its trial count is part of
// the definition: Rng::split(k) performs k+1 xoshiro jumps, so the RNG cost
// of trial k grows with k and a count that followed run length would make
// the per-trial cost drift. The benchmark repeats the whole unit (one study
// or one sweep) instead.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "sim/sweep.hpp"

namespace e2e {

namespace sim = hcsched::sim;

struct Workload {
  std::string name;
  std::size_t tasks = 0;
  std::size_t machines = 0;
  /// Trials per study (per point for a sweep).
  std::size_t trials = 0;
  bool sweep = false;
  /// Resume from a checkpoint holding the first half of every point's
  /// trials and append the second half.
  bool resume = false;
  std::vector<std::string> heuristics{};
};

/// The four workloads, in the order `--workload all` runs them.
const std::vector<Workload>& workloads();
const Workload* find_workload(std::string_view name);

/// Study parameters of the workload's base cell with `trials` per point.
sim::StudyParams base_params(const Workload& w, std::uint64_t seed,
                             std::size_t trials);

/// The cells the unit runs: standard_sweep() for a sweep, else the single
/// unlabelled base cell.
std::vector<sim::SweepPoint> points_of(const Workload& w);

/// `base` specialised to one point, exactly as run_sweep_report does it.
sim::StudyParams point_params(const sim::StudyParams& base,
                              const sim::SweepPoint& point);

/// One study report per point, in point order.
struct PointReport {
  std::string label{};
  sim::StudyReport report{};
};
using UnitResult = std::vector<PointReport>;

/// Runs the unit through the public entry point: run_iterative_study_report
/// for a study, run_sweep_report for a sweep.
UnitResult run_unit(const Workload& w, const sim::StudyParams& base,
                    sim::ThreadPool& pool, const sim::StudyHooks& hooks = {});

/// The resume unit: load_checkpoint(checkpoint), then run_unit replaying
/// the stored trials and appending the computed ones to the same file.
/// `corrupt_lines` receives the loader's count of skipped lines.
UnitResult run_resume_unit(const Workload& w, const sim::StudyParams& base,
                           sim::ThreadPool& pool,
                           const std::string& checkpoint,
                           std::size_t& corrupt_lines);

/// Trials the unit completed, replayed ones included.
std::size_t trials_completed(const UnitResult& unit);

/// FNV-1a digest over every row of every point: labels, counts, and the bit
/// patterns of every RunningStats moment. Any schedule change moves it.
std::uint64_t digest(const UnitResult& unit);

/// True when both units hold the same per-trial records, bit for bit.
bool same_outcomes(const UnitResult& a, const UnitResult& b);

/// True when both units hold the same rows, bit for bit.
bool same_rows(const UnitResult& a, const UnitResult& b);

/// Executions and checks attempted, and how many of them failed.
class Tally {
 public:
  void check(bool ok, const std::string& what);
  /// Counts the unit's (trial, heuristic) executions and quarantines, and
  /// applies the invariants every run must meet: every trial completed,
  /// nothing quarantined, no cancellation, MET/MCT/Min-Min leave every
  /// machine unchanged (the paper's invariance theorems under deterministic
  /// ties) and Genitor never raises the makespan (paper section 3.1).
  void check_unit(const Workload& w, const UnitResult& unit);

  std::size_t attempted() const noexcept { return attempted_; }
  std::size_t failed() const noexcept { return failed_; }

 private:
  std::size_t attempted_ = 0;
  std::size_t failed_ = 0;
};

}  // namespace e2e
