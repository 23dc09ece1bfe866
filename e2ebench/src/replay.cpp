#include "replay.hpp"

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <memory>
#include <mutex>
#include <utility>

#include "core/iterative.hpp"
#include "etc/consistency.hpp"
#include "etc/cvb_generator.hpp"
#include "ga/genitor.hpp"
#include "heuristics/registry.hpp"
#include "rng/rng.hpp"
#include "sim/checkpoint.hpp"

namespace e2e {

namespace {

namespace core = hcsched::core;
namespace etc = hcsched::etc;
namespace heuristics = hcsched::heuristics;
namespace rng = hcsched::rng;
namespace sched = hcsched::sched;

/// Forwards to the inner heuristic's public entry points and books the
/// call's wall time (and Genitor's run statistics) into the chunk's layers.
class TimedHeuristic final : public heuristics::Heuristic {
 public:
  TimedHeuristic(std::unique_ptr<heuristics::Heuristic> inner, double* map_s,
                 Layers& layers)
      : inner_(std::move(inner)),
        genitor_(dynamic_cast<const hcsched::ga::Genitor*>(inner_.get())),
        map_s_(genitor_ != nullptr ? &layers.ga_map_s : map_s),
        layers_(layers) {}

  std::string_view name() const noexcept override { return inner_->name(); }
  bool deterministic_given_ties() const noexcept override {
    return inner_->deterministic_given_ties();
  }

 protected:
  sched::Schedule do_map(const sched::Problem& problem,
                         heuristics::TieBreaker& ties) const override {
    const auto start = Clock::now();
    sched::Schedule s = inner_->map(problem, ties);
    book(start);
    return s;
  }

  sched::Schedule do_map_seeded(const sched::Problem& problem,
                                heuristics::TieBreaker& ties,
                                const sched::Schedule* seed) const override {
    const auto start = Clock::now();
    sched::Schedule s = inner_->map_seeded(problem, ties, seed);
    book(start);
    return s;
  }

 private:
  void book(Clock::time_point start) const {
    *map_s_ += seconds_between(start, Clock::now());
    if (genitor_ != nullptr) {
      ++layers_.ga_calls;
      layers_.ga_steps += genitor_->last_run().steps_executed;
      layers_.ga_improvements += genitor_->last_run().improvements;
    } else {
      ++layers_.map_calls;
    }
  }

  std::unique_ptr<heuristics::Heuristic> inner_;
  const hcsched::ga::Genitor* genitor_;
  double* map_s_;
  Layers& layers_;
};

void book_split(Layers& layers, Clock::time_point start) {
  const double s = seconds_between(start, Clock::now());
  layers.rng_split_s += s;
  layers.rng_split_max_s = std::max(layers.rng_split_max_s, s);
  ++layers.rng_splits;
}

/// The record run_one_trial derives from one iterative run (same
/// arithmetic, same order).
sim::TrialRecord make_record(const std::string& heuristic,
                             const core::IterativeResult& result) {
  sim::TrialRecord record;
  record.heuristic = heuristic;
  const auto& original = result.original().schedule;
  const sched::MachineId span_machine = result.original().makespan_machine;
  record.original_makespan = result.original().makespan;
  double orig_sum = 0.0;
  double final_sum = 0.0;
  for (const auto& [machine, final_ct] : result.final_finishing_times) {
    const double orig_ct = original.completion_time(machine);
    orig_sum += orig_ct;
    final_sum += final_ct;
    if (machine == span_machine) continue;
    const double delta = final_ct - orig_ct;
    if (delta < -1e-9) {
      ++record.machines_improved;
    } else if (delta > 1e-9) {
      ++record.machines_worsened;
    } else {
      ++record.machines_unchanged;
    }
    if (orig_ct > 0.0) record.finish_deltas.push_back(delta / orig_ct);
  }
  if (orig_sum > 0.0) {
    record.has_mean_completion_delta = true;
    record.mean_completion_delta = (final_sum - orig_sum) / orig_sum;
  }
  record.makespan_increased = result.makespan_increased();
  return record;
}

sim::TrialOutcome replay_trial(
    const sim::StudyParams& params, std::size_t trial,
    const std::vector<std::unique_ptr<TimedHeuristic>>& instances,
    const etc::CvbEtcGenerator& generator,
    const core::IterativeMinimizer& minimizer, Layers& layers) {
  sim::TrialOutcome outcome;
  outcome.completed = true;
  auto start = Clock::now();
  rng::Rng trial_rng = rng::Rng(params.seed).split(trial);
  book_split(layers, start);

  start = Clock::now();
  const etc::EtcMatrix matrix = etc::shape_consistency(
      generator.generate(trial_rng), params.consistency);
  layers.etc_generate_s += seconds_between(start, Clock::now());
  layers.etc_cells += matrix.num_tasks() * matrix.num_machines();

  start = Clock::now();
  const sched::Problem problem = sched::Problem::full(matrix);
  layers.sched_problem_s += seconds_between(start, Clock::now());

  for (std::size_t h = 0; h < instances.size(); ++h) {
    // The study derives each heuristic's tie stream even under
    // deterministic ties; the replay pays the same split.
    start = Clock::now();
    const rng::Rng tie_rng = trial_rng.split(h);
    book_split(layers, start);
    (void)tie_rng;
    rng::TieBreaker ties;

    start = Clock::now();
    const core::IterativeResult result =
        minimizer.run(*instances[h], problem, ties);
    layers.iterate_s += seconds_between(start, Clock::now());
    layers.iterations += result.iterations.size();
    outcome.records.push_back(make_record(params.heuristics[h], result));
  }
  return outcome;
}

/// One point: chunks over the pool, then the trial-ordered fold.
sim::StudyReport replay_study(const sim::StudyParams& params,
                              const std::string& label, sim::ThreadPool& pool,
                              const sim::CheckpointData* resume,
                              sim::CheckpointWriter* writer, Layers& total) {
  std::vector<sim::TrialOutcome> outcomes(params.trials);
  std::atomic<std::size_t> replayed{0};
  std::mutex merge_mutex;
  const auto dispatched = Clock::now();
  pool.parallel_for_chunks(params.trials, [&](std::size_t begin,
                                              std::size_t end) {
    const auto started = Clock::now();
    Layers local;
    local.map_s.assign(params.heuristics.size(), 0.0);
    local.pool_queue_wait_s = seconds_between(dispatched, started);
    std::vector<std::unique_ptr<TimedHeuristic>> instances;
    for (std::size_t h = 0; h < params.heuristics.size(); ++h) {
      instances.push_back(std::make_unique<TimedHeuristic>(
          heuristics::make_heuristic(params.heuristics[h]), &local.map_s[h],
          local));
    }
    const etc::CvbEtcGenerator generator(params.cvb);
    const core::IterativeMinimizer minimizer{
        core::IterativeOptions{.use_seeding = params.use_seeding}};

    for (std::size_t trial = begin; trial < end; ++trial) {
      const auto trial_start = Clock::now();
      if (resume != nullptr) {
        if (const sim::TrialOutcome* stored =
                resume->find(label, params.seed, trial)) {
          outcomes[trial] = *stored;
          replayed.fetch_add(1, std::memory_order_relaxed);
          ++local.checkpoint_replayed;
          local.checkpoint_replay_s +=
              seconds_between(trial_start, Clock::now());
          continue;
        }
        local.checkpoint_replay_s +=
            seconds_between(trial_start, Clock::now());
      }
      sim::TrialOutcome outcome = replay_trial(params, trial, instances,
                                               generator, minimizer, local);
      if (writer != nullptr) {
        const auto append_start = Clock::now();
        writer->append_trial(sim::CheckpointKey{label, params.seed, trial},
                             outcome);
        local.checkpoint_append_s +=
            seconds_between(append_start, Clock::now());
        ++local.checkpoint_lines;
      }
      outcomes[trial] = std::move(outcome);
      local.trial_ms.push_back(1e3 *
                               seconds_between(trial_start, Clock::now()));
    }
    local.pool_busy_s = seconds_between(started, Clock::now());
    const std::lock_guard lock(merge_mutex);
    total.merge(local);
  });

  const auto fold_start = Clock::now();
  sim::StudyReport report = sim::fold_outcomes(params, std::move(outcomes));
  total.fold_s += seconds_between(fold_start, Clock::now());
  report.trials_replayed = replayed.load(std::memory_order_relaxed);
  return report;
}

}  // namespace

void Layers::merge(const Layers& o) {
  rng_split_s += o.rng_split_s;
  rng_split_max_s = std::max(rng_split_max_s, o.rng_split_max_s);
  rng_splits += o.rng_splits;
  etc_generate_s += o.etc_generate_s;
  etc_cells += o.etc_cells;
  sched_problem_s += o.sched_problem_s;
  map_s.resize(std::max(map_s.size(), o.map_s.size()), 0.0);
  for (std::size_t h = 0; h < o.map_s.size(); ++h) map_s[h] += o.map_s[h];
  map_calls += o.map_calls;
  ga_map_s += o.ga_map_s;
  ga_calls += o.ga_calls;
  ga_steps += o.ga_steps;
  ga_improvements += o.ga_improvements;
  iterate_s += o.iterate_s;
  iterations += o.iterations;
  pool_busy_s += o.pool_busy_s;
  pool_queue_wait_s += o.pool_queue_wait_s;
  checkpoint_load_s += o.checkpoint_load_s;
  checkpoint_append_s += o.checkpoint_append_s;
  checkpoint_replay_s += o.checkpoint_replay_s;
  checkpoint_lines += o.checkpoint_lines;
  checkpoint_bytes += o.checkpoint_bytes;
  checkpoint_replayed += o.checkpoint_replayed;
  fold_s += o.fold_s;
  trial_ms.insert(trial_ms.end(), o.trial_ms.begin(), o.trial_ms.end());
}

double Layers::map_total_s() const {
  double s = ga_map_s;
  for (const double m : map_s) s += m;
  return s;
}

double Layers::attributed_s() const {
  return rng_split_s + etc_generate_s + sched_problem_s + iterate_s +
         checkpoint_append_s + checkpoint_replay_s;
}

TracedUnit run_traced_unit(const Workload& w, const sim::StudyParams& base,
                           sim::ThreadPool& pool,
                           const std::string& checkpoint) {
  TracedUnit traced;
  traced.layers.map_s.assign(w.heuristics.size(), 0.0);
  const auto start = Clock::now();
  std::unique_ptr<sim::CheckpointData> resume;
  std::unique_ptr<sim::CheckpointWriter> writer;
  std::uintmax_t bytes_before = 0;
  if (!checkpoint.empty()) {
    const auto load_start = Clock::now();
    resume = std::make_unique<sim::CheckpointData>(
        sim::load_checkpoint(checkpoint));
    traced.layers.checkpoint_load_s = seconds_between(load_start, Clock::now());
    traced.corrupt_lines = resume->corrupt_lines;
    bytes_before = std::filesystem::file_size(checkpoint);
    writer = std::make_unique<sim::CheckpointWriter>(checkpoint);
  }
  for (const sim::SweepPoint& point : points_of(w)) {
    traced.result.push_back(PointReport{
        point.label,
        replay_study(point_params(base, point), point.label, pool,
                     resume.get(), writer.get(), traced.layers)});
  }
  writer.reset();  // flushes and closes before the size is read
  traced.wall_s = seconds_between(start, Clock::now());
  if (!checkpoint.empty()) {
    traced.layers.checkpoint_bytes =
        std::filesystem::file_size(checkpoint) - bytes_before;
  }
  return traced;
}

}  // namespace e2e
