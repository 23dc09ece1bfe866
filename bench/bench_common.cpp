#include "bench_common.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>

#include "heuristics/registry.hpp"
#include "obs/counters.hpp"
#include "obs/trace.hpp"
#include "report/gantt.hpp"
#include "report/table.hpp"

namespace hcsched::bench {

namespace {

using report::TextTable;

void print_etc_table(const core::PaperExample& example) {
  const auto& m = *example.matrix;
  std::vector<std::string> header = {"task"};
  for (std::size_t j = 0; j < m.num_machines(); ++j) {
    header.push_back(std::string("m") + std::to_string(j));
  }
  TextTable table(std::move(header));
  for (std::size_t t = 0; t < m.num_tasks(); ++t) {
    std::vector<std::string> row = {std::string("t") + std::to_string(t)};
    for (std::size_t j = 0; j < m.num_machines(); ++j) {
      row.push_back(TextTable::num(
          m.at(static_cast<int>(t), static_cast<int>(j))));
    }
    table.add_row(std::move(row));
  }
  std::printf("%s", table.to_string().c_str());
}

void print_mapping_table(const sched::Schedule& schedule) {
  const auto& problem = schedule.problem();
  std::vector<std::string> header = {"step", "task", "machine"};
  for (sched::MachineId m : problem.machines()) {
    header.push_back(std::string("m") + std::to_string(m) + " CT");
  }
  TextTable table(std::move(header));
  std::vector<double> running = problem.initial_ready_times();
  std::size_t step = 0;
  for (const sched::Assignment& a : schedule.assignment_order()) {
    running[problem.slot_of(a.machine)] = a.finish;
    std::vector<std::string> row = {std::to_string(++step),
                                    std::string("t") + std::to_string(a.task),
                                    std::string("m") + std::to_string(a.machine)};
    for (double ct : running) row.push_back(TextTable::num(ct));
    table.add_row(std::move(row));
  }
  std::printf("%s", table.to_string().c_str());
}

void print_ct_comparison(const core::PaperExample& example,
                         const core::IterativeResult& result) {
  TextTable table({"machine", "paper orig CT", "measured orig CT",
                   "paper final CT", "measured final CT"});
  const auto& original = result.original().schedule;
  for (std::size_t m = 0; m < example.matrix->num_machines(); ++m) {
    const auto id = static_cast<sched::MachineId>(m);
    table.add_row({std::string("m") + std::to_string(m),
                   TextTable::num(example.expected_original_ct[m]),
                   TextTable::num(original.completion_time(id)),
                   TextTable::num(example.expected_final_ct[m]),
                   TextTable::num(result.final_finish_of(id))});
  }
  std::printf("%s", table.to_string().c_str());
  std::printf("makespan: paper %s -> %s, measured %s -> %s\n",
              TextTable::num(example.expected_original_makespan).c_str(),
              TextTable::num(example.expected_final_makespan).c_str(),
              TextTable::num(result.original().makespan).c_str(),
              TextTable::num(result.final_makespan()).c_str());
}

/// Attaches the per-benchmark-iteration operation counts (ETC cells
/// evaluated, tie-break decisions, heuristic invocations) to the benchmark's
/// user counters, so timing rows carry their work alongside their latency.
/// All zeros when the library is built with HCSCHED_TRACE=0.
void attach_counter_deltas(benchmark::State& state, const OpCounts& before) {
  const auto per_iter = [&state, &before](obs::Counter c) {
    const std::uint64_t total =
        obs::counters::read(c) - before[static_cast<std::size_t>(c)];
    return benchmark::Counter(
        static_cast<double>(total) /
        static_cast<double>(std::max<std::int64_t>(1, state.iterations())));
  };
  state.counters["etc_cells"] = per_iter(obs::Counter::kEtcCellEvaluations);
  state.counters["tie_decisions"] = per_iter(obs::Counter::kTieDecisions);
  state.counters["heuristic_calls"] =
      per_iter(obs::Counter::kHeuristicInvocations);
}

}  // namespace

OpCounts read_op_counts() {
  OpCounts out{};
  for (std::size_t i = 0; i < obs::kNumCounters; ++i) {
    out[i] = obs::counters::read(static_cast<obs::Counter>(i));
  }
  return out;
}

void print_counter_deltas(const OpCounts& before) {
  if (!obs::kTraceCompiledIn) {
    std::printf("-- operation counters: compiled out (HCSCHED_TRACE=0) --\n");
    return;
  }
  TextTable table({"counter", "value"});
  const OpCounts after = read_op_counts();
  for (std::size_t i = 0; i < obs::kNumCounters; ++i) {
    table.add_row({std::string(obs::to_string(static_cast<obs::Counter>(i))),
                   std::to_string(after[i] - before[i])});
  }
  std::printf("-- operation counters (reproduction section) --\n%s",
              table.to_string().c_str());
}

bool print_example_reproduction(const core::PaperExample& example) {
  std::printf("=== %s example — %s / %s ===\n", example.heuristic.c_str(),
              example.table_refs.c_str(), example.figure_refs.c_str());
  std::printf("%s\n\n", example.notes.c_str());

  std::printf("-- ETC matrix (reconstruction, %s) --\n",
              example.table_refs.c_str());
  print_etc_table(example);

  const auto result = core::run_paper_example(example);

  std::printf("\n-- Original mapping (%s) --\n", example.table_refs.c_str());
  print_mapping_table(result.original().schedule);
  std::printf("%s", report::render_gantt(result.original().schedule).c_str());

  if (result.iterations.size() > 1) {
    std::printf("\n-- First iterative mapping --\n");
    print_mapping_table(result.iterations[1].schedule);
    std::printf("%s",
                report::render_gantt(result.iterations[1].schedule).c_str());
  }

  std::printf("\n-- Paper vs measured (%s) --\n", example.table_refs.c_str());
  print_ct_comparison(example, result);

  const bool ok = core::example_matches(example, result) &&
                  result.makespan_increased();
  std::printf("reproduction check: %s\n\n", ok ? "PASS" : "FAIL");
  return ok;
}

void register_example_benchmarks(const core::PaperExample& example) {
  const auto* ex = &example;
  benchmark::RegisterBenchmark(
      (example.id + "/heuristic_map").c_str(),
      [ex](benchmark::State& state) {
        const auto heuristic = heuristics::make_heuristic(ex->heuristic);
        const sched::Problem problem = sched::Problem::full(*ex->matrix);
        const OpCounts before = read_op_counts();
        for (auto _ : state) {
          rng::TieBreaker ties;
          benchmark::DoNotOptimize(heuristic->map(problem, ties));
        }
        attach_counter_deltas(state, before);
      });
  benchmark::RegisterBenchmark(
      (example.id + "/iterative_run").c_str(),
      [ex](benchmark::State& state) {
        const auto heuristic = heuristics::make_heuristic(ex->heuristic);
        const sched::Problem problem = sched::Problem::full(*ex->matrix);
        const core::IterativeMinimizer minimizer{
            core::IterativeOptions{.use_seeding = false}};
        const OpCounts before = read_op_counts();
        for (auto _ : state) {
          rng::TieBreaker ties(std::vector<std::size_t>(ex->tie_script));
          benchmark::DoNotOptimize(minimizer.run(*heuristic, problem, ties));
        }
        attach_counter_deltas(state, before);
      });
}

int run_example_main(int argc, char** argv,
                     const core::PaperExample& example) {
  const OpCounts before = read_op_counts();
  const bool ok = print_example_reproduction(example);
  print_counter_deltas(before);
  std::printf("\n");
  register_example_benchmarks(example);
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return ok ? 0 : 1;
}

}  // namespace hcsched::bench
