#include "obs/report.hpp"

#include "obs/metrics.hpp"
#include "report/table.hpp"
#include "sched/metrics.hpp"

namespace hcsched::obs {

namespace {

std::string machine_label(sched::MachineId machine) {
  std::string label(1, 'm');
  label += std::to_string(machine);
  return label;
}

JsonValue machine_times_json(
    const std::vector<std::pair<sched::MachineId, double>>& times) {
  JsonValue::Object object;
  object.reserve(times.size());
  for (const auto& [machine, t] : times) {
    object.emplace_back(machine_label(machine), JsonValue(t));
  }
  return JsonValue(std::move(object));
}

/// {count, total_ns, mean_ns, p50_ns, p99_ns} of an unlabelled histogram
/// (all zeros when it was never registered).
JsonValue latency_json(std::string_view name) {
  static const MetricHistogram kEmpty;
  const auto series = metrics::histogram_series(name);
  const MetricHistogram& h = series.empty() ? kEmpty : *series.front().second;
  return JsonValue(JsonValue::Object{
      {"count", JsonValue(h.count())},
      {"total_ns", JsonValue(h.sum())},
      {"mean_ns", JsonValue(h.mean())},
      {"p50_ns", JsonValue(h.quantile_upper_bound(0.50))},
      {"p99_ns", JsonValue(h.quantile_upper_bound(0.99))},
  });
}

}  // namespace

RunReport build_run_report(std::string_view heuristic,
                           const core::IterativeResult& result) {
  RunReport report;
  report.heuristic.assign(heuristic);
  report.final_finishing_times = result.final_finishing_times;
  report.original_makespan = result.original().makespan;
  report.final_makespan = result.final_makespan();
  report.makespan_increased = result.makespan_increased();
  const auto& original_problem = result.original().problem();
  report.num_tasks = original_problem.num_tasks();
  report.num_machines = original_problem.num_machines();

  report.iterations.reserve(result.iterations.size());
  for (std::size_t i = 0; i < result.iterations.size(); ++i) {
    const core::IterationRecord& record = result.iterations[i];
    IterationSummary summary;
    summary.index = record.index;
    summary.num_tasks = record.problem().num_tasks();
    summary.num_machines = record.problem().num_machines();
    summary.makespan = record.makespan;
    summary.balance_index = sched::load_balance_index(record.schedule);
    const bool terminal = i + 1 == result.iterations.size();
    if (!terminal) {
      summary.removed_machine = record.makespan_machine;
      summary.frozen_completion_time = record.makespan;
    }
    for (sched::MachineId m : record.problem().machines()) {
      summary.completion_times.emplace_back(
          m, record.schedule.completion_time(m));
    }
    report.iterations.push_back(std::move(summary));
  }

  for (std::size_t i = 0; i < kNumCounters; ++i) {
    report.counters[i] = counters::read(static_cast<Counter>(i));
  }
  for (const auto& [name, h] :
       metrics::histogram_series("hcsched_heuristic_map_ns")) {
    report.heuristic_timings.emplace_back(
        name, HeuristicTiming{h->count(), h->sum()});
  }
  return report;
}

JsonValue to_json(const RunReport& report) {
  JsonValue::Array iterations;
  iterations.reserve(report.iterations.size());
  for (const IterationSummary& it : report.iterations) {
    JsonValue::Object object{
        {"index", JsonValue(it.index)},
        {"tasks", JsonValue(it.num_tasks)},
        {"machines", JsonValue(it.num_machines)},
        {"makespan", JsonValue(it.makespan)},
        {"balance_index", JsonValue(it.balance_index)},
        {"completion_times", machine_times_json(it.completion_times)},
    };
    if (it.removed_machine >= 0) {
      object.emplace_back("removed_machine",
                          JsonValue(machine_label(it.removed_machine)));
      object.emplace_back("frozen_completion_time",
                          JsonValue(it.frozen_completion_time));
    }
    iterations.emplace_back(std::move(object));
  }

  JsonValue::Object counters;
  counters.reserve(kNumCounters);
  for (std::size_t i = 0; i < kNumCounters; ++i) {
    counters.emplace_back(std::string(to_string(static_cast<Counter>(i))),
                          JsonValue(report.counters[i]));
  }

  JsonValue::Object timings;
  timings.reserve(report.heuristic_timings.size());
  for (const auto& [name, timing] : report.heuristic_timings) {
    timings.emplace_back(name,
                         JsonValue(JsonValue::Object{
                             {"calls", JsonValue(timing.calls)},
                             {"total_ns", JsonValue(timing.total_ns)},
                             {"mean_ns", JsonValue(timing.mean_ns())},
                         }));
  }

  return JsonValue(JsonValue::Object{
      {"heuristic", JsonValue(report.heuristic)},
      {"tasks", JsonValue(report.num_tasks)},
      {"machines", JsonValue(report.num_machines)},
      {"original_makespan", JsonValue(report.original_makespan)},
      {"final_makespan", JsonValue(report.final_makespan)},
      {"makespan_increased", JsonValue(report.makespan_increased)},
      {"iterations", JsonValue(std::move(iterations))},
      {"final_finishing_times",
       machine_times_json(report.final_finishing_times)},
      {"counters", JsonValue(std::move(counters))},
      {"heuristic_timings", JsonValue(std::move(timings))},
      {"pool_wait", latency_json("hcsched_pool_wait_ns")},
      {"pool_run", latency_json("hcsched_pool_run_ns")},
  });
}

std::string to_text(const RunReport& report) {
  using hcsched::report::TextTable;
  std::string out = "run report: " + report.heuristic + " on " +
                    std::to_string(report.num_tasks) + " tasks x " +
                    std::to_string(report.num_machines) + " machines\n";

  TextTable iterations({"iter", "tasks", "machines", "makespan",
                        "balance index", "removed", "frozen CT"});
  for (const IterationSummary& it : report.iterations) {
    iterations.add_row(
        {std::to_string(it.index), std::to_string(it.num_tasks),
         std::to_string(it.num_machines), TextTable::num(it.makespan, 4),
         TextTable::num(it.balance_index, 4),
         it.removed_machine >= 0 ? machine_label(it.removed_machine)
                                 : "-",
         it.removed_machine >= 0
             ? TextTable::num(it.frozen_completion_time, 4)
             : "-"});
  }
  out += iterations.to_string();

  TextTable finals({"machine", "final CT"});
  for (const auto& [machine, t] : report.final_finishing_times) {
    finals.add_row({machine_label(machine), TextTable::num(t, 4)});
  }
  out += finals.to_string();
  out += "effective makespan " + TextTable::num(report.original_makespan, 4) +
         " -> " + TextTable::num(report.final_makespan, 4) +
         (report.makespan_increased ? " (INCREASED)\n" : "\n");

  TextTable counters({"counter", "value"});
  for (std::size_t i = 0; i < kNumCounters; ++i) {
    counters.add_row({std::string(to_string(static_cast<Counter>(i))),
                      std::to_string(report.counters[i])});
  }
  out += counters.to_string();

  if (!report.heuristic_timings.empty()) {
    TextTable timings({"heuristic", "calls", "total ms", "mean us"});
    for (const auto& [name, timing] : report.heuristic_timings) {
      timings.add_row(
          {name, std::to_string(timing.calls),
           TextTable::num(static_cast<double>(timing.total_ns) / 1e6, 3),
           TextTable::num(timing.mean_ns() / 1e3, 3)});
    }
    out += timings.to_string();
  }
  return out;
}

}  // namespace hcsched::obs
