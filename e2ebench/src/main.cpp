// End-to-end study/sweep benchmark with per-layer attribution.
//
//   e2e_bench --workload NAME|all [--seed N] [--seconds S] [--trace 0|1]
//             [--state FILE] [--work-dir DIR]
//
// One process, one ThreadPool of min(nproc, 4) workers, closed loop: the
// workload's unit (one study or one sweep) runs again and again until the
// next repetition would end past --seconds; metrics are medians over the
// repetitions, and the time-based end-to-end ones are scaled by the machine
// factor of calibrate.hpp. --trace 0 prints the end-to-end metrics of
// untraced units; --trace 1 prints per-layer metrics from a traced replay of
// each unit (see replay.hpp). Every unit passes the correctness gates of
// workload.hpp; with --state, the default seed's rows must also match the
// recorded digests. The last stdout line is one JSON object
// {"correct", "attempted", "failed", "metrics"}; the exit code is non-zero
// when any check failed.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "calibrate.hpp"
#include "obs/json.hpp"
#include "replay.hpp"
#include "sim/checkpoint.hpp"
#include "workload.hpp"

namespace {

using e2e::Clock;
using e2e::seconds_between;
using e2e::Tally;
using e2e::UnitResult;
using e2e::Workload;
using hcsched::obs::JsonValue;
namespace fs = std::filesystem;
namespace sim = hcsched::sim;

/// Set-ups per run; setup_s is their median.
constexpr int kSetups = 5;
/// bench.span_coverage must lie within 1 +- this.
constexpr double kCoverageTolerance = 0.05;

struct Options {
  std::string workload{};
  std::uint64_t seed = 7;
  double seconds = 10.0;
  bool trace = false;
  std::string state{};
  std::string work_dir = "build-e2ebench/work";
};

struct Metric {
  std::string name{};
  double value = 0.0;
  std::string unit{};
};
using Sample = std::vector<Metric>;

/// The recorded seed state: the default seed and, per workload, the shape
/// the digest was taken at.
struct SeedState {
  std::uint64_t default_seed = 0;
  JsonValue workloads{};
};

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  if (n == 0) return 0.0;
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile, q in (0, 1].
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::max(1.0, std::ceil(q * static_cast<double>(v.size()))));
  return v[std::min(rank, v.size()) - 1];
}

double cpu_seconds() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + 1e-6 * static_cast<double>(t.tv_usec);
  };
  return tv(u.ru_utime) + tv(u.ru_stime);
}

double peak_rss_mb() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Per-name median over the repetitions (every sample has the same names).
Sample medians(const std::vector<Sample>& reps) {
  Sample out = reps.front();
  for (std::size_t i = 0; i < out.size(); ++i) {
    std::vector<double> values;
    for (const Sample& s : reps) values.push_back(s[i].value);
    out[i].value = median(std::move(values));
  }
  return out;
}

Sample layer_metrics(const Workload& w, const e2e::TracedUnit& t,
                     double untraced_wall_s, std::size_t threads,
                     const e2e::MachineFactor& factor) {
  const e2e::Layers& l = t.layers;
  const double capacity = static_cast<double>(threads) * t.wall_s;
  const double idle = capacity - l.pool_busy_s;
  const auto count = [](std::uint64_t n) { return static_cast<double>(n); };
  Sample s = {
      {"ga.map_s", l.ga_map_s, "s"},
      {"ga.steps", count(l.ga_steps), "count"},
      {"ga.improvements", count(l.ga_improvements), "count"},
  };
  for (const char* name : {"MET", "MCT", "Min-Min", "SWA", "Sufferage", "KPB"}) {
    double map_s = 0.0;
    for (std::size_t h = 0; h < w.heuristics.size(); ++h) {
      if (w.heuristics[h] == name) map_s = l.map_s[h];
    }
    s.push_back({std::string("heuristics.map_s.") + name, map_s, "s"});
  }
  const Sample rest = {
      {"heuristics.calls", count(l.map_calls), "count"},
      {"core.iterate_self_s", l.iterate_s - l.map_total_s(), "s"},
      {"core.iterations", count(l.iterations), "count"},
      {"rng.split_s", l.rng_split_s, "s"},
      {"rng.split_max_ms", 1e3 * l.rng_split_max_s, "ms"},
      {"rng.splits", count(l.rng_splits), "count"},
      {"etc.generate_s", l.etc_generate_s, "s"},
      {"etc.cells", count(l.etc_cells), "count"},
      {"sched.problem_s", l.sched_problem_s, "s"},
      {"sim.pool_busy_s", l.pool_busy_s, "s"},
      {"sim.pool_idle_frac", idle / capacity, "ratio"},
      {"sim.pool_queue_wait_s", l.pool_queue_wait_s, "s"},
      {"sim.checkpoint.append_s", l.checkpoint_append_s, "s"},
      {"sim.checkpoint.bytes", count(l.checkpoint_bytes), "bytes"},
      {"sim.checkpoint.lines", count(l.checkpoint_lines), "count"},
      {"sim.checkpoint.load_s", l.checkpoint_load_s, "s"},
      {"sim.checkpoint.replayed", count(l.checkpoint_replayed), "count"},
      {"sim.checkpoint.replay_s", l.checkpoint_replay_s, "s"},
      {"sim.fold_s", l.fold_s, "s"},
      {"sim.trial_p50_ms", percentile(l.trial_ms, 0.50), "ms"},
      {"sim.trial_p99_ms", percentile(l.trial_ms, 0.99), "ms"},
      {"sim.trials", count(l.trial_ms.size()), "count"},
      {"bench.trace_overhead_frac", t.wall_s / untraced_wall_s - 1.0, "ratio"},
      {"bench.machine_factor", factor.wall, "ratio"},
      {"bench.span_coverage", (l.attributed_s() + idle) / capacity, "ratio"},
  };
  s.insert(s.end(), rest.begin(), rest.end());
  return s;
}

/// Gates every unit (untraced or replayed) must pass.
void check_unit_result(const Workload& w, const UnitResult& unit,
                       std::size_t corrupt_lines, const UnitResult* reference,
                       std::optional<std::uint64_t> expected_digest,
                       Tally& tally) {
  tally.check_unit(w, unit);
  if (expected_digest.has_value()) {
    char got[32];
    std::snprintf(got, sizeof(got), "%016llx",
                  static_cast<unsigned long long>(e2e::digest(unit)));
    tally.check(e2e::digest(unit) == *expected_digest,
                w.name + ": rows digest " + got +
                    " differs from the recorded seed state");
  }
  if (reference != nullptr) {
    tally.check(corrupt_lines == 0, w.name + ": " +
                                        std::to_string(corrupt_lines) +
                                        " corrupt checkpoint line(s)");
    for (const e2e::PointReport& p : unit) {
      tally.check(p.report.trials_replayed == w.trials / 2,
                  w.name + " " + p.label + ": replayed " +
                      std::to_string(p.report.trials_replayed) + " of " +
                      std::to_string(w.trials) + " trials");
    }
    tally.check(e2e::same_rows(unit, *reference) &&
                    e2e::same_outcomes(unit, *reference),
                w.name + ": resumed rows differ from the uninterrupted run");
  }
}

std::optional<std::uint64_t> expected_digest(const Workload& w,
                                             const Options& opt,
                                             const SeedState* state,
                                             Tally& tally) {
  if (state == nullptr) return std::nullopt;
  const JsonValue* entry = state->workloads.find(w.name);
  tally.check(entry != nullptr, w.name + ": missing from the seed state");
  if (entry == nullptr) return std::nullopt;
  // The digest is only meaningful at the shape it was recorded at.
  const auto number = [&](const char* key) {
    return static_cast<std::size_t>(entry->at(key).as_number());
  };
  std::vector<std::string> heuristics;
  for (const JsonValue& h : entry->at("heuristics").as_array()) {
    heuristics.push_back(h.as_string());
  }
  tally.check(number("tasks") == w.tasks && number("machines") == w.machines &&
                  number("trials") == w.trials &&
                  number("points") == e2e::points_of(w).size() &&
                  heuristics == w.heuristics,
              w.name + ": shape differs from the seed state");
  if (opt.seed != state->default_seed) return std::nullopt;
  return std::stoull(entry->at("digest").as_string(), nullptr, 16);
}

Sample run_workload(const Workload& w, const Options& opt,
                    const SeedState* state, Tally& tally) {
  const std::size_t threads = std::clamp<std::size_t>(
      std::thread::hardware_concurrency(), 1, 4);
  const std::optional<std::uint64_t> digest =
      expected_digest(w, opt, state, tally);
  fs::create_directories(opt.work_dir);
  const std::string prefill =
      (fs::path(opt.work_dir) / (w.name + ".prefill.jsonl")).string();
  const std::string working =
      (fs::path(opt.work_dir) / (w.name + ".jsonl")).string();

  // Set-up: pool, heuristic instances and warm-up (one study at the first
  // point: a whole point for a sweep, a tenth of the trials for a study),
  // plus the checkpoint prefill of the first half of every point's trials.
  // Repeated; the last pool and prefill are kept. Time-based end-to-end
  // metrics are scaled by the machine factor (calibrate.hpp).
  std::unique_ptr<sim::ThreadPool> pool;
  std::vector<double> setup_s;
  for (int i = 0; i < kSetups; ++i) {
    pool.reset();
    fs::remove(prefill);
    const e2e::MachineFactor factor = e2e::machine_factor(threads);
    const auto start = Clock::now();
    pool = std::make_unique<sim::ThreadPool>(threads);
    const std::size_t warmup_trials =
        w.sweep ? w.trials : std::max(threads, w.trials / 10);
    sim::run_iterative_study_report(
        e2e::point_params(e2e::base_params(w, opt.seed, warmup_trials),
                          e2e::points_of(w).front()),
        *pool);
    if (w.resume) {
      sim::CheckpointWriter writer(prefill);
      sim::StudyHooks hooks;
      hooks.checkpoint = &writer;
      e2e::run_unit(w, e2e::base_params(w, opt.seed, w.trials / 2), *pool,
                    hooks);
    }
    setup_s.push_back(seconds_between(start, Clock::now()) / factor.wall);
  }

  const sim::StudyParams params = e2e::base_params(w, opt.seed, w.trials);
  // Resume equivalence reference: the same unit run uninterrupted, outside
  // the timed phase.
  std::optional<UnitResult> reference;
  if (w.resume) {
    reference = e2e::run_unit(w, params, *pool);
    tally.check_unit(w, *reference);
  }
  const UnitResult* ref = reference ? &*reference : nullptr;

  std::vector<Sample> reps;
  const auto phase_start = Clock::now();
  e2e::MachineFactor before = e2e::machine_factor(threads);
  for (;;) {
    if (w.resume) {
      fs::copy_file(prefill, working, fs::copy_options::overwrite_existing);
    }
    std::size_t corrupt_lines = 0;
    const double cpu_start = cpu_seconds();
    const auto start = Clock::now();
    const UnitResult unit =
        w.resume ? e2e::run_resume_unit(w, params, *pool, working, corrupt_lines)
                 : e2e::run_unit(w, params, *pool);
    const double wall = seconds_between(start, Clock::now());
    const double cpu = cpu_seconds() - cpu_start;
    const e2e::MachineFactor after = e2e::machine_factor(threads);
    const e2e::MachineFactor factor = e2e::mean(before, after);
    before = after;
    check_unit_result(w, unit, corrupt_lines, ref, digest, tally);
    if (reps.empty()) {
      std::fprintf(stderr, "%s: rows digest %016llx\n", w.name.c_str(),
                   static_cast<unsigned long long>(e2e::digest(unit)));
    }

    if (!opt.trace) {
      const double trials_per_s =
          static_cast<double>(e2e::trials_completed(unit)) / wall;
      std::fprintf(stderr,
                   "%s: measured trials_per_s=%.6g cpu_s=%.6g at machine "
                   "factor wall %.4f cpu %.4f\n",
                   w.name.c_str(), trials_per_s, cpu, factor.wall, factor.cpu);
      reps.push_back({
          {"trials_per_s", trials_per_s * factor.wall, "1/s"},
          {"cpu_s", cpu / factor.cpu, "s"},
          {"parallel_eff", cpu / (static_cast<double>(threads) * wall),
           "ratio"},
      });
    } else {
      if (w.resume) {
        fs::copy_file(prefill, working, fs::copy_options::overwrite_existing);
      }
      const e2e::TracedUnit traced =
          e2e::run_traced_unit(w, params, *pool, w.resume ? working : "");
      check_unit_result(w, traced.result, traced.corrupt_lines, ref,
                        std::nullopt, tally);
      tally.check(e2e::same_outcomes(traced.result, unit) &&
                      e2e::same_rows(traced.result, unit),
                  w.name + ": traced replay differs from the untraced report");
      Sample sample = layer_metrics(w, traced, wall, threads, factor);
      const double coverage = sample.back().value;
      tally.check(std::abs(coverage - 1.0) <= kCoverageTolerance,
                  w.name + ": span coverage " + std::to_string(coverage) +
                      " outside 1 +- " + std::to_string(kCoverageTolerance));
      reps.push_back(std::move(sample));
    }
    std::fprintf(stderr, "%s: repetition %zu:", w.name.c_str(), reps.size());
    for (const Metric& m : reps.back()) {
      std::fprintf(stderr, " %s=%.6g", m.name.c_str(), m.value);
    }
    std::fprintf(stderr, "\n");
    // Closed loop: stop before a repetition that would end past --seconds.
    const double elapsed = seconds_between(phase_start, Clock::now());
    if (elapsed * (1.0 + 1.0 / static_cast<double>(reps.size())) >
        opt.seconds) {
      break;
    }
  }
  if (w.resume) {
    fs::remove(prefill);
    fs::remove(working);
  }

  Sample out = medians(reps);
  if (!opt.trace) {
    out.push_back({"peak_rss_mb", peak_rss_mb(), "MB"});
    out.push_back({"setup_s", median(setup_s), "s"});
  }
  std::fprintf(stderr, "%s: %zu repetition(s), seed %llu\n", w.name.c_str(),
               reps.size(), static_cast<unsigned long long>(opt.seed));
  return out;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

Options parse_args(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument(flag + " needs a value");
    const std::string value = argv[++i];
    if (flag == "--workload") {
      opt.workload = value;
    } else if (flag == "--seed") {
      opt.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      opt.seconds = std::stod(value);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") {
        throw std::invalid_argument("--trace takes 0 or 1");
      }
      opt.trace = value == "1";
    } else if (flag == "--state") {
      opt.state = value;
    } else if (flag == "--work-dir") {
      opt.work_dir = value;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (opt.workload.empty()) throw std::invalid_argument("--workload is required");
  if (!(opt.seconds > 0.0)) throw std::invalid_argument("--seconds must be > 0");
  return opt;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Options opt = parse_args(argc, argv);
    std::vector<const Workload*> selected;
    if (opt.workload == "all") {
      for (const Workload& w : e2e::workloads()) selected.push_back(&w);
    } else if (const Workload* w = e2e::find_workload(opt.workload)) {
      selected.push_back(w);
    } else {
      throw std::invalid_argument("unknown workload " + opt.workload);
    }
    std::optional<SeedState> state;
    if (!opt.state.empty()) {
      const JsonValue doc = JsonValue::parse(read_file(opt.state));
      state = SeedState{
          static_cast<std::uint64_t>(doc.at("default_seed").as_number()),
          doc.at("workloads")};
    }

    Tally tally;
    JsonValue::Object metrics;
    for (const Workload* w : selected) {
      const Sample sample =
          run_workload(*w, opt, state ? &*state : nullptr, tally);
      const std::string prefix = selected.size() > 1 ? w->name + "." : "";
      for (const Metric& m : sample) {
        std::printf("%-14s %-28s %14.6g %s\n", w->name.c_str(), m.name.c_str(),
                    m.value, m.unit.c_str());
        metrics.emplace_back(
            prefix + m.name,
            JsonValue(JsonValue::Object{{"value", JsonValue(m.value)},
                                        {"unit", JsonValue(m.unit)}}));
      }
    }
    const bool correct = tally.failed() == 0;
    std::printf("%-14s %-28s %14.6g %s\n", opt.workload.c_str(), "failed_frac",
                static_cast<double>(tally.failed()) /
                    static_cast<double>(tally.attempted()),
                "ratio");
    const JsonValue result(JsonValue::Object{
        {"correct", JsonValue(correct)},
        {"attempted", JsonValue(tally.attempted())},
        {"failed", JsonValue(tally.failed())},
        {"metrics", JsonValue(std::move(metrics))},
    });
    std::printf("%s\n", result.dump().c_str());
    return correct ? 0 : 1;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "e2e_bench: %s\n", error.what());
    return 2;
  }
}
