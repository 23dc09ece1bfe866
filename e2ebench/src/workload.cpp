#include "workload.hpp"

#include <bit>
#include <cstdio>

#include "sim/checkpoint.hpp"
#include "sim/experiment.hpp"

namespace e2e {

namespace {

const std::vector<std::string> kPaperSet = {
    "MET", "MCT", "Min-Min", "Genitor", "SWA", "Sufferage", "KPB"};
const std::vector<std::string> kGreedySet = {"MET", "MCT",       "Min-Min",
                                             "SWA", "Sufferage", "KPB"};

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

bool same_stats(const sim::RunningStats& a, const sim::RunningStats& b) {
  return a.count() == b.count() && same_bits(a.mean(), b.mean()) &&
         same_bits(a.variance(), b.variance()) && same_bits(a.min(), b.min()) &&
         same_bits(a.max(), b.max());
}

bool same_record(const sim::TrialRecord& a, const sim::TrialRecord& b) {
  if (a.finish_deltas.size() != b.finish_deltas.size()) return false;
  for (std::size_t i = 0; i < a.finish_deltas.size(); ++i) {
    if (!same_bits(a.finish_deltas[i], b.finish_deltas[i])) return false;
  }
  return a.heuristic == b.heuristic &&
         a.machines_improved == b.machines_improved &&
         a.machines_unchanged == b.machines_unchanged &&
         a.machines_worsened == b.machines_worsened &&
         a.has_mean_completion_delta == b.has_mean_completion_delta &&
         same_bits(a.mean_completion_delta, b.mean_completion_delta) &&
         a.makespan_increased == b.makespan_increased &&
         same_bits(a.original_makespan, b.original_makespan) &&
         a.has_gap == b.has_gap && same_bits(a.gap_pct, b.gap_pct) &&
         a.gap_exact == b.gap_exact;
}

bool same_row(const sim::StudyRow& a, const sim::StudyRow& b) {
  return a.heuristic == b.heuristic && a.trials == b.trials &&
         a.machines_improved == b.machines_improved &&
         a.machines_unchanged == b.machines_unchanged &&
         a.machines_worsened == b.machines_worsened &&
         same_stats(a.finish_delta, b.finish_delta) &&
         same_stats(a.mean_completion_delta, b.mean_completion_delta) &&
         a.makespan_increases == b.makespan_increases &&
         same_stats(a.original_makespan, b.original_makespan) &&
         same_stats(a.gap_pct, b.gap_pct) &&
         a.gap_exact_trials == b.gap_exact_trials;
}

class Fnv1a {
 public:
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      hash_ = (hash_ ^ ((v >> (8 * i)) & 0xffU)) * 0x100000001b3ULL;
    }
  }
  void add(double v) { add(std::bit_cast<std::uint64_t>(v)); }
  void add(const std::string& s) {
    add(static_cast<std::uint64_t>(s.size()));
    for (const char c : s) {
      hash_ = (hash_ ^ static_cast<unsigned char>(c)) * 0x100000001b3ULL;
    }
  }
  void add(const sim::RunningStats& s) {
    add(static_cast<std::uint64_t>(s.count()));
    add(s.mean());
    add(s.variance());
    add(s.min());
    add(s.max());
  }
  std::uint64_t value() const noexcept { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

}  // namespace

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all = {
      {"paper_study", 24, 6, 1000, false, false, kPaperSet},
      {"large_study", 512, 32, 24, false, false, kPaperSet},
      {"greedy_sweep", 512, 16, 16, true, false, kGreedySet},
      {"resume_sweep", 24, 6, 800, true, true, kGreedySet},
  };
  return all;
}

const Workload* find_workload(std::string_view name) {
  for (const Workload& w : workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

sim::StudyParams base_params(const Workload& w, std::uint64_t seed,
                             std::size_t trials) {
  sim::StudyParams params;
  params.heuristics = w.heuristics;
  params.cvb.num_tasks = w.tasks;
  params.cvb.num_machines = w.machines;
  params.trials = trials;
  params.seed = seed;
  params.tie_policy = hcsched::rng::TiePolicy::kDeterministic;
  return params;
}

std::vector<sim::SweepPoint> points_of(const Workload& w) {
  if (w.sweep) return sim::standard_sweep();
  const sim::StudyParams defaults;
  return {sim::SweepPoint{std::string{}, defaults.consistency,
                          defaults.cvb.v_task, defaults.cvb.v_machine}};
}

sim::StudyParams point_params(const sim::StudyParams& base,
                              const sim::SweepPoint& point) {
  sim::StudyParams params = base;
  params.consistency = point.consistency;
  params.cvb.v_task = point.v_task;
  params.cvb.v_machine = point.v_machine;
  return params;
}

UnitResult run_unit(const Workload& w, const sim::StudyParams& base,
                    sim::ThreadPool& pool, const sim::StudyHooks& hooks) {
  UnitResult unit;
  if (w.sweep) {
    for (auto& r : sim::run_sweep_report(base, points_of(w), pool, hooks)) {
      unit.push_back(PointReport{std::move(r.point.label), std::move(r.report)});
    }
  } else {
    unit.push_back(PointReport{
        std::string{}, sim::run_iterative_study_report(base, pool, hooks)});
  }
  return unit;
}

UnitResult run_resume_unit(const Workload& w, const sim::StudyParams& base,
                           sim::ThreadPool& pool,
                           const std::string& checkpoint,
                           std::size_t& corrupt_lines) {
  const sim::CheckpointData resume = sim::load_checkpoint(checkpoint);
  corrupt_lines = resume.corrupt_lines;
  sim::CheckpointWriter writer(checkpoint);
  sim::StudyHooks hooks;
  hooks.resume = &resume;
  hooks.checkpoint = &writer;
  return run_unit(w, base, pool, hooks);
}

std::size_t trials_completed(const UnitResult& unit) {
  std::size_t n = 0;
  for (const PointReport& p : unit) n += p.report.trials_completed;
  return n;
}

std::uint64_t digest(const UnitResult& unit) {
  Fnv1a h;
  for (const PointReport& p : unit) {
    h.add(p.label);
    for (const sim::StudyRow& row : p.report.rows) {
      h.add(row.heuristic);
      h.add(static_cast<std::uint64_t>(row.trials));
      h.add(static_cast<std::uint64_t>(row.machines_improved));
      h.add(static_cast<std::uint64_t>(row.machines_unchanged));
      h.add(static_cast<std::uint64_t>(row.machines_worsened));
      h.add(row.finish_delta);
      h.add(row.mean_completion_delta);
      h.add(static_cast<std::uint64_t>(row.makespan_increases));
      h.add(row.original_makespan);
    }
  }
  return h.value();
}

bool same_outcomes(const UnitResult& a, const UnitResult& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t p = 0; p < a.size(); ++p) {
    const auto& oa = a[p].report.outcomes;
    const auto& ob = b[p].report.outcomes;
    if (a[p].label != b[p].label || oa.size() != ob.size()) return false;
    for (std::size_t t = 0; t < oa.size(); ++t) {
      if (oa[t].completed != ob[t].completed ||
          oa[t].records.size() != ob[t].records.size() ||
          oa[t].quarantined.size() != ob[t].quarantined.size()) {
        return false;
      }
      for (std::size_t r = 0; r < oa[t].records.size(); ++r) {
        if (!same_record(oa[t].records[r], ob[t].records[r])) return false;
      }
    }
  }
  return true;
}

bool same_rows(const UnitResult& a, const UnitResult& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t p = 0; p < a.size(); ++p) {
    const auto& ra = a[p].report.rows;
    const auto& rb = b[p].report.rows;
    if (a[p].label != b[p].label || ra.size() != rb.size()) return false;
    for (std::size_t r = 0; r < ra.size(); ++r) {
      if (!same_row(ra[r], rb[r])) return false;
    }
  }
  return true;
}

void Tally::check(bool ok, const std::string& what) {
  ++attempted_;
  if (!ok) {
    ++failed_;
    std::fprintf(stderr, "check failed: %s\n", what.c_str());
  }
}

void Tally::check_unit(const Workload& w, const UnitResult& unit) {
  check(unit.size() == points_of(w).size(),
        w.name + ": ran " + std::to_string(unit.size()) + " point(s)");
  for (const PointReport& p : unit) {
    const sim::StudyReport& r = p.report;
    const std::string where = w.name + (p.label.empty() ? "" : " " + p.label);
    attempted_ += r.trials_requested * w.heuristics.size();
    failed_ += r.quarantined.size();
    for (const sim::QuarantineRecord& q : r.quarantined) {
      std::fprintf(stderr, "quarantined: %s trial %zu %s: %s\n", where.c_str(),
                   q.trial, q.heuristic.c_str(), q.error.c_str());
    }
    check(r.trials_completed == r.trials_requested && !r.cancelled,
          where + ": completed " + std::to_string(r.trials_completed) + " of " +
              std::to_string(r.trials_requested) + " trials");
    for (const sim::StudyRow& row : r.rows) {
      if (row.heuristic == "MET" || row.heuristic == "MCT" ||
          row.heuristic == "Min-Min") {
        check(row.machines_improved == 0 && row.machines_worsened == 0,
              where + ": " + row.heuristic + " changed " +
                  std::to_string(row.machines_improved) + " improved / " +
                  std::to_string(row.machines_worsened) + " worsened machines");
      } else if (row.heuristic == "Genitor") {
        check(row.makespan_increases == 0,
              where + ": Genitor raised the makespan in " +
                  std::to_string(row.makespan_increases) + " trial(s)");
      }
    }
  }
}

}  // namespace e2e
