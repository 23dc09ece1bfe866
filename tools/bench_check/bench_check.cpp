// bench_check — schema validator for the repo's committed benchmark
// baselines and the CLI's introspection documents. Dependency-free (links
// only the library's JSON model), so CI can gate on it without pulling a
// JSON-schema engine.
//
//   bench_check --fastpath    BENCH_fastpath.json    fastpath kernel baseline
//   bench_check --iterative   BENCH_iterative.json   iterative study baseline
//   bench_check --localsearch BENCH_localsearch.json local-search gap baseline
//   bench_check --stats       stats.json             `hcsched_cli stats` output
//   bench_check --profile     profile.json           `--profile` span profile
//
// Exit status: 0 when every named file validates, 1 on the first schema
// violation (with a path-qualified message on stderr) or bad usage. Modes
// may be mixed in one invocation; files validate left to right.
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>

#include "heuristics/fastpath/fastpath.hpp"
#include "obs/counters.hpp"
#include "obs/json.hpp"

namespace {

using hcsched::obs::JsonValue;

/// Schema violation carrying the JSON-path-ish location of the offence.
class SchemaError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

[[noreturn]] void fail(const std::string& where, const std::string& what) {
  throw SchemaError(where + ": " + what);
}

const JsonValue& field(const JsonValue& object, const std::string& where,
                       const std::string& key) {
  if (!object.is_object()) fail(where, "expected an object");
  for (const auto& [k, v] : object.as_object()) {
    if (k == key) return v;
  }
  fail(where, "missing key '" + key + "'");
}

std::string str(const JsonValue& object, const std::string& where,
                const std::string& key) {
  const JsonValue& v = field(object, where, key);
  if (!v.is_string()) fail(where + "." + key, "expected a string");
  return v.as_string();
}

double num(const JsonValue& object, const std::string& where,
           const std::string& key) {
  const JsonValue& v = field(object, where, key);
  if (!v.is_number()) fail(where + "." + key, "expected a number");
  return v.as_number();
}

double nonneg(const JsonValue& object, const std::string& where,
              const std::string& key) {
  const double v = num(object, where, key);
  if (!(v >= 0.0)) fail(where + "." + key, "expected a non-negative number");
  return v;
}

void require(bool ok, const std::string& where, const std::string& what) {
  if (!ok) fail(where, what);
}

const JsonValue::Array& array(const JsonValue& object,
                              const std::string& where,
                              const std::string& key) {
  const JsonValue& v = field(object, where, key);
  if (!v.is_array()) fail(where + "." + key, "expected an array");
  return v.as_array();
}

// --- fastpath baseline: BENCH_fastpath.json ------------------------------

void check_fastpath(const JsonValue& root) {
  require(str(root, "$", "bench") == "fastpath_kernel", "$.bench",
          "expected \"fastpath_kernel\"");
  const auto& cells = array(root, "$", "cells");
  require(!cells.empty(), "$.cells", "expected at least one cell");
  std::set<std::string> heuristics_seen;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const std::string where = "$.cells[" + std::to_string(i) + "]";
    const JsonValue& cell = cells[i];
    require(!str(cell, where, "heuristic").empty(), where + ".heuristic",
            "expected a non-empty heuristic name");
    heuristics_seen.insert(str(cell, where, "heuristic"));
    require(num(cell, where, "tasks") > 0, where + ".tasks",
            "expected a positive task count");
    require(num(cell, where, "machines") > 0, where + ".machines",
            "expected a positive machine count");
    require(num(cell, where, "reference_ns") > 0, where + ".reference_ns",
            "expected a positive latency");
    require(num(cell, where, "fastpath_ns") > 0, where + ".fastpath_ns",
            "expected a positive latency");
    require(num(cell, where, "speedup") > 0, where + ".speedup",
            "expected a positive ratio");
    const JsonValue& eq = field(cell, where, "equivalent");
    require(eq.is_bool(), where + ".equivalent", "expected a bool");
  }
  // Every fastpath-covered heuristic must have at least one row: the
  // required set is the dispatch table itself (fastpath.hpp kernel_table()),
  // so registering a kernel makes a stale committed baseline fail CI until
  // the sweep is re-run.
  for (const auto& info : hcsched::heuristics::fastpath::kernel_table()) {
    require(heuristics_seen.count(info.name) != 0, "$.cells",
            std::string("missing rows for fastpath-covered heuristic '") +
                info.name + "'");
  }
}

// --- iterative baseline: BENCH_iterative.json ----------------------------

void check_iterative(const JsonValue& root) {
  require(str(root, "$", "bench") == "iterative_study", "$.bench",
          "expected \"iterative_study\"");
  const auto& cells = array(root, "$", "cells");
  require(!cells.empty(), "$.cells", "expected at least one cell");
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const std::string where = "$.cells[" + std::to_string(i) + "]";
    const JsonValue& cell = cells[i];
    require(!str(cell, where, "point").empty(), where + ".point",
            "expected a non-empty point label");
    require(num(cell, where, "wall_ms") > 0, where + ".wall_ms",
            "expected a positive wall time");
    const auto& rows = array(cell, where, "rows");
    require(!rows.empty(), where + ".rows", "expected at least one row");
    for (std::size_t r = 0; r < rows.size(); ++r) {
      const std::string rw = where + ".rows[" + std::to_string(r) + "]";
      require(!str(rows[r], rw, "heuristic").empty(), rw + ".heuristic",
              "expected a non-empty heuristic name");
      nonneg(rows[r], rw, "improved");
      nonneg(rows[r], rw, "unchanged");
      nonneg(rows[r], rw, "worsened");
      nonneg(rows[r], rw, "makespan_increases");
      require(num(rows[r], rw, "trials") > 0, rw + ".trials",
              "expected a positive trial count");
    }
  }
}

// --- local-search gap baseline: BENCH_localsearch.json -------------------

void check_localsearch(const JsonValue& root) {
  require(str(root, "$", "bench") == "localsearch_gap", "$.bench",
          "expected \"localsearch_gap\"");
  const auto& cells = array(root, "$", "cells");
  require(!cells.empty(), "$.cells", "expected at least one cell");
  std::set<std::string> heuristics_seen;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const std::string where = "$.cells[" + std::to_string(i) + "]";
    const JsonValue& cell = cells[i];
    require(!str(cell, where, "heuristic").empty(), where + ".heuristic",
            "expected a non-empty heuristic name");
    heuristics_seen.insert(str(cell, where, "heuristic"));
    require(num(cell, where, "tasks") > 0, where + ".tasks",
            "expected a positive task count");
    require(num(cell, where, "machines") > 0, where + ".machines",
            "expected a positive machine count");
    const std::string consistency = str(cell, where, "consistency");
    require(consistency == "inconsistent" ||
                consistency == "semi-consistent" ||
                consistency == "consistent",
            where + ".consistency", "unknown class '" + consistency + "'");
    require(num(cell, where, "trials") > 0, where + ".trials",
            "expected a positive trial count");
    // Gaps are measured against an admissible reference (a proven optimum
    // or the preemptive lower bound), so no heuristic can report < 0.
    const double mean = nonneg(cell, where, "mean_gap_pct");
    const double worst = nonneg(cell, where, "worst_gap_pct");
    require(worst >= mean, where + ".worst_gap_pct",
            "worst gap below the mean gap");
    const double exact = nonneg(cell, where, "exact_refs");
    require(exact <= num(cell, where, "trials"), where + ".exact_refs",
            "more exact references than trials");
  }
  // The baseline is only meaningful as a comparison: both local-search
  // variants AND the two-phase greedy baselines they are measured against
  // must have rows, or a stale committed sweep fails CI here.
  for (const char* name : {"Local-Search", "Local-Search-FI", "Min-Min",
                           "Max-Min", "Duplex"}) {
    require(heuristics_seen.count(name) != 0, "$.cells",
            std::string("missing rows for required heuristic '") + name +
                "'");
  }
}

// --- stats document: `hcsched_cli stats --format json` -------------------

// Every series carries an optional {"key": "value"} labels object. The
// document must hold one non-negative hcsched_ops_total{op} series for each
// entry of the obs::Counter catalog.
void check_stats(const JsonValue& root) {
  require(str(root, "$", "schema") == "hcsched.stats.v2", "$.schema",
          "expected \"hcsched.stats.v2\"");
  nonneg(root, "$", "trials");
  const auto& metrics = array(root, "$", "metrics");
  std::set<std::string> ops_seen;
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const std::string where = "$.metrics[" + std::to_string(i) + "]";
    const JsonValue& m = metrics[i];
    const std::string name = str(m, where, "name");
    require(!name.empty(), where + ".name",
            "expected a non-empty metric name");
    std::string op;
    if (const JsonValue* labels = m.find("labels")) {
      require(labels->is_object() && !labels->as_object().empty(),
              where + ".labels", "expected a non-empty object");
      for (const auto& [key, value] : labels->as_object()) {
        require(value.is_string(), where + ".labels." + key,
                "expected a string label value");
        if (key == "op") op = value.as_string();
      }
    }
    const std::string kind = str(m, where, "kind");
    if (kind == "counter" || kind == "gauge") {
      const double value = num(m, where, "value");
      if (name == "hcsched_ops_total") {
        require(value >= 0.0, where + ".value",
                "expected a non-negative count");
        ops_seen.insert(op);
      }
    } else if (kind == "histogram") {
      nonneg(m, where, "count");
      nonneg(m, where, "sum");
      const auto& buckets = array(m, where, "buckets");
      require(!buckets.empty(), where + ".buckets",
              "expected at least the +Inf bucket");
      const std::string bw =
          where + ".buckets[" + std::to_string(buckets.size() - 1) + "]";
      require(str(buckets.back(), bw, "le") == "+Inf", bw + ".le",
              "expected the final bucket bound to be \"+Inf\"");
      for (std::size_t b = 0; b < buckets.size(); ++b) {
        nonneg(buckets[b],
               where + ".buckets[" + std::to_string(b) + "]", "count");
      }
    } else {
      fail(where + ".kind", "unknown kind '" + kind + "'");
    }
  }
  for (std::size_t i = 0; i < hcsched::obs::kNumCounters; ++i) {
    const std::string op(
        hcsched::obs::to_string(static_cast<hcsched::obs::Counter>(i)));
    require(ops_seen.count(op) != 0, "$.metrics",
            "missing series hcsched_ops_total{op=\"" + op + "\"}");
  }
}

// --- profile document: `--profile out.json` ------------------------------

std::uint64_t check_profile_node(const JsonValue& node,
                                 const std::string& where) {
  require(!str(node, where, "name").empty(), where + ".name",
          "expected a non-empty span name");
  require(num(node, where, "count") > 0, where + ".count",
          "expected a positive merge count");
  const double total_ns = nonneg(node, where, "total_ns");
  const double self_ns = nonneg(node, where, "self_ns");
  require(self_ns <= total_ns, where + ".self_ns",
          "self time exceeds total time");
  const auto& children = array(node, where, "children");
  std::uint64_t spans = static_cast<std::uint64_t>(num(node, where, "count"));
  for (std::size_t i = 0; i < children.size(); ++i) {
    spans += check_profile_node(
        children[i], where + ".children[" + std::to_string(i) + "]");
  }
  return spans;
}

void check_profile(const JsonValue& root) {
  require(str(root, "$", "profile") == "hcsched.profile.v1", "$.profile",
          "expected \"hcsched.profile.v1\"");
  const double declared = nonneg(root, "$", "spans");
  const auto& roots = array(root, "$", "roots");
  std::uint64_t counted = 0;
  for (std::size_t i = 0; i < roots.size(); ++i) {
    counted += check_profile_node(roots[i],
                                  "$.roots[" + std::to_string(i) + "]");
  }
  require(static_cast<double>(counted) == declared, "$.spans",
          "declared " + std::to_string(declared) + " spans but the tree " +
              "holds " + std::to_string(counted));
}

// --- driver --------------------------------------------------------------

int usage() {
  std::fprintf(stderr,
               "usage: bench_check [--fastpath FILE] [--iterative FILE] "
               "[--localsearch FILE] [--stats FILE] [--profile FILE]\n");
  return 1;
}

JsonValue load(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw SchemaError("cannot open '" + path + "'");
  std::ostringstream text;
  text << in.rdbuf();
  return JsonValue::parse(text.str());
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3 || argc % 2 == 0) return usage();
  int checked = 0;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string mode = argv[i];
    const std::string path = argv[i + 1];
    try {
      const JsonValue root = load(path);
      if (mode == "--fastpath") {
        check_fastpath(root);
      } else if (mode == "--iterative") {
        check_iterative(root);
      } else if (mode == "--localsearch") {
        check_localsearch(root);
      } else if (mode == "--stats") {
        check_stats(root);
      } else if (mode == "--profile") {
        check_profile(root);
      } else {
        std::fprintf(stderr, "error: unknown mode '%s'\n", mode.c_str());
        return usage();
      }
    } catch (const std::exception& e) {
      std::fprintf(stderr, "bench_check: %s: %s\n", path.c_str(), e.what());
      return 1;
    }
    std::printf("bench_check: %s: ok (%s)\n", path.c_str(),
                mode.c_str() + 2);
    ++checked;
  }
  return checked > 0 ? 0 : usage();
}
