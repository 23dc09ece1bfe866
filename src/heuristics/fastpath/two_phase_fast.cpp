// The event-driven two-phase greedy kernel (see fastpath.hpp for the switch
// surface and docs/FASTPATH.md for the full equivalence argument).
//
// Invalidation invariant: a round changes exactly one ready time, and ready
// times never decrease. For a surviving task whose epsilon-tied best set
// did NOT contain the updated slot, every tied candidate's completion time
// is unchanged and the updated slot's score only moved further above the
// minimum, so the task's candidate set — and therefore the TieBreaker's
// decision distribution — is bit-identical to a full rescore. Tasks whose
// tied set contained the updated slot are rescored from scratch: the
// minimum may migrate, and previously-out candidates within epsilon of the
// *new* minimum may enter the set.
//
// A round therefore costs only what it changed, with no sweep over the
// surviving tasks:
//   * Per-slot buckets list the tasks whose tied set holds each slot, so
//     the updated slot's bucket is the round's rescore list. Visiting a
//     bucket empties it; an entry whose task has since left that slot's
//     tied set is dropped on the visit.
//   * A singleton tied set draws nothing and its completion time cannot
//     change until it is rescored, so singletons are recorded in bulk
//     (TieBreaker::note_forced). Multi-candidate tasks re-draw every round
//     through choose_among in ascending position order — the reference's
//     phase-one order — so every RNG draw and script entry lines up.
//   * Phase two reads a tournament (min) tree over positions, keyed by the
//     phase-one completion time and negated for Max-Min (IEEE negation is
//     exact, and |(-a) - (-b)| == |a - b|). The epsilon-tied set is
//     collected left to right by a descent that skips every subtree whose
//     minimum is not tied to the root: |target - x| grows with x >= target,
//     so nothing below such a subtree can tie either.
//
// Precondition: every completion time a mapping can reach is finite. The
// ETC reader and Problem reject inputs whose machine-column sums overflow;
// with that and a finite epsilon, the +inf key of a mapped task or a
// padding leaf can never tie a live one.
//
// All state is structure-of-arrays slices from the thread workspace's bump
// pools (workspace.hpp): zero steady-state allocations across a study
// cell's trials, and the rescore is a vectorized fused min-scan
// (minscan.hpp) over a contiguous EtcView row.
#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <span>

#include "core/check.hpp"
#include "heuristics/fastpath/fastpath.hpp"
#include "heuristics/fastpath/minscan.hpp"
#include "heuristics/fastpath/reuse.hpp"
#include "heuristics/fastpath/workspace.hpp"
#include "obs/counters.hpp"
#include "obs/span.hpp"

namespace hcsched::heuristics::fastpath {

Schedule two_phase_greedy_fast(const Problem& problem, TieBreaker& ties,
                               bool prefer_largest) {
  Schedule schedule(problem);
  const std::size_t n = problem.num_tasks();
  const std::size_t m = problem.num_machines();
  if (n == 0) return schedule;
  HCSCHED_PRECONDITION(m > 0, "two_phase_greedy_fast: problem with ", n,
                       " tasks but no machines");
  HCSCHED_PRECONDITION(std::isfinite(ties.epsilon()),
                       "two_phase_greedy_fast: tie epsilon ", ties.epsilon(),
                       " is not finite");

  // One span per kernel invocation with the rescore/replay split as
  // attributes — per-decision spans would dwarf the work they measure.
  HCSCHED_SPAN(kernel_span, "fastpath.two_phase");
  HCSCHED_SPAN_ATTR(kernel_span, "tasks", obs::JsonValue(n));
  HCSCHED_SPAN_ATTR(kernel_span, "machines", obs::JsonValue(m));
  HCSCHED_SPAN_ATTR(kernel_span, "prefer_largest",
                    obs::JsonValue(prefer_largest));
#if HCSCHED_TRACE
  std::uint64_t rescores = 0;
  std::uint64_t replays = 0;
#endif

  Workspace& ws = thread_workspace();
  const EtcView& view = acquire_view(problem, ws.scratch_view);

  // Per task: the tied candidate slots (ascending — exactly what choose_min
  // would build from the full score vector) as a fixed-stride slice, the
  // drawn slot, and a tree leaf. Per slot: a bucket of up to n tasks, with
  // in_bucket[p * m + slot] keeping each task in a bucket at most once.
  const std::size_t leaves = std::bit_ceil(n);
  ws.doubles.reset(m + 2 * leaves);
  ws.positions.reset(n * m + n);
  ws.indices.reset(4 * n + m + m * n);
  ws.flags.reset(n + n * m);
  const std::span<double> ready = ws.doubles.take(m);
  const std::span<double> tree = ws.doubles.take(2 * leaves);
  const std::span<std::size_t> tied_pool = ws.positions.take(n * m);
  const std::span<std::size_t> round_tied = ws.positions.take(n);
  const std::span<std::uint32_t> best_slot = ws.indices.take(n);
  const std::span<std::uint32_t> tied_count = ws.indices.take(n);
  const std::span<std::uint32_t> stale = ws.indices.take(n);
  const std::span<std::uint32_t> multi = ws.indices.take(n);
  const std::span<std::uint32_t> bucket_size = ws.indices.take(m);
  const std::span<std::uint32_t> buckets = ws.indices.take(m * n);
  const std::span<unsigned char> alive = ws.flags.take(n);
  const std::span<unsigned char> in_bucket = ws.flags.take(n * m);

  std::copy(problem.initial_ready_times().begin(),
            problem.initial_ready_times().end(), ready.begin());
  std::fill(alive.begin(), alive.end(), static_cast<unsigned char>(1));
  std::fill(tree.begin(), tree.end(),
            std::numeric_limits<double>::infinity());

  const auto set_key = [&](std::size_t p, double key) {
    std::size_t node = leaves + p;
    tree[node] = key;
    for (node >>= 1; node > 0; node >>= 1) {
      tree[node] = std::min(tree[2 * node], tree[2 * node + 1]);
    }
  };
  const auto take_slot = [&](std::size_t p, std::size_t slot) {
    best_slot[p] = static_cast<std::uint32_t>(slot);
    const double ct = ready[slot] + view.row(p)[slot];
    set_key(p, prefer_largest ? -ct : ct);
  };

  // Round 0: every task needs a full score.
  std::size_t stale_count = n;
  for (std::size_t p = 0; p < n; ++p) stale[p] = static_cast<std::uint32_t>(p);
  std::size_t multi_count = 0;

  for (std::size_t remaining = n; remaining > 0; --remaining) {
    // Phase 1, rescores: a fresh tied set for each invalidated task, filed
    // under every slot it holds.
    HCSCHED_COUNT(obs::Counter::kEtcCellEvaluations, stale_count * m);
    HCSCHED_COUNT(obs::Counter::kFastpathRescores, stale_count);
    HCSCHED_COUNT(obs::Counter::kFastpathReplays, remaining - stale_count);
#if HCSCHED_TRACE
    rescores += stale_count;
    replays += remaining - stale_count;
#endif
    bool multi_grew = false;
    for (std::size_t k = 0; k < stale_count; ++k) {
      const std::size_t p = stale[k];
      const double* const etc_row = view.row(p).data();
      std::size_t* const tied = tied_pool.data() + p * m;
      const double best = minscan::min_completion(ready.data(), etc_row, m);
      std::size_t tcount = 0;
      for (std::size_t slot = 0; slot < m; ++slot) {
        if (!ties.tied(best, ready[slot] + etc_row[slot])) continue;
        tied[tcount++] = slot;
        if (in_bucket[p * m + slot] == 0) {
          in_bucket[p * m + slot] = 1;
          buckets[slot * n + bucket_size[slot]++] =
              static_cast<std::uint32_t>(p);
        }
      }
      const bool was_multi = tied_count[p] > 1;
      tied_count[p] = static_cast<std::uint32_t>(tcount);
      if (tcount == 1) {
        take_slot(p, tied[0]);
      } else if (!was_multi) {
        multi[multi_count++] = static_cast<std::uint32_t>(p);
        multi_grew = true;
      }
    }

    // Phase 1, draws: under TiePolicy::kRandom the reference re-rolls tied
    // candidates every round, so each multi-candidate task draws again, in
    // list order; the singletons' decisions are counted, not made.
    std::uint32_t* const multi_end = std::remove_if(
        multi.data(), multi.data() + multi_count,
        [&](std::uint32_t p) { return alive[p] == 0 || tied_count[p] < 2; });
    multi_count = static_cast<std::size_t>(multi_end - multi.data());
    if (multi_grew) std::sort(multi.data(), multi_end);
    for (std::size_t k = 0; k < multi_count; ++k) {
      const std::size_t p = multi[k];
      take_slot(p, ties.choose_among(std::span<const std::size_t>(
                       tied_pool.data() + p * m, tied_count[p])));
    }
    ties.note_forced(remaining - multi_count);

    // Phase 2: the positions tied with the tree's minimum, ascending — the
    // same order the reference's erase()-maintained list presents to
    // choose_min/choose_max — so the TieBreaker sees the same candidates.
    const double target = tree[1];
    std::size_t count = 0;
    for (std::size_t node = 1;;) {
      if (ties.tied(target, tree[node])) {
        if (node < leaves) {
          node *= 2;
          continue;
        }
        round_tied[count++] = node - leaves;
      }
      while ((node & 1) != 0) node >>= 1;  // leave finished right children
      if (node == 0) break;
      ++node;
    }
    HCSCHED_INVARIANT(count > 0, "two_phase_greedy_fast: no task ties the "
                                 "round's target ", target);
    const std::size_t pick = ties.choose_among(
        std::span<const std::size_t>(round_tied.data(), count));
    const std::size_t slot = best_slot[pick];
    ready[slot] = schedule.assign(problem.tasks()[pick],
                                  problem.machines()[slot]);
    alive[pick] = 0;
    set_key(pick, std::numeric_limits<double>::infinity());

    // Invalidate: the updated slot's bucket holds every survivor whose tied
    // set may contain it; the ones that still do are next round's rescores.
    stale_count = 0;
    const std::uint32_t* const bucket = buckets.data() + slot * n;
    for (std::size_t k = 0; k < bucket_size[slot]; ++k) {
      const std::size_t p = bucket[k];
      in_bucket[p * m + slot] = 0;
      const std::size_t* const tied = tied_pool.data() + p * m;
      const std::size_t* const tied_end = tied + tied_count[p];
      if (alive[p] != 0 && std::find(tied, tied_end, slot) != tied_end) {
        stale[stale_count++] = static_cast<std::uint32_t>(p);
      }
    }
    bucket_size[slot] = 0;
  }
  HCSCHED_SPAN_ATTR(kernel_span, "rescores", obs::JsonValue(rescores));
  HCSCHED_SPAN_ATTR(kernel_span, "replays", obs::JsonValue(replays));
  return schedule;
}

}  // namespace hcsched::heuristics::fastpath
