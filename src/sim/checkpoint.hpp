// Sweep/study checkpointing: JSONL persistence of completed trials.
//
// A checkpoint file is a sequence of single-line JSON records, one per
// *completed trial* (all heuristics, including its quarantined executions).
// Records are keyed by (point, seed, trial): `point` labels the sweep cell
// (empty for a standalone study), `seed` is the study seed, `trial` the
// trial index. On resume, a study looks each of its trials up by key and
// replays the stored TrialOutcome instead of recomputing it; because study
// statistics are produced by a deterministic trial-ordered fold of
// TrialRecords (see experiment.hpp), a resumed run's final statistics are
// bit-identical to an uninterrupted run — doubles are serialized with
// shortest-round-trip formatting (obs::json_number) and parsed back
// exactly.
//
// The format is append-only and crash-tolerant: a truncated or corrupt
// trailing line (the typical artifact of a killed process) is skipped with
// a counted warning (kCheckpointCorruptLines), never an error. Unknown keys
// are ignored so the schema can grow.
//
// Record schema (version 1):
//   {"v":1,"point":"...","seed":N,"trial":N,
//    "records":[{"heuristic":"...","improved":N,"unchanged":N,
//                "worsened":N,"finish_deltas":[...],
//                "mean_completion_delta":X|null,
//                "makespan_increased":B,"original_makespan":X}, ...],
//    "quarantined":[{"heuristic":"...","site":"...","error":"..."}, ...]}
#pragma once

#include <compare>
#include <cstdint>
#include <fstream>
#include <functional>
#include <iosfwd>
#include <map>
#include <optional>
#include <string>
#include <string_view>

#include "core/thread_annotations.hpp"
#include "sim/experiment.hpp"

namespace hcsched::sim {

/// Non-owning view of a checkpoint key: lookups compare against it, so a
/// find never copies the point label.
struct CheckpointKeyView {
  std::string_view point{};
  std::uint64_t seed = 0;
  std::size_t trial = 0;

  friend auto operator<=>(const CheckpointKeyView&,
                          const CheckpointKeyView&) = default;
};

/// Key of one checkpoint record.
struct CheckpointKey {
  std::string point{};
  std::uint64_t seed = 0;
  std::size_t trial = 0;

  CheckpointKeyView view() const noexcept { return {point, seed, trial}; }

  friend auto operator<=>(const CheckpointKey& a, const CheckpointKey& b) {
    return a.view() <=> b.view();
  }
  friend auto operator<=>(const CheckpointKey& a, const CheckpointKeyView& b) {
    return a.view() <=> b;
  }
};

/// Parsed checkpoint contents: completed trials by key, plus load
/// diagnostics.
struct CheckpointData {
  /// Ordered by (point, seed, trial); std::less<> also accepts a
  /// CheckpointKeyView, so find() does not allocate.
  std::map<CheckpointKey, TrialOutcome, std::less<>> trials{};
  std::size_t lines_read = 0;
  std::size_t corrupt_lines = 0;

  /// The stored outcome for (point, seed, trial), if any.
  const TrialOutcome* find(std::string_view point, std::uint64_t seed,
                           std::size_t trial) const;
};

/// Serializes one completed trial to a single JSON line (no trailing
/// newline). Exposed for tests; production code uses CheckpointWriter.
std::string encode_trial(const CheckpointKey& key, const TrialOutcome& outcome);

/// Parses one checkpoint line; nullopt for corrupt/unversioned input.
std::optional<std::pair<CheckpointKey, TrialOutcome>> decode_trial(
    std::string_view line);

/// Loads a checkpoint file. A missing file yields an empty CheckpointData
/// (resuming from nothing is not an error); corrupt lines are skipped and
/// counted (kCheckpointCorruptLines), and later duplicates of a key win so
/// a re-run that appended to the same file stays loadable.
CheckpointData load_checkpoint(const std::string& path);

/// Append-only, thread-safe writer. Each append is one line followed by a
/// flush, so a killed process loses at most the line being written (which
/// load_checkpoint then skips as corrupt). Hosts the checkpoint-write fault
/// site, keyed by the trial index.
class CheckpointWriter {
 public:
  /// Opens `path` for append; throws std::runtime_error when unwritable.
  explicit CheckpointWriter(const std::string& path);

  const std::string& path() const noexcept { return path_; }

  /// Appends one completed trial (counted as kCheckpointTrialsWritten).
  /// Throws FaultInjected when the checkpoint-write site fires for
  /// `key.trial`, and std::runtime_error when the stream fails.
  void append_trial(const CheckpointKey& key, const TrialOutcome& outcome);

 private:
  std::string path_;  // immutable after construction; no guard needed
  core::Mutex mutex_;
  std::ofstream out_ HCSCHED_GUARDED_BY(mutex_);
};

}  // namespace hcsched::sim
