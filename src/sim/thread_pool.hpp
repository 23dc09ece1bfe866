// Fixed-size thread pool for the Monte-Carlo harness.
//
// Workers pull std::move_only_function jobs from one mutex-guarded queue —
// contention is negligible because the harness submits coarse trial-sized
// jobs. parallel_for_chunks submits one job per worker, and each job claims
// small ranges of the index space from a shared atomic cursor until none
// are left, so a worker that drew cheap trials takes more of them instead
// of idling at the barrier (trials of one shape still differ in cost).
// Exceptions thrown by jobs are captured into the future returned by
// submit(); parallel_for_chunks rethrows the first one.
//
// Lock discipline is compiler-checked: queue state lives behind the
// annotated core::Mutex capability (core/thread_annotations.hpp) and every
// access path is proven under -Wthread-safety by the `thread-safety`
// preset; tests/compile_fail/ pins that an unlocked call to a
// REQUIRES(queue_mutex_) member is rejected.
//
// Robustness hooks (docs/ROBUSTNESS.md):
//   * submit() hosts the pool-job-start fault site: an armed
//     fault::Site::kPoolJobStart plan (keyed by a process-wide submit
//     sequence number) makes the job fail before its body runs, modelling a
//     lost worker; the error flows through the future like any job error.
//   * parallel_for_chunks accepts an optional CancelToken. Jobs re-check a
//     cancelled token before every claim, so ranges not yet claimed are
//     skipped, and it is installed as the worker thread's current token
//     (core::ScopedCancel) for the job's duration, so code deep inside a
//     chunk — the anytime heuristics — can poll
//     core::cancellation_requested() without any explicit plumbing.
#pragma once

#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <thread>
#include <vector>

#include "core/cancel.hpp"
#include "core/thread_annotations.hpp"

namespace hcsched::sim {

class ThreadPool {
 public:
  /// `threads` = 0 selects std::thread::hardware_concurrency() (min 1).
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const noexcept { return workers_.size(); }

  /// Enqueues a job; the future reports completion or the job's exception.
  std::future<void> submit(std::function<void()> job)
      HCSCHED_EXCLUDES(queue_mutex_);

  /// Runs body(begin, end) over disjoint chunks of [0, n) across the pool:
  /// min(n, size()) jobs each claim chunks of max(1, n / (8 * size()))
  /// indices from a shared cursor until [0, n) is exhausted, so which
  /// worker runs an index, and with which neighbours, is unspecified.
  /// Blocks until every job has finished (even after a failure — queued
  /// jobs reference `body`, so no job may outlive this call). A job whose
  /// body throws claims no more chunks; the first exception is rethrown
  /// once all jobs are done.
  ///
  /// `cancel` (borrowed; may be null) is installed as each job's current
  /// token and re-checked before every claim: a chunk not yet claimed when
  /// the token fires is skipped outright. Cancellation is cooperative and
  /// never raises — the caller inspects the token afterwards.
  void parallel_for_chunks(
      std::size_t n,
      const std::function<void(std::size_t, std::size_t)>& body,
      const core::CancelToken* cancel = nullptr)
      HCSCHED_EXCLUDES(queue_mutex_);

 private:
  void worker_loop() HCSCHED_EXCLUDES(queue_mutex_);

  /// Appends a task to the queue (caller notifies the condvar after
  /// releasing the lock, keeping the wakeup off the critical section).
  void enqueue_locked(std::packaged_task<void()> task)
      HCSCHED_REQUIRES(queue_mutex_);

  /// Whether the pool is stopping with an empty queue — the worker exit
  /// condition.
  bool drained_locked() const HCSCHED_REQUIRES(queue_mutex_);

  // Compile-fail harness (tests/compile_fail/): proves the analysis rejects
  // an unlocked call to the REQUIRES members above.
  friend struct ThreadPoolThreadSafetyProbe;

  std::vector<std::thread> workers_{};
  core::Mutex queue_mutex_;
  std::deque<std::packaged_task<void()>> queue_
      HCSCHED_GUARDED_BY(queue_mutex_){};
  core::CondVar cv_{};
  bool stopping_ HCSCHED_GUARDED_BY(queue_mutex_) = false;
};

}  // namespace hcsched::sim
