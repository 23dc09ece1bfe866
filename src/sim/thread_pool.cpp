#include "sim/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <exception>

#include "core/check.hpp"
#include "obs/counters.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "sim/fault/fault.hpp"

#if HCSCHED_TRACE
#include <chrono>
#endif

namespace hcsched::sim {

namespace {

/// Process-wide submit sequence: the deterministic key of the
/// pool-job-start fault site. Monotone across every pool in the process so
/// a spec like pool-job-start:1:0 ("fail job #N") stays meaningful in tests.
std::atomic<std::uint64_t> g_submit_sequence{0};

}  // namespace

#if HCSCHED_TRACE
namespace {

std::uint64_t elapsed_ns(std::chrono::steady_clock::time_point since) {
  const auto d = std::chrono::steady_clock::now() - since;
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(d).count());
}

}  // namespace
#endif

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    const core::MutexLock lock(queue_mutex_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (std::thread& w : workers_) w.join();
}

std::future<void> ThreadPool::submit(std::function<void()> job) {
  // Pool-job-start fault site: when armed, job #seq dies before its body
  // runs (a lost worker). Injected inside the task so the error reaches the
  // caller through the future exactly like a real job failure; the sequence
  // only advances while the site is armed, so the disarmed path costs one
  // relaxed load.
  if (fault::any_armed()) {
    const std::uint64_t seq =
        g_submit_sequence.fetch_add(1, std::memory_order_relaxed);
    job = [job = std::move(job), seq] {
      fault::maybe_inject(fault::Site::kPoolJobStart, seq);
      job();
    };
  }
#if HCSCHED_TRACE
  // Wrap the job to measure queue wait (submit -> start) and run latency.
  obs::counters::add(obs::Counter::kPoolTasksSubmitted);
  const auto enqueued = std::chrono::steady_clock::now();
  std::packaged_task<void()> task([job = std::move(job), enqueued] {
    const std::uint64_t wait_ns = elapsed_ns(enqueued);
    HCSCHED_METRIC_OBSERVE("hcsched_pool_wait_ns",
                           "Queue wait of one pool job (submit to start)",
                           wait_ns);
    const auto started = std::chrono::steady_clock::now();
    {
      HCSCHED_SPAN(job_span, "pool.job");
      HCSCHED_SPAN_ATTR(job_span, "queue_wait_ns", obs::JsonValue(wait_ns));
      job();
    }
    const std::uint64_t run_ns = elapsed_ns(started);
    HCSCHED_METRIC_OBSERVE("hcsched_pool_run_ns",
                           "Run latency of one pool job (start to finish)",
                           run_ns);
    obs::counters::add(obs::Counter::kPoolTasksCompleted);
  });
#else
  std::packaged_task<void()> task(std::move(job));
#endif
  std::future<void> future = task.get_future();
  {
    const core::MutexLock lock(queue_mutex_);
    enqueue_locked(std::move(task));
  }
  cv_.notify_one();
  return future;
}

void ThreadPool::enqueue_locked(std::packaged_task<void()> task) {
  queue_.push_back(std::move(task));
#if HCSCHED_TRACE
  HCSCHED_METRIC_GAUGE_SET("hcsched_pool_queue_depth",
                           "Jobs waiting in the pool queue", queue_.size());
#endif
}

bool ThreadPool::drained_locked() const { return stopping_ && queue_.empty(); }

void ThreadPool::parallel_for_chunks(
    std::size_t n, const std::function<void(std::size_t, std::size_t)>& body,
    const core::CancelToken* cancel) {
  if (n == 0) return;
  HCSCHED_PRECONDITION(body != nullptr, "chunk body must be callable");
  const std::size_t jobs = std::min(n, size());
  // About eight claims per worker: small enough that a slow trial does not
  // leave the other workers idle at the end, large enough that claiming
  // stays off the profile.
  const std::size_t grain = std::max<std::size_t>(1, n / (8 * size()));
  // Next unclaimed index. Claims are disjoint ranges of [0, n) by the
  // atomic increment, which is all they need, so every access is relaxed:
  // the futures' drain below orders each job before this call returns. The
  // cursor ends at most jobs * grain past n.
  std::atomic<std::size_t> cursor{0};
  std::vector<std::future<void>> futures;
  futures.reserve(jobs);
  for (std::size_t j = 0; j < jobs; ++j) {
    futures.push_back(submit([&body, &cursor, cancel, n, grain] {
      // The token is re-checked before every claim: ranges not yet claimed
      // when it fires are skipped; a running body sees the token via the
      // thread-local install and winds down cooperatively.
      const core::ScopedCancel cancel_scope(cancel);
      for (;;) {
        if (cancel != nullptr && cancel->cancelled()) return;
        const std::size_t begin =
            cursor.fetch_add(grain, std::memory_order_relaxed);
        if (begin >= n) return;
        body(begin, std::min(n, begin + grain));
      }
    }));
  }
  // Wait for EVERY job before returning, even after a failure: jobs capture
  // `body` and `cursor` by reference, so returning early would leave them
  // dangling (found by the TSan stress suite). A job whose body throws
  // stops claiming; the others claim what it leaves. The first exception
  // is rethrown after the drain.
  std::exception_ptr first_error;
  for (auto& f : futures) {
    try {
      f.get();
    } catch (...) {
      if (!first_error) first_error = std::current_exception();
    }
  }
  // Unless a body failed or the token fired, the claims covered [0, n).
  HCSCHED_INVARIANT(first_error || (cancel != nullptr && cancel->cancelled()) ||
                        cursor.load(std::memory_order_relaxed) >= n,
                    "claims covered ",
                    cursor.load(std::memory_order_relaxed), " of ", n,
                    " indices");
  if (first_error) std::rethrow_exception(first_error);
}

void ThreadPool::worker_loop() {
  // Flush this worker's counter buffer into the registry after each task,
  // so studies read complete totals without waiting for pool teardown.
  for (;;) {
    std::packaged_task<void()> task;
    {
      const core::MutexLock lock(queue_mutex_);
      // Manual predicate loop (not the wait(lock, pred) overload): the
      // analysis cannot see through a predicate lambda, while an annotated
      // CondVar::wait inside the loop proves the guarded reads directly.
      while (!stopping_ && queue_.empty()) cv_.wait(queue_mutex_);
      if (drained_locked()) return;  // stopping_ and queue exhausted
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
#if HCSCHED_TRACE
    obs::counters::flush_thread();
#endif
  }
}

}  // namespace hcsched::sim
