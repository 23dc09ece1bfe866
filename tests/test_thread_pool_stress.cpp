// Thread-pool / counters stress tests: the workload the TSan CI job runs.
//
// Each test provokes a cross-thread interleaving that the plain unit tests
// do not: many external producers racing on submit(), teardown with a deep
// queue (shutdown-while-busy), concurrent parallel_for_chunks callers, and
// counter buffers merging on thread exit while another thread snapshots.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <future>
#include <thread>
#include <vector>

#include "core/cancel.hpp"
#include "obs/counters.hpp"
#include "obs/metrics.hpp"
#include "sim/thread_pool.hpp"

namespace hcsched {
namespace {

using obs::Counter;

TEST(ThreadPoolStress, ManyProducersManyConsumers) {
  constexpr std::size_t kProducers = 8;
  constexpr std::size_t kJobsPerProducer = 200;

  sim::ThreadPool pool(4);
  std::atomic<std::uint64_t> executed{0};
  std::vector<std::future<void>> futures(kProducers * kJobsPerProducer);

  {
    std::vector<std::thread> producers;
    producers.reserve(kProducers);
    for (std::size_t p = 0; p < kProducers; ++p) {
      producers.emplace_back([&, p] {
        for (std::size_t j = 0; j < kJobsPerProducer; ++j) {
          futures[p * kJobsPerProducer + j] = pool.submit([&executed] {
            executed.fetch_add(1, std::memory_order_relaxed);
          });
        }
      });
    }
    for (std::thread& t : producers) t.join();
  }
  for (auto& f : futures) f.get();
  EXPECT_EQ(executed.load(), kProducers * kJobsPerProducer);
}

TEST(ThreadPoolStress, ShutdownWhileBusyDrainsQueue) {
  constexpr std::size_t kJobs = 64;
  std::atomic<std::uint64_t> executed{0};
  std::vector<std::future<void>> futures;
  futures.reserve(kJobs);
  {
    sim::ThreadPool pool(2);
    for (std::size_t j = 0; j < kJobs; ++j) {
      futures.push_back(pool.submit([&executed] {
        std::this_thread::sleep_for(std::chrono::microseconds(200));
        executed.fetch_add(1, std::memory_order_relaxed);
      }));
    }
    // Destructor runs with most of the queue still pending; the documented
    // contract is drain-then-join, never drop.
  }
  EXPECT_EQ(executed.load(), kJobs);
  for (auto& f : futures) {
    EXPECT_EQ(f.wait_for(std::chrono::seconds(0)),
              std::future_status::ready);
  }
}

TEST(ThreadPoolStress, ConcurrentParallelForChunksCallers) {
  constexpr std::size_t kCallers = 4;
  constexpr std::size_t kRange = 1000;

  sim::ThreadPool pool(4);
  std::atomic<std::uint64_t> covered{0};
  std::vector<std::thread> callers;
  callers.reserve(kCallers);
  for (std::size_t c = 0; c < kCallers; ++c) {
    callers.emplace_back([&] {
      pool.parallel_for_chunks(kRange,
                               [&covered](std::size_t begin, std::size_t end) {
                                 covered.fetch_add(
                                     end - begin,
                                     std::memory_order_relaxed);
                               });
    });
  }
  for (std::thread& t : callers) t.join();
  EXPECT_EQ(covered.load(), kCallers * kRange);
}

TEST(ThreadPoolStress, ExceptionsSurfaceWithoutCorruptingPool) {
  sim::ThreadPool pool(2);
  EXPECT_THROW(
      pool.parallel_for_chunks(
          8, [](std::size_t, std::size_t) { throw std::runtime_error("x"); }),
      std::runtime_error);
  // The pool stays usable after a failed batch.
  std::atomic<int> ok{0};
  pool.parallel_for_chunks(
      8, [&ok](std::size_t begin, std::size_t end) {
        ok.fetch_add(static_cast<int>(end - begin),
                     std::memory_order_relaxed);
      });
  EXPECT_EQ(ok.load(), 8);
}

TEST(ThreadPoolStress, CancelMidParallelForChunksUnderContention) {
  // Many rounds of parallel_for_chunks racing against a canceller thread:
  // every round must return (no deadlock), every started body must finish
  // before parallel_for_chunks does (no dangling references to `token` or
  // `processed`, which live on this stack frame), and chunks not yet
  // started when the flag fires are skipped entirely.
  constexpr std::size_t kRounds = 16;
  constexpr std::size_t kRange = 1 << 12;

  sim::ThreadPool pool(4);
  for (std::size_t round = 0; round < kRounds; ++round) {
    core::CancelToken token;
    std::atomic<std::size_t> processed{0};
    std::thread canceller([&token, round] {
      // Vary the cancel point from "immediately" to "well into the batch".
      std::this_thread::sleep_for(std::chrono::microseconds(50 * round));
      token.request_cancel();
    });
    pool.parallel_for_chunks(
        kRange,
        [&processed](std::size_t begin, std::size_t end) {
          for (std::size_t i = begin; i < end; ++i) {
            if (core::cancellation_requested()) return;
            processed.fetch_add(1, std::memory_order_relaxed);
            std::this_thread::sleep_for(std::chrono::microseconds(1));
          }
        },
        &token);
    canceller.join();
    EXPECT_TRUE(token.cancelled());
    EXPECT_LE(processed.load(), kRange);
  }
  // The pool survives repeated cancellations: an uncancelled batch still
  // covers the whole range.
  std::atomic<std::size_t> covered{0};
  pool.parallel_for_chunks(256,
                           [&covered](std::size_t begin, std::size_t end) {
                             covered.fetch_add(end - begin,
                                               std::memory_order_relaxed);
                           });
  EXPECT_EQ(covered.load(), 256u);
}

#if HCSCHED_TRACE

TEST(ThreadPoolStress, CounterMergeOnThreadExit) {
  constexpr std::size_t kThreads = 8;
  constexpr std::uint64_t kAddsPerThread = 1000;

  obs::metrics::reset();
  {
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (std::size_t t = 0; t < kThreads; ++t) {
      threads.emplace_back([] {
        for (std::uint64_t i = 0; i < kAddsPerThread; ++i) {
          obs::counters::add(Counter::kEtcCellEvaluations);
        }
        // No explicit flush: the thread-local buffer's destructor must
        // publish the counts when this thread exits.
      });
    }
    for (std::thread& t : threads) t.join();
  }
  EXPECT_EQ(obs::counters::read(Counter::kEtcCellEvaluations),
            kThreads * kAddsPerThread);
}

TEST(ThreadPoolStress, SnapshotRacesFlushingWorkers) {
  // Readers snapshotting while workers add and flush: totals must come out
  // exact once everyone is joined, and intermediate snapshots monotone.
  constexpr std::size_t kWriters = 4;
  constexpr std::uint64_t kAddsPerWriter = 5000;

  obs::metrics::reset();
  std::atomic<bool> stop_reader{false};
  std::thread reader([&stop_reader] {
    std::uint64_t last = 0;
    while (!stop_reader.load(std::memory_order_acquire)) {
      const std::uint64_t now = obs::counters::read(Counter::kTieDecisions);
      EXPECT_GE(now, last);
      last = now;
    }
  });
  {
    std::vector<std::thread> writers;
    writers.reserve(kWriters);
    for (std::size_t w = 0; w < kWriters; ++w) {
      writers.emplace_back([] {
        for (std::uint64_t i = 0; i < kAddsPerWriter; ++i) {
          obs::counters::add(Counter::kTieDecisions);
          if (i % 64 == 0) obs::counters::flush_thread();
        }
      });
    }
    for (std::thread& t : writers) t.join();
  }
  stop_reader.store(true, std::memory_order_release);
  reader.join();
  EXPECT_EQ(obs::counters::read(Counter::kTieDecisions),
            kWriters * kAddsPerWriter);
}

TEST(ThreadPoolStress, HistogramsRecordUnderContention) {
  obs::metrics::reset();
  sim::ThreadPool pool(4);
  constexpr std::size_t kJobs = 256;
  std::vector<std::future<void>> futures;
  futures.reserve(kJobs);
  for (std::size_t j = 0; j < kJobs; ++j) {
    futures.push_back(pool.submit([] {}));
  }
  for (auto& f : futures) f.get();
  const obs::MetricHistogram& wait =
      obs::metrics::histogram("hcsched_pool_wait_ns");
  const obs::MetricHistogram& run =
      obs::metrics::histogram("hcsched_pool_run_ns");
  EXPECT_EQ(wait.count(), kJobs);
  EXPECT_EQ(run.count(), kJobs);
  EXPECT_GE(run.quantile_upper_bound(0.99), run.quantile_upper_bound(0.50));
}

#endif  // HCSCHED_TRACE

}  // namespace
}  // namespace hcsched
