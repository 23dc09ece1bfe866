// Machine-speed calibration of the end-to-end time metrics.
//
// On shared hosts the speed of identical work drifts over minutes: on a
// 4-vCPU Xeon VM the same 1000-trial study used anywhere from 10.7 to 15.1 s
// of CPU across ten consecutive runs, and medians over repetitions cannot
// remove a drift that outlasts a run. Before every repetition the benchmark
// therefore times a fixed compute kernel of its own on one thread per pool
// worker. The kernel's wall time over kReferenceSeconds is the machine
// factor; the time-based end-to-end metrics are scaled by it so that they
// read as if measured on a machine that runs the kernel in exactly
// kReferenceSeconds. The kernel is built as its own library, without the
// hcsched target's compile options, so no change to the library can change
// its speed.
#pragma once

#include <cstddef>

namespace e2e {

/// Kernel wall time of a machine running at reference speed.
inline constexpr double kReferenceSeconds = 0.38;

/// Speed of the machine relative to the reference; above 1 means slower.
/// `wall` scales wall-clock metrics and `cpu` scales CPU-time metrics. They
/// differ when the host withholds CPU from the VM: the kernel's wall time
/// then grows while its CPU time does not.
struct MachineFactor {
  double wall = 1.0;
  double cpu = 1.0;
};

/// Runs the kernel once on each of `threads` threads.
MachineFactor machine_factor(std::size_t threads);

/// The mean of two factors, for a repetition bracketed by two kernel runs.
MachineFactor mean(const MachineFactor& a, const MachineFactor& b);

}  // namespace e2e
