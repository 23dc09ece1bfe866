// EtcMatrix: estimated-time-to-compute matrix (paper §2).
//
// Row t, column m holds the estimated time to compute task t on machine m.
// The matrix is dense, row-major, immutable in normal use after
// construction. Task and machine identifiers throughout the library are the
// row/column indices of this matrix; Problem objects select subsets of them,
// which is how the iterative technique removes machines without copying or
// renumbering the ETC data.
#pragma once

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <limits>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/check.hpp"

namespace hcsched::etc {

using TaskId = std::int32_t;
using MachineId = std::int32_t;

/// Largest machine-column sum, ready time included, that an input may have.
/// Every completion time a mapping reaches is such a sum of non-negative
/// terms, added in the mapping's order. Re-ordering the terms moves the
/// rounded sum by far less than a factor of two, so half the largest double
/// keeps every completion time finite in every order — which the kernels'
/// +inf sentinels and the reports' integer formatting rely on.
inline constexpr double kMaxColumnSum = std::numeric_limits<double>::max() / 2;

class EtcMatrix {
 public:
  EtcMatrix() = default;

  /// Zero-initialized tasks x machines matrix.
  EtcMatrix(std::size_t num_tasks, std::size_t num_machines)
      : tasks_(num_tasks),
        machines_(num_machines),
        values_(num_tasks * num_machines, 0.0) {}

  /// Construction from row data; every row must have the same length.
  static EtcMatrix from_rows(
      std::initializer_list<std::initializer_list<double>> rows);
  static EtcMatrix from_rows(const std::vector<std::vector<double>>& rows);

  std::size_t num_tasks() const noexcept { return tasks_; }
  std::size_t num_machines() const noexcept { return machines_; }
  bool empty() const noexcept { return values_.empty(); }

  double at(TaskId task, MachineId machine) const {
    return values_[index(task, machine)];
  }
  double& at(TaskId task, MachineId machine) {
    return values_[index(task, machine)];
  }

  /// The ETC row of one task across all machines. Unlike at(), this is an
  /// internal hot-path accessor: callers must pass an in-range task id.
  std::span<const double> row(TaskId task) const {
    HCSCHED_PRECONDITION(
        task >= 0 && static_cast<std::size_t>(task) < tasks_, "task id ",
        task, " outside 0..", tasks_);
    return std::span<const double>(values_)
        .subspan(static_cast<std::size_t>(task) * machines_, machines_);
  }

  std::span<const double> data() const noexcept { return values_; }

  /// Sum, min and max over all entries (used by generators' self-checks).
  double total() const noexcept;
  double min_value() const noexcept;
  double max_value() const noexcept;

  bool operator==(const EtcMatrix& other) const = default;

 private:
  std::size_t index(TaskId task, MachineId machine) const {
    if (task < 0 || static_cast<std::size_t>(task) >= tasks_ || machine < 0 ||
        static_cast<std::size_t>(machine) >= machines_) {
      throw std::out_of_range("EtcMatrix: index (" + std::to_string(task) +
                              ", " + std::to_string(machine) +
                              ") outside " + std::to_string(tasks_) + "x" +
                              std::to_string(machines_));
    }
    return static_cast<std::size_t>(task) * machines_ +
           static_cast<std::size_t>(machine);
  }

  std::size_t tasks_ = 0;
  std::size_t machines_ = 0;
  std::vector<double> values_{};
};

}  // namespace hcsched::etc
