#include "sched/problem.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace hcsched::sched {

Problem::Problem(const EtcMatrix& matrix, std::vector<TaskId> tasks,
                 std::vector<MachineId> machines,
                 std::vector<double> initial_ready)
    : matrix_(&matrix),
      tasks_(std::move(tasks)),
      machines_(std::move(machines)),
      ready_(std::move(initial_ready)) {
  if (ready_.empty()) ready_.assign(machines_.size(), 0.0);
  if (ready_.size() != machines_.size()) {
    throw std::invalid_argument(
        "Problem: initial_ready must be empty or parallel to machines");
  }
  std::vector<char> seen_task(matrix.num_tasks(), 0);
  for (TaskId t : tasks_) {
    if (t < 0 || static_cast<std::size_t>(t) >= matrix.num_tasks()) {
      throw std::out_of_range("Problem: task id outside ETC matrix");
    }
    if (seen_task[static_cast<std::size_t>(t)]++ != 0) {
      throw std::invalid_argument("Problem: duplicate task id " +
                                  std::to_string(t));
    }
  }
  std::vector<char> seen_machine(matrix.num_machines(), 0);
  for (MachineId m : machines_) {
    if (m < 0 || static_cast<std::size_t>(m) >= matrix.num_machines()) {
      throw std::out_of_range("Problem: machine id outside ETC matrix");
    }
    if (seen_machine[static_cast<std::size_t>(m)]++ != 0) {
      throw std::invalid_argument("Problem: duplicate machine id " +
                                  std::to_string(m));
    }
  }
  // A ready time starts every completion-time sum on its machine, so it
  // must leave the column within etc::kMaxColumnSum (the CSV reader has
  // already checked the zero-ready case).
  for (std::size_t slot = 0; slot < machines_.size(); ++slot) {
    if (ready_[slot] == 0.0) continue;
    double sum = ready_[slot];
    for (TaskId t : tasks_) sum += matrix.at(t, machines_[slot]);
    if (!(sum <= etc::kMaxColumnSum)) {
      throw std::invalid_argument(
          "Problem: ready time of machine " +
          std::to_string(machines_[slot]) +
          " plus its ETC column sums past the largest completion time");
    }
  }
}

Problem Problem::full(const EtcMatrix& matrix) {
  std::vector<TaskId> tasks(matrix.num_tasks());
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    tasks[i] = static_cast<TaskId>(i);
  }
  std::vector<MachineId> machines(matrix.num_machines());
  for (std::size_t i = 0; i < machines.size(); ++i) {
    machines[i] = static_cast<MachineId>(i);
  }
  return Problem(matrix, std::move(tasks), std::move(machines));
}

std::size_t Problem::slot_of(MachineId machine) const noexcept {
  for (std::size_t i = 0; i < machines_.size(); ++i) {
    if (machines_[i] == machine) return i;
  }
  return npos;
}

bool Problem::has_task(TaskId task) const noexcept {
  return std::find(tasks_.begin(), tasks_.end(), task) != tasks_.end();
}

Problem Problem::without_machine(
    MachineId machine, const std::vector<TaskId>& tasks_to_drop) const {
  const std::size_t drop_slot = slot_of(machine);
  if (drop_slot == npos) {
    throw std::invalid_argument("Problem::without_machine: machine absent");
  }
  Problem next;
  next.matrix_ = matrix_;
  next.tasks_.reserve(tasks_.size());
  for (TaskId t : tasks_) {
    if (std::find(tasks_to_drop.begin(), tasks_to_drop.end(), t) ==
        tasks_to_drop.end()) {
      next.tasks_.push_back(t);
    }
  }
  next.machines_.reserve(machines_.size() - 1);
  next.ready_.reserve(machines_.size() - 1);
  for (std::size_t i = 0; i < machines_.size(); ++i) {
    if (i == drop_slot) continue;
    next.machines_.push_back(machines_[i]);
    next.ready_.push_back(ready_[i]);
  }
  return next;
}

}  // namespace hcsched::sched
