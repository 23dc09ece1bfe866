#include "sched/problem.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace {

using hcsched::etc::EtcMatrix;
using hcsched::sched::Problem;

EtcMatrix matrix3x3() {
  return EtcMatrix::from_rows({{1, 2, 3}, {4, 5, 6}, {7, 8, 9}});
}

TEST(Problem, FullCoversEverything) {
  const EtcMatrix m = matrix3x3();
  const Problem p = Problem::full(m);
  EXPECT_EQ(p.num_tasks(), 3u);
  EXPECT_EQ(p.num_machines(), 3u);
  EXPECT_EQ(p.tasks(), (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(p.machines(), (std::vector<int>{0, 1, 2}));
  for (std::size_t s = 0; s < 3; ++s) {
    EXPECT_DOUBLE_EQ(p.initial_ready(s), 0.0);
  }
}

TEST(Problem, SubsetView) {
  const EtcMatrix m = matrix3x3();
  const Problem p(m, {2, 0}, {1, 2}, {10.0, 20.0});
  EXPECT_EQ(p.num_tasks(), 2u);
  EXPECT_EQ(p.num_machines(), 2u);
  EXPECT_DOUBLE_EQ(p.etc_at(2, 0), 8);  // task 2 on machine slot 0 (= m1)
  EXPECT_DOUBLE_EQ(p.etc_at(0, 1), 3);  // task 0 on machine slot 1 (= m2)
  EXPECT_DOUBLE_EQ(p.initial_ready(0), 10.0);
  EXPECT_DOUBLE_EQ(p.initial_ready(1), 20.0);
}

TEST(Problem, SlotAndMembershipLookups) {
  const EtcMatrix m = matrix3x3();
  const Problem p(m, {1}, {0, 2});
  EXPECT_EQ(p.slot_of(0), 0u);
  EXPECT_EQ(p.slot_of(2), 1u);
  EXPECT_EQ(p.slot_of(1), Problem::npos);
  EXPECT_TRUE(p.has_machine(2));
  EXPECT_FALSE(p.has_machine(1));
  EXPECT_TRUE(p.has_task(1));
  EXPECT_FALSE(p.has_task(0));
}

TEST(Problem, RejectsOutOfRangeIds) {
  const EtcMatrix m = matrix3x3();
  EXPECT_THROW(Problem(m, {3}, {0}), std::out_of_range);
  EXPECT_THROW(Problem(m, {0}, {5}), std::out_of_range);
  EXPECT_THROW(Problem(m, {-1}, {0}), std::out_of_range);
}

TEST(Problem, RejectsDuplicateIds) {
  const EtcMatrix m = matrix3x3();
  EXPECT_THROW(Problem(m, {0, 0}, {0, 1}), std::invalid_argument);
  EXPECT_THROW(Problem(m, {0, 1}, {2, 2}), std::invalid_argument);
}

TEST(Problem, RejectsMismatchedReadyVector) {
  const EtcMatrix m = matrix3x3();
  EXPECT_THROW(Problem(m, {0}, {0, 1}, {1.0}), std::invalid_argument);
}

TEST(Problem, RejectsOverflow) {
  const EtcMatrix m = matrix3x3();
  EXPECT_THROW(Problem(m, {0, 1}, {0, 1}, {0.0, 1e308}),
               std::invalid_argument);
  EXPECT_THROW(Problem(m, {0}, {0, 1}, {std::nan(""), 0.0}),
               std::invalid_argument);
  EXPECT_NO_THROW(Problem(m, {0, 1}, {0, 1}, {4e307, 2.0}));
}

TEST(Problem, WithoutMachineDropsMachineAndTasks) {
  const EtcMatrix m = matrix3x3();
  const Problem p(m, {0, 1, 2}, {0, 1, 2}, {5.0, 6.0, 7.0});
  const Problem next = p.without_machine(1, {1});
  EXPECT_EQ(next.tasks(), (std::vector<int>{0, 2}));
  EXPECT_EQ(next.machines(), (std::vector<int>{0, 2}));
  // Initial ready times of survivors are preserved (the paper's "reset to
  // initial ready times" semantics).
  EXPECT_DOUBLE_EQ(next.initial_ready(0), 5.0);
  EXPECT_DOUBLE_EQ(next.initial_ready(1), 7.0);
}

TEST(Problem, WithoutMachinePreservesTaskOrder) {
  const EtcMatrix m = matrix3x3();
  const Problem p(m, {2, 1, 0}, {0, 1, 2});
  const Problem next = p.without_machine(0, {1});
  EXPECT_EQ(next.tasks(), (std::vector<int>{2, 0}));  // relative order kept
}

TEST(Problem, WithoutMachineOnAbsentMachineThrows) {
  const EtcMatrix m = matrix3x3();
  const Problem p(m, {0}, {0, 1});
  EXPECT_THROW(p.without_machine(2, {}), std::invalid_argument);
}

TEST(Problem, WithoutMachineWithEmptyDropListKeepsTasks) {
  const EtcMatrix m = matrix3x3();
  const Problem p = Problem::full(m);
  const Problem next = p.without_machine(2, {});
  EXPECT_EQ(next.num_tasks(), 3u);
  EXPECT_EQ(next.num_machines(), 2u);
}

}  // namespace
