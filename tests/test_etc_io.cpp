#include "etc/etc_io.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <string>

#include "etc/cvb_generator.hpp"
#include "rng/rng.hpp"

namespace {

using hcsched::etc::EtcMatrix;
using hcsched::etc::from_csv;
using hcsched::etc::to_csv;

TEST(EtcIo, RoundTripSmall) {
  const EtcMatrix m = EtcMatrix::from_rows({{1, 2.5}, {3.25, 4}});
  EXPECT_EQ(from_csv(to_csv(m)), m);
}

TEST(EtcIo, RoundTripPreservesFullPrecision) {
  EtcMatrix m(1, 2);
  m.at(0, 0) = 0.1 + 0.2;  // 0.30000000000000004
  m.at(0, 1) = 1.0 / 3.0;
  EXPECT_EQ(from_csv(to_csv(m)), m);
}

TEST(EtcIo, RoundTripGeneratedMatrix) {
  hcsched::rng::Rng rng(5);
  hcsched::etc::CvbEtcGenerator gen(
      hcsched::etc::CvbParams{.num_tasks = 30, .num_machines = 6});
  const EtcMatrix m = gen.generate(rng);
  EXPECT_EQ(from_csv(to_csv(m)), m);
}

TEST(EtcIo, HeaderFormat) {
  const EtcMatrix m = EtcMatrix::from_rows({{7, 8, 9}});
  const std::string csv = to_csv(m);
  EXPECT_EQ(csv.substr(0, 4), "1,3\n");
}

TEST(EtcIo, MissingHeaderThrows) {
  std::istringstream empty("");
  EXPECT_THROW(hcsched::etc::read_csv(empty), std::runtime_error);
}

TEST(EtcIo, MalformedHeaderThrows) {
  EXPECT_THROW(from_csv("banana\n1,2\n"), std::runtime_error);
  EXPECT_THROW(from_csv("2;2\n"), std::runtime_error);
}

TEST(EtcIo, TruncatedBodyThrows) {
  EXPECT_THROW(from_csv("2,2\n1,2\n"), std::runtime_error);
}

TEST(EtcIo, ShortRowThrows) {
  EXPECT_THROW(from_csv("1,3\n1,2\n"), std::runtime_error);
}

// Every bad-cell error names the row and column of the offending cell.
void expect_cell_error(const std::string& csv, const std::string& where) {
  try {
    (void)from_csv(csv);
    ADD_FAILURE() << "accepted: " << csv;
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(where), std::string::npos)
        << e.what();
  }
}

TEST(EtcIo, NonFiniteCellThrows) {
  expect_cell_error("2,2\n1,2\n3,nan\n", "row 1, column 1");
  expect_cell_error("2,2\nNaN,2\n3,4\n", "row 0, column 0");
  expect_cell_error("2,2\n1,inf\n3,4\n", "row 0, column 1");
  expect_cell_error("2,2\n1,2\n-inf,4\n", "row 1, column 0");
}

TEST(EtcIo, NegativeCellThrows) {
  expect_cell_error("2,2\n1,2\n3,-5\n", "row 1, column 1");
  expect_cell_error("1,2\n-0.5,1\n", "row 0, column 0");
}

TEST(EtcIo, PartlyParsedCellThrows) {
  expect_cell_error("1,2\n1.5x,2\n", "row 0, column 0");
  expect_cell_error("1,2\n1,2 3\n", "row 0, column 1");
  expect_cell_error("1,2\n,2\n", "row 0, column 0");
  expect_cell_error("1,2\nabc,2\n", "row 0, column 0");
}

TEST(EtcIo, ColumnOverflow) {
  // Each cell is finite, but mapping both tasks to one machine is not:
  // these once segfaulted Min-Min, aborted MCT, hung Sufferage and printed
  // a makespan of -9223372036854775808.
  expect_cell_error("2,1\n1e308\n1e308\n", "column 0");
  expect_cell_error("2,2\n1,1e308\n3,1e308\n", "column 1");
  // Up to half the largest double a column is accepted.
  EXPECT_EQ(from_csv("2,1\n4e307\n4e307\n").num_tasks(), 2u);
}

TEST(EtcIo, TrailingWhitespaceAndCrlfAccepted) {
  EXPECT_EQ(from_csv("2,2\r\n1,2\r\n3.5 ,4\t\r\n"),
            EtcMatrix::from_rows({{1, 2}, {3.5, 4}}));
}

TEST(EtcIo, HugeHeaderDoesNotAllocateUpFront) {
  // The header claims 6e9 cells but only two rows follow: the reader must
  // report the truncation instead of allocating for the claim.
  EXPECT_THROW(from_csv("3000000000,2\n1,2\n3,4\n"), std::runtime_error);
  EXPECT_THROW(from_csv("2,3000000000\n1,2\n"), std::runtime_error);
}

TEST(EtcIo, OverflowingHeaderThrows) {
  EXPECT_THROW(from_csv("18446744073709551615,2\n1,2\n"),
               std::runtime_error);
  EXPECT_THROW(from_csv("4294967296,4294967296\n"), std::runtime_error);
}

TEST(EtcIo, EmptyMatrixRoundTrips) {
  EtcMatrix m(0, 0);
  EXPECT_EQ(from_csv(to_csv(m)), m);
}

}  // namespace
