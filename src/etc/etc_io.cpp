#include "etc/etc_io.hpp"

#include <cmath>
#include <iomanip>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <vector>

namespace hcsched::etc {

void write_csv(std::ostream& os, const EtcMatrix& m) {
  os << m.num_tasks() << ',' << m.num_machines() << '\n';
  os << std::setprecision(std::numeric_limits<double>::max_digits10);
  for (std::size_t t = 0; t < m.num_tasks(); ++t) {
    const auto row = m.row(static_cast<TaskId>(t));
    for (std::size_t j = 0; j < row.size(); ++j) {
      if (j != 0) os << ',';
      os << row[j];
    }
    os << '\n';
  }
}

namespace {

[[noreturn]] void bad_cell(std::size_t row, std::size_t col,
                           const std::string& cell, const char* why) {
  throw std::runtime_error("EtcMatrix CSV: cell (row " + std::to_string(row) +
                           ", column " + std::to_string(col) + ") '" + cell +
                           "' " + why);
}

/// One ETC entry: the whole cell (up to trailing whitespace, so CRLF files
/// read) must parse as a finite, non-negative number.
double parse_cell(std::string cell, std::size_t row, std::size_t col) {
  cell.erase(cell.find_last_not_of(" \t\r") + 1);
  std::size_t used = 0;
  double value = 0.0;
  try {
    value = std::stod(cell, &used);
  } catch (const std::logic_error&) {  // invalid_argument / out_of_range
    bad_cell(row, col, cell, "is not a representable number");
  }
  if (used != cell.size()) bad_cell(row, col, cell, "has trailing characters");
  if (!std::isfinite(value)) bad_cell(row, col, cell, "is not finite");
  if (value < 0.0) bad_cell(row, col, cell, "is negative");
  return value;
}

}  // namespace

EtcMatrix read_csv(std::istream& is) {
  std::string line;
  if (!std::getline(is, line)) {
    throw std::runtime_error("EtcMatrix CSV: missing header");
  }
  std::size_t tasks = 0;
  std::size_t machines = 0;
  {
    std::istringstream header(line);
    char comma = 0;
    if (!(header >> tasks >> comma >> machines) || comma != ',') {
      throw std::runtime_error("EtcMatrix CSV: malformed header '" + line +
                               "'");
    }
  }
  if (machines != 0 && tasks > std::numeric_limits<std::size_t>::max() /
                                   machines) {
    throw std::runtime_error("EtcMatrix CSV: header '" + line +
                             "' overflows the cell count");
  }
  // Storage grows with the rows actually read, never with the header's
  // claim, so a lying header cannot force a huge allocation.
  std::vector<std::vector<double>> rows;
  for (std::size_t t = 0; t < tasks; ++t) {
    if (!std::getline(is, line)) {
      throw std::runtime_error("EtcMatrix CSV: truncated at row " +
                               std::to_string(t));
    }
    std::istringstream row(line);
    std::string cell;
    std::vector<double>& values = rows.emplace_back();
    for (std::size_t j = 0; j < machines; ++j) {
      if (!std::getline(row, cell, ',')) {
        throw std::runtime_error("EtcMatrix CSV: short row " +
                                 std::to_string(t));
      }
      values.push_back(parse_cell(cell, t, j));
    }
  }
  // A column past kMaxColumnSum would let a completion time overflow. (A
  // matrix with no rows has nothing to sum, however wide its header.)
  for (std::size_t j = 0; j < machines && !rows.empty(); ++j) {
    double sum = 0.0;
    for (const std::vector<double>& values : rows) sum += values[j];
    if (!(sum <= kMaxColumnSum)) {
      throw std::runtime_error("EtcMatrix CSV: column " + std::to_string(j) +
                               " sums past the largest completion time");
    }
  }
  return tasks == 0 ? EtcMatrix(0, machines) : EtcMatrix::from_rows(rows);
}

std::string to_csv(const EtcMatrix& m) {
  std::ostringstream os;
  write_csv(os, m);
  return os.str();
}

EtcMatrix from_csv(const std::string& text) {
  std::istringstream is(text);
  return read_csv(is);
}

}  // namespace hcsched::etc
