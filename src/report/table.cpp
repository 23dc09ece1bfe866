#include "report/table.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <ostream>
#include <sstream>

namespace hcsched::report {

std::string TextTable::num(double value, int max_decimals) {
  // Every double this large is an integer, but not one long long holds:
  // print it in scientific form instead of through an out-of-range cast.
  if (std::fabs(value) >= 0x1p63) {
    std::ostringstream os;
    os.precision(std::numeric_limits<double>::digits10);
    os << value;
    return os.str();
  }
  const double rounded = std::round(value);
  if (std::fabs(value - rounded) < 1e-9) {
    std::ostringstream os;
    os << static_cast<long long>(rounded);
    return os.str();
  }
  std::ostringstream os;
  os.precision(max_decimals);
  os << std::fixed << value;
  std::string s = os.str();
  while (!s.empty() && s.back() == '0') s.pop_back();
  if (!s.empty() && s.back() == '.') s.pop_back();
  return s;
}

std::string TextTable::to_string() const {
  // Column widths over header + rows.
  std::size_t cols = header_.size();
  for (const auto& row : rows_) cols = std::max(cols, row.size());
  std::vector<std::size_t> width(cols, 0);
  auto widen = [&](const std::vector<std::string>& row) {
    for (std::size_t i = 0; i < row.size(); ++i) {
      width[i] = std::max(width[i], row[i].size());
    }
  };
  widen(header_);
  for (const auto& row : rows_) widen(row);

  std::ostringstream os;
  auto emit = [&](const std::vector<std::string>& row) {
    os << '|';
    for (std::size_t i = 0; i < cols; ++i) {
      const std::string& cell = i < row.size() ? row[i] : std::string();
      os << ' ' << cell << std::string(width[i] - cell.size(), ' ') << " |";
    }
    os << '\n';
  };
  auto rule = [&] {
    os << '+';
    for (std::size_t i = 0; i < cols; ++i) {
      os << std::string(width[i] + 2, '-') << '+';
    }
    os << '\n';
  };
  rule();
  if (!header_.empty()) {
    emit(header_);
    rule();
  }
  for (const auto& row : rows_) emit(row);
  rule();
  return os.str();
}

std::ostream& operator<<(std::ostream& os, const TextTable& table) {
  return os << table.to_string();
}

}  // namespace hcsched::report
