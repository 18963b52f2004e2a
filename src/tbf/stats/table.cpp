#include "tbf/stats/table.h"

#include <algorithm>
#include <cstdio>

namespace tbf::stats {

void Table::Print(std::ostream& out) const {
  std::vector<size_t> widths(headers_.size(), 0);
  for (size_t c = 0; c < headers_.size(); ++c) {
    widths[c] = headers_[c].size();
  }
  for (const auto& row : rows_) {
    for (size_t c = 0; c < row.size() && c < widths.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }

  auto print_row = [&](const std::vector<std::string>& cells) {
    out << "|";
    for (size_t c = 0; c < widths.size(); ++c) {
      const std::string& cell = c < cells.size() ? cells[c] : "";
      out << " " << cell << std::string(widths[c] - cell.size(), ' ') << " |";
    }
    out << "\n";
  };

  auto print_sep = [&] {
    out << "+";
    for (size_t c = 0; c < widths.size(); ++c) {
      out << std::string(widths[c] + 2, '-') << "+";
    }
    out << "\n";
  };

  print_sep();
  print_row(headers_);
  print_sep();
  for (const auto& row : rows_) {
    print_row(row);
  }
  print_sep();
}

std::string Table::Num(double value, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, value);
  return buf;
}

std::string Table::Ratio(double value, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "x%.*f", precision, value);
  return buf;
}

std::string Table::PercentDelta(double ratio) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%+.0f%%", (ratio - 1.0) * 100.0);
  return buf;
}

}  // namespace tbf::stats
