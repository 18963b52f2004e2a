// Fixed-width console table for bench harnesses.
#ifndef TBF_STATS_TABLE_H_
#define TBF_STATS_TABLE_H_

#include <iostream>
#include <string>
#include <vector>

namespace tbf::stats {

class Table {
 public:
  explicit Table(std::vector<std::string> headers) : headers_(std::move(headers)) {}

  void AddRow(std::vector<std::string> cells) { rows_.push_back(std::move(cells)); }

  void Print(std::ostream& out = std::cout) const;

  // Formats a double with fixed precision (no locale surprises).
  static std::string Num(double value, int precision = 3);
  // "x1.82" style ratio formatting.
  static std::string Ratio(double value, int precision = 2);
  // "+82%" style percentage delta.
  static std::string PercentDelta(double ratio);

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace tbf::stats

#endif  // TBF_STATS_TABLE_H_
