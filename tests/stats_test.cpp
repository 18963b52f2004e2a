#include <sstream>

#include <gtest/gtest.h>

#include "tbf/stats/meters.h"
#include "tbf/stats/table.h"

namespace tbf::stats {
namespace {

TEST(AirtimeMeterTest, ChargesAndShares) {
  AirtimeMeter meter;
  meter.Charge(1, Ms(30));
  meter.Charge(2, Ms(10));
  meter.Charge(1, Ms(10));
  EXPECT_EQ(meter.Airtime(1), Ms(40));
  EXPECT_EQ(meter.Airtime(2), Ms(10));
  EXPECT_EQ(meter.TotalCharged(), Ms(50));
  EXPECT_DOUBLE_EQ(meter.Share(1), 0.8);
  EXPECT_DOUBLE_EQ(meter.Share(2), 0.2);
  EXPECT_DOUBLE_EQ(meter.Share(99), 0.0);
}

TEST(AirtimeMeterTest, IgnoresNonPositiveCharges) {
  AirtimeMeter meter;
  meter.Charge(1, 0);
  meter.Charge(1, -5);
  EXPECT_EQ(meter.TotalCharged(), 0);
  EXPECT_DOUBLE_EQ(meter.Share(1), 0.0);
}

TEST(AirtimeMeterTest, ResetClears) {
  AirtimeMeter meter;
  meter.Charge(1, Ms(5));
  meter.Reset();
  EXPECT_EQ(meter.TotalCharged(), 0);
  EXPECT_EQ(meter.Airtime(1), 0);
}

TEST(ThroughputMeterTest, AccumulatesAndConverts) {
  ThroughputMeter meter;
  meter.AddBytes(1, 125'000);
  meter.AddBytes(1, 125'000);
  meter.AddBytes(2, 125'000);
  EXPECT_EQ(meter.Bytes(1), 250'000);
  EXPECT_EQ(meter.TotalBytes(), 375'000);
  EXPECT_DOUBLE_EQ(meter.Bps(1, Sec(1)), 2e6);
  EXPECT_DOUBLE_EQ(meter.TotalBps(Sec(3)), 1e6);
}

TEST(JainIndexTest, KnownValues) {
  EXPECT_DOUBLE_EQ(JainIndex({}), 1.0);
  EXPECT_DOUBLE_EQ(JainIndex({5.0}), 1.0);
  EXPECT_DOUBLE_EQ(JainIndex({1.0, 1.0}), 1.0);
  EXPECT_NEAR(JainIndex({4.0, 0.0}), 0.5, 1e-12);
  EXPECT_NEAR(JainIndex({1.0, 2.0, 3.0}), 36.0 / (3.0 * 14.0), 1e-12);
}

TEST(TableTest, AlignsColumns) {
  Table table({"a", "long header"});
  table.AddRow({"x", "1"});
  table.AddRow({"longer cell", "2"});
  std::ostringstream out;
  table.Print(out);
  const std::string s = out.str();
  // All body lines have equal width.
  size_t width = 0;
  size_t start = 0;
  while (start < s.size()) {
    const size_t end = s.find('\n', start);
    const size_t len = end - start;
    if (width == 0) {
      width = len;
    }
    EXPECT_EQ(len, width);
    start = end + 1;
  }
  EXPECT_NE(s.find("longer cell"), std::string::npos);
}

TEST(TableTest, MissingCellsRenderEmpty) {
  Table table({"a", "b", "c"});
  table.AddRow({"only one"});
  std::ostringstream out;
  table.Print(out);
  EXPECT_NE(out.str().find("only one"), std::string::npos);
}

TEST(TableTest, Formatters) {
  EXPECT_EQ(Table::Num(3.14159, 2), "3.14");
  EXPECT_EQ(Table::Num(2.0, 0), "2");
  EXPECT_EQ(Table::Ratio(1.816, 2), "x1.82");
  EXPECT_EQ(Table::PercentDelta(2.03), "+103%");
  EXPECT_EQ(Table::PercentDelta(0.94), "-6%");
}

}  // namespace
}  // namespace tbf::stats
