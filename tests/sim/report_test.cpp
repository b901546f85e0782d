#include "src/sim/report.h"

#include <gtest/gtest.h>

namespace cloudcache {
namespace {

SimMetrics MakeMetrics(const char* name, double mean_response,
                       double cost) {
  SimMetrics m;
  m.scheme_name = name;
  for (int i = 0; i < 10; ++i) m.response_hist.Add(mean_response);
  m.operating_cost.cpu_dollars = cost / 2;
  m.operating_cost.network_dollars = cost / 2;
  m.queries = 10;
  m.served = 10;
  m.served_in_cache = 4;
  m.served_in_backend = 6;
  return m;
}

TEST(ReportTest, ResourceBreakdownTotals) {
  ResourceBreakdown a{1, 2, 3, 4};
  EXPECT_DOUBLE_EQ(a.Total(), 10.0);
  ResourceBreakdown b{1, 1, 1, 1};
  a += b;
  EXPECT_DOUBLE_EQ(a.Total(), 14.0);
  EXPECT_DOUBLE_EQ(a.disk_dollars, 4.0);
}

TEST(ReportTest, CacheHitRate) {
  const SimMetrics m = MakeMetrics("x", 1.0, 1.0);
  EXPECT_DOUBLE_EQ(m.CacheHitRate(), 0.4);
  SimMetrics empty;
  EXPECT_DOUBLE_EQ(empty.CacheHitRate(), 0.0);
}

TEST(ReportTest, RunDetailMentionsEverything) {
  const std::string detail = FormatRunDetail(MakeMetrics("econ-x", 2.5, 8));
  EXPECT_NE(detail.find("econ-x"), std::string::npos);
  EXPECT_NE(detail.find("response"), std::string::npos);
  EXPECT_NE(detail.find("operating cost"), std::string::npos);
  EXPECT_NE(detail.find("$8.00"), std::string::npos);
}

TEST(ReportTest, OperatingCostTableShape) {
  const std::vector<double> intervals = {1, 10};
  std::vector<std::vector<SimMetrics>> rows = {
      {MakeMetrics("bypass", 1, 100), MakeMetrics("econ-cheap", 1, 55)},
      {MakeMetrics("bypass", 2, 300), MakeMetrics("econ-cheap", 2, 200)},
  };
  TableWriter table = MakeOperatingCostTable(intervals, rows);
  EXPECT_EQ(table.num_rows(), 2u);
  EXPECT_EQ(table.num_columns(), 3u);
  const std::string csv = table.ToCsv();
  EXPECT_NE(csv.find("bypass"), std::string::npos);
  EXPECT_NE(csv.find("100.00"), std::string::npos);
}

TEST(ReportTest, ResponseTimeTableShape) {
  const std::vector<double> intervals = {1};
  std::vector<std::vector<SimMetrics>> rows = {
      {MakeMetrics("bypass", 4.5, 1)}};
  TableWriter table = MakeResponseTimeTable(intervals, rows);
  const std::string csv = table.ToCsv();
  EXPECT_NE(csv.find("4.500"), std::string::npos);
}

TEST(ReportTest, SummaryTableHasOneRowPerScheme) {
  std::vector<SimMetrics> runs = {MakeMetrics("a", 1, 1),
                                  MakeMetrics("b", 2, 2),
                                  MakeMetrics("c", 3, 3)};
  TableWriter table = MakeSchemeSummaryTable(runs);
  EXPECT_EQ(table.num_rows(), 3u);
  EXPECT_NE(table.ToAscii().find("hit_rate"), std::string::npos);
}

}  // namespace
}  // namespace cloudcache
