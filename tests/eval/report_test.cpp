#include "src/eval/report.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>

#include "src/util/csv.h"

namespace rap::eval {
namespace {

ExperimentResult sample_result() {
  ExperimentResult result;
  result.config.name = "fig-test";
  result.config.ks = {1, 5};
  result.config.utility = traffic::UtilityKind::kLinear;
  result.config.range = 1000.0;
  result.config.repetitions = 3;
  result.series.resize(2);
  result.series[0].algorithm = AlgorithmId::kCompositeGreedy;
  result.series[1].algorithm = AlgorithmId::kRandom;
  for (auto& series : result.series) {
    series.by_k.resize(2);
    series.by_k[0].mean = 10.5;
    series.by_k[0].ci95_halfwidth = 0.25;
    series.by_k[1].mean = 42.125;
    series.by_k[1].ci95_halfwidth = 1.5;
  }
  return result;
}

TEST(FormatTable, ContainsHeaderAndRows) {
  const std::string table = format_table(sample_result());
  EXPECT_NE(table.find("fig-test"), std::string::npos);
  EXPECT_NE(table.find("utility=linear"), std::string::npos);
  EXPECT_NE(table.find("D=1000"), std::string::npos);
  EXPECT_NE(table.find("Algorithm2"), std::string::npos);
  EXPECT_NE(table.find("Random"), std::string::npos);
  EXPECT_NE(table.find("10.50"), std::string::npos);
  EXPECT_NE(table.find("42.12"), std::string::npos);  // 42.125 -> 2 decimals
}

TEST(FormatTable, OneRowPerK) {
  const std::string table = format_table(sample_result());
  std::istringstream in(table);
  std::string line;
  std::size_t rows = 0;
  while (std::getline(in, line)) ++rows;
  EXPECT_EQ(rows, 2u + 2u);  // header comment + column header + 2 k-rows
}

TEST(FormatTable, CiModeAppendsIntervals) {
  const std::string table = format_table(sample_result(), /*with_ci=*/true);
  EXPECT_NE(table.find("+-"), std::string::npos);
  EXPECT_NE(table.find("0.25"), std::string::npos);
}

TEST(ToCsvRows, HeaderAndValues) {
  const auto rows = to_csv_rows(sample_result());
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows[0][0], "k");
  EXPECT_EQ(rows[0][1], "Algorithm2");
  EXPECT_EQ(rows[0][2], "Algorithm2_ci95");
  EXPECT_EQ(rows[0][3], "Random");
  EXPECT_EQ(rows[1][0], "1");
  EXPECT_EQ(rows[1][1], "10.5000");
  EXPECT_EQ(rows[2][0], "5");
  EXPECT_EQ(rows[2][1], "42.1250");
}

TEST(WriteCsv, RoundTripsThroughParser) {
  const auto dir = std::filesystem::temp_directory_path() / "rap_report_test";
  std::filesystem::remove_all(dir);
  const auto path = dir / "fig.csv";
  write_csv(sample_result(), path);
  std::ifstream in(path);
  ASSERT_TRUE(in);
  std::vector<std::vector<std::string>> rows;
  util::for_each_csv_record(in, [&](const util::CsvRecordView& record) {
    rows.emplace_back(record.fields.begin(), record.fields.end());
  });
  EXPECT_EQ(rows, to_csv_rows(sample_result()));
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace rap::eval
