#include "common/csv.hpp"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "common/error.hpp"
#include "test_util.hpp"

namespace qsv {
namespace {

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

TEST(Csv, EscapePlainCellUnchanged) {
  EXPECT_EQ(CsvWriter::escape("hello"), "hello");
  EXPECT_EQ(CsvWriter::escape("12.5"), "12.5");
}

TEST(Csv, EscapeQuotesCommasNewlines) {
  EXPECT_EQ(CsvWriter::escape("a,b"), "\"a,b\"");
  EXPECT_EQ(CsvWriter::escape("say \"hi\""), "\"say \"\"hi\"\"\"");
  EXPECT_EQ(CsvWriter::escape("two\nlines"), "\"two\nlines\"");
}

TEST(Csv, WritesRows) {
  const test::ScratchDir scratch("csv");
  const std::string path = scratch.file("qsv_csv_test.csv");
  {
    CsvWriter w(path);
    w.row({"qubits", "runtime_s"});
    w.row({"44", "476"});
  }
  EXPECT_EQ(slurp(path), "qubits,runtime_s\n44,476\n");
}

TEST(Csv, ThrowsOnUnwritablePath) {
  EXPECT_THROW(CsvWriter("/nonexistent-dir/x/y.csv"), Error);
}

}  // namespace
}  // namespace qsv
