#include "common/args.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"

namespace qsv {
namespace {

ArgParser make_parser() {
  ArgParser p;
  p.flag("verbose").flag("highmem");
  p.option("nodes").option("freq");
  return p;
}

void parse(ArgParser& p, std::initializer_list<const char*> args) {
  std::vector<const char*> argv{"prog"};
  argv.insert(argv.end(), args.begin(), args.end());
  p.parse(static_cast<int>(argv.size()), argv.data());
}

TEST(Args, PositionalsCollected) {
  ArgParser p = make_parser();
  parse(p, {"run", "file.qc"});
  EXPECT_EQ(p.positionals(), (std::vector<std::string>{"run", "file.qc"}));
}

TEST(Args, FlagsAndOptions) {
  ArgParser p = make_parser();
  parse(p, {"--verbose", "--nodes", "64", "--freq=high"});
  EXPECT_TRUE(p.has("verbose"));
  EXPECT_FALSE(p.has("highmem"));
  EXPECT_EQ(p.value_or("nodes", ""), "64");
  EXPECT_EQ(p.value_or("freq", ""), "high");
  EXPECT_EQ(p.int_or("nodes", 1), 64);
}

TEST(Args, DefaultsWhenAbsent) {
  ArgParser p = make_parser();
  parse(p, {});
  EXPECT_EQ(p.int_or("nodes", 7), 7);
  EXPECT_EQ(p.value_or("freq", "medium"), "medium");
  EXPECT_DOUBLE_EQ(p.double_or("nodes", 1.5), 1.5);
  EXPECT_FALSE(p.value("nodes").has_value());
}

TEST(Args, EqualsSyntaxAndSeparateValue) {
  ArgParser p1 = make_parser();
  parse(p1, {"--nodes=128"});
  ArgParser p2 = make_parser();
  parse(p2, {"--nodes", "128"});
  EXPECT_EQ(p1.int_or("nodes", 0), p2.int_or("nodes", 0));
}

TEST(Args, UnknownOptionThrows) {
  ArgParser p = make_parser();
  EXPECT_THROW(parse(p, {"--bogus"}), Error);
}

TEST(Args, FlagWithValueThrows) {
  ArgParser p = make_parser();
  EXPECT_THROW(parse(p, {"--verbose=yes"}), Error);
}

TEST(Args, MissingValueThrows) {
  ArgParser p = make_parser();
  EXPECT_THROW(parse(p, {"--nodes"}), Error);
}

TEST(Args, NonNumericValueThrows) {
  ArgParser p = make_parser();
  parse(p, {"--nodes", "lots"});
  EXPECT_THROW((void)p.int_or("nodes", 0), Error);
  EXPECT_THROW((void)p.double_or("nodes", 0), Error);
}

TEST(Args, IntegersOutsideTheirRangeThrowInsteadOfWrapping) {
  // 2^32 + 2 must be refused, not wrapped to 2.
  ArgParser p = make_parser();
  parse(p, {"--nodes", "4294967298"});
  EXPECT_THROW((void)p.int_or("nodes", 0), ArgError);
  EXPECT_EQ(parse_int("4294967298", "n"), 4294967298);
  EXPECT_THROW((void)parse_int("99999999999999999999", "n"), ArgError);
  EXPECT_EQ(parse_int("-3", "n", -3, 3), -3);
  EXPECT_THROW((void)parse_int("4", "n", -3, 3), ArgError);
  EXPECT_THROW((void)parse_int("", "n"), ArgError);
}

}  // namespace
}  // namespace qsv
