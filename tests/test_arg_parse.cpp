#include "util/arg_parse.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

namespace ncb {
namespace {

ArgParse parse(std::initializer_list<const char*> args) {
  std::vector<const char*> argv(args);
  return ArgParse(static_cast<int>(argv.size()), argv.data());
}

TEST(ArgParse, EqualsForm) {
  const auto args = parse({"prog", "--horizon=5000", "--p=0.6"});
  EXPECT_EQ(args.get_int("horizon", 0), 5000);
  EXPECT_DOUBLE_EQ(args.get_double("p", 0.0), 0.6);
}

TEST(ArgParse, SpaceForm) {
  const auto args = parse({"prog", "--arms", "64"});
  EXPECT_EQ(args.get_int("arms", 0), 64);
}

TEST(ArgParse, BooleanFlag) {
  const auto args = parse({"prog", "--verbose"});
  EXPECT_TRUE(args.has("verbose"));
  EXPECT_TRUE(args.get_bool("verbose", false));
  EXPECT_FALSE(args.get_bool("missing", false));
  EXPECT_TRUE(args.get_bool("missing", true));
}

TEST(ArgParse, ExplicitBooleanValues) {
  const auto args = parse({"prog", "--a=true", "--b=false", "--c=1", "--d=0"});
  EXPECT_TRUE(args.get_bool("a", false));
  EXPECT_FALSE(args.get_bool("b", true));
  EXPECT_TRUE(args.get_bool("c", false));
  EXPECT_FALSE(args.get_bool("d", true));
}

TEST(ArgParse, Fallbacks) {
  const auto args = parse({"prog"});
  EXPECT_EQ(args.get_int("n", 42), 42);
  EXPECT_EQ(args.get_string("name", "dfl"), "dfl");
  EXPECT_DOUBLE_EQ(args.get_double("x", 2.5), 2.5);
}

TEST(ArgParse, PositionalArguments) {
  const auto args = parse({"prog", "input.txt", "--flag", "output.txt"});
  // "--flag output.txt" binds output.txt as the flag's value.
  ASSERT_EQ(args.positional().size(), 1u);
  EXPECT_EQ(args.positional()[0], "input.txt");
  EXPECT_EQ(args.get_string("flag", ""), "output.txt");
}

TEST(ArgParse, ProgramName) {
  const auto args = parse({"bench_fig3"});
  EXPECT_EQ(args.program(), "bench_fig3");
}

TEST(ArgParse, LastValueWins) {
  const auto args = parse({"prog", "--n=1", "--n=2"});
  EXPECT_EQ(args.get_int("n", 0), 2);
}

TEST(ArgParse, NonNumericIntThrows) {
  const auto args = parse({"prog", "--horizon", "abc"});
  EXPECT_THROW(static_cast<void>(args.get_int("horizon", 0)),
               std::invalid_argument);
}

TEST(ArgParse, TrailingGarbageIntThrows) {
  const auto args = parse({"prog", "--horizon=50x"});
  EXPECT_THROW(static_cast<void>(args.get_int("horizon", 0)),
               std::invalid_argument);
}

TEST(ArgParse, NonNumericDoubleThrows) {
  const auto args = parse({"prog", "--p=high"});
  EXPECT_THROW(static_cast<void>(args.get_double("p", 0.0)),
               std::invalid_argument);
}

TEST(ArgParse, OutOfRangeThrows) {
  const auto args =
      parse({"prog", "--horizon=99999999999999999999", "--p=1e999"});
  EXPECT_THROW(static_cast<void>(args.get_int("horizon", 0)),
               std::invalid_argument);
  EXPECT_THROW(static_cast<void>(args.get_double("p", 0.0)),
               std::invalid_argument);
}

TEST(ArgParse, SubnormalDoubleAccepted) {
  // strtod underflow sets ERANGE but returns the subnormal: still valid.
  const auto args = parse({"prog", "--p=1e-310"});
  const double p = args.get_double("p", 0.0);
  EXPECT_GT(p, 0.0);
  EXPECT_LT(p, 1e-300);
}

TEST(ArgParse, UnknownFlagThrowsNamingIt) {
  // Declared flags in every form pass; the first undeclared one, in name
  // order, is named. Positional arguments are not flags.
  const auto args = parse(
      {"prog", "--spec", "a.sweep", "--dry-run", "--seed=3", "input.txt"});
  EXPECT_NO_THROW(args.require_known({"dry-run", "seed", "spec"}));
  try {
    args.require_known({"spec"});
    FAIL() << "an undeclared flag passed";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(), "unknown flag --dry-run");
  }
  EXPECT_THROW(parse({"prog", "--bogus-flag", "3"}).require_known({}),
               std::invalid_argument);
  EXPECT_NO_THROW(parse({"prog", "input.txt"}).require_known({}));
}

}  // namespace
}  // namespace ncb
