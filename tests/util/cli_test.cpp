#include "src/util/cli.h"

#include <gtest/gtest.h>

namespace rap::util {
namespace {

TEST(CliFlags, EqualsSyntax) {
  const CliFlags flags({"--reps=100", "--name=fig10"});
  EXPECT_EQ(flags.get_int("reps", 0), 100);
  EXPECT_EQ(flags.get_string("name", ""), "fig10");
}

TEST(CliFlags, SpaceSyntax) {
  const CliFlags flags({"--reps", "50", "--d", "2500.5"});
  EXPECT_EQ(flags.get_int("reps", 0), 50);
  EXPECT_DOUBLE_EQ(flags.get_double("d", 0.0), 2500.5);
}

TEST(CliFlags, BareFlagIsTrue) {
  const CliFlags flags({"--verbose"});
  EXPECT_TRUE(flags.get_bool("verbose", false));
}

TEST(CliFlags, NoPrefixIsFalse) {
  const CliFlags flags({"--no-verbose"});
  EXPECT_FALSE(flags.get_bool("verbose", true));
}

TEST(CliFlags, FallbacksWhenAbsent) {
  const CliFlags flags(std::vector<std::string>{});
  EXPECT_EQ(flags.get_int("reps", 42), 42);
  EXPECT_EQ(flags.get_string("name", "default"), "default");
  EXPECT_TRUE(flags.get_bool("on", true));
  EXPECT_DOUBLE_EQ(flags.get_double("x", 1.5), 1.5);
}

TEST(CliFlags, HasDetectsPresence) {
  const CliFlags flags({"--a=1"});
  EXPECT_TRUE(flags.has("a"));
  EXPECT_FALSE(flags.has("b"));
}

TEST(CliFlags, RejectsNonFlagToken) {
  EXPECT_THROW(CliFlags({"positional"}), std::invalid_argument);
}

TEST(CliFlags, RejectsMalformedNumbers) {
  const CliFlags flags({"--n=abc", "--x=1.5z", "--b=maybe"});
  EXPECT_THROW(flags.get_int("n", 0), std::invalid_argument);
  EXPECT_THROW(flags.get_double("x", 0.0), std::invalid_argument);
  EXPECT_THROW(flags.get_bool("b", false), std::invalid_argument);
}

TEST(CliFlags, BooleanSpellings) {
  const CliFlags flags({"--a=1", "--b=yes", "--c=0", "--d=no"});
  EXPECT_TRUE(flags.get_bool("a", false));
  EXPECT_TRUE(flags.get_bool("b", false));
  EXPECT_FALSE(flags.get_bool("c", true));
  EXPECT_FALSE(flags.get_bool("d", true));
}

TEST(CliFlags, NegativeNumbersViaEquals) {
  const CliFlags flags({"--x=-5"});
  EXPECT_EQ(flags.get_int("x", 0), -5);
}

TEST(CliFlags, UnusedReportsUnqueriedFlags) {
  const CliFlags flags({"--used=1", "--typo=2"});
  EXPECT_EQ(flags.get_int("used", 0), 1);
  EXPECT_EQ(flags.unused(), std::vector<std::string>{"typo"});
}

TEST(CliFlags, RapCliObservabilityFlags) {
  // The exact spellings rap_cli documents: --quiet and --verbose-timings are
  // bare booleans, --metrics-out takes a path value.
  const CliFlags flags(
      {"--quiet", "--verbose-timings", "--metrics-out=telemetry.json"});
  EXPECT_TRUE(flags.get_bool("quiet", false));
  EXPECT_TRUE(flags.get_bool("verbose-timings", false));
  EXPECT_EQ(flags.get_string("metrics-out", ""), "telemetry.json");
  EXPECT_TRUE(flags.unused().empty());
}

TEST(CliFlags, ObservabilityFlagsDefaultOff) {
  const CliFlags flags(std::vector<std::string>{});
  EXPECT_FALSE(flags.get_bool("quiet", false));
  EXPECT_FALSE(flags.get_bool("verbose-timings", false));
  EXPECT_EQ(flags.get_string("metrics-out", ""), "");
}

TEST(CliFlags, ArgcArgvConstructor) {
  const char* argv[] = {"prog", "--reps=7"};
  const CliFlags flags(2, argv);
  EXPECT_EQ(flags.get_int("reps", 0), 7);
}

}  // namespace
}  // namespace rap::util
