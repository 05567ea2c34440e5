#include "src/util/strings.h"

#include <gtest/gtest.h>

#include <limits>

namespace rap::util {
namespace {

TEST(FormatFixed, Decimals) {
  EXPECT_EQ(format_fixed(3.14159, 2), "3.14");
  EXPECT_EQ(format_fixed(2.0, 0), "2");
  EXPECT_EQ(format_fixed(-1.5, 1), "-1.5");
}

TEST(FormatFixed, RejectsBadDecimals) {
  EXPECT_THROW(format_fixed(1.0, -1), std::invalid_argument);
  EXPECT_THROW(format_fixed(1.0, 18), std::invalid_argument);
}

TEST(FormatFixed, GoldenBytes) {
  // printf("%.*f") in the C locale: exact binary ties round to even, the
  // sign of zero and NaN survives.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  const struct {
    double value;
    int decimals;
    const char* text;
  } cases[] = {
      {0.125, 2, "0.12"},
      {0.375, 2, "0.38"},
      {2.5, 0, "2"},
      {3.5, 0, "4"},
      {-0.5, 0, "-0"},
      {-0.0, 2, "-0.00"},
      {1e20, 0, "100000000000000000000"},
      {1e20, 6, "100000000000000000000.000000"},
      {-1.5, 1, "-1.5"},
      {0.0078125, 6, "0.007812"},
      {1.0 / 3.0, 17, "0.33333333333333331"},
      {kInf, 3, "inf"},
      {-kInf, 0, "-inf"},
      {kNan, 2, "nan"},
      {-kNan, 2, "-nan"},
      {std::numeric_limits<double>::denorm_min(), 17, "0.00000000000000000"},
      {123.456, 0, "123"},
  };
  for (const auto& c : cases) {
    EXPECT_EQ(format_fixed(c.value, c.decimals), c.text)
        << c.value << " at " << c.decimals;
  }
}

TEST(FormatFixed, RejectsResultsLongerThanItsBuffer) {
  // 63 characters is the limit: 1e55 at 6 decimals fits, -1e55 and 1e56
  // do not.
  EXPECT_EQ(format_fixed(1e55, 6).size(), 63u);
  EXPECT_THROW(format_fixed(-1e55, 6), std::runtime_error);
  EXPECT_THROW(format_fixed(1e56, 6), std::runtime_error);
  EXPECT_THROW(format_fixed(1e57, 6), std::runtime_error);
  EXPECT_THROW(format_fixed(1e300, 0), std::runtime_error);
}

TEST(Pad, LeftAndRight) {
  EXPECT_EQ(pad("ab", 5), "   ab");
  EXPECT_EQ(pad("ab", -5), "ab   ");
  EXPECT_EQ(pad("abcdef", 3), "abcdef");  // never truncates
}

TEST(StartsWith, Basic) {
  EXPECT_TRUE(starts_with("--flag", "--"));
  EXPECT_FALSE(starts_with("-flag", "--"));
  EXPECT_TRUE(starts_with("abc", ""));
  EXPECT_FALSE(starts_with("", "a"));
}

}  // namespace
}  // namespace rap::util
