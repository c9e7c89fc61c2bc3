// Tests for common/strings.hpp.
#include "common/strings.hpp"

#include <gtest/gtest.h>

namespace shep {
namespace {

TEST(Trim, RemovesWhitespace) {
  EXPECT_EQ(Trim("  x  "), "x");
  EXPECT_EQ(Trim("\t a b \n"), "a b");
  EXPECT_EQ(Trim(""), "");
  EXPECT_EQ(Trim("   "), "");
}

TEST(ParseInt, ValidAndInvalid) {
  EXPECT_EQ(*ParseInt("42"), 42);
  EXPECT_EQ(*ParseInt("-7"), -7);
  EXPECT_FALSE(ParseInt("4.2").has_value());
  EXPECT_FALSE(ParseInt("x").has_value());
}

TEST(FormatFixed, Digits) {
  EXPECT_EQ(FormatFixed(3.14159, 2), "3.14");
  EXPECT_EQ(FormatFixed(1.0, 0), "1");
  EXPECT_EQ(FormatFixed(-0.5, 1), "-0.5");
}

TEST(FormatPercent, MatchesPaperStyle) {
  EXPECT_EQ(FormatPercent(0.1580), "15.80%");
  EXPECT_EQ(FormatPercent(0.0659), "6.59%");
  EXPECT_EQ(FormatPercent(0.5, 0), "50%");
}

}  // namespace
}  // namespace shep
