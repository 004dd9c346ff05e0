#include "common/strings.h"

#include <gtest/gtest.h>

namespace explainit {
namespace {

TEST(StringsTest, SplitBasic) {
  auto parts = StrSplit("web-1", '-');
  ASSERT_EQ(parts.size(), 2u);
  EXPECT_EQ(parts[0], "web");
  EXPECT_EQ(parts[1], "1");
}

TEST(StringsTest, SplitKeepsEmptyPieces) {
  auto parts = StrSplit("a--b", '-');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[1], "");
}

TEST(StringsTest, SplitNoSeparator) {
  auto parts = StrSplit("datanode", '-');
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "datanode");
}

TEST(StringsTest, JoinRoundTrip) {
  EXPECT_EQ(StrJoin({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(StrJoin({}, ","), "");
  EXPECT_EQ(StrJoin({"solo"}, ","), "solo");
}

TEST(StringsTest, StartsEndsWith) {
  EXPECT_TRUE(StartsWith("datanode-1", "datanode"));
  EXPECT_FALSE(StartsWith("data", "datanode"));
  EXPECT_TRUE(EndsWith("read_latency", "latency"));
  EXPECT_FALSE(EndsWith("latency", "read_latency"));
}

TEST(StringsTest, CaseConversion) {
  EXPECT_EQ(ToLower("SELECT Avg"), "select avg");
  EXPECT_EQ(ToUpper("tag['x']"), "TAG['X']");
}

TEST(StringsTest, StripWhitespace) {
  EXPECT_EQ(StripWhitespace("  hi \t\n"), "hi");
  EXPECT_EQ(StripWhitespace(""), "");
  EXPECT_EQ(StripWhitespace(" \t "), "");
}

TEST(StringsTest, GlobMatchExactAndStar) {
  EXPECT_TRUE(GlobMatch("datanode*", "datanode-1"));
  EXPECT_TRUE(GlobMatch("datanode*", "datanode"));
  EXPECT_FALSE(GlobMatch("datanode*", "namenode-1"));
  EXPECT_TRUE(GlobMatch("*latency*", "read_latency_ms"));
  EXPECT_TRUE(GlobMatch("*", ""));
  EXPECT_TRUE(GlobMatch("a?c", "abc"));
  EXPECT_FALSE(GlobMatch("a?c", "ac"));
}

TEST(StringsTest, GlobMatchBacktracking) {
  EXPECT_TRUE(GlobMatch("*ab*ab", "abxabxab"));
  EXPECT_FALSE(GlobMatch("*ab*abq", "abxabxab"));
  EXPECT_TRUE(GlobMatch("disk{host=datanode*}", "disk{host=datanode-7}"));
  // A '*' facing a literal '*' in the text stays a wildcard (by-host
  // family names start with one).
  EXPECT_TRUE(GlobMatch("*a", "*ba"));
  EXPECT_TRUE(GlobMatch("x*", "x*y"));
  EXPECT_TRUE(GlobMatch("*host*", "*{host=h1}"));
  EXPECT_FALSE(GlobMatch("*host*", "*{disk=h1}"));
}

TEST(StringsTest, EqualsIgnoreCase) {
  EXPECT_TRUE(EqualsIgnoreCase("SELECT", "select"));
  EXPECT_TRUE(EqualsIgnoreCase("GrOuP", "group"));
  EXPECT_FALSE(EqualsIgnoreCase("SELECT", "SELEC"));
}

TEST(StringsTest, StrFormat) {
  EXPECT_EQ(StrFormat("%d-%s", 7, "x"), "7-x");
  EXPECT_EQ(StrFormat("%.2f", 3.14159), "3.14");
  EXPECT_EQ(StrFormat("empty"), "empty");
}

}  // namespace
}  // namespace explainit
