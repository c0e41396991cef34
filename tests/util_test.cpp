#include <gtest/gtest.h>

#include <set>

#include "util/check.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace treesched {
namespace {

TEST(Rng, DeterministicForSeed) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a(), b());
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a() == b()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, NextBoundedInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.nextBounded(13), 13u);
  }
}

TEST(Rng, NextBoundedCoversAllResidues) {
  Rng rng(3);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 300; ++i) {
    seen.insert(rng.nextBounded(7));
  }
  EXPECT_EQ(seen.size(), 7u);
}

TEST(Rng, NextIntInclusiveRange) {
  Rng rng(9);
  bool sawLo = false;
  bool sawHi = false;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.nextInt(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    sawLo |= v == -3;
    sawHi |= v == 3;
  }
  EXPECT_TRUE(sawLo);
  EXPECT_TRUE(sawHi);
}

TEST(Rng, NextDoubleInUnitInterval) {
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    const double d = rng.nextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, ForkIndependentOfParentConsumption) {
  Rng a(5);
  const Rng child1 = a.fork(1);
  Rng b(5);
  const Rng child2 = b.fork(1);
  Rng c1 = child1;
  Rng c2 = child2;
  EXPECT_EQ(c1(), c2());
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng(13);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto sorted = v;
  rng.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

TEST(KeyedHash, StableAndSensitive) {
  EXPECT_EQ(keyedHash(1, 2, 3), keyedHash(1, 2, 3));
  EXPECT_NE(keyedHash(1, 2, 3), keyedHash(1, 3, 2));
  EXPECT_NE(keyedHash(1, 2, 3), keyedHash(2, 2, 3));
}

TEST(Check, ThrowsWithMessage) {
  try {
    checkThat(false, "something went wrong", __FILE__, __LINE__);
    FAIL() << "expected CheckError";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("something went wrong"),
              std::string::npos);
  }
}

TEST(Check, IndexBounds) {
  EXPECT_NO_THROW(checkIndex(0, 5, "idx"));
  EXPECT_NO_THROW(checkIndex(4, 5, "idx"));
  EXPECT_THROW(checkIndex(5, 5, "idx"), CheckError);
  EXPECT_THROW(checkIndex(-1, 5, "idx"), CheckError);
}

TEST(Table, RendersMarkdown) {
  Table t({"a", "bb"});
  t.row().cell(1).cell("x");
  const std::string s = t.toString();
  EXPECT_NE(s.find("| a | bb |"), std::string::npos);
  EXPECT_NE(s.find("| 1 | x  |"), std::string::npos);
}

TEST(Table, RowWidthMismatchThrows) {
  Table t({"a", "b"});
  EXPECT_THROW(t.addRow({"only one"}), CheckError);
}

TEST(Table, DoubleFormatting) {
  EXPECT_EQ(formatDouble(1.23456, 2), "1.23");
  EXPECT_EQ(formatDouble(2.0, 3), "2.000");
}

TEST(Summary, Moments) {
  Summary s;
  for (const double x : {1.0, 2.0, 3.0, 4.0}) s.add(x);
  EXPECT_EQ(s.count(), 4u);
  EXPECT_DOUBLE_EQ(s.mean(), 2.5);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 4.0);
  EXPECT_NEAR(s.variance(), 5.0 / 3.0, 1e-12);
}

TEST(Summary, EmptyThrows) {
  Summary s;
  EXPECT_THROW(s.mean(), CheckError);
}

TEST(Cli, ParsesTypes) {
  CliFlags flags;
  flags.intFlag("n", 10, "count")
      .doubleFlag("eps", 0.5, "epsilon")
      .boolFlag("verbose", false, "talk")
      .stringFlag("name", "x", "label");
  const char* argv[] = {"prog", "--n=42", "--eps", "0.25", "--verbose",
                        "--name=abc"};
  ASSERT_TRUE(flags.parse(6, argv));
  EXPECT_EQ(flags.getInt("n"), 42);
  EXPECT_DOUBLE_EQ(flags.getDouble("eps"), 0.25);
  EXPECT_TRUE(flags.getBool("verbose"));
  EXPECT_EQ(flags.getString("name"), "abc");
}

TEST(Cli, UnknownFlagThrows) {
  CliFlags flags;
  flags.intFlag("n", 1, "count");
  const char* argv[] = {"prog", "--bogus=1"};
  EXPECT_THROW(flags.parse(2, argv), CheckError);
}

TEST(Cli, BadNumericValueThrows) {
  // A value must parse completely: "40x" is not silently read as 40.
  for (const char* value : {"40x", "abc", ""}) {
    CliFlags flags;
    flags.intFlag("demands", 1, "count").doubleFlag("eps", 0.5, "epsilon");
    const char* intArgv[] = {"prog", "--demands", value};
    EXPECT_THROW(flags.parse(3, intArgv), CheckError) << value;
    const char* doubleArgv[] = {"prog", "--eps", value};
    EXPECT_THROW(flags.parse(3, doubleArgv), CheckError) << value;
  }
}

TEST(Cli, HelpReturnsFalse) {
  CliFlags flags;
  flags.intFlag("n", 1, "count");
  const char* argv[] = {"prog", "--help"};
  EXPECT_FALSE(flags.parse(2, argv));
}

}  // namespace
}  // namespace treesched
