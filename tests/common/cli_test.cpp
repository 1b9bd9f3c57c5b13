#include "common/cli.hpp"

#include <gtest/gtest.h>

namespace parva {
namespace {

CliArgs make(std::initializer_list<const char*> argv) {
  std::vector<const char*> args(argv);
  return CliArgs(static_cast<int>(args.size()), args.data());
}

TEST(CliTest, EqualsForm) {
  const auto args = make({"prog", "--rate=42.5"});
  EXPECT_TRUE(args.has("rate"));
  EXPECT_EQ(args.get("rate", ""), "42.5");
}

TEST(CliTest, SpaceForm) {
  const auto args = make({"prog", "--name", "hello"});
  EXPECT_EQ(args.get("name", ""), "hello");
}

TEST(CliTest, BooleanFlag) {
  const auto args = make({"prog", "--verbose"});
  EXPECT_EQ(args.get("verbose", ""), "true");
  EXPECT_FALSE(args.has("quiet"));
}

TEST(CliTest, Positional) {
  const auto args = make({"prog", "input.csv", "--n", "3", "output.csv"});
  ASSERT_EQ(args.positional().size(), 2u);
  EXPECT_EQ(args.positional()[0], "input.csv");
  EXPECT_EQ(args.positional()[1], "output.csv");
  EXPECT_EQ(args.get_int("n", 0), 3);
}

TEST(CliTest, FallbacksWhenAbsent) {
  const auto args = make({"prog"});
  EXPECT_EQ(args.get("missing", "dflt"), "dflt");
  EXPECT_EQ(args.get_int("missing", -2), -2);
}

// The bugfix-sweep regressions: integer parsing is strict (whole-string),
// repeated flags are tracked so front ends can hard-error, and
// int_in_range distinguishes malformed/out-of-range from absent.
TEST(CliTest, MalformedIntFallsBack) {
  const auto args = make({"prog", "--n=4x", "--m=", "--k=0x10", "--neg=-3"});
  EXPECT_EQ(args.get_int("n", 7), 7);    // trailing junk
  EXPECT_EQ(args.get_int("m", 7), 7);    // empty value
  EXPECT_EQ(args.get_int("k", 7), 7);    // hex is not base-10
  EXPECT_EQ(args.get_int("neg", 7), -3);  // signs are fine
}

TEST(CliTest, IntInRange) {
  const auto args = make({"prog", "--shards=4", "--zero=0", "--big=99999", "--junk=4x"});
  EXPECT_TRUE(args.int_in_range("shards", 1, 4096));
  EXPECT_FALSE(args.int_in_range("zero", 1, 4096));    // below min
  EXPECT_FALSE(args.int_in_range("big", 1, 4096));     // above max
  EXPECT_FALSE(args.int_in_range("junk", 1, 4096));    // malformed
  EXPECT_FALSE(args.int_in_range("absent", 1, 4096));  // missing entirely
}

TEST(CliTest, RepeatedFlagsAreTracked) {
  const auto clean = make({"prog", "--a=1", "--b=2"});
  EXPECT_TRUE(clean.repeated().empty());

  const auto dup = make({"prog", "--a=1", "--b=2", "--a=3", "--b", "4", "--a=5"});
  // Last occurrence wins in the parsed value...
  EXPECT_EQ(dup.get_int("a", 0), 5);
  EXPECT_EQ(dup.get_int("b", 0), 4);
  // ...but each duplicated name is reported once, in first-seen order.
  ASSERT_EQ(dup.repeated().size(), 2u);
  EXPECT_EQ(dup.repeated()[0], "a");
  EXPECT_EQ(dup.repeated()[1], "b");
}

TEST(CliTest, FirstUnknownFlagInCommandLineOrder) {
  const auto args = make({"prog", "run", "--seed=1", "--zeta", "2", "--alpha", "--seed=3"});
  EXPECT_FALSE(args.first_unknown({"seed", "zeta", "alpha"}).has_value());
  // Command-line order, not name order: --zeta comes before --alpha.
  EXPECT_EQ(args.first_unknown({"seed"}), "zeta");
  EXPECT_EQ(args.first_unknown({"seed", "zeta"}), "alpha");
  EXPECT_EQ(args.first_unknown({}), "seed");
  EXPECT_FALSE(make({"prog", "run"}).first_unknown({}).has_value());
}

}  // namespace
}  // namespace parva
