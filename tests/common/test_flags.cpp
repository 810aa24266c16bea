#include "common/flags.h"

#include <gtest/gtest.h>

#include <array>

#include "common/error.h"

namespace mmlpt {
namespace {

Flags make_flags(std::vector<std::string> args) {
  static std::vector<std::string> storage;
  storage = std::move(args);
  storage.insert(storage.begin(), "prog");
  std::vector<char*> argv;
  for (auto& s : storage) argv.push_back(s.data());
  return Flags(static_cast<int>(argv.size()), argv.data());
}

TEST(Flags, EqualsForm) {
  const auto f = make_flags({"--pairs=100", "--seed=7"});
  EXPECT_EQ(f.get_int("pairs", 0), 100);
  EXPECT_EQ(f.get_uint("seed", 0), 7u);
}

TEST(Flags, SpaceForm) {
  const auto f = make_flags({"--name", "value"});
  EXPECT_EQ(f.get("name", ""), "value");
}

TEST(Flags, BareBoolean) {
  const auto f = make_flags({"--verbose"});
  EXPECT_TRUE(f.get_bool("verbose", false));
  EXPECT_FALSE(f.get_bool("quiet", false));
}

TEST(Flags, Fallbacks) {
  const auto f = make_flags({});
  EXPECT_EQ(f.get("missing", "dflt"), "dflt");
  EXPECT_EQ(f.get_int("missing", -3), -3);
  EXPECT_DOUBLE_EQ(f.get_double("missing", 2.5), 2.5);
}

TEST(Flags, Positional) {
  const auto f = make_flags({"pos1", "--k=v", "pos2"});
  ASSERT_EQ(f.positional().size(), 2u);
  EXPECT_EQ(f.positional()[0], "pos1");
  EXPECT_EQ(f.positional()[1], "pos2");
}

TEST(Flags, DoubleParsing) {
  const auto f = make_flags({"--alpha=0.05"});
  EXPECT_DOUBLE_EQ(f.get_double("alpha", 1.0), 0.05);
}

TEST(Flags, MalformedNumberThrows) {
  const auto f = make_flags({"--n=abc"});
  EXPECT_THROW((void)f.get_int("n", 0), ConfigError);
}

TEST(Flags, Has) {
  const auto f = make_flags({"--x=1"});
  EXPECT_TRUE(f.has("x"));
  EXPECT_FALSE(f.has("y"));
}

TEST(Flags, NamesListsEveryFlagGivenOnce) {
  const auto f = make_flags({"--seed=7", "--jobs", "2", "pos", "--fsync",
                             "-6", "--jobs", "3"});
  EXPECT_EQ(f.names(),
            (std::vector<std::string>{"family", "fsync", "jobs", "seed"}));
}

TEST(Flags, FamilySwitchMapsToFamilyFlag) {
  EXPECT_EQ(make_flags({"-6"}).get("family", "4"), "6");
  EXPECT_EQ(make_flags({"-4"}).get("family", "6"), "4");
  // Last one wins, matching --family semantics.
  EXPECT_EQ(make_flags({"--family", "4", "-6"}).get("family", "4"), "6");
}

TEST(Flags, FamilySwitchIsNeverABareFlagsValue) {
  // "--real -6" must keep --real boolean AND set the family — the
  // single-dash switch is not up for grabs as a value.
  const auto f = make_flags({"--real", "-6", "--json"});
  EXPECT_TRUE(f.get_bool("real", false));
  EXPECT_TRUE(f.get_bool("json", false));
  EXPECT_EQ(f.get("family", "4"), "6");
  EXPECT_TRUE(f.positional().empty());
}

}  // namespace
}  // namespace mmlpt
