// Strict parsing of the shared CLI flags and the TRIBVOTE_* size and seed
// knobs (sim/options.hpp). Every case calls the parser directly: an accepted
// "-1" would ask a binary for 2^64-1 nodes or lanes.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <string>

#include "sim/options.hpp"

namespace tribvote::sim::options {
namespace {

/// Scan `prog flag value` with `match`; true when the value was taken.
template <class Match>
bool scan(std::string flag, std::string value, Match match) {
  std::string prog = "prog";
  char* argv[] = {prog.data(), flag.data(), value.data()};
  CliFlags cli(3, argv);
  EXPECT_TRUE(cli.next());
  const bool taken = match(cli);
  EXPECT_EQ(cli.error(), !taken) << flag << " " << value;
  EXPECT_FALSE(cli.next());
  return taken;
}

bool u64(const char* value, std::uint64_t& out) {
  return scan("--seed", value,
              [&](CliFlags& c) { return c.u64("--seed", out); });
}
bool size(const char* value, std::size_t& out) {
  return scan("--shards", value,
              [&](CliFlags& c) { return c.size("--shards", out); });
}
bool i32(const char* value, int& out) {
  return scan("--rounds", value,
              [&](CliFlags& c) { return c.i32("--rounds", out); });
}
bool u16(const char* value, std::uint16_t& out) {
  return scan("--listen", value,
              [&](CliFlags& c) { return c.u16("--listen", out); });
}

TEST(CliFlags, UnsignedRejectsASign) {
  std::uint64_t seed = 7;
  EXPECT_FALSE(u64("-1", seed));
  EXPECT_FALSE(u64("+1", seed));
  EXPECT_EQ(seed, 7u);
  std::size_t shards = 3;
  EXPECT_FALSE(size("-1", shards));
  EXPECT_EQ(shards, 3u);
}

TEST(CliFlags, UnsignedRejectsBlanksGarbageAndOverflow) {
  std::uint64_t seed = 7;
  EXPECT_FALSE(u64(" 5", seed));
  EXPECT_FALSE(u64("12x", seed));
  EXPECT_FALSE(u64("", seed));
  EXPECT_FALSE(u64("18446744073709551616", seed));  // 2^64
  EXPECT_EQ(seed, 7u);
  EXPECT_TRUE(u64("18446744073709551615", seed));
  EXPECT_EQ(seed, UINT64_MAX);
  std::size_t shards = 0;
  EXPECT_TRUE(size("4", shards));
  EXPECT_EQ(shards, 4u);
}

TEST(CliFlags, I32RejectsValuesOutsideInt) {
  int rounds = 3;
  EXPECT_FALSE(i32("4294967297", rounds));  // 2^32 + 1, not 1
  EXPECT_FALSE(i32("2147483648", rounds));
  EXPECT_FALSE(i32("-2147483649", rounds));
  EXPECT_FALSE(i32("99999999999999999999", rounds));
  EXPECT_EQ(rounds, 3);
  EXPECT_TRUE(i32("2147483647", rounds));
  EXPECT_EQ(rounds, 2147483647);
  EXPECT_TRUE(i32("-5", rounds));
  EXPECT_EQ(rounds, -5);
}

TEST(CliFlags, ListenPortStaysInRange) {
  std::uint16_t port = 9;
  EXPECT_FALSE(u16("70000", port));  // would wrap to 4464
  EXPECT_FALSE(u16("-1", port));
  EXPECT_EQ(port, 9u);
  EXPECT_TRUE(u16("65535", port));
  EXPECT_EQ(port, 65535u);
  EXPECT_TRUE(u16("0", port));  // ephemeral
  EXPECT_EQ(port, 0u);
}

bool f64(const char* value, double& out) {
  return scan("--threshold", value,
              [&](CliFlags& c) { return c.f64("--threshold", out); });
}

TEST(CliFlags, RealRejectsNonFiniteValues) {
  double threshold = 0.25;
  for (const char* value :
       {"nan", "NAN", "inf", "-inf", "infinity", "1e999"}) {
    EXPECT_FALSE(f64(value, threshold)) << value;
  }
  EXPECT_EQ(threshold, 0.25);
  EXPECT_TRUE(f64("0.5", threshold));
  EXPECT_EQ(threshold, 0.5);
  EXPECT_TRUE(f64("-2e3", threshold));
  EXPECT_EQ(threshold, -2000.0);
}

TEST(CliFlags, MissingValueIsAnError) {
  char prog[] = "prog";
  char flag[] = "--seed";
  char* argv[] = {prog, flag};
  CliFlags cli(2, argv);
  ASSERT_TRUE(cli.next());
  std::uint64_t seed = 0;
  EXPECT_FALSE(cli.u64("--seed", seed));
  EXPECT_TRUE(cli.error());
}

/// shards() with TRIBVOTE_SHARDS set to `value`; `warned` gets stderr.
std::size_t shards_with(const char* value, std::string& warned) {
  EXPECT_EQ(setenv("TRIBVOTE_SHARDS", value, 1), 0);
  testing::internal::CaptureStderr();
  const std::size_t got = shards();
  warned = testing::internal::GetCapturedStderr();
  unsetenv("TRIBVOTE_SHARDS");
  return got;
}

TEST(EnvSize, MalformedValueFallsBackWithAWarning) {
  for (const char* value :
       {"4x", "abc", "0", "-4", " ", "99999999999999999999"}) {
    std::string warned;
    EXPECT_EQ(shards_with(value, warned), 1u) << value;
    EXPECT_NE(warned.find("TRIBVOTE_SHARDS"), std::string::npos) << value;
  }
}

TEST(EnvSize, WellFormedValueParsesSilently) {
  std::string warned;
  EXPECT_EQ(shards_with("4", warned), 4u);
  EXPECT_EQ(warned, "");
  EXPECT_EQ(shards_with("", warned), 1u);  // empty reads as unset
  EXPECT_EQ(warned, "");
  unsetenv("TRIBVOTE_SHARDS");
  EXPECT_EQ(env_size("TRIBVOTE_SHARDS", 6), 6u);
}

/// seed() with TRIBVOTE_SEED set to `value`; `warned` gets stderr.
std::uint64_t seed_with(const char* value, std::string& warned) {
  EXPECT_EQ(setenv("TRIBVOTE_SEED", value, 1), 0);
  testing::internal::CaptureStderr();
  const std::uint64_t got = seed();
  warned = testing::internal::GetCapturedStderr();
  unsetenv("TRIBVOTE_SEED");
  return got;
}

TEST(EnvSeed, MalformedValueFallsBackWithAWarning) {
  constexpr std::uint64_t kDefault = 20090525;
  for (const char* value :
       {"12x", "-1", "+5", " 7", "abc", "18446744073709551616"}) {
    std::string warned;
    EXPECT_EQ(seed_with(value, warned), kDefault) << value;
    EXPECT_NE(warned.find("TRIBVOTE_SEED"), std::string::npos) << value;
  }
}

TEST(EnvSeed, WellFormedValueParsesSilently) {
  std::string warned;
  EXPECT_EQ(seed_with("12", warned), 12u);
  EXPECT_EQ(warned, "");
  EXPECT_EQ(seed_with("0", warned), 0u);
  EXPECT_EQ(warned, "");
  EXPECT_EQ(seed_with("18446744073709551615", warned), UINT64_MAX);
  EXPECT_EQ(warned, "");
  EXPECT_EQ(seed_with("", warned), 20090525u);  // empty reads as unset
  EXPECT_EQ(warned, "");
  unsetenv("TRIBVOTE_SEED");
  EXPECT_EQ(seed(), 20090525u);
}

}  // namespace
}  // namespace tribvote::sim::options
