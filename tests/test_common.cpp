// Unit tests for the common utilities: logging, timers, tables, strings,
// deterministic RNG.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <thread>
#include <vector>

#include "common/logger.h"
#include "common/rng.h"
#include "common/str_util.h"
#include "common/table.h"
#include "common/timer.h"

namespace puffer {
namespace {

TEST(StrUtil, SplitWhitespace) {
  EXPECT_EQ(split_ws("a b  c"), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(split_ws("  leading"), (std::vector<std::string>{"leading"}));
  EXPECT_EQ(split_ws("trailing  "), (std::vector<std::string>{"trailing"}));
  EXPECT_TRUE(split_ws("").empty());
  EXPECT_TRUE(split_ws(" \t\n ").empty());
  EXPECT_EQ(split_ws("\tt a\tb\n"), (std::vector<std::string>{"t", "a", "b"}));
}

TEST(StrUtil, Trim) {
  EXPECT_EQ(trim("  x  "), "x");
  EXPECT_EQ(trim("x"), "x");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("  "), "");
  EXPECT_EQ(trim("a b"), "a b");
}

TEST(StrUtil, StartsWith) {
  EXPECT_TRUE(starts_with("NetDegree : 3", "NetDegree"));
  EXPECT_FALSE(starts_with("Net", "NetDegree"));
  EXPECT_TRUE(starts_with("x", ""));
}

TEST(StrUtil, CaseInsensitiveEquals) {
  EXPECT_TRUE(iequals("Coordinate", "coordinate"));
  EXPECT_TRUE(iequals("TERMINAL", "terminal"));
  EXPECT_FALSE(iequals("terminal", "terminal_NI"));
}

TEST(StrUtil, FormatDoubleRoundTripIsShortest) {
  // Human-friendly where 15 digits suffice...
  EXPECT_EQ(format_double_roundtrip(0.1), "0.1");
  EXPECT_EQ(format_double_roundtrip(0.15), "0.15");
  EXPECT_EQ(format_double_roundtrip(1.0), "1");
  EXPECT_EQ(format_double_roundtrip(-2.5), "-2.5");
  EXPECT_EQ(format_double_roundtrip(0.0), "0");
  // ...17 where they do not (0.1 + 0.2 != 0.3 in binary).
  EXPECT_EQ(format_double_roundtrip(0.1 + 0.2), "0.30000000000000004");
}

TEST(StrUtil, FormatDoubleRoundTripIsBitExact) {
  const double values[] = {0.1,
                           1.0 / 3.0,
                           -0.0,
                           1e308,
                           5e-324,  // smallest subnormal
                           2.0111091837465,
                           123456789.123456789};
  for (const double v : values) {
    const std::string s = format_double_roundtrip(v);
    const double parsed = std::strtod(s.c_str(), nullptr);
    EXPECT_EQ(std::memcmp(&parsed, &v, sizeof v), 0) << s;
  }
  // -0.0 keeps its sign (plain == would accept "+0").
  EXPECT_EQ(format_double_roundtrip(-0.0), "-0");
}

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(a.uniform(0, 1), b.uniform(0, 1));
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    same += (a.uniform_int(0, 1 << 30) == b.uniform_int(0, 1 << 30)) ? 1 : 0;
  }
  EXPECT_LT(same, 3);
}

TEST(Rng, UniformIntBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.uniform_int(3, 9);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 9);
  }
}

TEST(Rng, HeavyTailRespectsBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.heavy_tail_int(2, 7, 0.5);
    EXPECT_GE(v, 2);
    EXPECT_LE(v, 7);
  }
}

TEST(Rng, ChanceExtremes) {
  Rng rng(3);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
  }
}

TEST(Timer, MeasuresElapsedTime) {
  Timer t;
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_GE(t.elapsed_seconds(), 0.015);
  t.reset();
  EXPECT_LT(t.elapsed_seconds(), 0.015);
}

TEST(StageTimes, AccumulatesPerStage) {
  StageTimes st;
  st.add("a", 1.0);
  st.add("a", 0.5);
  st.add("b", 2.0);
  EXPECT_DOUBLE_EQ(st.get("a"), 1.5);
  EXPECT_DOUBLE_EQ(st.get("b"), 2.0);
  EXPECT_DOUBLE_EQ(st.get("missing"), 0.0);
  EXPECT_DOUBLE_EQ(st.total(), 3.5);
  st.clear();
  EXPECT_DOUBLE_EQ(st.total(), 0.0);
}

TEST(ScopedStageTimer, AddsOnDestruction) {
  StageTimes st;
  {
    ScopedStageTimer t(st, "scope");
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_GT(st.get("scope"), 0.0);
}

TEST(TextTable, RendersAlignedColumns) {
  TextTable t({"name", "value"});
  t.add_row({"x", "1"});
  t.add_row({"long_name", "2.5"});
  const std::string s = t.to_string();
  EXPECT_NE(s.find("| name"), std::string::npos);
  EXPECT_NE(s.find("long_name"), std::string::npos);
  EXPECT_EQ(t.num_rows(), 2u);
  // Header separator line present.
  EXPECT_NE(s.find("|---"), std::string::npos);
}

TEST(TextTable, RejectsArityMismatch) {
  TextTable t({"a", "b"});
  EXPECT_THROW(t.add_row({"only_one"}), std::invalid_argument);
}

TEST(TextTable, CsvOutput) {
  TextTable t({"a", "b"});
  t.add_row({"1", "2"});
  EXPECT_EQ(t.to_csv(), "a,b\n1,2\n");
}

TEST(TextTable, NumberFormatting) {
  EXPECT_EQ(TextTable::fmt(3.14159, 2), "3.14");
  EXPECT_EQ(TextTable::fmt(2.0, 0), "2");
  EXPECT_EQ(TextTable::fmt_int(1234567), "1234567");
}

TEST(Logger, RespectsLevelAndSink) {
  std::FILE* tmp = std::tmpfile();
  ASSERT_NE(tmp, nullptr);
  Logger& log = Logger::instance();
  log.set_sink(tmp);
  log.set_level(LogLevel::kWarn);
  PUFFER_LOG_INFO("test", "should not appear %d", 1);
  PUFFER_LOG_WARN("test", "should appear %d", 2);
  log.set_sink(nullptr);
  log.set_level(LogLevel::kInfo);

  std::rewind(tmp);
  char buf[4096] = {0};
  const std::size_t n = std::fread(buf, 1, sizeof(buf) - 1, tmp);
  const std::string content(buf, n);
  std::fclose(tmp);
  EXPECT_EQ(content.find("should not appear"), std::string::npos);
  EXPECT_NE(content.find("should appear 2"), std::string::npos);
}

}  // namespace
}  // namespace puffer
