// Tests for the quality-analysis module and the strategy-config
// serialization.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <filesystem>
#include <string>

#include "analysis/quality.h"
#include "core/config_io.h"
#include "io/synthetic.h"
#include "router/global_router.h"

namespace puffer {
namespace {

TEST(Percentiles, BasicOrderStatistics) {
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(static_cast<double>(i));
  const Percentiles p = compute_percentiles(v);
  EXPECT_NEAR(p.p50, 50.0, 1.0);
  EXPECT_NEAR(p.p90, 90.0, 1.0);
  EXPECT_NEAR(p.p99, 99.0, 1.0);
  EXPECT_DOUBLE_EQ(p.max, 100.0);
}

TEST(Percentiles, EmptyAndSingle) {
  EXPECT_DOUBLE_EQ(compute_percentiles({}).max, 0.0);
  const Percentiles p = compute_percentiles({7.0});
  EXPECT_DOUBLE_EQ(p.p50, 7.0);
  EXPECT_DOUBLE_EQ(p.max, 7.0);
}

TEST(Quality, ReportsWirelengthAndDensity) {
  SyntheticSpec spec;
  spec.num_cells = 500;
  spec.num_nets = 750;
  spec.num_macros = 3;
  spec.target_utilization = 0.7;
  const Design d = generate_synthetic(spec);
  const QualityReport r = analyze_quality(d);
  EXPECT_GT(r.hpwl, 0.0);
  EXPECT_EQ(r.nets, d.nets.size());
  EXPECT_GT(r.net_hpwl.max, r.net_hpwl.p50);
  EXPECT_NEAR(r.design_utilization, 0.7, 0.1);
  EXPECT_GT(r.bin_utilization.max, 0.0);
  EXPECT_FALSE(r.has_congestion);
  EXPECT_NE(r.to_string().find("HPWL"), std::string::npos);
}

TEST(Quality, CongestionSectionFromRoutedMaps) {
  SyntheticSpec spec;
  spec.num_cells = 400;
  spec.num_nets = 600;
  const Design d = generate_synthetic(spec);
  const RouteResult routed = GlobalRouter(d).route();
  const QualityReport r = analyze_quality(d, &routed.maps);
  EXPECT_TRUE(r.has_congestion);
  EXPECT_GT(r.cg_h.max, 0.0);
  EXPECT_GE(r.overflowed_gcell_frac, 0.0);
  EXPECT_LE(r.overflowed_gcell_frac, 1.0);
  EXPECT_NE(r.to_string().find("dmd/cap"), std::string::npos);
}

TEST(ConfigIo, RoundTripPreservesAllFields) {
  PufferConfig a;
  a.padding.mu = 7.25;
  a.padding.xi = 11;
  a.padding.alpha[4] = 0.625;
  a.congestion.enable_detour_expansion = false;
  a.congestion.expand_radius = 6;
  a.gp.target_density = 0.87;
  a.discrete.theta = 12.5;
  a.final_overflow = 0.125;
  // Values a fixed number of significant digits would round.
  a.padding.beta = 1.0 / 3.0;
  a.padding.zeta = 7.123456789;
  a.padding.alpha[0] = 0.1 + 0.2;
  a.padding.pu_high = 1e-300 / 3.0;
  a.congestion.pin_penalty = 123456789.123456789;
  a.gp.lambda_freeze_overflow = 2.0 / 3.0;
  a.gp.max_iters = 2147483647;
  a.legal.max_row_search = 1234567;
  const std::string text = config_to_text(a);
  const PufferConfig b = config_from_text(text);
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  EXPECT_EQ(bits(b.padding.mu), bits(7.25));
  EXPECT_EQ(b.padding.xi, 11);
  EXPECT_EQ(bits(b.padding.alpha[4]), bits(0.625));
  EXPECT_FALSE(b.congestion.enable_detour_expansion);
  EXPECT_EQ(b.congestion.expand_radius, 6);
  EXPECT_EQ(bits(b.gp.target_density), bits(0.87));
  EXPECT_EQ(bits(b.discrete.theta), bits(12.5));
  EXPECT_EQ(bits(b.final_overflow), bits(0.125));
  EXPECT_EQ(bits(b.padding.beta), bits(a.padding.beta)) << text;
  EXPECT_EQ(bits(b.padding.zeta), bits(a.padding.zeta)) << text;
  EXPECT_EQ(bits(b.padding.alpha[0]), bits(a.padding.alpha[0])) << text;
  EXPECT_EQ(bits(b.padding.pu_high), bits(a.padding.pu_high)) << text;
  EXPECT_EQ(bits(b.congestion.pin_penalty), bits(a.congestion.pin_penalty))
      << text;
  EXPECT_EQ(bits(b.gp.lambda_freeze_overflow),
            bits(a.gp.lambda_freeze_overflow))
      << text;
  EXPECT_EQ(b.gp.max_iters, 2147483647) << text;
  EXPECT_EQ(b.legal.max_row_search, 1234567) << text;
  // Every key, written again, reads the same.
  EXPECT_EQ(config_to_text(b), text);
}

TEST(ConfigIo, PartialOverrideKeepsBase) {
  PufferConfig base;
  base.padding.mu = 9.0;
  const PufferConfig c =
      config_from_text("padding.tau = 0.22\n# comment\n\n", base);
  EXPECT_DOUBLE_EQ(c.padding.tau, 0.22);
  EXPECT_DOUBLE_EQ(c.padding.mu, 9.0);  // untouched
}

TEST(ConfigIo, RejectsUnknownKeyAndBadValue) {
  EXPECT_THROW(config_from_text("padding.typo = 1\n"), ConfigError);
  EXPECT_THROW(config_from_text("padding.mu = banana\n"), ConfigError);
  EXPECT_THROW(config_from_text("just some words\n"), ConfigError);
}

TEST(ConfigIo, RejectsNonFiniteValues) {
  // std::stod parses these; every key must refuse them, naming the line.
  for (const char* text :
       {"gp.max_iters = inf\n", "padding.xi = nan\n",
        "gp.target_density = nan\n", "padding.tau = -inf\n",
        "congestion.detour_expansion = nan\n"}) {
    EXPECT_THROW(config_from_text(text), ConfigError) << text;
  }
  try {
    config_from_text("padding.mu = 2\n# ok\ngp.max_iters = INF\n");
    FAIL() << "accepted inf";
  } catch (const ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find("line 3"), std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("gp.max_iters"), std::string::npos);
  }
}

TEST(ConfigIo, RejectsIntegerKeysOutsideIntRange) {
  for (const char* text :
       {"gp.bin_dim = 1e10\n", "gp.max_iters = 3e9\n",
        "padding.xi = -3e9\n", "legal.max_row_search = 2147483647.5\n"}) {
    EXPECT_THROW(config_from_text(text), ConfigError) << text;
  }
  try {
    config_from_text("\ngp.bin_dim = 1e10\n");
    FAIL() << "accepted 1e10";
  } catch (const ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos)
        << e.what();
  }
  // The int range itself still parses, rounded like std::llround.
  const PufferConfig c = config_from_text(
      "gp.max_iters = 2147483647\npadding.xi = -2147483648\n"
      "padding.spacing_iters = 2.5\n");
  EXPECT_EQ(c.gp.max_iters, 2147483647);
  EXPECT_EQ(c.padding.xi, -2147483647 - 1);
  EXPECT_EQ(c.padding.spacing_iters, 3);
}

TEST(ConfigIo, FileRoundTrip) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "puffer_cfg_test.cfg").string();
  PufferConfig a;
  a.padding.pu_high = 0.123;
  save_config(a, path);
  const PufferConfig b = load_config(path);
  EXPECT_DOUBLE_EQ(b.padding.pu_high, 0.123);
  std::filesystem::remove(path);
  EXPECT_THROW(load_config("/nonexistent/x.cfg"), ConfigError);
}

}  // namespace
}  // namespace puffer
