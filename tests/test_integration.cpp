// Integration tests: the full PUFFER flow, both baselines, the experiment
// harness and the strategy-parameter bridge, all on small synthetic
// designs so the whole suite stays fast.
#include <gtest/gtest.h>

#include "core/experiment.h"
#include "core/strategy_params.h"

namespace puffer {
namespace {

SyntheticSpec tiny_spec(std::uint64_t seed = 71) {
  SyntheticSpec spec;
  spec.name = "itest";
  spec.seed = seed;
  spec.num_cells = 800;
  spec.num_nets = 1200;
  spec.num_macros = 6;
  spec.target_utilization = 0.78;
  spec.cluster_net_ratio = 0.78;
  return spec;
}

ExperimentConfig fast_config() {
  ExperimentConfig cfg;
  cfg.puffer.gp.max_iters = 500;
  cfg.puffer.padding.xi = 4;
  cfg.eval_router.rr_rounds = 3;
  return cfg;
}

TEST(Integration, PufferFlowProducesLegalRoutablePlacement) {
  Design d = generate_synthetic(tiny_spec());
  PufferConfig cfg = fast_config().puffer;
  PufferFlow flow(d, cfg);
  const FlowMetrics m = flow.run();

  EXPECT_TRUE(m.legality.legal) << m.legality.summary();
  EXPECT_GT(m.padding_rounds, 0);
  EXPECT_GT(m.hpwl_gp, 0.0);
  EXPECT_GT(m.hpwl_legal, 0.0);
  // Legalization from a converged GP does not explode wirelength.
  EXPECT_LT(m.hpwl_legal, m.hpwl_gp * 1.3);
  EXPECT_GT(m.stages.get("global_place"), 0.0);
  EXPECT_GT(m.stages.get("legalize"), 0.0);

  const RouteResult route = evaluate_routability(d, fast_config().eval_router);
  EXPECT_GT(route.segments, 0);
  EXPECT_GT(route.wirelength, 0.0);
  // Routable at sane overflow levels for this easy instance.
  EXPECT_LT(route.overflow.total_pct(), 25.0);
}

TEST(Integration, PaddingImprovesRoutabilityOverNoPadding) {
  // Same design, PUFFER with and without the routability optimizer.
  Design with = generate_synthetic(tiny_spec(5));
  Design without = generate_synthetic(tiny_spec(5));

  PufferConfig on = fast_config().puffer;
  on.padding.xi = 6;
  PufferConfig off = on;
  off.padding.xi = 0;  // optimizer never fires

  PufferFlow f_on(with, on);
  PufferFlow f_off(without, off);
  const FlowMetrics m_on = f_on.run();
  const FlowMetrics m_off = f_off.run();
  EXPECT_GT(m_on.padding_rounds, 0);
  EXPECT_EQ(m_off.padding_rounds, 0);

  const RouterConfig eval = fast_config().eval_router;
  const OverflowStats of_on = evaluate_routability(with, eval).overflow;
  const OverflowStats of_off = evaluate_routability(without, eval).overflow;
  // Padding should not make things worse beyond noise; typically better.
  EXPECT_LE(of_on.total_pct(), of_off.total_pct() * 1.35 + 0.4);
}

TEST(Integration, ReplaceRcBaselineRuns) {
  Design d = generate_synthetic(tiny_spec());
  const FlowMetrics m = run_replace_rc(d);
  EXPECT_TRUE(m.legality.legal) << m.legality.summary();
  EXPECT_GT(m.hpwl_legal, 0.0);
  EXPECT_EQ(m.legalize.placed, static_cast<int>(d.num_movable()));
  EXPECT_EQ(m.legalize.failed_cells, 0);
}

TEST(Integration, CommercialProxyRuns) {
  Design d = generate_synthetic(tiny_spec());
  const FlowMetrics m = run_commercial_proxy(d);
  EXPECT_TRUE(m.legality.legal) << m.legality.summary();
  EXPECT_GT(m.padding_rounds, 0);
  EXPECT_EQ(m.legalize.placed, static_cast<int>(d.num_movable()));
  EXPECT_EQ(m.legalize.failed_cells, 0);
}

TEST(Integration, ExperimentHarnessReportsAllMetrics) {
  const ExperimentResult r =
      run_benchmark(tiny_spec(), PlacerKind::kPuffer, fast_config());
  EXPECT_EQ(r.benchmark, "itest");
  EXPECT_EQ(r.placer, PlacerKind::kPuffer);
  EXPECT_GE(r.hof_pct(), 0.0);
  EXPECT_GE(r.vof_pct(), 0.0);
  EXPECT_GT(r.routed_wl(), 0.0);
  EXPECT_GT(r.runtime_s(), 0.0);
}

TEST(Integration, PlacerNames) {
  EXPECT_STREQ(placer_name(PlacerKind::kPuffer), "PUFFER");
  EXPECT_STREQ(placer_name(PlacerKind::kReplaceRc), "RePlAce_RC");
  EXPECT_STREQ(placer_name(PlacerKind::kCommercialProxy), "Commercial_Proxy");
}

TEST(StrategyParams, SpecsAndGroupsAreConsistent) {
  const auto specs = puffer_param_specs();
  const auto groups = puffer_param_groups();
  EXPECT_EQ(specs.size(), 17u);
  std::vector<bool> seen(specs.size(), false);
  for (const auto& g : groups) {
    for (int idx : g) {
      ASSERT_GE(idx, 0);
      ASSERT_LT(idx, static_cast<int>(specs.size()));
      EXPECT_FALSE(seen[static_cast<std::size_t>(idx)]) << "duplicate " << idx;
      seen[static_cast<std::size_t>(idx)] = true;
    }
  }
  for (bool s : seen) EXPECT_TRUE(s);
  for (const auto& spec : specs) {
    EXPECT_LT(spec.lo, spec.hi) << spec.name;
  }
}

TEST(StrategyParams, AssignmentMapsOntoConfig) {
  const auto specs = puffer_param_specs();
  Assignment a = mid_assignment(specs);
  a[0] = 2.5;   // alpha_local_cg
  a[6] = 9.0;   // mu
  a[10] = 11.0; // xi
  a[14] = 1.0;  // detour expansion on
  const PufferConfig cfg = apply_assignment(PufferConfig{}, a);
  EXPECT_DOUBLE_EQ(cfg.padding.alpha[0], 2.5);
  EXPECT_DOUBLE_EQ(cfg.padding.mu, 9.0);
  EXPECT_EQ(cfg.padding.xi, 11);
  EXPECT_TRUE(cfg.congestion.enable_detour_expansion);
  a[14] = 0.0;
  EXPECT_FALSE(apply_assignment(PufferConfig{}, a).congestion.enable_detour_expansion);
  // pu_high is kept above pu_low.
  a[8] = 0.05;
  a[9] = 0.01;
  EXPECT_GT(apply_assignment(PufferConfig{}, a).padding.pu_high,
            apply_assignment(PufferConfig{}, a).padding.pu_low);
}

TEST(StrategyParams, EvaluateStrategyReturnsFiniteLoss) {
  SyntheticSpec spec = tiny_spec();
  spec.num_cells = 400;
  spec.num_nets = 600;
  ExperimentConfig base = fast_config();
  base.puffer.gp.max_iters = 250;
  const Assignment mid = mid_assignment(puffer_param_specs());
  const double loss = evaluate_strategy(spec, mid, base);
  EXPECT_GE(loss, 0.0);
  EXPECT_LT(loss, 500.0);
}

TEST(Integration, DeterministicEndToEnd) {
  const ExperimentResult a =
      run_benchmark(tiny_spec(9), PlacerKind::kPuffer, fast_config());
  const ExperimentResult b =
      run_benchmark(tiny_spec(9), PlacerKind::kPuffer, fast_config());
  EXPECT_DOUBLE_EQ(a.hof_pct(), b.hof_pct());
  EXPECT_DOUBLE_EQ(a.vof_pct(), b.vof_pct());
  EXPECT_DOUBLE_EQ(a.routed_wl(), b.routed_wl());
}

}  // namespace
}  // namespace puffer
