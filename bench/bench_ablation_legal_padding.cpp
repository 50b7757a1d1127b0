// Ablation D (SS III-D claim): white-space-assisted legalization.
//
// The paper argues that *inheriting* the global-placement padding into
// legalization keeps the optimization consistent: without it, cells of
// the same cluster "cling together" again and routability degrades.
// This bench runs the identical PUFFER global placement and then
// legalizes (1) with the inherited discretized padding and (2) plain
// Abacus without it, comparing the routed overflow.
#include <cstdio>

#include "bench/bench_util.h"
#include "common/table.h"
#include "core/flow.h"
#include "io/synthetic.h"

int main() {
  using namespace puffer;
  const int scale = bench::scale_divisor();
  std::printf("=== Ablation: padding inheritance in legalization (scale 1/%d) ===\n\n",
              scale);

  TextTable table({"Benchmark", "Legalization", "HOF(%)", "VOF(%)", "HPWL"});
  for (const char* name : {"OR1200", "MEDIA_SUBSYS", "A53_ADB_WRAP"}) {
    std::fprintf(stderr, "[legal_padding] %s ...\n", name);
    // Shared global placement with padding.
    Design gp_result = generate_synthetic(table1_spec(name, scale));
    PufferConfig cfg;
    initial_place(gp_result);
    EPlaceEngine engine(gp_result, cfg.gp);
    PaddingEngine padder(gp_result, engine.movable_cells(), cfg.padding);
    CongestionEstimator estimator(gp_result, cfg.congestion);
    while (true) {
      engine.run_to_overflow(cfg.padding.tau);
      if (!padder.should_trigger(engine.density_overflow())) break;
      const CongestionResult congestion = estimator.estimate();
      engine.set_padding(padder.update(congestion));
      for (int k = 0; k < cfg.padding.spacing_iters; ++k) {
        if (!engine.step()) break;
      }
      engine.sync_to_design();
    }
    engine.run_to_overflow(cfg.final_overflow);

    std::vector<double> pad_by_cell(gp_result.cells.size(), 0.0);
    const auto& movable = engine.movable_cells();
    for (std::size_t i = 0; i < movable.size(); ++i) {
      pad_by_cell[static_cast<std::size_t>(movable[i])] = padder.padding()[i];
    }

    for (const bool inherit : {true, false}) {
      Design d = gp_result;  // same GP snapshot for both variants
      if (inherit) {
        const auto levels = discretize_padding(d, pad_by_cell, cfg.discrete);
        legalize(d, levels, cfg.legal);
      } else {
        legalize(d, {}, cfg.legal);
      }
      const RouteResult r = evaluate_routability(d);
      table.add_row({name, inherit ? "with inherited padding" : "plain Abacus",
                     TextTable::fmt(r.overflow.hof_pct, 2),
                     TextTable::fmt(r.overflow.vof_pct, 2),
                     TextTable::fmt(d.total_hpwl(), 0)});
    }
  }
  std::printf("%s\n", table.to_string().c_str());
  std::printf(
      "Expected shape: inheriting the padding keeps the earned white space\n"
      "in congested regions and lowers the routed overflow at a small HPWL\n"
      "cost (the consistency argument of SS III-D).\n");
  return 0;
}
