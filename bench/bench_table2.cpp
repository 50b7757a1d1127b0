// Table II reproduction: HOF / VOF / WL / RT for Commercial_Proxy,
// RePlAce_RC and PUFFER over the ten-design suite, with the paper's
// averages and 1%-pass counts.
//
// Matching the paper's reporting:
//   * HOF/VOF are averaged as raw values ("the average value instead of
//     the average ratio");
//   * WL and RT averages are geometric-mean ratios normalized to PUFFER;
//   * pass counts use the 1% criterion per direction.
//
// Usage: bench_table2 [benchmark-name ...]   (default: all ten)
// Environment: PUFFER_SCALE (see bench_util.h).
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <vector>

#include "bench/bench_util.h"
#include "common/table.h"
#include "core/experiment.h"

int main(int argc, char** argv) {
  using namespace puffer;
  const int scale = bench::scale_divisor();
  std::printf("=== Table II: routability comparison (scale 1/%d) ===\n\n", scale);

  std::vector<SyntheticSpec> specs;
  if (argc > 1) {
    for (int i = 1; i < argc; ++i) specs.push_back(table1_spec(argv[i], scale));
  } else {
    specs = table1_suite(scale);
  }

  const PlacerKind order[] = {PlacerKind::kCommercialProxy,
                              PlacerKind::kReplaceRc, PlacerKind::kPuffer};
  ExperimentConfig config;

  TextTable table({"Benchmark", "Placer", "HOF(%)", "VOF(%)", "WL", "RT(s)",
                   "RouteRT(s)", "Segs", "Rerouted", "RRRounds", "PassH",
                   "PassV"});
  struct Acc {
    double hof = 0, vof = 0;
    double log_wl = 0, log_rt = 0;
    int pass_h = 0, pass_v = 0;
  };
  Acc acc[3];
  std::vector<std::vector<ExperimentResult>> all(specs.size());

  for (std::size_t b = 0; b < specs.size(); ++b) {
    for (int p = 0; p < 3; ++p) {
      std::fprintf(stderr, "[table2] %s / %s ...\n", specs[b].name.c_str(),
                   placer_name(order[p]));
      ExperimentResult r = run_benchmark(specs[b], order[p], config);
      table.add_row({r.benchmark, placer_name(order[p]),
                     TextTable::fmt(r.hof_pct(), 2),
                     TextTable::fmt(r.vof_pct(), 2),
                     TextTable::fmt(r.routed_wl(), 0),
                     TextTable::fmt(r.runtime_s(), 1),
                     TextTable::fmt(r.route.route_time_s, 2),
                     TextTable::fmt_int(r.route.segments),
                     TextTable::fmt_int(r.route.rerouted),
                     TextTable::fmt_int(r.route.rounds_used),
                     r.pass_h() ? "yes" : "NO", r.pass_v() ? "yes" : "NO"});
      acc[p].hof += r.hof_pct();
      acc[p].vof += r.vof_pct();
      acc[p].log_wl += std::log(std::max(r.routed_wl(), 1.0));
      acc[p].log_rt += std::log(std::max(r.runtime_s(), 1e-3));
      acc[p].pass_h += r.pass_h() ? 1 : 0;
      acc[p].pass_v += r.pass_v() ? 1 : 0;
      all[b].push_back(std::move(r));
    }
  }
  std::printf("%s\n", table.to_string().c_str());

  const double n = static_cast<double>(specs.size());
  TextTable avg({"Placer", "avg HOF(%)", "avg VOF(%)", "WL ratio", "RT ratio",
                 "Pass H", "Pass V"});
  const double wl_ref = acc[2].log_wl / n;  // PUFFER = 1.000
  const double rt_ref = acc[2].log_rt / n;
  for (int p = 0; p < 3; ++p) {
    avg.add_row({placer_name(order[p]), TextTable::fmt(acc[p].hof / n, 3),
                 TextTable::fmt(acc[p].vof / n, 3),
                 TextTable::fmt(std::exp(acc[p].log_wl / n - wl_ref), 3),
                 TextTable::fmt(std::exp(acc[p].log_rt / n - rt_ref), 3),
                 TextTable::fmt_int(acc[p].pass_h),
                 TextTable::fmt_int(acc[p].pass_v)});
  }
  std::printf("Averages (WL/RT normalized to PUFFER, as in the paper):\n%s\n",
              avg.to_string().c_str());

  std::ofstream csv(bench::results_dir() + "/table2.csv");
  csv << table.to_csv();
  std::printf("Per-run rows written to %s/table2.csv\n",
              bench::results_dir().c_str());

  std::printf(
      "\nPaper reference (Table II averages): Commercial_Inn "
      "0.341/0.942, WL 0.954, RT 2.699; RePlAce 1.230/3.368, WL 1.035, RT "
      "1.424; PUFFER 0.289/0.862, WL 1.000, RT 1.000; pass 10/8, 7/6, 10/8.\n");
  return 0;
}
