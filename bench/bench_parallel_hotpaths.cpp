// Hot-path timings for the SoA global-placement core against an in-bench
// baseline replica: the retired scalar kernels (GpConfig::legacy_kernels
// + WaWirelength::use_legacy_kernels) run at one thread, best-of-3, in
// this same binary -- so baseline and result share the compiler, flags,
// and machine. Results go to bench_results/BENCH_parallel_hotpaths.json
// (puffer-bench-v1 schema) with placement checksums proving the SoA/SIMD
// rewrite is bit-identical to the scalar path across PUFFER_THREADS
// 1/2/8 and SIMD on/off. On a 1-core box the multi-thread legs
// still execute the full pool machinery; speedups there are algorithmic
// (same accounting as bench_router).
//
// Environment: PUFFER_SCALE (design size), PUFFER_THREADS (parallel leg's
// worker count; default hardware concurrency).
#include <chrono>
#include <cstdio>
#include <cstring>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "common/parallel.h"
#include "common/simd.h"
#include "congestion/estimator.h"
#include "core/flow.h"
#include "gp/engine.h"
#include "gp/wirelength.h"
#include "io/checkpoint.h"
#include "io/synthetic.h"

namespace {

using namespace puffer;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// Best-of-reps wall time of fn(), in seconds.
template <typename Fn>
double time_best(int reps, Fn&& fn) {
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = Clock::now();
    fn();
    best = std::min(best, seconds_since(t0));
  }
  return best;
}

// FNV-1a over the raw bits of every cell position.
std::uint64_t placement_checksum(const Design& d) {
  BinaryWriter w;
  for (const Cell& c : d.cells) {
    w.f64(c.x);
    w.f64(c.y);
  }
  return fnv1a_bytes(w.buffer().data(), w.buffer().size());
}

// One full flow at the given thread count / kernel path; returns the
// wall time and fills the metrics + final placement checksum.
double run_flow(const SyntheticSpec& spec, int threads, bool legacy,
                FlowMetrics* metrics, std::uint64_t* sum) {
  par::set_num_threads(threads);
  PufferConfig cfg;
  cfg.gp.legacy_kernels = legacy;
  Design d = generate_synthetic(spec);
  const auto t0 = Clock::now();
  PufferFlow flow(d, cfg);
  FlowMetrics m = flow.run();
  const double t = seconds_since(t0);
  if (metrics) *metrics = m;
  if (sum) *sum = placement_checksum(d);
  return t;
}

}  // namespace

int main() {
  const int scale = bench::scale_divisor();
  // Largest design of the Table I suite at this scale.
  SyntheticSpec spec = table1_spec("MEDIA_SUBSYS", scale);
  Design design = generate_synthetic(spec);
  std::printf("design %s: %zu cells, %zu nets (PUFFER_SCALE=%d)\n",
              spec.name.c_str(), design.cells.size(), design.nets.size(),
              scale);

  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  par::set_num_threads(0);  // PUFFER_THREADS env or hardware
  const int par_threads = par::num_threads();
  const int reps = 5;
  const int flow_reps = 3;  // best-of-3, bench_router accounting

  bench::BenchReport rec("parallel_hotpaths");
  rec.config("design", spec.name);
  rec.config("scale", scale);
  rec.config("num_cells", static_cast<int>(design.cells.size()));
  rec.config("num_nets", static_cast<int>(design.nets.size()));
  rec.config("hardware_cores", hw);
  rec.config("parallel_threads", par_threads);
  rec.config("simd_isa", std::string(simd::active_isa()));

  // --- WaWirelength::evaluate (legacy scalar vs SoA two-pass) --------
  {
    WaWirelength wl(design);
    std::vector<double> xc, yc;
    for (CellId c : wl.movable_cells()) {
      const Cell& cell = design.cells[static_cast<std::size_t>(c)];
      xc.push_back(cell.x + cell.width * 0.5);
      yc.push_back(cell.y + cell.height * 0.5);
    }
    std::vector<double> gx, gy;
    par::set_num_threads(1);
    wl.use_legacy_kernels(true);
    const double t_legacy =
        time_best(reps, [&] { wl.evaluate(xc, yc, 4.0, gx, gy); });
    wl.use_legacy_kernels(false);
    const double t_soa1 =
        time_best(reps, [&] { wl.evaluate(xc, yc, 4.0, gx, gy); });
    par::set_num_threads(par_threads);
    const double t_par =
        time_best(reps, [&] { wl.evaluate(xc, yc, 4.0, gx, gy); });
    rec.baseline("wirelength_eval_s", t_legacy);
    rec.result("wirelength_eval_1t_s", t_soa1);
    rec.result("wirelength_eval_s", t_par);
    rec.speedup("wirelength_eval_1t", t_legacy / t_soa1);
    rec.speedup("wirelength_eval", t_legacy / t_par);
    std::printf(
        "wirelength evaluate: %.4fs legacy, %.4fs soa x1 (%.2fx), "
        "%.4fs x%d (%.2fx)\n",
        t_legacy, t_soa1, t_legacy / t_soa1, t_par, par_threads,
        t_legacy / t_par);
  }

  // --- density rasterization (full-scan bands vs bucketed bands) -----
  {
    GpConfig legacy_cfg;
    legacy_cfg.legacy_kernels = true;
    Design d1 = generate_synthetic(spec);
    EPlaceEngine legacy_eng(d1, legacy_cfg);
    Design d2 = generate_synthetic(spec);
    EPlaceEngine soa_eng(d2, GpConfig{});
    const std::vector<double> x = legacy_eng.solver_x();
    const std::vector<double> y = legacy_eng.solver_y();
    par::set_num_threads(1);
    const double t_legacy =
        time_best(reps, [&] { legacy_eng.rasterize_probe(x, y); });
    const double t_soa1 =
        time_best(reps, [&] { soa_eng.rasterize_probe(x, y); });
    par::set_num_threads(par_threads);
    const double t_par =
        time_best(reps, [&] { soa_eng.rasterize_probe(x, y); });
    rec.baseline("rasterize_s", t_legacy);
    rec.result("rasterize_1t_s", t_soa1);
    rec.result("rasterize_s", t_par);
    rec.speedup("rasterize_1t", t_legacy / t_soa1);
    rec.speedup("rasterize", t_legacy / t_par);
    std::printf(
        "density rasterize: %.4fs legacy, %.4fs soa x1 (%.2fx), "
        "%.4fs x%d (%.2fx)\n",
        t_legacy, t_soa1, t_legacy / t_soa1, t_par, par_threads,
        t_legacy / t_par);
  }

  // --- CongestionEstimator::estimate --------------------------------
  {
    CongestionEstimator est(design, CongestionConfig{});
    par::set_num_threads(1);
    const double t_serial = time_best(reps, [&] { est.estimate(); });
    par::set_num_threads(par_threads);
    const double t_par = time_best(reps, [&] { est.estimate(); });
    rec.baseline("congestion_estimate_s", t_serial);
    rec.result("congestion_estimate_s", t_par);
    rec.speedup("congestion_estimate", t_serial / t_par);
    std::printf("congestion estimate: %.4fs serial, %.4fs x%d (%.2fx)\n",
                t_serial, t_par, par_threads, t_serial / t_par);
  }

  // --- Full padding flow ---------------------------------------------
  // Baseline replica: scalar kernels at one thread (the pre-SoA
  // configuration), measured in-bench best-of-3.
  {
    FlowMetrics m_base;
    std::uint64_t sum_legacy = 0;
    double t_base = 1e300;
    for (int r = 0; r < flow_reps; ++r) {
      t_base = std::min(
          t_base, run_flow(spec, 1, /*legacy=*/true, &m_base, &sum_legacy));
    }

    FlowMetrics m_1t;
    std::uint64_t sum_t1 = 0;
    double t_1t = 1e300;
    for (int r = 0; r < flow_reps; ++r) {
      t_1t = std::min(t_1t, run_flow(spec, 1, false, &m_1t, &sum_t1));
    }

    FlowMetrics m_par;
    std::uint64_t sum_par = 0;
    double t_par = 1e300;
    for (int r = 0; r < flow_reps; ++r) {
      t_par =
          std::min(t_par, run_flow(spec, par_threads, false, &m_par, &sum_par));
    }

    rec.baseline("flow_s", t_base);
    rec.result("flow_1t_s", t_1t);
    rec.result("flow_s", t_par);
    rec.speedup("flow_1t", t_base / t_1t);
    rec.speedup("flow", t_base / t_par);
    rec.baseline("flow_hpwl", m_base.hpwl_legal);
    rec.result("flow_hpwl", m_par.hpwl_legal);
    rec.result("flow_padding_rounds", m_par.padding_rounds);
    {
      Design d = generate_synthetic(spec);
      par::set_num_threads(par_threads);
      PufferFlow flow(d, PufferConfig{});
      flow.run();
      const RouteResult r = evaluate_routability(d);
      rec.result("flow_overflow_pct", r.overflow.total_pct());
    }
    std::printf(
        "padding flow: %.2fs legacy x1, %.2fs soa x1 (%.2fx), "
        "%.2fs x%d (%.2fx), hpwl %.4g == %.4g\n",
        t_base, t_1t, t_base / t_1t, t_par, par_threads, t_base / t_par,
        m_base.hpwl_legal, m_par.hpwl_legal);

    // Determinism evidence: final placements across thread counts and
    // with the vector kernels disabled, against the scalar baseline.
    std::uint64_t sum_t2 = 0, sum_t8 = 0, sum_t8_nosimd = 0;
    run_flow(spec, 2, false, nullptr, &sum_t2);
    run_flow(spec, 8, false, nullptr, &sum_t8);
    simd::set_enabled(false);
    run_flow(spec, 8, false, nullptr, &sum_t8_nosimd);
    simd::set_enabled(true);
    rec.checksum("flow_legacy", sum_legacy);
    rec.checksum("flow_t1", sum_t1);
    rec.checksum("flow_t2", sum_t2);
    rec.checksum("flow_t8", sum_t8);
    rec.checksum("flow_t8_simd_off", sum_t8_nosimd);
    const bool identical = sum_legacy == sum_t1 && sum_t1 == sum_t2 &&
                           sum_t2 == sum_t8 && sum_t8 == sum_t8_nosimd;
    rec.bit_identical(identical);
    std::printf("placement checksum %016llx: threads 1/2/8 %s, simd off %s, "
                "legacy %s\n",
                static_cast<unsigned long long>(sum_t1),
                sum_t1 == sum_t2 && sum_t2 == sum_t8 ? "match" : "DIFFER",
                sum_t8 == sum_t8_nosimd ? "match" : "DIFFER",
                sum_legacy == sum_t1 ? "match" : "DIFFER");
  }

  par::set_num_threads(0);
  const std::string path = rec.write();
  std::printf("wrote %s\n", path.c_str());
  return 0;
}
