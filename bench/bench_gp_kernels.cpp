// Micro-benchmark of the global-placement kernels, each measured against
// its in-bench scalar baseline: the WA wirelength gradient (legacy
// per-chunk-buffer scatter vs SoA two-pass gather), the density
// rasterization (full-scan row bands vs bucketed bands), the spectral
// Poisson solve (free-function DCTs vs the preplanned DctPlan2D
// pipeline), and one full Nesterov step. Emits
// bench_results/BENCH_gp_kernels.json (puffer-bench-v1 schema) with
// gradient/density checksums proving the kernel pairs are bit-identical
// and stay so with the SIMD helpers disabled.
//
// Environment: PUFFER_SCALE, PUFFER_THREADS.
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "common/parallel.h"
#include "common/simd.h"
#include "core/flow.h"
#include "fft/dct.h"
#include "fft/dct_plan.h"
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

std::uint64_t vec_checksum(const std::vector<double>& a,
                           const std::vector<double>& b) {
  BinaryWriter w;
  w.f64s(a);
  w.f64s(b);
  return fnv1a_bytes(w.buffer().data(), w.buffer().size());
}

}  // namespace

int main() {
  const int scale = bench::scale_divisor();
  SyntheticSpec spec = table1_spec("MEDIA_SUBSYS", scale);
  Design design = generate_synthetic(spec);

  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  par::set_num_threads(0);
  const int par_threads = par::num_threads();
  const int reps = 7;

  bench::BenchReport rec("gp_kernels");
  rec.config("design", spec.name);
  rec.config("scale", scale);
  rec.config("num_cells", static_cast<int>(design.cells.size()));
  rec.config("num_nets", static_cast<int>(design.nets.size()));
  rec.config("hardware_cores", hw);
  rec.config("parallel_threads", par_threads);
  rec.config("simd_isa", std::string(simd::active_isa()));
  std::printf("design %s: %zu cells, %zu nets (PUFFER_SCALE=%d, x%d)\n",
              spec.name.c_str(), design.cells.size(), design.nets.size(),
              scale, par_threads);

  bool all_identical = true;

  // --- WA wirelength gradient ----------------------------------------
  {
    WaWirelength wl(design);
    rec.config("num_slots", static_cast<int>(wl.soa().num_slots()));
    std::vector<double> xc, yc;
    for (CellId c : wl.movable_cells()) {
      const Cell& cell = design.cells[static_cast<std::size_t>(c)];
      xc.push_back(cell.x + cell.width * 0.5);
      yc.push_back(cell.y + cell.height * 0.5);
    }
    std::vector<double> gx_l, gy_l, gx_s, gy_s;
    par::set_num_threads(1);
    wl.use_legacy_kernels(true);
    const double t_legacy =
        time_best(reps, [&] { wl.evaluate(xc, yc, 4.0, gx_l, gy_l); });
    wl.use_legacy_kernels(false);
    const double t_soa =
        time_best(reps, [&] { wl.evaluate(xc, yc, 4.0, gx_s, gy_s); });
    par::set_num_threads(par_threads);
    const double t_par =
        time_best(reps, [&] { wl.evaluate(xc, yc, 4.0, gx_s, gy_s); });
    rec.baseline("wa_gradient_s", t_legacy);
    rec.result("wa_gradient_1t_s", t_soa);
    rec.result("wa_gradient_s", t_par);
    rec.speedup("wa_gradient_1t", t_legacy / t_soa);
    rec.speedup("wa_gradient", t_legacy / t_par);
    const std::uint64_t sum_legacy = vec_checksum(gx_l, gy_l);
    const std::uint64_t sum_soa = vec_checksum(gx_s, gy_s);
    rec.checksum("wa_gradient_legacy", sum_legacy);
    rec.checksum("wa_gradient_soa", sum_soa);
    all_identical = all_identical && sum_legacy == sum_soa;
    std::printf("wa gradient: %.4fs legacy, %.4fs soa (%.2fx), x%d %.4fs "
                "(%.2fx), bits %s\n",
                t_legacy, t_soa, t_legacy / t_soa, par_threads, t_par,
                t_legacy / t_par, sum_legacy == sum_soa ? "match" : "DIFFER");
  }

  // --- density rasterization -----------------------------------------
  {
    GpConfig legacy_cfg;
    legacy_cfg.legacy_kernels = true;
    Design d1 = generate_synthetic(spec);
    EPlaceEngine legacy_eng(d1, legacy_cfg);
    Design d2 = generate_synthetic(spec);
    EPlaceEngine soa_eng(d2, GpConfig{});
    rec.config("bins", legacy_eng.bin_dim());
    rec.config("num_elements", static_cast<int>(legacy_eng.num_elements()));
    const std::vector<double> x = legacy_eng.solver_x();
    const std::vector<double> y = legacy_eng.solver_y();
    par::set_num_threads(1);
    const double t_legacy =
        time_best(reps, [&] { legacy_eng.rasterize_probe(x, y); });
    const double t_soa =
        time_best(reps, [&] { soa_eng.rasterize_probe(x, y); });
    par::set_num_threads(par_threads);
    const double t_par =
        time_best(reps, [&] { soa_eng.rasterize_probe(x, y); });
    const std::uint64_t sum_legacy =
        fnv1a_bytes(legacy_eng.rasterize_probe(x, y).raw().data(),
                    legacy_eng.rasterize_probe(x, y).raw().size() * 8);
    const std::uint64_t sum_soa =
        fnv1a_bytes(soa_eng.rasterize_probe(x, y).raw().data(),
                    soa_eng.rasterize_probe(x, y).raw().size() * 8);
    rec.baseline("rasterize_s", t_legacy);
    rec.result("rasterize_1t_s", t_soa);
    rec.result("rasterize_s", t_par);
    rec.speedup("rasterize_1t", t_legacy / t_soa);
    rec.speedup("rasterize", t_legacy / t_par);
    rec.checksum("rasterize_legacy", sum_legacy);
    rec.checksum("rasterize_soa", sum_soa);
    all_identical = all_identical && sum_legacy == sum_soa;
    std::printf("rasterize: %.4fs legacy, %.4fs soa (%.2fx), x%d %.4fs "
                "(%.2fx), bits %s\n",
                t_legacy, t_soa, t_legacy / t_soa, par_threads, t_par,
                t_legacy / t_par, sum_legacy == sum_soa ? "match" : "DIFFER");
  }

  // --- spectral Poisson pipeline (free DCTs vs DctPlan2D) ------------
  {
    const std::size_t n = 128;
    std::vector<double> rho(n * n);
    for (std::size_t i = 0; i < rho.size(); ++i) {
      rho[i] = std::sin(0.01 * static_cast<double>(i)) + 1.5;
    }
    DctPlan2D plan(n, n);
    std::vector<double> out;
    par::set_num_threads(1);
    const double t_free = time_best(reps, [&] {
      out = dct2_2d(rho, n, n);
      out = dct3_raw_2d(out, n, n);
      out = idxst_dct3_2d(out, n, n);
      out = dct3_idxst_2d(out, n, n);
    });
    std::vector<double> a, b;
    const double t_plan = time_best(reps, [&] {
      plan.dct2_2d(rho, a);
      plan.dct3_raw_2d(a, b);
      plan.idxst_dct3_2d(b, a);
      plan.dct3_idxst_2d(a, b);
    });
    par::set_num_threads(par_threads);
    const double t_plan_par = time_best(reps, [&] {
      plan.dct2_2d(rho, a);
      plan.dct3_raw_2d(a, b);
      plan.idxst_dct3_2d(b, a);
      plan.dct3_idxst_2d(a, b);
    });
    rec.baseline("dct_pipeline_s", t_free);
    rec.result("dct_pipeline_1t_s", t_plan);
    rec.result("dct_pipeline_s", t_plan_par);
    rec.speedup("dct_pipeline_1t", t_free / t_plan);
    rec.speedup("dct_pipeline", t_free / t_plan_par);
    const std::uint64_t sum_free = fnv1a_bytes(out.data(), out.size() * 8);
    const std::uint64_t sum_plan = fnv1a_bytes(b.data(), b.size() * 8);
    rec.checksum("dct_free", sum_free);
    rec.checksum("dct_plan", sum_plan);
    all_identical = all_identical && sum_free == sum_plan;
    std::printf("dct pipeline (128x128): %.4fs free, %.4fs plan (%.2fx), "
                "x%d %.4fs (%.2fx), bits %s\n",
                t_free, t_plan, t_free / t_plan, par_threads, t_plan_par,
                t_free / t_plan_par, sum_free == sum_plan ? "match" : "DIFFER");
  }

  // --- one Nesterov step, SIMD on vs off -----------------------------
  {
    Design d1 = generate_synthetic(spec);
    EPlaceEngine eng(d1, GpConfig{});
    par::set_num_threads(1);
    eng.step();  // pay one-time init outside the timed region
    const double t_step = time_best(reps, [&] { eng.step(); });
    rec.result("nesterov_step_s", t_step);

    // Bit-identity of a short run with the vector kernels on vs off.
    auto short_run = [&](bool simd_on) {
      simd::set_enabled(simd_on);
      Design d = generate_synthetic(spec);
      EPlaceEngine e(d, GpConfig{});
      for (int i = 0; i < 10; ++i) e.step();
      simd::set_enabled(true);
      return vec_checksum(e.solver_x(), e.solver_y());
    };
    const std::uint64_t sum_on = short_run(true);
    const std::uint64_t sum_off = short_run(false);
    rec.checksum("step10_simd_on", sum_on);
    rec.checksum("step10_simd_off", sum_off);
    all_identical = all_identical && sum_on == sum_off;
    std::printf("nesterov step: %.4fs; 10-step simd on/off bits %s\n",
                t_step, sum_on == sum_off ? "match" : "DIFFER");
  }

  rec.bit_identical(all_identical);
  par::set_num_threads(0);
  const std::string path = rec.write();
  std::printf("wrote %s\n", path.c_str());
  return all_identical ? 0 : 1;
}
