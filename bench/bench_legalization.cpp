// Deterministic parallel legalization / detailed placement at 1, 2 and 8
// threads.
//
// A master placement is perturbed inside one randomly placed window per
// round, then legalization + detailed placement re-run from scratch.
// Every thread count consumes the exact same precomputed per-round
// inputs; the post-round placements are checksummed and must be
// bit-identical across thread counts. Exits non-zero when they differ,
// when the final placement is illegal, or when a cell fails to place.
//
// Output: bench_results/BENCH_legalization.json (schema puffer-bench-v1).
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "common/timer.h"
#include "dp/detailed_place.h"
#include "geometry/geometry.h"
#include "io/synthetic.h"
#include "legal/abacus.h"
#include "legal/legality.h"

namespace {

using namespace puffer;

// ==== workload ===========================================================

std::uint64_t position_checksum(const Design& d) {
  std::uint64_t h = 1469598103934665603ull;
  auto fold = [&h](double v) {
    std::uint64_t bits;
    static_assert(sizeof(bits) == sizeof(v));
    std::memcpy(&bits, &v, sizeof(bits));
    for (int i = 0; i < 8; ++i) {
      h ^= (bits >> (8 * i)) & 0xffu;
      h *= 1099511628211ull;
    }
  };
  for (const Cell& c : d.cells) {
    if (!c.movable()) continue;
    fold(c.x);
    fold(c.y);
  }
  return h;
}

struct RoundInputs {
  // Per-round pre-legal positions of every cell; all modes replay the
  // exact same inputs.
  std::vector<std::vector<double>> xs, ys;
};

void restore(Design& d, const RoundInputs& in, int round) {
  for (std::size_t i = 0; i < d.cells.size(); ++i) {
    if (!d.cells[i].movable()) continue;
    d.cells[i].x = in.xs[static_cast<std::size_t>(round)][i];
    d.cells[i].y = in.ys[static_cast<std::size_t>(round)][i];
  }
}

struct ModeTotals {
  double legal_s = 0.0;
  double dp_s = 0.0;
  double repeat_s = 0.0;  // legalize+dp over rounds >= 1
  std::uint64_t checksum = 0;
  int failed = 0;
  double hpwl = 0.0;
};

}  // namespace

int main() {
  const int scale = bench::scale_divisor();
  SyntheticSpec spec;
  spec.name = "legal_bench";
  spec.num_cells = 640000 / scale;
  spec.num_nets = 640000 / scale;
  spec.num_macros = 8;
  spec.seed = 42;
  const int kRounds = 10;
  const int kReps = 3;  // best-of-3 per mode
  const double kWindowFrac = 0.30;
  const LegalizeConfig legal_cfg;
  const DetailedPlaceConfig dp_cfg;

  Design design = generate_synthetic(spec);
  // Fixed per-cell padding (what discretize_padding feeds the legalizer).
  std::vector<int> pads(design.cells.size(), 0);
  for (std::size_t i = 0; i < pads.size(); ++i) {
    if (i % 5 == 0) pads[i] = 2;
    if (i % 11 == 0) pads[i] = 4;
  }

  // Master placement: one from-scratch legalization of the generated
  // design. Round 0 input is the master itself; each later round is the
  // master with the movable cells inside one random window jittered
  // (padding-retune-style localized change).
  RoundInputs inputs;
  {
    Design master = design;
    puffer::legalize(master, pads, legal_cfg);
    inputs.xs.assign(static_cast<std::size_t>(kRounds), {});
    inputs.ys.assign(static_cast<std::size_t>(kRounds), {});
    Rng rng(7);
    for (int round = 0; round < kRounds; ++round) {
      std::vector<double>& x = inputs.xs[static_cast<std::size_t>(round)];
      std::vector<double>& y = inputs.ys[static_cast<std::size_t>(round)];
      x.resize(master.cells.size());
      y.resize(master.cells.size());
      for (std::size_t i = 0; i < master.cells.size(); ++i) {
        x[i] = master.cells[i].x;
        y[i] = master.cells[i].y;
      }
      if (round == 0) continue;
      const double ww = (master.die.xhi - master.die.xlo) * kWindowFrac;
      const double wh = (master.die.yhi - master.die.ylo) * kWindowFrac;
      const double wx = rng.uniform(master.die.xlo, master.die.xhi - ww);
      const double wy = rng.uniform(master.die.ylo, master.die.yhi - wh);
      for (std::size_t i = 0; i < master.cells.size(); ++i) {
        const Cell& c = master.cells[i];
        if (!c.movable()) continue;
        if (x[i] < wx || x[i] > wx + ww || y[i] < wy || y[i] > wy + wh) {
          continue;
        }
        x[i] += static_cast<double>(rng.uniform_int(-20, 20));
        y[i] += static_cast<double>(rng.uniform_int(-8, 8));
        x[i] = clamp(x[i], master.die.xlo, master.die.xhi - c.width);
        y[i] = clamp(y[i], master.die.ylo, master.die.yhi - c.height);
      }
    }
  }

  // ---- library path at a given thread count -----------------------------
  auto run_new = [&](int threads) {
    par::set_num_threads(threads);
    ModeTotals t;
    Design d = design;
    for (int round = 0; round < kRounds; ++round) {
      restore(d, inputs, round);
      Timer tl;
      const LegalizeResult lr = puffer::legalize(d, pads, legal_cfg);
      const double dl = tl.elapsed_seconds();
      Timer td;
      puffer::detailed_place(d, dp_cfg);
      const double dd = td.elapsed_seconds();
      t.legal_s += dl;
      t.dp_s += dd;
      if (round > 0) t.repeat_s += dl + dd;
      t.failed += lr.failed_cells;
    }
    t.checksum = position_checksum(d);
    t.hpwl = d.total_hpwl();
    return t;
  };

  auto best_of = [&](auto&& fn, const char* label) {
    ModeTotals best;
    best.repeat_s = std::numeric_limits<double>::max();
    for (int rep = 0; rep < kReps; ++rep) {
      const ModeTotals t = fn();
      if (t.repeat_s < best.repeat_s) best = t;
      std::printf("  %s rep %d: legalize %.3fs dp %.3fs (repeat %.3fs)\n",
                  label, rep, t.legal_s, t.dp_s, t.repeat_s);
    }
    return best;
  };

  std::printf("legal_bench: %d cells, %d rounds, window %.0f%%\n",
              spec.num_cells, kRounds, 100.0 * kWindowFrac);
  const ModeTotals new_1t = best_of([&] { return run_new(1); }, "lib 1t");
  const ModeTotals new_2t = best_of([&] { return run_new(2); }, "lib 2t");
  const ModeTotals new_8t = best_of([&] { return run_new(8); }, "lib 8t");

  // Legality of the final-round output.
  Design check = design;
  {
    par::set_num_threads(8);
    restore(check, inputs, kRounds - 1);
    puffer::legalize(check, pads, legal_cfg);
    puffer::detailed_place(check, dp_cfg);
  }
  const LegalityReport legality = check_legality(check);

  const bool identical = new_1t.checksum == new_2t.checksum &&
                         new_2t.checksum == new_8t.checksum;
  const bool ok = identical && legality.legal && new_8t.failed == 0;

  std::printf(
      "\nrepeat rounds (%d): lib 1t %.3fs / 2t %.3fs / 8t %.3fs; thread "
      "bit-identical %s, final legality %s\n",
      kRounds - 1, new_1t.repeat_s, new_2t.repeat_s, new_8t.repeat_s,
      identical ? "yes" : "NO", legality.legal ? "legal" : "ILLEGAL");

  bench::BenchReport rep("legalization");
  rep.config("scale", scale);
  rep.config("num_cells", spec.num_cells);
  rep.config("num_nets", static_cast<int>(design.nets.size()));
  rep.config("rounds", kRounds);
  rep.config("reps", kReps);
  rep.config("window_frac", kWindowFrac);
  rep.config("hardware_cores",
             static_cast<int>(std::thread::hardware_concurrency()));
  rep.result("legalize_1t_s", new_1t.legal_s);
  rep.result("dp_1t_s", new_1t.dp_s);
  rep.result("repeat_1t_s", new_1t.repeat_s);
  rep.result("repeat_2t_s", new_2t.repeat_s);
  rep.result("repeat_8t_s", new_8t.repeat_s);
  rep.result("failed_cells", new_8t.failed);
  rep.result("hpwl", new_8t.hpwl);
  rep.result("final_legal", std::string(legality.legal ? "yes" : "no"));
  rep.speedup("thread_8t_vs_1t",
              new_8t.repeat_s > 0.0 ? new_1t.repeat_s / new_8t.repeat_s : 0.0);
  rep.checksum("placement_1t", new_1t.checksum);
  rep.checksum("placement_2t", new_2t.checksum);
  rep.checksum("placement_8t", new_8t.checksum);
  rep.bit_identical(identical);
  const std::string path = rep.write();
  std::printf("wrote %s\n", path.c_str());
  return ok ? 0 : 1;
}
