// Padding feature-pipeline timings against the in-bench scalar oracle:
// the legacy extractor (FeatureConfig::use_legacy_extractor) runs at one
// thread over a recorded round sequence, then the fast pipeline -- O(1)
// RMQ/SAT queries, parallel fan-out -- replays the exact same sequence at
// one thread and at PUFFER_THREADS. Results go to
// bench_results/BENCH_padding_features.json (puffer-bench-v1 schema) with
// feature checksums across PUFFER_THREADS 1/2/8 and full-flow placement
// checksums across threads x extractor (fast, legacy oracle) proving
// every path is bit-identical. On a 1-core box the multi-thread legs
// still execute the full pool machinery; speedups there are algorithmic
// (same accounting as bench_router).
//
// Environment: PUFFER_SCALE (design size), PUFFER_THREADS (parallel leg's
// worker count; default hardware concurrency).
#include <chrono>
#include <cstdio>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "congestion/estimator.h"
#include "core/flow.h"
#include "io/checkpoint.h"
#include "io/synthetic.h"
#include "padding/features.h"

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
    w.put_f64(c.x);
    w.put_f64(c.y);
  }
  return fnv1a_bytes(w.buffer().data(), w.buffer().size());
}

// FNV-1a over the raw bits of every extracted feature.
std::uint64_t features_checksum(const std::vector<FeatureVector>& fs) {
  BinaryWriter w;
  for (const FeatureVector& f : fs) {
    for (int k = 0; k < FeatureVector::kCount; ++k) w.put_f64(f[k]);
  }
  return fnv1a_bytes(w.buffer().data(), w.buffer().size());
}

// Moves ~frac of the movable cells by a bounded offset and clamps them
// into the die.
void perturb_cells(Design& d, Rng& rng, double frac) {
  for (Cell& c : d.cells) {
    if (!c.movable() || !rng.chance(frac)) continue;
    c.x += static_cast<double>(rng.uniform_int(-8, 8));
    c.y += static_cast<double>(rng.uniform_int(-8, 8));
    c.x = clamp(c.x, d.die.xlo, d.die.xhi - c.width);
    c.y = clamp(c.y, d.die.ylo, d.die.yhi - c.height);
  }
}

// One recorded padding round: the congestion estimate plus the exact cell
// positions it was produced from, so a replay can restore the Design
// state the extractor must see.
struct Round {
  CongestionResult cr;
  std::vector<double> xs, ys;
};

void snapshot_positions(const Design& d, Round& r) {
  r.xs.reserve(d.cells.size());
  r.ys.reserve(d.cells.size());
  for (const Cell& c : d.cells) {
    r.xs.push_back(c.x);
    r.ys.push_back(c.y);
  }
}

void restore_positions(Design& d, const Round& r) {
  for (std::size_t i = 0; i < d.cells.size(); ++i) {
    d.cells[i].x = r.xs[i];
    d.cells[i].y = r.ys[i];
  }
}

// One full flow at the given thread count / extractor; fills the final
// placement checksum.
double run_flow(const SyntheticSpec& spec, int threads, bool legacy,
                std::uint64_t* sum) {
  PufferConfig cfg;
  cfg.num_threads = threads;
  cfg.padding.feature.use_legacy_extractor = legacy;
  Design d = generate_synthetic(spec);
  const auto t0 = Clock::now();
  PufferFlow flow(d, cfg);
  flow.run();
  const double t = seconds_since(t0);
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
  const int reps = 3;
  const int kRounds = 8;

  bench::BenchReport rec("padding_features");
  rec.config("design", spec.name);
  rec.config("scale", scale);
  rec.config("num_cells", static_cast<int>(design.cells.size()));
  rec.config("num_nets", static_cast<int>(design.nets.size()));
  rec.config("rounds", kRounds);
  rec.config("hardware_cores", hw);
  rec.config("parallel_threads", par_threads);

  std::vector<CellId> movable;
  for (CellId c = 0; c < static_cast<CellId>(design.cells.size()); ++c) {
    if (design.cells[static_cast<std::size_t>(c)].movable()) {
      movable.push_back(c);
    }
  }

  // Record the round sequence once: one estimate() per round on a
  // perturbed placement, as the padding loop produces them. One placement
  // row per Gcell: the finest routing-resource resolution, where span
  // queries are longest.
  CongestionConfig est_cfg;
  est_cfg.rows_per_gcell = 1.0;
  std::vector<Round> rounds(kRounds);
  {
    CongestionEstimator est(design, est_cfg);
    Rng rng(1234);
    for (int r = 0; r < kRounds; ++r) {
      if (r > 0) perturb_cells(design, rng, 0.02);
      rounds[static_cast<std::size_t>(r)].cr = est.estimate();
      snapshot_positions(design, rounds[static_cast<std::size_t>(r)]);
    }
  }

  // --- feature extraction over the recorded sequence ------------------
  // Baseline: the scalar oracle at one thread. Result: the fast pipeline.
  std::uint64_t sum_legacy = 0, sum_t1 = 0, sum_t2 = 0, sum_t8 = 0;
  par::set_num_threads(1);
  FeatureConfig legacy_cfg;
  legacy_cfg.use_legacy_extractor = true;
  // The timed loops run extraction only; checksum serialization (19k
  // cells x 5 doubles per round) is measured by neither side and happens
  // in the untimed determinism passes below.
  const double t_legacy = time_best(reps, [&] {
    FeatureExtractor fx(design, legacy_cfg);
    for (const Round& r : rounds) {
      restore_positions(design, r);
      fx.extract(r.cr, movable);
    }
  });
  const double t_fast1 = time_best(reps, [&] {
    FeatureExtractor fx(design, FeatureConfig{});
    for (const Round& r : rounds) {
      restore_positions(design, r);
      fx.extract(r.cr, movable);
    }
  });
  par::set_num_threads(par_threads);
  const double t_par = time_best(reps, [&] {
    FeatureExtractor fx(design, FeatureConfig{});
    for (const Round& r : rounds) {
      restore_positions(design, r);
      fx.extract(r.cr, movable);
    }
  });
  // Feature bits across paths and thread counts (replayed sequence -- the
  // checksum of the last round must agree everywhere). Untimed.
  {
    par::set_num_threads(1);
    FeatureExtractor fxl(design, legacy_cfg);
    for (const Round& r : rounds) {
      restore_positions(design, r);
      sum_legacy = features_checksum(fxl.extract(r.cr, movable));
    }
    FeatureExtractor fx1(design, FeatureConfig{});
    for (const Round& r : rounds) {
      restore_positions(design, r);
      sum_t1 = features_checksum(fx1.extract(r.cr, movable));
    }
    par::set_num_threads(2);
    FeatureExtractor fx2(design, FeatureConfig{});
    for (const Round& r : rounds) {
      restore_positions(design, r);
      sum_t2 = features_checksum(fx2.extract(r.cr, movable));
    }
    par::set_num_threads(8);
    FeatureExtractor fx8(design, FeatureConfig{});
    for (const Round& r : rounds) {
      restore_positions(design, r);
      sum_t8 = features_checksum(fx8.extract(r.cr, movable));
    }
  }

  rec.baseline("features_extract_s", t_legacy);
  rec.result("features_extract_1t_s", t_fast1);
  rec.result("features_extract_s", t_par);
  rec.speedup("features_1t", t_legacy / t_fast1);
  rec.speedup("features", t_legacy / t_par);
  std::printf(
      "feature extraction (%d rounds): %.4fs legacy x1, %.4fs fast x1 "
      "(%.2fx), %.4fs x%d (%.2fx)\n",
      kRounds, t_legacy, t_fast1, t_legacy / t_fast1, t_par, par_threads,
      t_legacy / t_par);

  // --- full-flow determinism matrix -----------------------------------
  // Final placements across PUFFER_THREADS x extractor: the fast pipeline
  // at 1/2/8 threads against the legacy oracle.
  std::uint64_t flow_fast_t1 = 0, flow_fast_t2 = 0, flow_fast_t8 = 0;
  std::uint64_t flow_legacy_t1 = 0, flow_legacy_t8 = 0;
  const double t_flow_fast = run_flow(spec, 1, false, &flow_fast_t1);
  run_flow(spec, 2, false, &flow_fast_t2);
  run_flow(spec, 8, false, &flow_fast_t8);
  const double t_flow_legacy = run_flow(spec, 1, true, &flow_legacy_t1);
  run_flow(spec, 8, true, &flow_legacy_t8);
  rec.baseline("flow_s", t_flow_legacy);
  rec.result("flow_s", t_flow_fast);
  rec.speedup("flow", t_flow_legacy / t_flow_fast);

  rec.checksum("features_legacy", sum_legacy);
  rec.checksum("features_t1", sum_t1);
  rec.checksum("features_t2", sum_t2);
  rec.checksum("features_t8", sum_t8);
  rec.checksum("flow_fast_t1", flow_fast_t1);
  rec.checksum("flow_fast_t2", flow_fast_t2);
  rec.checksum("flow_fast_t8", flow_fast_t8);
  rec.checksum("flow_legacy_t1", flow_legacy_t1);
  rec.checksum("flow_legacy_t8", flow_legacy_t8);
  const bool features_ok =
      sum_legacy == sum_t1 && sum_t1 == sum_t2 && sum_t2 == sum_t8;
  const bool flow_ok = flow_fast_t1 == flow_fast_t2 &&
                       flow_fast_t2 == flow_fast_t8 &&
                       flow_fast_t8 == flow_legacy_t1 &&
                       flow_legacy_t1 == flow_legacy_t8;
  rec.bit_identical(features_ok && flow_ok);
  std::printf(
      "feature checksum %016llx: legacy %s, threads 1/2/8 %s\n",
      static_cast<unsigned long long>(sum_t1),
      sum_legacy == sum_t1 ? "match" : "DIFFER",
      features_ok ? "match" : "DIFFER");
  std::printf(
      "flow checksum %016llx: threads 1/2/8 %s, legacy %s\n",
      static_cast<unsigned long long>(flow_fast_t1),
      flow_fast_t1 == flow_fast_t2 && flow_fast_t2 == flow_fast_t8
          ? "match"
          : "DIFFER",
      flow_fast_t1 == flow_legacy_t1 && flow_legacy_t1 == flow_legacy_t8
          ? "match"
          : "DIFFER");

  par::set_num_threads(0);
  const std::string path = rec.write();
  std::printf("wrote %s\n", path.c_str());
  return 0;
}
