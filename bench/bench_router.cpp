// Batched parallel rip-up-and-reroute at 1 and 8 threads.
//
// The evaluation router is invoked once per TPE trial, so its rip-up-
// and-reroute phase is the dominant serial cost of strategy search.
// This bench routes one congested medium synthetic design with the
// library router at 1 and at 8 threads and reports RRR-phase wall
// times, the thread scaling of the RRR phase, maze throughput
// (segments/sec), rounds, HOF/VOF, and the demand-map checksums of both
// runs. Exits non-zero when the two runs differ in any bit.
//
// Output: bench_results/BENCH_router.json.
#include <cstdio>
#include <string>
#include <thread>
#include <utility>

#include "bench/bench_util.h"
#include "common/parallel.h"
#include "common/timer.h"
#include "io/synthetic.h"
#include "router/global_router.h"

int main() {
  using namespace puffer;
  const int scale = bench::scale_divisor();
  SyntheticSpec spec;
  spec.name = "router_bench";
  spec.num_cells = 640000 / scale;
  spec.num_nets = 768000 / scale;
  spec.num_macros = 8;
  spec.seed = 31;
  // The generator's default supply is heavily oversubscribed; 1.5x
  // leaves a few percent residual overflow -- hot spots that negotiate
  // over several rounds, which is the regime the RRR phase exists for.
  spec.h_capacity_factor = 1.5;
  spec.v_capacity_factor = 1.5;
  const Design d = generate_synthetic(spec);

  RouterConfig cfg;
  cfg.rr_rounds = 8;

  std::printf("routing %zu cells / %zu nets (scale 1/%d)\n", d.cells.size(),
              d.nets.size(), scale);

  // The router is deterministic, so repeated runs differ only by
  // scheduler noise; best-of-kReps isolates the real wall time.
  constexpr int kReps = 3;

  GlobalRouter router(d, cfg);
  const auto route_best_of = [&](int threads, double& total_s) {
    par::set_num_threads(threads);
    RouteResult best;
    for (int rep = 0; rep < kReps; ++rep) {
      Timer t;
      RouteResult r = router.route();
      const double total = t.elapsed_seconds();
      if (rep == 0 || r.rrr_time_s < best.rrr_time_s) {
        best = std::move(r);
        total_s = total;
      }
    }
    par::set_num_threads(0);
    return best;
  };

  double total_1t = 0.0, total_8t = 0.0;
  const RouteResult r1 = route_best_of(1, total_1t);
  std::printf(
      "1 thr  : total %.3fs rrr %.3fs, %d segs, %d rerouted (%d attempts) / "
      "%d rounds, HOF %.2f%% VOF %.2f%%\n",
      total_1t, r1.rrr_time_s, r1.segments, r1.rerouted, r1.reroute_attempts,
      r1.rounds_used, r1.overflow.hof_pct, r1.overflow.vof_pct);
  const RouteResult r8 = route_best_of(8, total_8t);
  std::printf("8 thr  : total %.3fs rrr %.3fs\n", total_8t, r8.rrr_time_s);

  const bool identical = demand_checksum(r1.maps) == demand_checksum(r8.maps) &&
                         r1.wirelength == r8.wirelength &&
                         r1.rerouted == r8.rerouted;
  const double thread_speedup =
      r8.rrr_time_s > 0.0 ? r1.rrr_time_s / r8.rrr_time_s : 0.0;
  std::printf(
      "\nrrr thread scaling 8t vs 1t: %.2fx on %u hardware cores, "
      "bit-identical across thread counts: %s\n",
      thread_speedup, std::thread::hardware_concurrency(),
      identical ? "yes" : "NO");

  bench::BenchReport rec("router");
  rec.config("scale", scale);
  rec.config("num_cells", static_cast<int>(d.cells.size()));
  rec.config("num_nets", static_cast<int>(d.nets.size()));
  rec.config("segments", r1.segments);
  rec.config("hardware_cores",
             static_cast<int>(std::thread::hardware_concurrency()));
  rec.config("rr_rounds", cfg.rr_rounds);
  rec.result("total_1t_s", total_1t);
  rec.result("rrr_1t_s", r1.rrr_time_s);
  rec.result("total_8t_s", total_8t);
  rec.result("rrr_8t_s", r8.rrr_time_s);
  rec.result("rerouted", r1.rerouted);
  rec.result("reroute_attempts", r1.reroute_attempts);
  rec.result("rounds", r1.rounds_used);
  rec.result("maze_segments_per_s",
             r1.rrr_time_s > 0.0 ? r1.reroute_attempts / r1.rrr_time_s : 0.0);
  rec.result("hof_pct", r1.overflow.hof_pct);
  rec.result("vof_pct", r1.overflow.vof_pct);
  rec.result("wirelength", r1.wirelength);
  rec.speedup("rrr_thread_8t_vs_1t", thread_speedup);
  rec.checksum("demand_1t", demand_checksum(r1.maps));
  rec.checksum("demand_8t", demand_checksum(r8.maps));
  rec.bit_identical(identical);
  const std::string path = rec.write();
  std::printf("wrote %s\n", path.c_str());
  return identical ? 0 : 1;
}
