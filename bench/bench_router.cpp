// Batched parallel rip-up-and-reroute vs the serial seed router.
//
// The evaluation router is invoked once per TPE trial, so its rip-up-
// and-reroute phase is the dominant serial cost of strategy search.
// This bench routes one congested medium synthetic design three ways:
//
//   1. `seed`: a faithful in-bench copy of the pre-batching router --
//      one segment at a time, shared-scratch A* with a binary-heap open
//      list, full W x H overflow scan and per-segment path re-check at
//      the top of every round;
//   2. the batched router at 1 thread (bucket-queue maze, memoized
//      window costs, incremental overflow tracking);
//   3. the batched router at 8 threads.
//
// Reports RRR-phase wall times, the speedup of (3) over (1) -- the
// acceptance number; on a multi-core box it combines the algorithmic
// and the parallel win, on a 1-core box (recorded as hardware_cores)
// the algorithmic win must carry it -- maze throughput (segments/sec),
// rounds, HOF/VOF, and the thread-count bit-identity checksums.
//
// Output: bench_results/BENCH_router.json.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <queue>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "common/parallel.h"
#include "common/timer.h"
#include "congestion/demand_quantum.h"
#include "grid/capacity.h"
#include "io/synthetic.h"
#include "router/global_router.h"
#include "router/path_use.h"
#include "rsmt/rsmt.h"

namespace {

using namespace puffer;

// --- the seed router, reproduced for an honest baseline ------------------
// Matches the pre-batching GlobalRouter::route() step for step: serial
// initial L routing with live demand accumulation, then serial
// PathFinder rounds with a double-cost A* (std::priority_queue open
// list) and full-grid overflow scans. Only the timing hooks are new.
struct SeedRouter {
  const Design& design;
  RouterConfig config;
  GcellGrid grid;
  CapacityMaps capacity;

  explicit SeedRouter(const Design& d, RouterConfig cfg)
      : design(d),
        config(cfg),
        grid(GcellGrid::from_row_pitch(d.die, d.tech.row_height,
                                       cfg.rows_per_gcell)),
        capacity(build_capacity_maps(d, grid)) {}

  struct Seg {
    GcellIndex a, b;
    std::vector<GcellIndex> path;
  };

  RouteResult route() {
    RouteResult result;
    result.maps = RoutingMaps(grid, capacity);
    Map2D<double>& dmd_h = result.maps.dmd_h;
    Map2D<double>& dmd_v = result.maps.dmd_v;

    if (config.pin_penalty > 0.0 || config.pin_crowding > 0.0) {
      Map2D<double> pin_cnt(grid.nx(), grid.ny());
      for (const Pin& pin : design.pins) {
        const Cell& c = design.cells[static_cast<std::size_t>(pin.cell)];
        const GcellIndex g = grid.index_of(c.x + pin.dx, c.y + pin.dy);
        pin_cnt.at(g.gx, g.gy) += 1.0;
      }
      const double site_w = std::max(design.tech.site_width, 1e-9);
      const double row_h = std::max(design.tech.row_height, 1e-9);
      const double pin_cap = std::max(
          1.0, (grid.gcell_w() / site_w) * (grid.gcell_h() / row_h) *
                   config.pins_per_site);
      for (int gy = 0; gy < grid.ny(); ++gy) {
        for (int gx = 0; gx < grid.nx(); ++gx) {
          const double cnt = pin_cnt.at(gx, gy);
          if (cnt <= 0.0) continue;
          const double excess = std::max(0.0, cnt - pin_cap);
          const double add = quantize_demand(
              config.pin_penalty * cnt + 0.5 * config.pin_crowding * excess);
          if (add <= 0.0) continue;
          dmd_h.at(gx, gy) += add;
          dmd_v.at(gx, gy) += add;
        }
      }
    }

    std::vector<Seg> segs;
    for (const Net& net : design.nets) {
      if (net.pins.size() < 2) continue;
      std::vector<Point> pts;
      for (PinId pid : net.pins) pts.push_back(design.pin_position(pid));
      const RsmtTree tree = build_rsmt(pts);
      for (const RsmtSegment& s : tree.segments) {
        Seg seg;
        seg.a = grid.index_of(tree.points[static_cast<std::size_t>(s.a)].pos.x,
                              tree.points[static_cast<std::size_t>(s.a)].pos.y);
        seg.b = grid.index_of(tree.points[static_cast<std::size_t>(s.b)].pos.x,
                              tree.points[static_cast<std::size_t>(s.b)].pos.y);
        if (seg.a.gx == seg.b.gx && seg.a.gy == seg.b.gy) continue;
        segs.push_back(std::move(seg));
      }
    }
    result.segments = static_cast<int>(segs.size());

    Map2D<double> hist_h(grid.nx(), grid.ny());
    Map2D<double> hist_v(grid.nx(), grid.ny());
    const auto cost_h = [&](int gx, int gy) {
      const double cap = std::max(result.maps.cap_h.at(gx, gy), 1.0);
      const double ratio = (dmd_h.at(gx, gy) + 1.0) / cap;
      double c = 1.0;
      if (ratio > 1.0) {
        c += config.overflow_slope * (ratio - 1.0) + hist_h.at(gx, gy);
      }
      return c;
    };
    const auto cost_v = [&](int gx, int gy) {
      const double cap = std::max(result.maps.cap_v.at(gx, gy), 1.0);
      const double ratio = (dmd_v.at(gx, gy) + 1.0) / cap;
      double c = 1.0;
      if (ratio > 1.0) {
        c += config.overflow_slope * (ratio - 1.0) + hist_v.at(gx, gy);
      }
      return c;
    };
    const auto l_path = [&](GcellIndex a, GcellIndex corner, GcellIndex b) {
      std::vector<GcellIndex> path;
      GcellIndex cur = a;
      path.push_back(cur);
      auto walk = [&](GcellIndex to) {
        while (cur.gx != to.gx) {
          cur.gx += (to.gx > cur.gx) ? 1 : -1;
          path.push_back(cur);
        }
        while (cur.gy != to.gy) {
          cur.gy += (to.gy > cur.gy) ? 1 : -1;
          path.push_back(cur);
        }
      };
      walk(corner);
      walk(b);
      return path;
    };
    const auto path_cost = [&](const std::vector<GcellIndex>& path) {
      double c = 0.0;
      for_each_path_use(path, [&](int gx, int gy, bool h, bool v) {
        if (h) c += cost_h(gx, gy);
        if (v) c += cost_v(gx, gy);
      });
      return c;
    };

    for (Seg& seg : segs) {
      const GcellIndex c1{seg.b.gx, seg.a.gy};
      const GcellIndex c2{seg.a.gx, seg.b.gy};
      auto p1 = l_path(seg.a, c1, seg.b);
      if (seg.a.gx == seg.b.gx || seg.a.gy == seg.b.gy) {
        seg.path = std::move(p1);
      } else {
        auto p2 = l_path(seg.a, c2, seg.b);
        seg.path =
            path_cost(p1) <= path_cost(p2) ? std::move(p1) : std::move(p2);
      }
      apply_path_demand(seg.path, dmd_h, dmd_v, +1.0);
    }

    Timer rrr_timer;
    const int W = grid.nx(), H = grid.ny();
    std::vector<double> gscore;
    std::vector<int> visit_mark;
    std::vector<std::int32_t> parent;
    int visit_token = 0;
    const auto maze = [&](const Seg& seg) -> std::vector<GcellIndex> {
      const int x0 =
          std::max(0, std::min(seg.a.gx, seg.b.gx) - config.bbox_margin);
      const int x1 =
          std::min(W - 1, std::max(seg.a.gx, seg.b.gx) + config.bbox_margin);
      const int y0 =
          std::max(0, std::min(seg.a.gy, seg.b.gy) - config.bbox_margin);
      const int y1 =
          std::min(H - 1, std::max(seg.a.gy, seg.b.gy) + config.bbox_margin);
      const int ww = x1 - x0 + 1, wh = y1 - y0 + 1;
      const std::size_t states = static_cast<std::size_t>(ww) * wh * 2;
      if (gscore.size() < states) {
        gscore.resize(states);
        visit_mark.resize(states, -1);
        parent.resize(states);
      }
      ++visit_token;
      const auto sid = [&](int gx, int gy, int dir) {
        return (static_cast<std::size_t>(gy - y0) * ww + (gx - x0)) * 2 +
               static_cast<std::size_t>(dir);
      };
      const auto heur = [&](int gx, int gy) {
        return static_cast<double>(std::abs(gx - seg.b.gx) +
                                   std::abs(gy - seg.b.gy));
      };
      using QE = std::pair<double, std::uint32_t>;
      std::priority_queue<QE, std::vector<QE>, std::greater<>> open;
      const auto push = [&](int gx, int gy, int dir, double g,
                            std::int32_t par) {
        const std::size_t s = sid(gx, gy, dir);
        if (visit_mark[s] == visit_token && gscore[s] <= g) return;
        visit_mark[s] = visit_token;
        gscore[s] = g;
        parent[s] = par;
        open.emplace(g + heur(gx, gy), static_cast<std::uint32_t>(s));
      };
      push(seg.a.gx, seg.a.gy, 0, cost_h(seg.a.gx, seg.a.gy), -1);
      push(seg.a.gx, seg.a.gy, 1, cost_v(seg.a.gx, seg.a.gy), -1);
      std::int32_t goal_state = -1;
      while (!open.empty()) {
        const auto [f, sraw] = open.top();
        open.pop();
        const std::size_t s = sraw;
        const int dir = static_cast<int>(s % 2);
        const int gx =
            x0 + static_cast<int>((s / 2) % static_cast<std::size_t>(ww));
        const int gy =
            y0 + static_cast<int>((s / 2) / static_cast<std::size_t>(ww));
        if (f > gscore[s] + heur(gx, gy) + 1e-9) continue;
        if (gx == seg.b.gx && gy == seg.b.gy) {
          goal_state = static_cast<std::int32_t>(s);
          break;
        }
        const double g = gscore[s];
        if (gx > x0) {
          push(gx - 1, gy, 0,
               g + cost_h(gx - 1, gy) + (dir == 1 ? config.turn_cost : 0.0),
               static_cast<std::int32_t>(s));
        }
        if (gx < x1) {
          push(gx + 1, gy, 0,
               g + cost_h(gx + 1, gy) + (dir == 1 ? config.turn_cost : 0.0),
               static_cast<std::int32_t>(s));
        }
        if (gy > y0) {
          push(gx, gy - 1, 1,
               g + cost_v(gx, gy - 1) + (dir == 0 ? config.turn_cost : 0.0),
               static_cast<std::int32_t>(s));
        }
        if (gy < y1) {
          push(gx, gy + 1, 1,
               g + cost_v(gx, gy + 1) + (dir == 0 ? config.turn_cost : 0.0),
               static_cast<std::int32_t>(s));
        }
      }
      std::vector<GcellIndex> path;
      if (goal_state < 0) return path;
      std::int32_t s = goal_state;
      while (s >= 0) {
        const int gx =
            x0 + static_cast<int>((static_cast<std::size_t>(s) / 2) %
                                  static_cast<std::size_t>(ww));
        const int gy =
            y0 + static_cast<int>((static_cast<std::size_t>(s) / 2) /
                                  static_cast<std::size_t>(ww));
        path.push_back({gx, gy});
        s = parent[static_cast<std::size_t>(s)];
      }
      std::reverse(path.begin(), path.end());
      std::vector<GcellIndex> dedup;
      for (const GcellIndex& g : path) {
        if (dedup.empty() || dedup.back().gx != g.gx ||
            dedup.back().gy != g.gy) {
          dedup.push_back(g);
        }
      }
      return dedup;
    };

    for (int round = 0; round < config.rr_rounds; ++round) {
      bool any_overflow = false;
      for (int gy = 0; gy < H; ++gy) {
        for (int gx = 0; gx < W; ++gx) {
          if (dmd_h.at(gx, gy) > result.maps.cap_h.at(gx, gy)) {
            hist_h.at(gx, gy) += config.history_step;
            any_overflow = true;
          }
          if (dmd_v.at(gx, gy) > result.maps.cap_v.at(gx, gy)) {
            hist_v.at(gx, gy) += config.history_step;
            any_overflow = true;
          }
        }
      }
      if (!any_overflow) break;
      int rerouted = 0;
      for (Seg& seg : segs) {
        bool touches = false;
        for (std::size_t i = 0; i < seg.path.size() && !touches; ++i) {
          const GcellIndex& g = seg.path[i];
          const bool h_used =
              (i > 0 && seg.path[i - 1].gy == g.gy) ||
              (i + 1 < seg.path.size() && seg.path[i + 1].gy == g.gy);
          const bool v_used =
              (i > 0 && seg.path[i - 1].gx == g.gx) ||
              (i + 1 < seg.path.size() && seg.path[i + 1].gx == g.gx);
          if (h_used &&
              dmd_h.at(g.gx, g.gy) > result.maps.cap_h.at(g.gx, g.gy)) {
            touches = true;
          }
          if (v_used &&
              dmd_v.at(g.gx, g.gy) > result.maps.cap_v.at(g.gx, g.gy)) {
            touches = true;
          }
        }
        if (!touches) continue;
        apply_path_demand(seg.path, dmd_h, dmd_v, -1.0);
        std::vector<GcellIndex> np = maze(seg);
        if (!np.empty()) seg.path = std::move(np);
        apply_path_demand(seg.path, dmd_h, dmd_v, +1.0);
        ++rerouted;
      }
      result.rerouted += rerouted;
      result.reroute_attempts += rerouted;
      ++result.rounds_used;
      if (rerouted == 0) break;
    }
    result.rrr_time_s = rrr_timer.elapsed_seconds();

    result.overflow = compute_overflow(result.maps);
    double wl = 0.0;
    for (const Seg& seg : segs) {
      for (std::size_t i = 1; i < seg.path.size(); ++i) {
        wl += (seg.path[i].gy == seg.path[i - 1].gy) ? grid.gcell_w()
                                                     : grid.gcell_h();
      }
    }
    result.wirelength = wl;
    return result;
  }
};

}  // namespace

int main() {
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

  // Both routers are deterministic, so repeated runs differ only by
  // scheduler noise; best-of-kReps isolates the real wall time.
  constexpr int kReps = 3;

  SeedRouter seed(d, cfg);
  RouteResult r_seed;
  double seed_total_s = 0.0;
  for (int rep = 0; rep < kReps; ++rep) {
    Timer t;
    RouteResult r = seed.route();
    const double total = t.elapsed_seconds();
    if (rep == 0 || r.rrr_time_s < r_seed.rrr_time_s) {
      r_seed = std::move(r);
      seed_total_s = total;
    }
  }
  std::printf(
      "seed   : total %.3fs rrr %.3fs, %d segs, %d rerouted / %d rounds, "
      "HOF %.2f%% VOF %.2f%%\n",
      seed_total_s, r_seed.rrr_time_s, r_seed.segments, r_seed.rerouted,
      r_seed.rounds_used, r_seed.overflow.hof_pct, r_seed.overflow.vof_pct);

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
  const double speedup_vs_seed =
      r8.rrr_time_s > 0.0 ? r_seed.rrr_time_s / r8.rrr_time_s : 0.0;
  const double thread_speedup =
      r8.rrr_time_s > 0.0 ? r1.rrr_time_s / r8.rrr_time_s : 0.0;
  std::printf(
      "\nrrr speedup vs seed at 8 threads: %.2fx (algorithmic %.2fx, "
      "thread scaling %.2fx on %u hardware cores), bit-identical across "
      "thread counts: %s\n",
      speedup_vs_seed,
      r1.rrr_time_s > 0.0 ? r_seed.rrr_time_s / r1.rrr_time_s : 0.0,
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
  rec.baseline("total_s", seed_total_s);
  rec.baseline("rrr_s", r_seed.rrr_time_s);
  rec.baseline("rerouted", r_seed.rerouted);
  rec.baseline("rounds", r_seed.rounds_used);
  rec.baseline("hof_pct", r_seed.overflow.hof_pct);
  rec.baseline("vof_pct", r_seed.overflow.vof_pct);
  rec.baseline("wirelength", r_seed.wirelength);
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
  rec.speedup("rrr_vs_seed_8t", speedup_vs_seed);
  rec.speedup("rrr_vs_seed_1t",
              r1.rrr_time_s > 0.0 ? r_seed.rrr_time_s / r1.rrr_time_s : 0.0);
  rec.speedup("rrr_thread_8t_vs_1t", thread_speedup);
  rec.checksum("demand_1t", demand_checksum(r1.maps));
  rec.checksum("demand_8t", demand_checksum(r8.maps));
  rec.bit_identical(identical);
  const std::string path = rec.write();
  std::printf("wrote %s\n", path.c_str());
  return identical ? 0 : 1;
}
