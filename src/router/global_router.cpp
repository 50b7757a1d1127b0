#include "router/global_router.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/logger.h"
#include "common/parallel.h"
#include "common/timer.h"
#include "router/maze.h"
#include "router/path_use.h"
#include "rsmt/rsmt.h"

namespace puffer {
namespace {

constexpr const char* kTag = "router";

// Fixed negotiation knobs. Entering a Gcell costs 1; past capacity the
// cost grows by kOverflowSlope per unit of demand/capacity ratio plus the
// Gcell's history, which grows by kHistoryStep in every round the
// resource starts overflowed. A direction change costs kTurnCost more.
constexpr double kOverflowSlope = 8.0;
constexpr double kHistoryStep = 2.0;
constexpr double kTurnCost = 0.2;
// Pin-crowding weight of the local-net pin layer (add_pin_demand).
constexpr double kPinCrowding = 1.0;
// Gcell height in standard-cell rows.
constexpr double kRowsPerGcell = 3.0;

struct Seg {
  GcellIndex a, b;
  std::vector<GcellIndex> path;  // inclusive cell sequence a..b
};

// Per-thread window-local overlay of a segment's own demand, so the maze
// prices the field with the segment's old path removed without mutating
// the shared (frozen) maps. Arrays stay all-zero between uses; `touched`
// records which entries to clear.
struct OwnUseOverlay {
  std::vector<std::int8_t> h, v;
  std::vector<std::size_t> touched;

  void load(const std::vector<GcellIndex>& path, const MazeWindow& w) {
    const std::size_t cells =
        static_cast<std::size_t>(w.ww) * static_cast<std::size_t>(w.wh);
    if (h.size() < cells) {
      h.resize(cells, 0);
      v.resize(cells, 0);
    }
    for_each_path_use(path, [&](int gx, int gy, bool uh, bool uv) {
      if (!w.contains(gx, gy)) return;
      const std::size_t i = static_cast<std::size_t>(gy - w.y0) *
                                static_cast<std::size_t>(w.ww) +
                            static_cast<std::size_t>(gx - w.x0);
      if (h[i] == 0 && v[i] == 0) touched.push_back(i);
      if (uh) h[i] += 1;
      if (uv) v[i] += 1;
    });
  }
  void clear() {
    for (const std::size_t i : touched) {
      h[i] = 0;
      v[i] = 0;
    }
    touched.clear();
  }
};

}  // namespace

RouterConfig validate_router_config(RouterConfig config) {
  config.rr_rounds = std::max(0, config.rr_rounds);
  config.bbox_margin = std::max(0, config.bbox_margin);
  return config;
}

GlobalRouter::GlobalRouter(const Design& design, RouterConfig config)
    : design_(design),
      config_(validate_router_config(config)),
      grid_(GcellGrid::from_row_pitch(design.die, design.tech.row_height,
                                      kRowsPerGcell)),
      capacity_(build_capacity_maps(design, grid_)) {}

RouteResult GlobalRouter::route() const {
  Timer route_timer;
  RouteResult result;
  result.maps = RoutingMaps(grid_, capacity_);
  Map2D<double>& dmd_h = result.maps.dmd_h;
  Map2D<double>& dmd_v = result.maps.dmd_v;

  // Local-net pin demand: static (never ripped up), added before the
  // initial pattern routing prices its L candidates.
  add_pin_demand(design_, config_.pin_penalty, kPinCrowding, result.maps);

  // --- decompose nets into segments --------------------------------------
  // Parallel per net (each net owns its slot), flattened in net order so
  // the segment sequence -- and with it every commit order below -- stays
  // deterministic.
  std::vector<Seg> segs;
  {
    const std::int64_t n_nets = static_cast<std::int64_t>(design_.nets.size());
    std::vector<std::vector<Seg>> per_net(design_.nets.size());
    par::parallel_for(
        0, n_nets, 16,
        [&](std::int64_t nb, std::int64_t ne, int) {
          std::vector<Point> pts;
          for (std::int64_t n = nb; n < ne; ++n) {
            const Net& net = design_.nets[static_cast<std::size_t>(n)];
            if (net.pins.size() < 2) continue;
            pts.clear();
            for (PinId pid : net.pins) pts.push_back(design_.pin_position(pid));
            const RsmtTree tree = build_rsmt(pts);
            for (const RsmtSegment& s : tree.segments) {
              Seg seg;
              seg.a = grid_.index_of(
                  tree.points[static_cast<std::size_t>(s.a)].pos.x,
                  tree.points[static_cast<std::size_t>(s.a)].pos.y);
              seg.b = grid_.index_of(
                  tree.points[static_cast<std::size_t>(s.b)].pos.x,
                  tree.points[static_cast<std::size_t>(s.b)].pos.y);
              if (seg.a.gx == seg.b.gx && seg.a.gy == seg.b.gy) continue;
              per_net[static_cast<std::size_t>(n)].push_back(std::move(seg));
            }
          }
        },
        256);
    for (auto& pn : per_net) {
      for (Seg& s : pn) segs.push_back(std::move(s));
    }
  }
  const std::int64_t n_segs = static_cast<std::int64_t>(segs.size());
  result.segments = static_cast<int>(segs.size());

  Map2D<double> hist_h(grid_.nx(), grid_.ny());
  Map2D<double> hist_v(grid_.nx(), grid_.ny());

  // Directional entry cost of a Gcell; `dh`/`dv` let the maze price the
  // field with the segment's own demand subtracted.
  const auto cost_h_at = [&](int gx, int gy, double dh) {
    const double cap = std::max(result.maps.cap_h.at(gx, gy), 1.0);
    const double ratio = (dh + 1.0) / cap;
    double c = 1.0;
    if (ratio > 1.0) {
      c += kOverflowSlope * (ratio - 1.0) + hist_h.at(gx, gy);
    }
    return c;
  };
  const auto cost_v_at = [&](int gx, int gy, double dv) {
    const double cap = std::max(result.maps.cap_v.at(gx, gy), 1.0);
    const double ratio = (dv + 1.0) / cap;
    double c = 1.0;
    if (ratio > 1.0) {
      c += kOverflowSlope * (ratio - 1.0) + hist_v.at(gx, gy);
    }
    return c;
  };
  const auto cost_h = [&](int gx, int gy) {
    return cost_h_at(gx, gy, dmd_h.at(gx, gy));
  };
  const auto cost_v = [&](int gx, int gy) {
    return cost_v_at(gx, gy, dmd_v.at(gx, gy));
  };

  // Builds an L path through the given corner.
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

  // --- initial pattern routing -------------------------------------------
  // Both L candidates are priced concurrently against the frozen
  // pin-demand field (each segment owns its slot), then demand is
  // committed serially in segment order -- deterministic for any worker
  // count, same contract as the reroute rounds below.
  par::parallel_for(
      0, n_segs, 64,
      [&](std::int64_t sb, std::int64_t se, int) {
        for (std::int64_t i = sb; i < se; ++i) {
          Seg& seg = segs[static_cast<std::size_t>(i)];
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
        }
      },
      256);
  for (const Seg& seg : segs) {
    apply_path_demand(seg.path, dmd_h, dmd_v, +1.0);
  }

  // --- batched negotiated rip-up and reroute ------------------------------
  Timer rrr_timer;
  const int W = grid_.nx(), H = grid_.ny();
  const std::int32_t qturn = static_cast<std::int32_t>(
      std::lround(kTurnCost * static_cast<double>(kQCostScale)));

  // Quantized live cost of a path including turn penalties; used by the
  // serial commit to compare a candidate against the ripped old path
  // under the same objective the maze optimizes.
  const auto path_qcost = [&](const std::vector<GcellIndex>& path) {
    std::int64_t q = 0;
    for_each_path_use(path, [&](int gx, int gy, bool h, bool v) {
      if (h) q += quantize_cost(cost_h(gx, gy));
      if (v) q += quantize_cost(cost_v(gx, gy));
      if (h && v) q += qturn;  // turning cell = one direction change
    });
    return q;
  };

  std::vector<std::int32_t> selected;
  std::vector<std::vector<GcellIndex>> candidates;
  // Failure backoff: a search that finds no admissible improvement
  // proves its segment locally optimal for the current history; retrying
  // next round is almost always wasted (the field barely moved). Such a
  // segment sits out exponentially more rounds -- history keeps growing
  // on its overflowed cells meanwhile, so the retry faces a genuinely
  // changed price -- and an adoption resets the backoff. Updated only in
  // the serial commit, so scheduling is thread-count independent.
  std::vector<std::uint8_t> fail_streak(static_cast<std::size_t>(n_segs), 0);
  std::vector<std::int16_t> eligible_round(static_cast<std::size_t>(n_segs),
                                           0);
  for (int round = 0; round < config_.rr_rounds; ++round) {
    // Grow history on every overflowed resource; stop once none is.
    std::int64_t overflowed = 0;
    for (int gy = 0; gy < H; ++gy) {
      for (int gx = 0; gx < W; ++gx) {
        if (result.maps.overflowed_h(gx, gy)) {
          hist_h.at(gx, gy) += kHistoryStep;
          ++overflowed;
        }
        if (result.maps.overflowed_v(gx, gy)) {
          hist_v.at(gx, gy) += kHistoryStep;
          ++overflowed;
        }
      }
    }
    if (overflowed == 0) break;

    // Select every segment whose backoff has elapsed and whose path uses
    // an overflowed resource in a direction it uses there.
    selected.clear();
    for (std::int64_t i = 0; i < n_segs; ++i) {
      const std::size_t s = static_cast<std::size_t>(i);
      if (round < static_cast<int>(eligible_round[s])) continue;
      bool touches = false;
      for_each_path_use(segs[s].path, [&](int gx, int gy, bool h, bool v) {
        touches = touches || (h && result.maps.overflowed_h(gx, gy)) ||
                  (v && result.maps.overflowed_v(gx, gy));
      });
      if (touches) selected.push_back(static_cast<std::int32_t>(i));
    }
    if (selected.empty()) continue;  // backed-off segments may wake later
    ++result.rounds_used;
    result.reroute_attempts += static_cast<int>(selected.size());

    // Maze-route all selected segments concurrently against the frozen
    // round-start field (demand + history are not mutated until the
    // commit loop below). Each segment sees the field with its own path
    // subtracted and writes only its own candidate slot, so the result
    // is bit-identical for any thread count.
    candidates.assign(selected.size(), {});
    par::parallel_for(
        0, static_cast<std::int64_t>(selected.size()), 2,
        [&](std::int64_t kb, std::int64_t ke, int) {
          static thread_local MazeArena arena_tls;
          static thread_local OwnUseOverlay own_tls;
          MazeArena& arena = arena_tls;
          OwnUseOverlay& own = own_tls;
          for (std::int64_t k = kb; k < ke; ++k) {
            const Seg& seg =
                segs[static_cast<std::size_t>(selected[static_cast<std::size_t>(k)])];
            MazeWindow w;
            w.x0 = std::max(0, std::min(seg.a.gx, seg.b.gx) -
                                   config_.bbox_margin);
            w.y0 = std::max(0, std::min(seg.a.gy, seg.b.gy) -
                                   config_.bbox_margin);
            w.ww = std::min(W - 1, std::max(seg.a.gx, seg.b.gx) +
                                       config_.bbox_margin) -
                   w.x0 + 1;
            w.wh = std::min(H - 1, std::max(seg.a.gy, seg.b.gy) +
                                       config_.bbox_margin) -
                   w.y0 + 1;
            own.load(seg.path, w);
            const auto cell_cost = [&](int gx, int gy, std::int32_t& qch,
                                       std::int32_t& qcv) {
              const std::size_t i = static_cast<std::size_t>(gy - w.y0) *
                                        static_cast<std::size_t>(w.ww) +
                                    static_cast<std::size_t>(gx - w.x0);
              qch = quantize_cost(
                  cost_h_at(gx, gy, dmd_h.at(gx, gy) - own.h[i]));
              qcv = quantize_cost(
                  cost_v_at(gx, gy, dmd_v.at(gx, gy) - own.v[i]));
            };
            // The old path's cost on the frozen field with its own demand
            // ripped, in the commit comparator's convention. Bounds the
            // search: a candidate at or above it can never be admitted,
            // so the maze exits the moment its front proves that.
            std::int64_t qold = 0;
            for_each_path_use(seg.path,
                              [&](int gx, int gy, bool h, bool v) {
                                std::int32_t qch, qcv;
                                cell_cost(gx, gy, qch, qcv);
                                if (h) qold += qch;
                                if (v) qold += qcv;
                                if (h && v) qold += qturn;
                              });
            candidates[static_cast<std::size_t>(k)] =
                maze_route(w, seg.a, seg.b, qturn, arena, cell_cost, qold);
            own.clear();
          }
        },
        256);

    // Serial commit in segment order with exact rip/re-apply demand
    // arithmetic. A candidate is adopted only if it is strictly cheaper
    // than the old path under the live post-rip field, so a batch of
    // identical segments fills a detour row until it stops paying off
    // instead of herding onto it wholesale.
    int rerouted = 0;
    for (std::size_t k = 0; k < selected.size(); ++k) {
      const std::size_t i = static_cast<std::size_t>(selected[k]);
      Seg& seg = segs[i];
      std::vector<GcellIndex>& cand = candidates[k];
      bool adopted = false;
      if (cand.size() >= 2) {  // bound-aborted / unreachable: keep old path
        apply_path_demand(seg.path, dmd_h, dmd_v, -1.0);
        if (path_qcost(cand) < path_qcost(seg.path)) {
          seg.path = std::move(cand);
          adopted = true;
          ++rerouted;
        }
        apply_path_demand(seg.path, dmd_h, dmd_v, +1.0);
      }
      if (adopted) {
        fail_streak[i] = 0;
        eligible_round[i] = static_cast<std::int16_t>(round + 1);
      } else {
        fail_streak[i] = static_cast<std::uint8_t>(
            std::min<int>(fail_streak[i] + 1, 3));
        eligible_round[i] =
            static_cast<std::int16_t>(round + (1 << fail_streak[i]));
      }
    }
    result.rerouted += rerouted;
    // Convergence exit: when fewer than 1/64 of this round's searches
    // improve anything, further rounds only reshuffle the residual --
    // stop instead of grinding out the budget.
    if (static_cast<std::size_t>(rerouted) * 64 < selected.size()) break;
    PUFFER_LOG_DEBUG(kTag, "rrr round %d: %lld overflowed resources, %zu "
                     "selected, %d rerouted",
                     round, static_cast<long long>(overflowed),
                     selected.size(), rerouted);
  }
  result.rrr_time_s = rrr_timer.elapsed_seconds();

  // --- metrics -------------------------------------------------------------
  result.overflow = compute_overflow(result.maps);
  double wl = 0.0;
  for (const Seg& seg : segs) {
    for (std::size_t i = 1; i < seg.path.size(); ++i) {
      wl += (seg.path[i].gy == seg.path[i - 1].gy) ? grid_.gcell_w()
                                                   : grid_.gcell_h();
    }
  }
  result.wirelength = wl;
  result.route_time_s = route_timer.elapsed_seconds();
  return result;
}

}  // namespace puffer
