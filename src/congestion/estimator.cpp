#include "congestion/estimator.h"

#include <algorithm>

#include "common/parallel.h"
#include "grid/demand_quantum.h"

namespace puffer {

CongestionEstimator::CongestionEstimator(const Design& design,
                                         CongestionConfig config)
    : design_(design),
      config_(config),
      grid_(GcellGrid::from_row_pitch(design.die, design.tech.row_height,
                                      config.rows_per_gcell)),
      capacity_(build_capacity_maps(design, grid_)) {}

namespace {

// Decides and applies the detour-expansion move of one I-shaped segment
// -- the exact sequential algorithm of paper step 3: find the nearest
// parallel row/column where the whole span has slack for one more track,
// move the unit demand there, and add perpendicular connector demand for
// Steiner endpoints. Returns whether the segment moved (non-I segments
// never do).
bool expand_segment(const CongestionConfig& config, RoutingMaps& maps,
                    const GcellIndex& ga, const GcellIndex& gb,
                    bool a_steiner, bool b_steiner) {
  Map2D<double>& dmd_h = maps.dmd_h;
  Map2D<double>& dmd_v = maps.dmd_v;
  const bool horizontal = (ga.gy == gb.gy) && (ga.gx != gb.gx);
  const bool vertical = (ga.gx == gb.gx) && (ga.gy != gb.gy);
  if (!horizontal && !vertical) return false;

  if (horizontal) {
    const int y = ga.gy;
    const int x0 = std::min(ga.gx, gb.gx), x1 = std::max(ga.gx, gb.gx);
    double worst = 0.0;
    for (int gx = x0; gx <= x1; ++gx) {
      worst = std::max(worst, dmd_h.at(gx, y) /
                                  std::max(maps.cap_h.at(gx, y), 1.0));
    }
    if (worst <= config.congested_ratio) return false;
    int target = -1;
    for (int k = 1; k <= config.expand_radius && target < 0; ++k) {
      for (const int cand : {y + k, y - k}) {
        if (cand < 0 || cand >= dmd_h.ny()) continue;
        bool fits = true;
        for (int gx = x0; gx <= x1 && fits; ++gx) {
          fits = dmd_h.at(gx, cand) + 1.0 <=
                 std::max(maps.cap_h.at(gx, cand), 1.0) *
                     config.congested_ratio;
        }
        if (fits) {
          target = cand;
          break;
        }
      }
    }
    if (target < 0) return false;
    for (int gx = x0; gx <= x1; ++gx) {
      dmd_h.at(gx, y) -= 1.0;
      dmd_h.at(gx, target) += 1.0;
    }
    // Steiner endpoints need a perpendicular connector back to the tree
    // (a real detour); pin endpoints just model cell spreading.
    const int ylo = std::min(y, target), yhi = std::max(y, target);
    if (a_steiner) {
      for (int gy = ylo; gy <= yhi; ++gy) dmd_v.at(ga.gx, gy) += 1.0;
    }
    if (b_steiner) {
      for (int gy = ylo; gy <= yhi; ++gy) dmd_v.at(gb.gx, gy) += 1.0;
    }
  } else {
    const int x = ga.gx;
    const int y0 = std::min(ga.gy, gb.gy), y1 = std::max(ga.gy, gb.gy);
    double worst = 0.0;
    for (int gy = y0; gy <= y1; ++gy) {
      worst = std::max(worst, dmd_v.at(x, gy) /
                                  std::max(maps.cap_v.at(x, gy), 1.0));
    }
    if (worst <= config.congested_ratio) return false;
    int target = -1;
    for (int k = 1; k <= config.expand_radius && target < 0; ++k) {
      for (const int cand : {x + k, x - k}) {
        if (cand < 0 || cand >= dmd_v.nx()) continue;
        bool fits = true;
        for (int gy = y0; gy <= y1 && fits; ++gy) {
          fits = dmd_v.at(cand, gy) + 1.0 <=
                 std::max(maps.cap_v.at(cand, gy), 1.0) *
                     config.congested_ratio;
        }
        if (fits) {
          target = cand;
          break;
        }
      }
    }
    if (target < 0) return false;
    for (int gy = y0; gy <= y1; ++gy) {
      dmd_v.at(x, gy) -= 1.0;
      dmd_v.at(target, gy) += 1.0;
    }
    const int xlo = std::min(x, target), xhi = std::max(x, target);
    if (a_steiner) {
      for (int gx = xlo; gx <= xhi; ++gx) dmd_h.at(gx, ga.gy) += 1.0;
    }
    if (b_steiner) {
      for (int gx = xlo; gx <= xhi; ++gx) dmd_h.at(gx, gb.gy) += 1.0;
    }
  }
  return true;
}

// One two-point segment's Gcell bounding box plus its quantized per-cell
// demand: I-shapes carry 1.0 in their direction, L-shapes the quantized
// average-route probabilities in both.
struct DemandSpan {
  int x0 = 0, x1 = 0, y0 = 0, y1 = 0;
  double qh = 0.0;  // added to dmd_h at every covered Gcell
  double qv = 0.0;  // added to dmd_v at every covered Gcell
};

void spans_of(const GcellGrid& grid, const RsmtTree& tree,
              std::vector<DemandSpan>& out) {
  out.clear();
  out.reserve(tree.segments.size());
  for (const RsmtSegment& seg : tree.segments) {
    const Point& a = tree.points[static_cast<std::size_t>(seg.a)].pos;
    const Point& b = tree.points[static_cast<std::size_t>(seg.b)].pos;
    const GcellIndex ga = grid.index_of(a.x, a.y);
    const GcellIndex gb = grid.index_of(b.x, b.y);
    DemandSpan s;
    s.x0 = std::min(ga.gx, gb.gx);
    s.x1 = std::max(ga.gx, gb.gx);
    s.y0 = std::min(ga.gy, gb.gy);
    s.y1 = std::max(ga.gy, gb.gy);
    if (s.x0 == s.x1 && s.y0 == s.y1) continue;  // covered by pin penalty
    if (s.y0 == s.y1) {
      s.qh = 1.0;  // horizontal I-shape: one unit across the covered Gcells
    } else if (s.x0 == s.x1) {
      s.qv = 1.0;
    } else {
      // L-shape: spread the average demand of the two candidate L routes
      // over the bounding box; each row carries the horizontal crossing
      // with probability 1/#rows, each column the vertical with 1/#cols.
      s.qh = quantize_demand(1.0 / static_cast<double>(s.y1 - s.y0 + 1));
      s.qv = quantize_demand(1.0 / static_cast<double>(s.x1 - s.x0 + 1));
    }
    out.push_back(s);
  }
}

// Row-banded probabilistic demand: every chunk walks all spans but writes
// only the Gcell rows it owns, so per-Gcell addition order equals the
// serial net order for any worker count (and is exact anyway, since all
// contributions are kDemandQuantum multiples).
void accumulate_spans(const GcellGrid& grid,
                      const std::vector<std::vector<DemandSpan>>& spans,
                      Map2D<double>& dmd_h, Map2D<double>& dmd_v) {
  par::parallel_for(
      0, grid.ny(), std::max(1, grid.ny() / 8),
      [&](std::int64_t band_lo, std::int64_t band_hi_excl, int) {
        const int lo = static_cast<int>(band_lo);
        const int hi = static_cast<int>(band_hi_excl) - 1;
        for (const auto& net_spans : spans) {
          for (const DemandSpan& s : net_spans) {
            const int y0 = std::max(s.y0, lo), y1 = std::min(s.y1, hi);
            for (int gy = y0; gy <= y1; ++gy) {
              for (int gx = s.x0; gx <= s.x1; ++gx) {
                if (s.qh != 0.0) dmd_h.at(gx, gy) += s.qh;
                if (s.qv != 0.0) dmd_v.at(gx, gy) += s.qv;
              }
            }
          }
        }
      },
      8);
}

// Detour-imitating expansion over all trees in net order.
int expand_all(const CongestionConfig& config, const GcellGrid& grid,
               const std::vector<RsmtTree>& trees, RoutingMaps& maps) {
  if (!config.enable_detour_expansion) return 0;
  int expanded = 0;
  for (const RsmtTree& tree : trees) {
    for (const RsmtSegment& seg : tree.segments) {
      const RsmtPoint& pa = tree.points[static_cast<std::size_t>(seg.a)];
      const RsmtPoint& pb = tree.points[static_cast<std::size_t>(seg.b)];
      const GcellIndex ga = grid.index_of(pa.pos.x, pa.pos.y);
      const GcellIndex gb = grid.index_of(pb.pos.x, pb.pos.y);
      if (expand_segment(config, maps, ga, gb, pa.is_steiner(),
                         pb.is_steiner())) {
        ++expanded;
      }
    }
  }
  return expanded;
}

}  // namespace

CongestionResult CongestionEstimator::estimate() const {
  // Trees and spans in parallel per net: each net writes only its own
  // slots.
  const std::size_t n_nets = design_.nets.size();
  CongestionResult result;
  result.trees.resize(n_nets);
  std::vector<std::vector<DemandSpan>> spans(n_nets);
  par::parallel_for(
      0, static_cast<std::int64_t>(n_nets), 16,
      [&](std::int64_t nb, std::int64_t ne, int) {
        std::vector<Point> pin_pts;
        for (std::int64_t n = nb; n < ne; ++n) {
          const std::size_t ni = static_cast<std::size_t>(n);
          pin_pts.clear();
          for (PinId pid : design_.nets[ni].pins) {
            pin_pts.push_back(design_.pin_position(pid));
          }
          result.trees[ni] = build_rsmt(pin_pts);
          spans_of(grid_, result.trees[ni], spans[ni]);
        }
      },
      256);

  result.maps = RoutingMaps(grid_, capacity_);
  accumulate_spans(grid_, spans, result.maps.dmd_h, result.maps.dmd_v);
  add_pin_demand(design_, config_.pin_penalty, /*crowding=*/0.0, result.maps);
  result.expanded_segments =
      expand_all(config_, grid_, result.trees, result.maps);
  return result;
}

}  // namespace puffer
