#include "legal/abacus.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <utility>

#include "common/logger.h"
#include "common/parallel.h"
#include "common/timer.h"

namespace puffer {
namespace {

constexpr const char* kTag = "legal";

// World -> site-index conversion tolerance, in *sites*. Conversions first
// subtract the row origin, so the operand is O(num_sites) and an absolute
// tolerance is meaningful at any core offset (the seed code compared
// 1e7-DBU world coordinates against 1e-9/1e-12 absolute epsilons, which
// is below double ULP at that magnitude). All arithmetic after the
// conversion is exact int64.
constexpr double kSiteSnap = 1e-6;

// Guards the cluster-position division against degenerate weights
// (weights are floored at 1.0 below, this is belt-and-braces for NaN /
// denormal areas).
constexpr double kMinWeight = 1e-12;

struct SegCell {
  CellId id = kInvalidId;
  std::int64_t w = 0;   // padded width in sites (physical ceil, min 1, + pad)
  std::int64_t lp = 0;  // left padding in sites (pad / 2)
  std::int64_t t = 0;   // desired slot left edge, site units
  double e = 0.0;       // Abacus weight (cell area, floored at 1.0)
};

struct Cluster {
  std::int64_t x = 0;  // left edge (site units, clamped + rounded)
  std::int64_t w = 0;  // total width
  double e = 0.0;      // total weight
  double q = 0.0;      // sum of e_i * (target_i - offset_i)
};

struct Segment {
  std::int64_t lo = 0, hi = 0;  // static bounds, site units
  std::int64_t used = 0;
  std::vector<SegCell> cells;    // committed, in assignment order
  std::vector<Cluster> clusters;
};

struct RowState {
  std::vector<Segment> segments;
};

// Static per-row geometry: origin, site pitch and the macro-free
// segment intervals in site units.
struct RowGeom {
  double y = 0.0;
  double x0 = 0.0;
  double site = 1.0;
  std::vector<std::pair<std::int64_t, std::int64_t>> segs;
};

// One cell's assignment: its (row, segment) and padded slot, row = -1
// when no segment can hold it.
struct Decision {
  std::int32_t row = -1;
  std::int32_t seg = -1;
  SegCell sc;
};

// Simulates appending `cell` to the segment (the Abacus collapse
// recurrence); with `commit` the merge is applied. Returns false when
// the segment cannot hold the cell — an exact integer capacity check.
bool trial_or_commit(Segment& seg, const SegCell& cell, bool commit,
                     std::int64_t& out_x) {
  if (cell.w > (seg.hi - seg.lo) - seg.used) return false;
  double e = std::max(cell.e, kMinWeight);
  double q = e * static_cast<double>(cell.t);
  std::int64_t w = cell.w;
  std::int64_t offset = 0;  // cell's offset inside the accumulated cluster
  int i = static_cast<int>(seg.clusters.size()) - 1;
  std::int64_t x = 0;
  while (true) {
    const double xr = q / std::max(e, kMinWeight);
    x = std::llround(xr);
    if (x < seg.lo) x = seg.lo;
    if (x > seg.hi - w) x = seg.hi - w;
    if (i < 0) break;
    const Cluster& prev = seg.clusters[static_cast<std::size_t>(i)];
    if (prev.x + prev.w <= x) break;  // exact: site units, no epsilon
    // Merge prev in front of the accumulator.
    q = prev.q + (q - e * static_cast<double>(prev.w));
    e += prev.e;
    w += prev.w;
    offset += prev.w;
    --i;
  }
  out_x = x + offset;
  if (!commit) return true;

  seg.clusters.resize(static_cast<std::size_t>(i + 1));
  seg.clusters.push_back({x, w, e, q});
  seg.cells.push_back(cell);
  seg.used += cell.w;
  return true;
}

// Builds macro-aware row segments: macros are indexed once into per-row
// blockage lists (O(macros x spanned rows), not the O(cells x rows) scan
// of the seed code), then rows convert to site intervals concurrently.
std::vector<RowGeom> build_geometry(const Design& design) {
  const std::size_t nrows = design.rows.size();
  const double row_h = design.rows.front().height;
  const double row_y0 = design.rows.front().y;
  std::vector<std::vector<std::pair<double, double>>> blocks(nrows);
  for (const Cell& c : design.cells) {
    if (!c.is_macro()) continue;
    const Rect r = c.rect();
    const int r0 = std::max(
        0, static_cast<int>(std::floor((r.ylo - row_y0) / row_h)) - 1);
    const int r1 = std::min(
        static_cast<int>(nrows) - 1,
        static_cast<int>(std::ceil((r.yhi - row_y0) / row_h)) + 1);
    for (int ri = r0; ri <= r1; ++ri) {
      const Row& row = design.rows[static_cast<std::size_t>(ri)];
      if (r.ylo < row.y + row.height - 1e-9 && r.yhi > row.y + 1e-9) {
        blocks[static_cast<std::size_t>(ri)].emplace_back(r.xlo, r.xhi);
      }
    }
  }

  std::vector<RowGeom> geom(nrows);
  par::parallel_for(0, static_cast<std::int64_t>(nrows), 8,
                    [&](std::int64_t b, std::int64_t e, int) {
    for (std::int64_t ri = b; ri < e; ++ri) {
      const Row& row = design.rows[static_cast<std::size_t>(ri)];
      RowGeom& g = geom[static_cast<std::size_t>(ri)];
      g.y = row.y;
      g.x0 = row.x_lo;
      g.site = row.site_width > 0.0 ? row.site_width : 1.0;
      // Row::num_sites is authoritative — never re-derived from world
      // coordinates (the seed's floor((x_hi-x_lo)/site + 1e-9) loses a
      // site once the offset exceeds ~1e7 DBU).
      const std::int64_t row_sites = row.num_sites;
      auto& blist = blocks[static_cast<std::size_t>(ri)];
      std::sort(blist.begin(), blist.end());
      std::int64_t cursor = 0;
      auto push_segment = [&](std::int64_t lo, std::int64_t hi) {
        if (hi - lo >= 1) g.segs.emplace_back(lo, hi);
      };
      for (const auto& [blo, bhi] : blist) {
        // Last fully-free site before the blockage / first after it.
        std::int64_t blo_s = static_cast<std::int64_t>(
            std::floor((blo - g.x0) / g.site + kSiteSnap));
        std::int64_t bhi_s = static_cast<std::int64_t>(
            std::ceil((bhi - g.x0) / g.site - kSiteSnap));
        blo_s = std::clamp<std::int64_t>(blo_s, 0, row_sites);
        bhi_s = std::clamp<std::int64_t>(bhi_s, 0, row_sites);
        if (blo_s > cursor) push_segment(cursor, blo_s);
        cursor = std::max(cursor, bhi_s);
        if (cursor >= row_sites) break;
      }
      if (cursor < row_sites) push_segment(cursor, row_sites);
    }
  });
  return geom;
}

// --- the run engine ------------------------------------------------------
//
// A run legalizes one input state (positions px/py + padding) over the
// static geometry. The serial walk fixes every cell's (row, segment,
// slot); rows finalize concurrently afterwards.
struct Engine {
  const Design& design;
  const LegalizeConfig& config;
  const std::vector<RowGeom>& geom;
  const std::vector<double>& px;  // input positions (this call)
  const std::vector<double>& py;
  const std::vector<int>& pads;   // normalized per-cell padding (sites)

  double row_h = 1.0, row_y0 = 0.0;
  int nrows = 0;

  std::vector<CellId> order;  // movable cells by (x, id)
  std::vector<RowState> rows;

  Engine(const Design& d, const LegalizeConfig& cfg,
         const std::vector<RowGeom>& g, const std::vector<double>& x,
         const std::vector<double>& y, const std::vector<int>& p)
      : design(d), config(cfg), geom(g), px(x), py(y), pads(p) {
    nrows = static_cast<int>(design.rows.size());
    row_h = design.rows.front().height;
    row_y0 = design.rows.front().y;
    build_order();
    rows.resize(static_cast<std::size_t>(nrows));
    for (int r = 0; r < nrows; ++r) {
      auto& segs = rows[static_cast<std::size_t>(r)].segments;
      segs.resize(geom[static_cast<std::size_t>(r)].segs.size());
      for (std::size_t s = 0; s < segs.size(); ++s) {
        segs[s].lo = geom[static_cast<std::size_t>(r)].segs[s].first;
        segs[s].hi = geom[static_cast<std::size_t>(r)].segs[s].second;
      }
    }
  }

  void build_order() {
    for (CellId c = 0; c < static_cast<CellId>(design.cells.size()); ++c) {
      if (design.cells[static_cast<std::size_t>(c)].movable()) {
        order.push_back(c);
      }
    }
    std::sort(order.begin(), order.end(), [&](CellId a, CellId b) {
      const double ax = px[static_cast<std::size_t>(a)];
      const double bx = px[static_cast<std::size_t>(b)];
      if (ax != bx) return ax < bx;
      return a < b;  // deterministic tie-break
    });
  }

  // Full candidate search for one cell. Reads row/segment state only
  // after the static distance bounds pass.
  Decision search(CellId cid) {
    const std::size_t ci = static_cast<std::size_t>(cid);
    const Cell& cell = design.cells[ci];
    const double cx = px[ci], cy = py[ci];
    const int pad = pads[ci];

    Decision d;
    double best_cost = std::numeric_limits<double>::max();
    const int home =
        static_cast<int>(std::llround((cy - row_y0) / row_h));

    for (int ks = 0; ks < config.max_row_search * 2; ++ks) {
      const int r = home + ((ks % 2 == 0) ? ks / 2 : -(ks / 2 + 1));
      if (r < 0 || r >= nrows) continue;
      const RowGeom& g = geom[static_cast<std::size_t>(r)];
      const double dy = g.y - cy;
      if (dy * dy >= best_cost) {
        // Rows are visited in increasing |dy|; once the vertical
        // displacement alone exceeds the best cost on both sides, stop.
        if (ks > config.max_row_search) break;
        continue;
      }
      // Padded, site-quantized width for this row's pitch (physical part
      // floored at one site so zero-area cells still own a slot).
      const std::int64_t pw = std::max<std::int64_t>(
          1, static_cast<std::int64_t>(
                 std::ceil(cell.width / g.site - kSiteSnap)));
      SegCell sc;
      sc.id = cid;
      sc.w = pw + pad;
      sc.lp = pad / 2;
      sc.e = std::max(cell.area(), 1.0);  // zero-weight guard
      for (std::size_t s = 0; s < g.segs.size(); ++s) {
        const auto [lo, hi] = g.segs[s];
        // Static lower bound on dx: achievable slot positions lie inside
        // the segment, so the distance to the segment interval bounds the
        // final displacement from below. No state is read when it prunes.
        const double sx0 = g.x0 + static_cast<double>(lo) * g.site;
        const double sx1 = g.x0 + static_cast<double>(hi) * g.site;
        const double dxmin =
            cx < sx0 ? sx0 - cx : (cx > sx1 ? cx - sx1 : 0.0);
        if (dxmin * dxmin + dy * dy >= best_cost) continue;
        Segment& seg = rows[static_cast<std::size_t>(r)].segments[s];
        const double raw =
            (cx - static_cast<double>(pad) * g.site * 0.5 - g.x0) / g.site;
        std::int64_t t = std::llround(raw);
        const std::int64_t tmax = std::max(lo, hi - sc.w);
        t = std::clamp(t, lo, tmax);
        sc.t = t;
        std::int64_t x = 0;
        if (!trial_or_commit(seg, sc, /*commit=*/false, x)) continue;
        const double dx = (g.x0 + static_cast<double>(x) * g.site +
                           static_cast<double>(pad) * g.site * 0.5) -
                          cx;
        const double cost = dx * dx + dy * dy;
        if (cost < best_cost) {
          best_cost = cost;
          d.row = r;
          d.seg = static_cast<std::int32_t>(s);
          d.sc = sc;
        }
      }
    }
    return d;
  }

  // The serial assignment walk: every cell in (x, id) order takes its
  // best candidate slot. Returns the number of cells no segment holds.
  int walk(std::vector<Decision>& decisions) {
    int failed = 0;
    for (const CellId cid : order) {
      Decision d = search(cid);
      if (d.row >= 0) {
        std::int64_t x = 0;
        trial_or_commit(rows[static_cast<std::size_t>(d.row)]
                            .segments[static_cast<std::size_t>(d.seg)],
                        d.sc, /*commit=*/true, x);
      } else {
        ++failed;
      }
      decisions[static_cast<std::size_t>(cid)] = d;
    }
    return failed;
  }

  // Concurrent per-row finalization: recover slot positions from the
  // settled clusters and write the output arrays. Rows own disjoint cell
  // sets, so the parallel writes are race-free and the result is
  // bit-identical for any thread count.
  void finalize(std::vector<double>& ox, std::vector<double>& oy) const {
    par::parallel_for(0, nrows, 4, [&](std::int64_t b, std::int64_t e, int) {
      for (std::int64_t r = b; r < e; ++r) {
        const RowGeom& g = geom[static_cast<std::size_t>(r)];
        for (const Segment& seg : rows[static_cast<std::size_t>(r)].segments) {
          std::size_t cell_idx = 0;
          std::int64_t cursor = seg.lo;
          for (const Cluster& cl : seg.clusters) {
            std::int64_t x = cl.x;
            if (x < cursor) x = cursor;
            const std::int64_t xmax = std::max(cursor, seg.hi - cl.w);
            if (x > xmax) x = xmax;
            cursor = x + cl.w;
            std::int64_t filled = 0;
            while (cell_idx < seg.cells.size() && filled < cl.w) {
              const SegCell& sc = seg.cells[cell_idx];
              const std::size_t ci = static_cast<std::size_t>(sc.id);
              ox[ci] = g.x0 +
                       static_cast<double>(x + filled + sc.lp) * g.site;
              oy[ci] = g.y;
              filled += sc.w;
              ++cell_idx;
            }
          }
        }
      }
    });
  }
};

std::vector<int> normalize_pads(const Design& design,
                                const std::vector<int>& pad_sites) {
  std::vector<int> pads(design.cells.size(), 0);
  const std::size_t n = std::min(pads.size(), pad_sites.size());
  for (std::size_t i = 0; i < n; ++i) pads[i] = std::max(0, pad_sites[i]);
  return pads;
}

struct Displacement {
  double sum = 0.0;
  double mx = 0.0;
  int placed = 0;
  Displacement& operator+=(const Displacement& o) {
    sum += o.sum;
    mx = std::max(mx, o.mx);
    placed += o.placed;
    return *this;
  }
};

// Writes outputs into the design and folds the displacement metrics in
// deterministic chunk order.
void write_back(Design& design, const std::vector<Decision>& decisions,
                const std::vector<double>& px, const std::vector<double>& py,
                std::vector<double>& ox, std::vector<double>& oy,
                LegalizeResult& result) {
  const std::int64_t n = static_cast<std::int64_t>(design.cells.size());
  const Displacement d = par::parallel_reduce(
      0, n, 4096, Displacement{}, [&](std::int64_t b, std::int64_t e) {
        Displacement part;
        for (std::int64_t i = b; i < e; ++i) {
          const std::size_t ci = static_cast<std::size_t>(i);
          Cell& cell = design.cells[ci];
          if (!cell.movable()) continue;
          if (decisions[ci].row < 0) {
            ox[ci] = px[ci];  // failed: left at the input position
            oy[ci] = py[ci];
            cell.x = px[ci];
            cell.y = py[ci];
            continue;
          }
          cell.x = ox[ci];
          cell.y = oy[ci];
          const double disp =
              std::abs(ox[ci] - px[ci]) + std::abs(oy[ci] - py[ci]);
          part.sum += disp;
          part.mx = std::max(part.mx, disp);
          ++part.placed;
        }
        return part;
      });
  result.total_displacement = d.sum;
  result.max_displacement = d.mx;
  result.placed = d.placed;
}

}  // namespace

LegalizeConfig validate_legalize_config(LegalizeConfig config) {
  if (config.max_row_search <= 0) {
    throw std::invalid_argument(
        "LegalizeConfig.max_row_search must be positive");
  }
  return config;
}

LegalizeResult legalize(Design& design, const std::vector<int>& pad_sites,
                        const LegalizeConfig& config) {
  const LegalizeConfig cfg = validate_legalize_config(config);
  LegalizeResult result;
  Timer timer;
  if (design.rows.empty()) {
    result.success = false;
    return result;
  }
  const std::vector<RowGeom> geom = build_geometry(design);
  std::vector<double> px(design.cells.size()), py(design.cells.size());
  for (std::size_t i = 0; i < design.cells.size(); ++i) {
    px[i] = design.cells[i].x;
    py[i] = design.cells[i].y;
  }
  const std::vector<int> pads = normalize_pads(design, pad_sites);

  Engine eng(design, cfg, geom, px, py, pads);
  std::vector<Decision> decisions(design.cells.size());
  result.failed_cells = eng.walk(decisions);

  std::vector<double> ox(design.cells.size(), 0.0);
  std::vector<double> oy(design.cells.size(), 0.0);
  eng.finalize(ox, oy);
  write_back(design, decisions, px, py, ox, oy, result);
  result.success = result.failed_cells == 0;
  result.time_s = timer.elapsed_seconds();
  if (result.failed_cells > 0) {
    PUFFER_LOG_WARN(kTag, "%d cells could not be legalized",
                    result.failed_cells);
  }
  return result;
}

}  // namespace puffer
