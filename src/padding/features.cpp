#include "padding/features.h"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "common/parallel.h"
#include "common/timer.h"

namespace puffer {

double FeatureVector::operator[](int i) const {
  switch (i) {
    case 0: return local_cg;
    case 1: return local_pin;
    case 2: return sur_cg;
    case 3: return sur_pin;
    case 4: return pin_cg;
    default: throw std::out_of_range("FeatureVector index");
  }
}

FeatureExtractor::FeatureExtractor(const Design& design, FeatureConfig config)
    : design_(design), config_(config) {}

namespace {

// Sentinel for "no candidate path" (a pin with no incident segments).
constexpr std::int64_t kNoPath = std::numeric_limits<std::int64_t>::max();

// --- shared integer primitives and final formulas ----------------------
// Both extractor paths compute identical int64 primitives (span maxima,
// window sums, per-pin path minima) and feed them through these helpers,
// so legacy-vs-fast bit-identity follows from integer equality alone.

// Minimum over candidate L and Z paths between Gcells a and b of the
// maximum quantized Cg along the path (Eq. 13 inner terms). h(x0, x1, y)
// and v(x, y0, y1) are span-maximum functors accepting unordered
// endpoints.
template <typename HSpan, typename VSpan>
std::int64_t best_path_q(int agx, int agy, int bgx, int bgy, int z_candidates,
                         const HSpan& h, const VSpan& v) {
  if (agx == bgx && agy == bgy) return h(agx, agx, agy);
  if (agy == bgy) return h(agx, bgx, agy);
  if (agx == bgx) return v(agx, agy, bgy);

  // Two L-shaped paths.
  std::int64_t best = std::max(h(agx, bgx, agy), v(bgx, agy, bgy));
  best = std::min(best, std::max(v(agx, agy, bgy), h(agx, bgx, bgy)));

  // Z-shaped paths: HVH with an intermediate column, VHV with an
  // intermediate row; sample at most z_candidates interior positions.
  const int x0 = std::min(agx, bgx), x1 = std::max(agx, bgx);
  const int y0 = std::min(agy, bgy), y1 = std::max(agy, bgy);
  const int span_x = x1 - x0, span_y = y1 - y0;
  const int nx = std::min(z_candidates, std::max(0, span_x - 1));
  for (int k = 1; k <= nx; ++k) {
    const int mid = x0 + k * span_x / (nx + 1);
    if (mid <= x0 || mid >= x1) continue;
    const std::int64_t cg =
        std::max({h(agx, mid, agy), v(mid, agy, bgy), h(mid, bgx, bgy)});
    best = std::min(best, cg);
  }
  const int ny = std::min(z_candidates, std::max(0, span_y - 1));
  for (int k = 1; k <= ny; ++k) {
    const int mid = y0 + k * span_y / (ny + 1);
    if (mid <= y0 || mid >= y1) continue;
    const std::int64_t cg =
        std::max({v(agx, agy, mid), h(agx, bgx, mid), v(bgx, mid, bgy)});
    best = std::min(best, cg);
  }
  return best;
}

// Same value as best_path_q, evaluated with candidate pruning: a
// candidate path is abandoned as soon as one of its legs reaches the
// running best, because its max then cannot lower the minimum -- the
// returned int64 is bit-identical to the exhaustive evaluation. Used by
// the fast path, where each leg is an O(1) RMQ lookup and skipping the
// remaining legs is the dominant saving; the oracle keeps the
// exhaustive order.
template <typename Pt, typename HSpan, typename VSpan>
std::int64_t best_path_q_pruned(int agx, int agy, int bgx, int bgy,
                                int z_candidates, const Pt& p, const HSpan& h,
                                const VSpan& v) {
  if (agx == bgx && agy == bgy) return p(agx, agy);
  if (agy == bgy) return h(agx, bgx, agy);
  if (agx == bgx) return v(agx, agy, bgy);

  // Every candidate path passes through both endpoint Gcells, so the
  // minimum over paths can never drop below the larger endpoint value.
  // Once the running best reaches that floor, the remaining candidates
  // cannot improve it and the search stops -- same returned bits. The
  // point lookups read the quantized map directly (L2-resident) rather
  // than paying the sparse table's scattered loads.
  const std::int64_t floor_q = std::max(p(agx, agy), p(bgx, bgy));

  std::int64_t best = std::max(h(agx, bgx, agy), v(bgx, agy, bgy));
  if (best <= floor_q) return best;
  const std::int64_t l1 = v(agx, agy, bgy);
  if (l1 < best) best = std::min(best, std::max(l1, h(agx, bgx, bgy)));
  if (best <= floor_q) return best;

  const int x0 = std::min(agx, bgx), x1 = std::max(agx, bgx);
  const int y0 = std::min(agy, bgy), y1 = std::max(agy, bgy);
  const int span_x = x1 - x0, span_y = y1 - y0;
  const int nx = std::min(z_candidates, std::max(0, span_x - 1));
  for (int k = 1; k <= nx; ++k) {
    const int mid = x0 + k * span_x / (nx + 1);
    if (mid <= x0 || mid >= x1) continue;
    const std::int64_t a = h(agx, mid, agy);
    if (a >= best) continue;
    const std::int64_t b = v(mid, agy, bgy);
    if (b >= best) continue;
    best = std::min(best, std::max({a, b, h(mid, bgx, bgy)}));
    if (best <= floor_q) return best;
  }
  const int ny = std::min(z_candidates, std::max(0, span_y - 1));
  for (int k = 1; k <= ny; ++k) {
    const int mid = y0 + k * span_y / (ny + 1);
    if (mid <= y0 || mid >= y1) continue;
    const std::int64_t a = v(agx, agy, mid);
    if (a >= best) continue;
    const std::int64_t b = h(agx, bgx, mid);
    if (b >= best) continue;
    best = std::min(best, std::max({a, b, v(bgx, mid, bgy)}));
    if (best <= floor_q) return best;
  }
  return best;
}

// Per-pin Eq. 13 minima of one net: for each pin, the minimum over its
// incident tree segments of best_path_q over the segment's endpoint
// Gcells. segs(pt, fn) invokes fn(segment_index) for each incident
// segment of tree point pt.
template <typename HSpan, typename VSpan, typename SegsOfPoint>
void pin_best_of_net(const Net& net, const RsmtTree& tree, int z_candidates,
                     const HSpan& h, const VSpan& v, const SegsOfPoint& segs,
                     const std::int32_t* pt_gx, const std::int32_t* pt_gy,
                     std::vector<std::int64_t>& out) {
  out.assign(net.pins.size(), kNoPath);
  for (std::size_t k = 0; k < net.pins.size(); ++k) {
    const int pt = tree.pin_point[k];
    if (pt < 0) continue;
    std::int64_t best = kNoPath;
    segs(pt, [&](int si) {
      const RsmtSegment& seg = tree.segments[static_cast<std::size_t>(si)];
      best = std::min(
          best, best_path_q(pt_gx[seg.a], pt_gy[seg.a], pt_gx[seg.b],
                            pt_gy[seg.b], z_candidates, h, v));
    });
    out[k] = best;
  }
}

// Signed deviation of a quantized pin density from the design-wide mean
// (in quantum units); raw value when the mean is zero (empty design).
double pd_norm_value(std::int64_t q, double mean_q) {
  return mean_q > 0.0 ? static_cast<double>(q) / mean_q - 1.0
                      : dequantize_feature(q);
}

double window_mean_cg(std::int64_t sum, int count) {
  return dequantize_feature(sum) / static_cast<double>(count);
}

double window_mean_pd(std::int64_t sum, int count, double mean_q) {
  return mean_q > 0.0 ? static_cast<double>(sum) / static_cast<double>(count) /
                            mean_q -
                            1.0
                      : dequantize_feature(sum) / static_cast<double>(count);
}

// Free sites per Gcell: Gcell area minus overlapped macro area, in site
// units, floored at one site. Accumulation order (cell index, then
// row-major Gcells) is fixed so both extractor paths produce the same
// bits.
std::vector<double> build_sites(const Design& design, const GcellGrid& grid) {
  const int nx = grid.nx(), ny = grid.ny();
  const std::size_t n =
      static_cast<std::size_t>(nx) * static_cast<std::size_t>(ny);
  std::vector<double> macro_area(n, 0.0);
  for (const Cell& c : design.cells) {
    if (!c.is_macro()) continue;
    const Rect r = c.rect().clamped(grid.area());
    if (r.empty()) continue;
    GcellIndex lo, hi;
    grid.range_of(r, lo, hi);
    for (int gy = lo.gy; gy <= hi.gy; ++gy) {
      for (int gx = lo.gx; gx <= hi.gx; ++gx) {
        macro_area[static_cast<std::size_t>(gy) * nx + gx] +=
            grid.gcell_rect(gx, gy).overlap_area(r);
      }
    }
  }
  const double site_area = design.tech.site_width * design.tech.row_height;
  const double gcell_area = grid.gcell_w() * grid.gcell_h();
  std::vector<double> sites(n);
  for (std::size_t flat = 0; flat < n; ++flat) {
    sites[flat] = std::max(1.0, (gcell_area - macro_area[flat]) / site_area);
  }
  return sites;
}

// One cell's feature vector from the quantized maps. lo/hi is the cell's
// inclusive overlapped-Gcell range.
// cg_win/pd_win are inclusive int64 window-sum functors (SAT on the fast
// path, brute-force scans on the oracle); the integer max loops are
// shared outright.
template <typename CgWin, typename PdWin>
FeatureVector assemble_cell(const GcellGrid& grid, GcellIndex lo,
                            GcellIndex hi, int kernel,
                            const std::vector<std::int64_t>& qcg,
                            const std::vector<std::int64_t>& pdq,
                            double mean_q, std::int64_t pin_q,
                            const CgWin& cg_win, const PdWin& pd_win) {
  const int nx = grid.nx();
  FeatureVector f;

  // Local: max over overlapped Gcells (Eq. 9); signed values preserved.
  // The pin-density max is additionally floored at the mean (the seed
  // semantics: a zero initial accumulator under the normalized map).
  std::int64_t lcg = std::numeric_limits<std::int64_t>::min();
  std::int64_t lpin = std::numeric_limits<std::int64_t>::min();
  for (int gy = lo.gy; gy <= hi.gy; ++gy) {
    const std::size_t row = static_cast<std::size_t>(gy) * nx;
    for (int gx = lo.gx; gx <= hi.gx; ++gx) {
      lcg = std::max(lcg, qcg[row + gx]);
      lpin = std::max(lpin, pdq[row + gx]);
    }
  }
  f.local_cg = dequantize_feature(lcg);
  f.local_pin = std::max(0.0, pd_norm_value(lpin, mean_q));

  // CNN-inspired: mean over the kernel-expanded bounding box.
  const int sx0 = std::max(0, lo.gx - kernel);
  const int sx1 = std::min(grid.nx() - 1, hi.gx + kernel);
  const int sy0 = std::max(0, lo.gy - kernel);
  const int sy1 = std::min(grid.ny() - 1, hi.gy + kernel);
  const int count = (sx1 - sx0 + 1) * (sy1 - sy0 + 1);
  f.sur_cg = window_mean_cg(cg_win(sx0, sx1, sy0, sy1), count);
  f.sur_pin = window_mean_pd(pd_win(sx0, sx1, sy0, sy1), count, mean_q);

  // GNN-inspired.
  f.pin_cg = dequantize_feature(pin_q);
  return f;
}

// Quantized maps shared by both extractor paths: combined congestion and
// pins-per-site density (with its exact sum) for one round.
struct QuantizedMaps {
  std::vector<std::int64_t> qcg;
  std::vector<std::int64_t> pdq;
  double mean_q = 0.0;  // mean of pdq, in quantum units
};

QuantizedMaps quantize_maps(const Design& design, const RoutingMaps& maps) {
  const GcellGrid& grid = maps.grid;
  const int nx = grid.nx(), ny = grid.ny();
  const std::size_t n_gcells =
      static_cast<std::size_t>(nx) * static_cast<std::size_t>(ny);
  QuantizedMaps q;
  q.qcg.resize(n_gcells);
  std::size_t flat = 0;
  for (int gy = 0; gy < ny; ++gy) {
    for (int gx = 0; gx < nx; ++gx) {
      q.qcg[flat++] = quantize_feature(maps.cg(gx, gy));
    }
  }

  // Pins per Gcell over available sites.
  std::vector<std::int32_t> count(n_gcells, 0);
  for (const Pin& pin : design.pins) {
    const Cell& c = design.cells[static_cast<std::size_t>(pin.cell)];
    const GcellIndex g = grid.index_of(c.x + pin.dx, c.y + pin.dy);
    ++count[static_cast<std::size_t>(g.gy) * nx + g.gx];
  }
  const std::vector<double> sites = build_sites(design, grid);
  q.pdq.resize(n_gcells);
  std::int64_t total = 0;
  for (std::size_t i = 0; i < n_gcells; ++i) {
    q.pdq[i] = quantize_feature(static_cast<double>(count[i]) / sites[i]);
    total += q.pdq[i];
  }
  q.mean_q = static_cast<double>(total) / static_cast<double>(n_gcells);
  return q;
}

// Per-worker scratch of the fast path: one net's tree points in Gcells,
// its CSR point -> incident-segment lists, and the per-segment memo of
// best_path_q_pruned.
struct NetScratch {
  std::vector<std::int32_t> gx, gy, inc_off, inc_seg;
  std::vector<std::int64_t> seg_q;
};

// Per-pin Eq. 13 minima of one net (fast path) into pb[0, #pins), with
// span maxima from the RMQ and point values read off the quantized map.
void fast_pin_best(const Net& net, const RsmtTree& tree, const GcellGrid& grid,
                   int z_candidates, const std::vector<std::int64_t>& qcg,
                   const RowColRmq& rmq, NetScratch& s, std::int64_t* pb) {
  const std::size_t npts = tree.points.size();
  s.gx.resize(npts);
  s.gy.resize(npts);
  for (std::size_t pi = 0; pi < npts; ++pi) {
    const GcellIndex g =
        grid.index_of(tree.points[pi].pos.x, tree.points[pi].pos.y);
    s.gx[pi] = g.gx;
    s.gy[pi] = g.gy;
  }
  const std::int64_t* qmap = qcg.data();
  const std::size_t snx = static_cast<std::size_t>(grid.nx());
  const auto p = [qmap, snx](int gx, int gy) {
    return qmap[static_cast<std::size_t>(gy) * snx +
                static_cast<std::size_t>(gx)];
  };
  const auto h = [&rmq](int x0, int x1, int y) {
    return rmq.row_max(y, std::min(x0, x1), std::max(x0, x1));
  };
  const auto v = [&rmq](int x, int y0, int y1) {
    return rmq.col_max(x, std::min(y0, y1), std::max(y0, y1));
  };
  const auto seg_best = [&](const RsmtSegment& seg) {
    const std::size_t a = static_cast<std::size_t>(seg.a);
    const std::size_t b = static_cast<std::size_t>(seg.b);
    return best_path_q_pruned(s.gx[a], s.gy[a], s.gx[b], s.gy[b],
                              z_candidates, p, h, v);
  };
  // Two-pin nets (the bulk of any netlist) have exactly one segment and
  // both tree points are its endpoints: every mapped pin takes the same
  // value, no incidence walk or memo needed.
  if (tree.segments.size() == 1) {
    const std::int64_t q = seg_best(tree.segments[0]);
    for (std::size_t k = 0; k < net.pins.size(); ++k) {
      pb[k] = tree.pin_point[k] < 0 ? kNoPath : q;
    }
    return;
  }
  // CSR point -> incident segments (tree.build_incidence() without the
  // per-point vectors): count, prefix-sum, then fill using the offsets as
  // cursors and shift them back into place.
  s.inc_off.assign(npts + 1, 0);
  s.inc_seg.resize(2 * tree.segments.size());
  for (const RsmtSegment& seg : tree.segments) {
    ++s.inc_off[static_cast<std::size_t>(seg.a) + 1];
    ++s.inc_off[static_cast<std::size_t>(seg.b) + 1];
  }
  for (std::size_t i = 1; i <= npts; ++i) s.inc_off[i] += s.inc_off[i - 1];
  for (std::size_t si = 0; si < tree.segments.size(); ++si) {
    const RsmtSegment& seg = tree.segments[si];
    for (const int pt : {seg.a, seg.b}) {
      std::int32_t& cursor = s.inc_off[static_cast<std::size_t>(pt)];
      s.inc_seg[static_cast<std::size_t>(cursor++)] =
          static_cast<std::int32_t>(si);
    }
  }
  for (std::size_t i = npts; i >= 1; --i) s.inc_off[i] = s.inc_off[i - 1];
  s.inc_off[0] = 0;
  // Memoized per-segment evaluation: best_path_q is symmetric in its
  // endpoints (the L candidates map onto each other under a<->b and the
  // Z interior positions come from the sorted span), so a segment shared
  // by several pins -- or by several net pins quantized onto the same
  // tree point -- is evaluated once. Quantized Cg is >= 0, so -1 is a
  // free "not yet evaluated" sentinel. The oracle evaluates per
  // (pin, segment) pair; the minima are identical by symmetry.
  s.seg_q.assign(tree.segments.size(), -1);
  for (std::size_t k = 0; k < net.pins.size(); ++k) {
    pb[k] = kNoPath;
    const int pt = tree.pin_point[k];
    if (pt < 0) continue;
    std::int64_t best = kNoPath;
    const std::int32_t b = s.inc_off[static_cast<std::size_t>(pt)];
    const std::int32_t en = s.inc_off[static_cast<std::size_t>(pt) + 1];
    for (std::int32_t i = b; i < en; ++i) {
      const std::size_t si =
          static_cast<std::size_t>(s.inc_seg[static_cast<std::size_t>(i)]);
      if (s.seg_q[si] < 0) s.seg_q[si] = seg_best(tree.segments[si]);
      best = std::min(best, s.seg_q[si]);
    }
    pb[k] = best;
  }
}

}  // namespace

std::vector<FeatureVector> FeatureExtractor::extract(
    const CongestionResult& congestion, const std::vector<CellId>& cells) {
  Timer timer;
  ++metrics_.extracts;
  metrics_.nets_recomputed += static_cast<std::int64_t>(design_.nets.size());
  std::vector<FeatureVector> out = config_.use_legacy_extractor
                                       ? extract_legacy(congestion, cells)
                                       : extract_fast(congestion, cells);
  metrics_.feature_time_s += timer.elapsed_seconds();
  return out;
}

// --- scalar from-scratch oracle ----------------------------------------
// The pre-pipeline extractor on quantized integers: serial, stateless,
// O(span) path scans, per-round incidence rebuilds, brute-force window
// sums. Shares every integer primitive and final formula with the fast
// path, so the two are bit-identical by construction.
std::vector<FeatureVector> FeatureExtractor::extract_legacy(
    const CongestionResult& congestion, const std::vector<CellId>& cells) const {
  const GcellGrid& grid = congestion.maps.grid;
  const int nx = grid.nx();
  const QuantizedMaps qm = quantize_maps(design_, congestion.maps);
  const std::vector<std::int64_t>& qcg = qm.qcg;
  const std::vector<std::int64_t>& pdq = qm.pdq;

  // Per-pin congestion (GNN feature), accumulated per cell (Eq. 12).
  const auto h = [&](int x0, int x1, int y) {
    std::int64_t m = std::numeric_limits<std::int64_t>::min();
    const std::size_t row = static_cast<std::size_t>(y) * nx;
    for (int gx = std::min(x0, x1); gx <= std::max(x0, x1); ++gx) {
      m = std::max(m, qcg[row + gx]);
    }
    return m;
  };
  const auto v = [&](int x, int y0, int y1) {
    std::int64_t m = std::numeric_limits<std::int64_t>::min();
    for (int gy = std::min(y0, y1); gy <= std::max(y0, y1); ++gy) {
      m = std::max(m, qcg[static_cast<std::size_t>(gy) * nx + x]);
    }
    return m;
  };
  std::vector<std::int64_t> cell_pin_q(design_.cells.size(), 0);
  std::vector<std::int32_t> pt_gx, pt_gy;
  std::vector<std::int64_t> pin_best;
  for (std::size_t n = 0; n < design_.nets.size(); ++n) {
    const Net& net = design_.nets[n];
    const RsmtTree& tree = congestion.trees[n];
    if (tree.segments.empty()) continue;
    const auto incidence = tree.build_incidence();
    pt_gx.resize(tree.points.size());
    pt_gy.resize(tree.points.size());
    for (std::size_t pi = 0; pi < tree.points.size(); ++pi) {
      const GcellIndex g =
          grid.index_of(tree.points[pi].pos.x, tree.points[pi].pos.y);
      pt_gx[pi] = g.gx;
      pt_gy[pi] = g.gy;
    }
    const auto segs = [&](int pt, auto&& fn) {
      for (int si : incidence[static_cast<std::size_t>(pt)]) fn(si);
    };
    pin_best_of_net(net, tree, config_.z_candidates, h, v, segs, pt_gx.data(),
                    pt_gy.data(), pin_best);
    for (std::size_t k = 0; k < net.pins.size(); ++k) {
      if (pin_best[k] == kNoPath) continue;
      const Pin& pin = design_.pins[static_cast<std::size_t>(net.pins[k])];
      cell_pin_q[static_cast<std::size_t>(pin.cell)] += pin_best[k];
    }
  }

  // Assemble per-cell features with brute-force window sums.
  const auto cg_win = [&](int x0, int x1, int y0, int y1) {
    std::int64_t s = 0;
    for (int gy = y0; gy <= y1; ++gy) {
      const std::size_t row = static_cast<std::size_t>(gy) * nx;
      for (int gx = x0; gx <= x1; ++gx) s += qcg[row + gx];
    }
    return s;
  };
  const auto pd_win = [&](int x0, int x1, int y0, int y1) {
    std::int64_t s = 0;
    for (int gy = y0; gy <= y1; ++gy) {
      const std::size_t row = static_cast<std::size_t>(gy) * nx;
      for (int gx = x0; gx <= x1; ++gx) s += pdq[row + gx];
    }
    return s;
  };
  std::vector<FeatureVector> out;
  out.reserve(cells.size());
  for (CellId cid : cells) {
    const Cell& cell = design_.cells[static_cast<std::size_t>(cid)];
    GcellIndex lo, hi;
    grid.range_of(cell.rect(), lo, hi);
    out.push_back(assemble_cell(grid, lo, hi, config_.kernel_gcells, qcg, pdq,
                                qm.mean_q,
                                cell_pin_q[static_cast<std::size_t>(cid)],
                                cg_win, pd_win));
  }
  return out;
}

// --- fast path -------------------------------------------------------------
// The same integer primitives as the oracle, computed from this round's
// inputs with O(1) queries: RMQ span maxima, summed-area window sums,
// per-net path minima and per-cell assembly fanned out over
// common/parallel with a serial in-order fold in between.
std::vector<FeatureVector> FeatureExtractor::extract_fast(
    const CongestionResult& congestion, const std::vector<CellId>& cells) const {
  const GcellGrid& grid = congestion.maps.grid;
  const int nx = grid.nx(), ny = grid.ny();
  const QuantizedMaps qm = quantize_maps(design_, congestion.maps);
  RowColRmq rmq;
  rmq.build(qm.qcg, nx, ny);
  SummedAreaTable sat_cg, sat_pd;
  sat_cg.build(qm.qcg, nx, ny);
  sat_pd.build(qm.pdq, nx, ny);

  // Per-pin Eq. 13 minima in one flat array: net n owns the slots
  // [pin_off[n], pin_off[n+1]), so parallel chunks write disjoint slices.
  const std::size_t n_nets = design_.nets.size();
  std::vector<std::int32_t> pin_off(n_nets + 1, 0);
  for (std::size_t n = 0; n < n_nets; ++n) {
    pin_off[n + 1] =
        pin_off[n] + static_cast<std::int32_t>(design_.nets[n].pins.size());
  }
  std::vector<std::int64_t> pin_best(static_cast<std::size_t>(pin_off.back()),
                                     kNoPath);
  par::parallel_for(
      0, static_cast<std::int64_t>(n_nets), 16,
      [&](std::int64_t b, std::int64_t en, int /*chunk*/) {
        NetScratch scratch;
        for (std::int64_t i = b; i < en; ++i) {
          const std::size_t n = static_cast<std::size_t>(i);
          const RsmtTree& tree = congestion.trees[n];
          if (tree.segments.empty()) continue;
          fast_pin_best(design_.nets[n], tree, grid, config_.z_candidates,
                        qm.qcg, rmq, scratch,
                        pin_best.data() + static_cast<std::size_t>(pin_off[n]));
        }
      },
      256);

  // Serial in-order fold of the per-pin minima into per-cell sums (integer
  // adds; any order would give the same bits, the fixed order keeps the
  // idiom auditable).
  std::vector<std::int64_t> cell_pin_q(design_.cells.size(), 0);
  for (std::size_t n = 0; n < n_nets; ++n) {
    const Net& net = design_.nets[n];
    for (std::size_t k = 0; k < net.pins.size(); ++k) {
      const std::int64_t q =
          pin_best[static_cast<std::size_t>(pin_off[n]) + k];
      if (q == kNoPath) continue;
      const Pin& pin = design_.pins[static_cast<std::size_t>(net.pins[k])];
      cell_pin_q[static_cast<std::size_t>(pin.cell)] += q;
    }
  }

  // Per-cell assembly fan-out: disjoint chunk-owned output slots, all
  // inputs read-only.
  const auto cg_win = [&sat_cg](int x0, int x1, int y0, int y1) {
    return sat_cg.window_sum(x0, x1, y0, y1);
  };
  const auto pd_win = [&sat_pd](int x0, int x1, int y0, int y1) {
    return sat_pd.window_sum(x0, x1, y0, y1);
  };
  std::vector<FeatureVector> out(cells.size());
  par::parallel_for(
      0, static_cast<std::int64_t>(cells.size()), 64,
      [&](std::int64_t b, std::int64_t en, int /*chunk*/) {
        for (std::int64_t i = b; i < en; ++i) {
          const std::size_t ci =
              static_cast<std::size_t>(cells[static_cast<std::size_t>(i)]);
          GcellIndex lo, hi;
          grid.range_of(design_.cells[ci].rect(), lo, hi);
          out[static_cast<std::size_t>(i)] =
              assemble_cell(grid, lo, hi, config_.kernel_gcells, qm.qcg,
                            qm.pdq, qm.mean_q, cell_pin_q[ci], cg_win, pd_win);
        }
      },
      256);
  return out;
}

}  // namespace puffer
