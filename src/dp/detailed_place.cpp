#include "dp/detailed_place.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <vector>

#include "common/logger.h"
#include "common/parallel.h"
#include "common/timer.h"

namespace puffer {
namespace {

constexpr const char* kTag = "dp";
constexpr std::uint32_t kMaxPasses = 4;

// HPWL over the union of nets touching cells a/b, with the two cells'
// origins overridden. With the current origins this is the exact "before"
// value; with trial origins it evaluates a move without mutating the
// design — which is what lets candidate evaluation run concurrently
// against the frozen pass-start state.
double pair_hpwl(const Design& d, CellId a, Point pa, CellId b, Point pb) {
  double sum = 0.0;
  auto eval_net = [&](NetId nid) {
    const Net& net = d.nets[static_cast<std::size_t>(nid)];
    if (net.pins.size() < 2) return;
    double xlo = std::numeric_limits<double>::max();
    double xhi = std::numeric_limits<double>::lowest();
    double ylo = xlo, yhi = xhi;
    for (PinId pid : net.pins) {
      const Pin& p = d.pins[static_cast<std::size_t>(pid)];
      Point origin;
      if (p.cell == a) {
        origin = pa;
      } else if (p.cell == b) {
        origin = pb;
      } else {
        const Cell& c = d.cells[static_cast<std::size_t>(p.cell)];
        origin = {c.x, c.y};
      }
      xlo = std::min(xlo, origin.x + p.dx);
      xhi = std::max(xhi, origin.x + p.dx);
      ylo = std::min(ylo, origin.y + p.dy);
      yhi = std::max(yhi, origin.y + p.dy);
    }
    sum += (xhi - xlo) + (yhi - ylo);
  };
  const Cell& ca = d.cells[static_cast<std::size_t>(a)];
  const Cell& cb = d.cells[static_cast<std::size_t>(b)];
  for (PinId pid : ca.pins) eval_net(d.pins[static_cast<std::size_t>(pid)].net);
  for (PinId pid : cb.pins) {
    const NetId nid = d.pins[static_cast<std::size_t>(pid)].net;
    // Skip nets already counted through a (union, not multiset).
    bool shared = false;
    for (PinId apid : ca.pins) {
      if (d.pins[static_cast<std::size_t>(apid)].net == nid) {
        shared = true;
        break;
      }
    }
    if (!shared) eval_net(nid);
  }
  return sum;
}

// Weighted median of the other pins on this cell's nets: the classic
// optimal-region center for a single movable cell.
Point optimal_position(const Design& d, CellId cid) {
  std::vector<double> xs, ys;
  const Cell& cell = d.cells[static_cast<std::size_t>(cid)];
  for (PinId pid : cell.pins) {
    const Net& net = d.nets[static_cast<std::size_t>(
        d.pins[static_cast<std::size_t>(pid)].net)];
    for (PinId other : net.pins) {
      if (d.pins[static_cast<std::size_t>(other)].cell == cid) continue;
      const Point p = d.pin_position(other);
      xs.push_back(p.x);
      ys.push_back(p.y);
    }
  }
  if (xs.empty()) return cell.center();
  const std::size_t mid = xs.size() / 2;
  std::nth_element(xs.begin(), xs.begin() + static_cast<std::ptrdiff_t>(mid),
                   xs.end());
  std::nth_element(ys.begin(), ys.begin() + static_cast<std::ptrdiff_t>(mid),
                   ys.end());
  return {xs[mid], ys[mid]};
}

struct RowOrder {
  double y = 0.0;
  std::vector<CellId> cells;  // sorted by (x, id)
};

std::vector<RowOrder> build_rows(const Design& d) {
  std::map<long long, RowOrder> rows;  // key: quantized y
  for (CellId c = 0; c < static_cast<CellId>(d.cells.size()); ++c) {
    const Cell& cell = d.cells[static_cast<std::size_t>(c)];
    if (!cell.movable()) continue;
    const long long key = std::llround(cell.y * 16.0);
    RowOrder& row = rows[key];
    row.y = cell.y;
    row.cells.push_back(c);
  }
  std::vector<RowOrder> out;
  out.reserve(rows.size());
  for (auto& [key, row] : rows) {
    std::sort(row.cells.begin(), row.cells.end(), [&](CellId a, CellId b) {
      const double ax = d.cells[static_cast<std::size_t>(a)].x;
      const double bx = d.cells[static_cast<std::size_t>(b)].x;
      if (ax != bx) return ax < bx;
      return a < b;
    });
    out.push_back(std::move(row));
  }
  return out;
}

// A candidate move: both cells take explicit new origins. Evaluated
// concurrently against the frozen pass-start state; committed serially.
struct Move {
  CellId a = kInvalidId, b = kInvalidId;
  Point na, nb;
  double frozen_delta = 0.0;
  bool viable = false;
};

// Active-set bookkeeping: a committed move re-arms every cell sharing a
// net with the moved pair for the next pass. The reorder phase skips
// pairs with no re-armed cell: a pair's delta depends only on the two
// cells and their net neighbours, all of which sit exactly where they
// sat when the pair was last rejected, so the skip is lossless there.
// (The swap phase cannot use this filter — see swap_phase.)
void arm_neighbourhood(const Design& d, CellId c,
                       std::vector<std::uint32_t>& active,
                       std::uint32_t next_pass) {
  for (PinId pid : d.cells[static_cast<std::size_t>(c)].pins) {
    const Net& net =
        d.nets[static_cast<std::size_t>(d.pins[static_cast<std::size_t>(pid)].net)];
    for (PinId q : net.pins) {
      const std::size_t cc =
          static_cast<std::size_t>(d.pins[static_cast<std::size_t>(q)].cell);
      active[cc] = std::max(active[cc], next_pass);
    }
  }
}

// Batched commit: apply moves in candidate order, skipping any whose
// cells were already touched this phase, and re-admitting against the
// *live* state (strictly improving, the router's batched-RRR rule).
int commit_moves(Design& d, const std::vector<Move>& moves,
                 std::vector<std::uint32_t>& touched, std::uint32_t epoch,
                 std::vector<std::uint32_t>& active, std::uint32_t next_pass,
                 int& evaluated) {
  int accepted = 0;
  for (const Move& m : moves) {
    if (!m.viable) continue;
    ++evaluated;
    const std::size_t ai = static_cast<std::size_t>(m.a);
    const std::size_t bi = static_cast<std::size_t>(m.b);
    if (touched[ai] == epoch || touched[bi] == epoch) continue;
    Cell& ca = d.cells[ai];
    Cell& cb = d.cells[bi];
    // Shared-net third cells may have moved earlier in this commit loop,
    // so the admission test re-evaluates against live positions.
    const double before =
        pair_hpwl(d, m.a, {ca.x, ca.y}, m.b, {cb.x, cb.y});
    const double after = pair_hpwl(d, m.a, m.na, m.b, m.nb);
    if (after + 1e-9 < before) {
      ca.x = m.na.x;
      ca.y = m.na.y;
      cb.x = m.nb.x;
      cb.y = m.nb.y;
      touched[ai] = epoch;
      touched[bi] = epoch;
      arm_neighbourhood(d, m.a, active, next_pass);
      arm_neighbourhood(d, m.b, active, next_pass);
      ++accepted;
    }
  }
  return accepted;
}

// Adjacent-pair reordering, batched: candidates are every x-adjacent
// pair in the frozen row order; each evaluates feasibility (macro-free
// envelope, no overlap after the order swap) and the frozen HPWL delta
// concurrently, then commits serially left-to-right.
int reorder_phase(Design& d, const std::vector<Rect>& macros,
                  std::vector<std::uint32_t>& touched, std::uint32_t epoch,
                  std::vector<std::uint32_t>& active, std::uint32_t pass,
                  int& evaluated) {
  const std::vector<RowOrder> rows = build_rows(d);
  std::vector<std::pair<CellId, CellId>> pairs;
  for (const RowOrder& row : rows) {
    for (std::size_t i = 0; i + 1 < row.cells.size(); ++i) {
      const CellId a = row.cells[i];
      const CellId b = row.cells[i + 1];
      if (pass > 0 && active[static_cast<std::size_t>(a)] != pass &&
          active[static_cast<std::size_t>(b)] != pass) {
        continue;  // delta unchanged since last rejection
      }
      pairs.emplace_back(a, b);
    }
  }
  std::vector<Move> moves(pairs.size());
  par::parallel_for(
      0, static_cast<std::int64_t>(pairs.size()), 16,
      [&](std::int64_t lo, std::int64_t hi, int) {
        for (std::int64_t i = lo; i < hi; ++i) {
          const auto [a, b] = pairs[static_cast<std::size_t>(i)];
          const Cell& ca = d.cells[static_cast<std::size_t>(a)];
          const Cell& cb = d.cells[static_cast<std::size_t>(b)];
          // b takes the pair's left edge; a goes flush to the right
          // edge, so the envelope (and the air inside it) is preserved.
          const double span_end = cb.x + cb.width;
          const double nax = span_end - ca.width;
          Move m;
          m.a = a;
          m.b = b;
          m.na = {nax, ca.y};
          m.nb = {ca.x, cb.y};
          if (m.nb.x + cb.width > m.na.x + 1e-9) continue;  // would overlap
          const Rect envelope{ca.x, ca.y, span_end, ca.y + ca.height};
          bool blocked = false;
          for (const Rect& mac : macros) {
            if (envelope.overlap_area(mac) > 0.0) {
              blocked = true;
              break;
            }
          }
          if (blocked) continue;
          const double before =
              pair_hpwl(d, a, {ca.x, ca.y}, b, {cb.x, cb.y});
          const double after = pair_hpwl(d, a, m.na, b, m.nb);
          m.frozen_delta = after - before;
          m.viable = m.frozen_delta < -1e-9;
          moves[static_cast<std::size_t>(i)] = m;
        }
      });
  return commit_moves(d, moves, touched, epoch, active, pass + 1, evaluated);
}

// Per-size-bucket spatial hash over the frozen cell centers: the
// nearest-candidate query examines only the 3x3 bin neighbourhood of
// the target (bin edge = the search window, so any candidate within the
// window lies in an adjacent bin) instead of the seed's O(bucket) scan
// per query — the dominant cost of the seed's swap pass.
struct BucketGrid {
  double x0 = 0.0, y0 = 0.0, bin = 1.0;
  int nx = 1, ny = 1;
  std::vector<std::vector<CellId>> bins;  // cells in id order per bin

  void build(const Design& d, const std::vector<CellId>& bucket,
             double bin_edge) {
    x0 = d.die.xlo;
    y0 = d.die.ylo;
    bin = std::max(bin_edge, 1e-9);
    nx = std::max(1, static_cast<int>((d.die.xhi - d.die.xlo) / bin) + 1);
    ny = std::max(1, static_cast<int>((d.die.yhi - d.die.ylo) / bin) + 1);
    bins.assign(static_cast<std::size_t>(nx) * static_cast<std::size_t>(ny),
                {});
    for (CellId c : bucket) {
      const Point p = d.cells[static_cast<std::size_t>(c)].center();
      bins[static_cast<std::size_t>(index(p))].push_back(c);
    }
  }
  int coord(double v, double lo, int n) const {
    const int i = static_cast<int>((v - lo) / bin);
    return std::clamp(i, 0, n - 1);
  }
  int index(Point p) const {
    return coord(p.y, y0, ny) * nx + coord(p.x, x0, nx);
  }
  // Deterministic nearest candidate to `target` with manhattan distance
  // < `radius` (radius <= bin); ties resolve to the lowest cell id.
  CellId nearest(const Design& d, Point target, double radius,
                 CellId exclude) const {
    const int bx = coord(target.x, x0, nx);
    const int by = coord(target.y, y0, ny);
    CellId best = kInvalidId;
    double best_d = radius;
    for (int dy = -1; dy <= 1; ++dy) {
      for (int dx = -1; dx <= 1; ++dx) {
        const int gx = bx + dx, gy = by + dy;
        if (gx < 0 || gx >= nx || gy < 0 || gy >= ny) continue;
        for (CellId c : bins[static_cast<std::size_t>(gy * nx + gx)]) {
          if (c == exclude) continue;
          const double dist =
              manhattan(d.cells[static_cast<std::size_t>(c)].center(), target);
          if (dist < best_d || (dist == best_d && best != kInvalidId &&
                                c < best)) {
            best_d = dist;
            best = c;
          }
        }
      }
    }
    return best;
  }
};

// Cross-row swaps of identically-sized cells, batched: each cell picks
// the same-size partner nearest its optimal region on the frozen state;
// commits run in cell-id order.
int swap_phase(Design& d, const DetailedPlaceConfig& config,
               std::vector<std::uint32_t>& touched, std::uint32_t epoch,
               std::vector<std::uint32_t>& active, std::uint32_t pass,
               int& evaluated) {
  std::map<std::pair<double, double>, std::vector<CellId>> by_size;
  for (CellId c = 0; c < static_cast<CellId>(d.cells.size()); ++c) {
    const Cell& cell = d.cells[static_cast<std::size_t>(c)];
    if (cell.movable()) by_size[{cell.width, cell.height}].push_back(c);
  }
  const double wx = config.swap_window_rows * d.tech.row_height;
  std::vector<CellId> seeds;
  std::vector<int> seed_grid;
  std::vector<BucketGrid> grids;
  for (const auto& [size, bucket] : by_size) {
    if (bucket.size() < 2) continue;
    grids.emplace_back();
    grids.back().build(d, bucket, wx);
    // No active-set filter here: a seed's partner choice depends on the
    // *positions* of its whole size bucket (via the grid), not only on
    // its net neighbourhood, so skipping net-unarmed seeds would be
    // lossy. The grid already makes each evaluation O(pins + bin).
    for (CellId a : bucket) {
      seeds.push_back(a);
      seed_grid.push_back(static_cast<int>(grids.size()) - 1);
    }
  }
  std::vector<Move> moves(seeds.size());
  par::parallel_for(
      0, static_cast<std::int64_t>(seeds.size()), 8,
      [&](std::int64_t lo, std::int64_t hi, int) {
        for (std::int64_t i = lo; i < hi; ++i) {
          const CellId a = seeds[static_cast<std::size_t>(i)];
          const Cell& ca = d.cells[static_cast<std::size_t>(a)];
          const Point target = optimal_position(d, a);
          if (manhattan(ca.center(), target) < d.tech.row_height) continue;
          const CellId best =
              grids[static_cast<std::size_t>(
                        seed_grid[static_cast<std::size_t>(i)])]
                  .nearest(d, target, wx, a);
          if (best == kInvalidId) continue;
          const Cell& cb = d.cells[static_cast<std::size_t>(best)];
          Move m;
          m.a = a;
          m.b = best;
          m.na = {cb.x, cb.y};  // verbatim position exchange
          m.nb = {ca.x, ca.y};
          const double before =
              pair_hpwl(d, a, {ca.x, ca.y}, best, {cb.x, cb.y});
          const double after = pair_hpwl(d, a, m.na, best, m.nb);
          m.frozen_delta = after - before;
          m.viable = m.frozen_delta < -1e-9;
          moves[static_cast<std::size_t>(i)] = m;
        }
      });
  return commit_moves(d, moves, touched, epoch, active, pass + 1, evaluated);
}

}  // namespace

DetailedPlaceResult detailed_place(Design& design,
                                   const DetailedPlaceConfig& config) {
  DetailedPlaceResult result;
  Timer timer;
  result.hpwl_before = design.total_hpwl();
  std::vector<Rect> macros;
  for (const Cell& c : design.cells) {
    if (c.is_macro()) macros.push_back(c.rect());
  }
  std::vector<std::uint32_t> touched(design.cells.size(), 0);
  std::vector<std::uint32_t> active(design.cells.size(), 0);
  std::uint32_t epoch = 0;
  for (std::uint32_t pass = 0; pass < kMaxPasses; ++pass) {
    int accepted = 0;
    if (config.adjacent_reorder) {
      accepted += reorder_phase(design, macros, touched, ++epoch, active,
                                pass, result.evaluated_moves);
    }
    if (config.cross_row_swaps) {
      accepted += swap_phase(design, config, touched, ++epoch, active, pass,
                             result.evaluated_moves);
    }
    result.accepted_moves += accepted;
    ++result.passes;
    PUFFER_LOG_DEBUG(kTag, "pass %d accepted %d moves", static_cast<int>(pass) + 1, accepted);
    if (accepted == 0) break;
  }
  result.hpwl_after = design.total_hpwl();
  result.time_s = timer.elapsed_seconds();
  return result;
}

}  // namespace puffer
