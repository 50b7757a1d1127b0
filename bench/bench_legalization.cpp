// Deterministic parallel legalization / detailed placement vs an
// in-bench replica of the seed serial implementation.
//
// A master placement is perturbed inside one randomly placed window per
// round, then legalization + detailed placement re-run from scratch.
// Every mode (seed replica, library path at 1/2/8 threads) consumes the
// exact same precomputed per-round inputs; the library path's post-round
// placements are checksummed and must be bit-identical across thread
// counts.
//
// Output: bench_results/BENCH_legalization.json (schema puffer-bench-v1).
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <map>
#include <set>
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

// ==== in-bench replica of the seed (pre-PR) legalizer ====================
// Serial, from-scratch, world-coordinate doubles with absolute epsilons —
// kept verbatim so the speedup baseline survives future changes to the
// library implementation.
namespace seed {

struct SegCell {
  CellId id;
  double width;
  double target_x;
  double weight;
};

struct Cluster {
  double x = 0.0;
  double e = 0.0;
  double q = 0.0;
  double w = 0.0;
};

struct Segment {
  double lo = 0.0;
  double hi = 0.0;
  std::vector<SegCell> cells;
  std::vector<Cluster> clusters;
  double used = 0.0;
  double free_width() const { return (hi - lo) - used; }
};

struct RowState {
  double y = 0.0;
  double site = 1.0;
  std::vector<Segment> segments;
};

double trial_or_commit(Segment& seg, const SegCell& cell, bool commit,
                       bool& ok) {
  ok = true;
  if (cell.width > seg.free_width() + 1e-9) {
    ok = false;
    return 0.0;
  }
  double e = cell.weight;
  double q = cell.weight * cell.target_x;
  double w = cell.width;
  double offset = 0.0;
  int i = static_cast<int>(seg.clusters.size()) - 1;
  double x = 0.0;
  while (true) {
    x = clamp(q / e, seg.lo, seg.hi - w);
    if (i < 0) break;
    const Cluster& prev = seg.clusters[static_cast<std::size_t>(i)];
    if (prev.x + prev.w <= x + 1e-12) break;
    q = prev.q + (q - e * prev.w);
    e += prev.e;
    w += prev.w;
    offset += prev.w;
    --i;
  }
  const double cell_x = x + offset;
  if (!commit) return cell_x;
  seg.clusters.resize(static_cast<std::size_t>(i + 1));
  seg.clusters.push_back({x, e, q, w});
  seg.cells.push_back(cell);
  seg.used += cell.width;
  return cell_x;
}

LegalizeResult legalize(Design& design, const std::vector<int>& pad_sites,
                        const LegalizeConfig& config) {
  LegalizeResult result;
  if (design.rows.empty()) {
    result.success = false;
    return result;
  }
  std::vector<RowState> rows;
  rows.reserve(design.rows.size());
  for (const Row& row : design.rows) {
    RowState rs;
    rs.y = row.y;
    rs.site = row.site_width;
    std::vector<std::pair<double, double>> blocks;
    for (const Cell& c : design.cells) {
      if (!c.is_macro()) continue;
      const Rect r = c.rect();
      if (r.ylo < row.y + row.height - 1e-9 && r.yhi > row.y + 1e-9) {
        blocks.emplace_back(r.xlo, r.xhi);
      }
    }
    std::sort(blocks.begin(), blocks.end());
    double cursor = row.x_lo;
    const double row_end = row.x_hi();
    auto push_segment = [&](double lo, double hi) {
      const double slo =
          row.x_lo + std::ceil((lo - row.x_lo) / rs.site - 1e-9) * rs.site;
      const double shi =
          row.x_lo + std::floor((hi - row.x_lo) / rs.site + 1e-9) * rs.site;
      if (shi - slo >= rs.site - 1e-9) {
        Segment seg;
        seg.lo = slo;
        seg.hi = shi;
        rs.segments.push_back(seg);
      }
    };
    for (const auto& [blo, bhi] : blocks) {
      if (blo > cursor) push_segment(cursor, std::min(blo, row_end));
      cursor = std::max(cursor, bhi);
      if (cursor >= row_end) break;
    }
    if (cursor < row_end) push_segment(cursor, row_end);
    rows.push_back(std::move(rs));
  }

  const double row_h = design.rows.front().height;
  const double row_y0 = design.rows.front().y;
  std::vector<CellId> order;
  for (CellId c = 0; c < static_cast<CellId>(design.cells.size()); ++c) {
    if (design.cells[static_cast<std::size_t>(c)].movable()) order.push_back(c);
  }
  std::sort(order.begin(), order.end(), [&](CellId a, CellId b) {
    return design.cells[static_cast<std::size_t>(a)].x <
           design.cells[static_cast<std::size_t>(b)].x;
  });

  for (CellId cid : order) {
    const Cell& cell = design.cells[static_cast<std::size_t>(cid)];
    const int pad = static_cast<std::size_t>(cid) < pad_sites.size()
                        ? pad_sites[static_cast<std::size_t>(cid)]
                        : 0;
    const int home = static_cast<int>(std::round((cell.y - row_y0) / row_h));
    double best_cost = std::numeric_limits<double>::max();
    int best_row = -1, best_seg = -1;
    SegCell best_sc{};
    for (int k = 0; k < config.max_row_search * 2; ++k) {
      const int r = home + ((k % 2 == 0) ? k / 2 : -(k / 2 + 1));
      if (r < 0 || r >= static_cast<int>(rows.size())) continue;
      RowState& rs = rows[static_cast<std::size_t>(r)];
      const double dy = rs.y - cell.y;
      if (dy * dy >= best_cost) {
        if (k > config.max_row_search) break;
        continue;
      }
      const double width =
          std::ceil(cell.width / rs.site - 1e-9) * rs.site + pad * rs.site;
      SegCell sc;
      sc.id = cid;
      sc.width = width;
      sc.weight = std::max(cell.area(), 1.0);
      for (std::size_t s = 0; s < rs.segments.size(); ++s) {
        Segment& seg = rs.segments[s];
        const double raw_tx = clamp(cell.x - pad * rs.site * 0.5, seg.lo,
                                    std::max(seg.lo, seg.hi - width));
        const double tx =
            seg.lo + std::round((raw_tx - seg.lo) / rs.site) * rs.site;
        sc.target_x = tx;
        bool ok = false;
        const double x = trial_or_commit(seg, sc, /*commit=*/false, ok);
        if (!ok) continue;
        const double dx = (x + pad * rs.site * 0.5) - cell.x;
        const double cost = dx * dx + dy * dy;
        if (cost < best_cost) {
          best_cost = cost;
          best_row = r;
          best_seg = static_cast<int>(s);
          best_sc = sc;
        }
      }
    }
    if (best_row < 0) {
      ++result.failed_cells;
      result.success = false;
      continue;
    }
    bool ok = false;
    trial_or_commit(rows[static_cast<std::size_t>(best_row)]
                        .segments[static_cast<std::size_t>(best_seg)],
                    best_sc, /*commit=*/true, ok);
  }

  for (std::size_t r = 0; r < rows.size(); ++r) {
    RowState& rs = rows[r];
    for (Segment& seg : rs.segments) {
      std::size_t cell_idx = 0;
      double cursor = seg.lo;
      for (const Cluster& cl : seg.clusters) {
        double x = seg.lo + std::round((cl.x - seg.lo) / rs.site) * rs.site;
        x = clamp(x, cursor, std::max(cursor, seg.hi - cl.w));
        cursor = x + cl.w;
        double filled = 0.0;
        while (cell_idx < seg.cells.size() && filled + 1e-9 < cl.w) {
          const SegCell& sc = seg.cells[cell_idx];
          Cell& cell = design.cells[static_cast<std::size_t>(sc.id)];
          const int pad = static_cast<std::size_t>(sc.id) < pad_sites.size()
                              ? pad_sites[static_cast<std::size_t>(sc.id)]
                              : 0;
          const double left_pad = (pad / 2) * rs.site;
          const double old_x = cell.x, old_y = cell.y;
          cell.x = x + filled + left_pad;
          cell.y = rs.y;
          const double disp =
              std::abs(cell.x - old_x) + std::abs(cell.y - old_y);
          result.total_displacement += disp;
          result.max_displacement = std::max(result.max_displacement, disp);
          ++result.placed;
          filled += sc.width;
          ++cell_idx;
        }
      }
    }
  }
  return result;
}

// ---- seed detailed placement (serial, in-place moves) -------------------

double nets_hpwl(const Design& d, const std::vector<CellId>& cells) {
  std::set<NetId> nets;
  for (CellId c : cells) {
    for (PinId pid : d.cells[static_cast<std::size_t>(c)].pins) {
      nets.insert(d.pins[static_cast<std::size_t>(pid)].net);
    }
  }
  double sum = 0.0;
  for (NetId n : nets) sum += d.net_hpwl(n);
  return sum;
}

Point optimal_position(const Design& d, CellId cid) {
  std::vector<double> xs, ys;
  const Cell& cell = d.cells[static_cast<std::size_t>(cid)];
  for (PinId pid : cell.pins) {
    const Net& net =
        d.nets[static_cast<std::size_t>(d.pins[static_cast<std::size_t>(pid)].net)];
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
  std::vector<CellId> cells;
};

std::vector<RowOrder> build_rows(const Design& d) {
  std::map<long long, RowOrder> rows;
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
      return d.cells[static_cast<std::size_t>(a)].x <
             d.cells[static_cast<std::size_t>(b)].x;
    });
    out.push_back(std::move(row));
  }
  return out;
}

int reorder_pass(Design& d, std::vector<RowOrder> rows) {
  std::vector<Rect> macros;
  for (const Cell& c : d.cells) {
    if (c.is_macro()) macros.push_back(c.rect());
  }
  int accepted = 0;
  for (RowOrder& row : rows) {
    for (std::size_t i = 0; i + 1 < row.cells.size(); ++i) {
      const CellId a = row.cells[i];
      const CellId b = row.cells[i + 1];
      Cell& ca = d.cells[static_cast<std::size_t>(a)];
      Cell& cb = d.cells[static_cast<std::size_t>(b)];
      const double ax = ca.x, bx = cb.x;
      const double span_end = cb.x + cb.width;
      const Rect envelope{ax, ca.y, span_end, ca.y + ca.height};
      bool blocked = false;
      for (const Rect& m : macros) {
        if (envelope.overlap_area(m) > 0.0) {
          blocked = true;
          break;
        }
      }
      if (blocked) continue;
      const double before = nets_hpwl(d, {a, b});
      ca.x = span_end - ca.width;
      cb.x = ax;
      if (cb.x + cb.width > ca.x + 1e-9) {
        ca.x = ax;
        cb.x = bx;
        continue;
      }
      if (nets_hpwl(d, {a, b}) + 1e-9 < before) {
        ++accepted;
        std::swap(row.cells[i], row.cells[i + 1]);
      } else {
        ca.x = ax;
        cb.x = bx;
      }
    }
  }
  return accepted;
}

int swap_pass(Design& d, const DetailedPlaceConfig& config) {
  std::map<std::pair<double, double>, std::vector<CellId>> by_size;
  for (CellId c = 0; c < static_cast<CellId>(d.cells.size()); ++c) {
    const Cell& cell = d.cells[static_cast<std::size_t>(c)];
    if (cell.movable()) by_size[{cell.width, cell.height}].push_back(c);
  }
  const double wx = config.swap_window_rows * d.tech.row_height;
  int accepted = 0;
  for (auto& [size, bucket] : by_size) {
    if (bucket.size() < 2) continue;
    for (CellId a : bucket) {
      const Point target = optimal_position(d, a);
      const Cell& ca = d.cells[static_cast<std::size_t>(a)];
      if (manhattan(ca.center(), target) < d.tech.row_height) continue;
      CellId best = kInvalidId;
      double best_d = wx;
      for (CellId b : bucket) {
        if (b == a) continue;
        const double dist =
            manhattan(d.cells[static_cast<std::size_t>(b)].center(), target);
        if (dist < best_d) {
          best_d = dist;
          best = b;
        }
      }
      if (best == kInvalidId) continue;
      Cell& cb = d.cells[static_cast<std::size_t>(best)];
      Cell& cc = d.cells[static_cast<std::size_t>(a)];
      const double before = nets_hpwl(d, {a, best});
      std::swap(cc.x, cb.x);
      std::swap(cc.y, cb.y);
      if (nets_hpwl(d, {a, best}) + 1e-9 < before) {
        ++accepted;
      } else {
        std::swap(cc.x, cb.x);
        std::swap(cc.y, cb.y);
      }
    }
  }
  return accepted;
}

DetailedPlaceResult detailed_place(Design& design,
                                   const DetailedPlaceConfig& config) {
  DetailedPlaceResult result;
  result.hpwl_before = design.total_hpwl();
  for (int pass = 0; pass < config.max_passes; ++pass) {
    int accepted = 0;
    if (config.adjacent_reorder) {
      accepted += reorder_pass(design, build_rows(design));
    }
    if (config.cross_row_swaps) {
      accepted += swap_pass(design, config);
    }
    result.accepted_moves += accepted;
    ++result.passes;
    if (accepted == 0) break;
  }
  result.hpwl_after = design.total_hpwl();
  return result;
}

}  // namespace seed

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

  // ---- seed replica (serial, from scratch every round) ------------------
  auto run_seed = [&]() {
    ModeTotals t;
    Design d = design;
    for (int round = 0; round < kRounds; ++round) {
      restore(d, inputs, round);
      Timer tl;
      const LegalizeResult lr = seed::legalize(d, pads, legal_cfg);
      const double dl = tl.elapsed_seconds();
      Timer td;
      seed::detailed_place(d, dp_cfg);
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
  const ModeTotals seed_t = best_of(run_seed, "seed");
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

  const double speedup_8t =
      new_8t.repeat_s > 0.0 ? seed_t.repeat_s / new_8t.repeat_s : 0.0;
  const double speedup_1t =
      new_1t.repeat_s > 0.0 ? seed_t.repeat_s / new_1t.repeat_s : 0.0;
  const bool identical = new_1t.checksum == new_2t.checksum &&
                         new_2t.checksum == new_8t.checksum;
  const bool ok = identical && legality.legal && new_8t.failed == 0;

  std::printf(
      "\nrepeat rounds (%d): seed %.3fs, lib 1t %.3fs / 8t %.3fs -> "
      "speedup %.2fx (1t %.2fx); thread bit-identical %s, final legality "
      "%s\n",
      kRounds - 1, seed_t.repeat_s, new_1t.repeat_s, new_8t.repeat_s,
      speedup_8t, speedup_1t, identical ? "yes" : "NO",
      legality.legal ? "legal" : "ILLEGAL");

  bench::BenchReport rep("legalization");
  rep.config("scale", scale);
  rep.config("num_cells", spec.num_cells);
  rep.config("num_nets", static_cast<int>(design.nets.size()));
  rep.config("rounds", kRounds);
  rep.config("reps", kReps);
  rep.config("window_frac", kWindowFrac);
  rep.config("hardware_cores",
             static_cast<int>(std::thread::hardware_concurrency()));
  rep.baseline("legalize_s", seed_t.legal_s);
  rep.baseline("dp_s", seed_t.dp_s);
  rep.baseline("repeat_s", seed_t.repeat_s);
  rep.baseline("failed_cells", seed_t.failed);
  rep.baseline("hpwl", seed_t.hpwl);
  rep.result("legalize_1t_s", new_1t.legal_s);
  rep.result("dp_1t_s", new_1t.dp_s);
  rep.result("repeat_1t_s", new_1t.repeat_s);
  rep.result("repeat_2t_s", new_2t.repeat_s);
  rep.result("repeat_8t_s", new_8t.repeat_s);
  rep.result("failed_cells", new_8t.failed);
  rep.result("hpwl", new_8t.hpwl);
  rep.result("final_legal", std::string(legality.legal ? "yes" : "no"));
  rep.speedup("repeat_8t_vs_seed", speedup_8t);
  rep.speedup("repeat_1t_vs_seed", speedup_1t);
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
