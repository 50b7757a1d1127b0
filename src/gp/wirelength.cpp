#include "gp/wirelength.h"

#include <cmath>
#include <limits>

#include "common/parallel.h"
#include "common/simd.h"

namespace puffer {

WaWirelength::WaWirelength(const Design& design) {
  auto soa = std::make_shared<GpSoA>();
  soa->build(design);
  soa_ = std::move(soa);
}

WaWirelength::WaWirelength(std::shared_ptr<const GpSoA> soa)
    : soa_(std::move(soa)) {}

double WaWirelength::evaluate(const std::vector<double>& xc,
                              const std::vector<double>& yc, double gamma,
                              std::vector<double>& grad_x,
                              std::vector<double>& grad_y) const {
  return legacy_ ? evaluate_legacy(xc, yc, gamma, grad_x, grad_y)
                 : evaluate_soa(xc, yc, gamma, grad_x, grad_y);
}

// --- SoA two-pass kernel ------------------------------------------------

namespace {

// Accumulator sums of one net along one axis, max (p) and min (m) side.
struct AxisSums {
  double se_p = 0.0, sxe_p = 0.0, se_m = 0.0, sxe_m = 0.0;
};

// Shifted exponentials of one net along one axis, written to ep[2k] /
// em[2k] (the lane of this axis; callers offset the pointers by one for
// y), and their sums. Only values not known in advance go through
// std::exp: a pin at the max has exp((c - cmax)/g) = exp(+-0) = 1, a pin
// at the min likewise on the min side, and the min pin's max-side
// argument (cmin - cmax)/g is the max pin's min-side argument bit for
// bit, so one call covers both. Needs gamma > 0 and finite coordinates
// (the engine's invariant); the sums accumulate in slot order exactly
// like the scalar kernel.
inline AxisSums axis_exponentials(const double* c, std::size_t deg,
                                  double cmax, double cmin, double gamma,
                                  double* ep, double* em) {
  const double edge = cmax != cmin ? std::exp((cmin - cmax) / gamma) : 1.0;
  AxisSums a;
  for (std::size_t k = 0; k < deg; ++k) {
    const double cv = c[2 * k];
    const bool at_max = cv == cmax, at_min = cv == cmin;
    double p = at_max ? 1.0 : edge;
    double m = at_min ? 1.0 : edge;
    if (!(at_max | at_min)) {
      p = std::exp((cv - cmax) / gamma);
      m = std::exp((cmin - cv) / gamma);
    }
    ep[2 * k] = p;
    em[2 * k] = m;
    a.se_p += p;
    a.sxe_p += cv * p;
    a.se_m += m;
    a.sxe_m += cv * m;
  }
  return a;
}

// Per-slot gradient terms w * (d+ - d-) of one net, x and y as the two
// lanes of P (simd::VecPair or simd::ScalarPair: the same bits). The
// per-pin derivative of the max-side term S+ = sum x e^{x/g} / sum e^{x/g}
// is e^{x_k/g} (sum_e (1 + x_k/g) - sum_xe/g) / sum_e^2; the min side
// is the same with g -> -g. Fixed-pin slots are skipped (pass B never
// reads them).
template <class P>
inline void emit_terms(const double* c, const double* ep, const double* em,
                       const std::int32_t* ords, std::size_t deg,
                       const AxisSums& ax, const AxisSums& ay, double gamma,
                       double w, double* dw) {
  const P g = P::splat(gamma);
  const P one = P::splat(1.0);
  const P se_p = P::set(ax.se_p, ay.se_p);
  const P se_m = P::set(ax.se_m, ay.se_m);
  const P sxe_p = P::set(ax.sxe_p, ay.sxe_p) / g;
  const P sxe_m = P::set(ax.sxe_m, ay.sxe_m) / g;
  const P sq_p = se_p * se_p;
  const P sq_m = se_m * se_m;
  const P wv = P::splat(w);
  for (std::size_t k = 0; k < deg; ++k) {
    if (ords[k] < 0) continue;
    const P t = P::load(c + 2 * k) / g;
    const P dp = P::load(ep + 2 * k) * (se_p * (one + t) - sxe_p) / sq_p;
    const P dm = P::load(em + 2 * k) * (se_m * (one - t) + sxe_m) / sq_m;
    (wv * (dp - dm)).store(dw + 2 * k);
  }
}

}  // namespace

double WaWirelength::evaluate_soa(const std::vector<double>& xc,
                                  const std::vector<double>& yc, double gamma,
                                  std::vector<double>& grad_x,
                                  std::vector<double>& grad_y) const {
  const GpSoA& s = *soa_;
  const std::size_t n_mov = s.num_movable();
  const std::int64_t n_nets = static_cast<std::int64_t>(s.num_nets());
  if (n_nets == 0) {
    grad_x.assign(n_mov, 0.0);
    grad_y.assign(n_mov, 0.0);
    hpwl_last_ = 0.0;
    return 0.0;
  }
  grad_x.resize(n_mov);  // pass B writes every entry
  grad_y.resize(n_mov);

  const std::size_t n_slots = s.num_slots();
  dw_.resize(2 * n_slots);

  const int nchunks = s.num_net_chunks();
  chunk_total_.assign(static_cast<std::size_t>(nchunks), 0.0);
  chunk_hpwl_.assign(static_cast<std::size_t>(nchunks), 0.0);
  net_scratch_.resize(static_cast<std::size_t>(nchunks));

  const double* xp = xc.data();
  const double* yp = yc.data();
  const std::int32_t* ords = s.pin_ord.data();
  const double* oxs = s.pin_ox.data();
  const double* oys = s.pin_oy.data();
  const std::size_t max_deg = static_cast<std::size_t>(s.max_net_degree());
  const bool vec = simd::enabled();

  // Pass A: per net, gather both dimensions' slot coordinates (x/y
  // interleaved) into L1-resident per-net buffers, compute the shifted
  // exponentials and accumulator sums, and emit one finished gradient
  // term per movable slot and dimension (x/y interleaved in dw_). The
  // per-dimension accumulation sequences are exactly the scalar kernel's
  // (independent accumulators, same slot order), so fusing the x and y
  // walks changes no bits. Chunk c owns a contiguous net (and therefore
  // slot) range, so the dw_ writes are disjoint; the wirelength total
  // folds in chunk order. The per-net min/max already computed here also
  // yields the exact HPWL of hpwl() at these positions, accumulated into
  // chunk_hpwl_ with the same per-chunk/ascending-fold association as
  // the parallel_reduce in hpwl().
  par::parallel_for(
      0, n_nets, kNetGrain,
      [&](std::int64_t nb, std::int64_t ne, int chunk) {
        NetScratch& ns = net_scratch_[static_cast<std::size_t>(chunk)];
        ns.c.resize(2 * max_deg);
        ns.ep.resize(2 * max_deg);
        ns.em.resize(2 * max_deg);
        double* cb = ns.c.data();
        double* ep = ns.ep.data();
        double* em = ns.em.data();
        double* dw = dw_.data();
        double total = 0.0;
        double hp = 0.0;
        for (std::int64_t ni = nb; ni < ne; ++ni) {
          const std::size_t un = static_cast<std::size_t>(ni);
          const std::int64_t s0 = s.net_start[un];
          const std::int64_t s1 = s.net_start[un + 1];
          const std::size_t deg = static_cast<std::size_t>(s1 - s0);
          const double w = s.net_weight[un];
          const std::int32_t* nords = ords + s0;

          double cmax_x = -std::numeric_limits<double>::max();
          double cmin_x = std::numeric_limits<double>::max();
          double cmax_y = cmax_x, cmin_y = cmin_x;
          for (std::size_t k = 0; k < deg; ++k) {
            const std::size_t us = static_cast<std::size_t>(s0) + k;
            const std::int32_t ord = nords[k];
            const double cvx = ord >= 0 ? xp[ord] + oxs[us] : oxs[us];
            const double cvy = ord >= 0 ? yp[ord] + oys[us] : oys[us];
            cb[2 * k] = cvx;
            cb[2 * k + 1] = cvy;
            cmax_x = std::max(cmax_x, cvx);
            cmin_x = std::min(cmin_x, cvx);
            cmax_y = std::max(cmax_y, cvy);
            cmin_y = std::min(cmin_y, cvy);
          }
          const AxisSums ax =
              axis_exponentials(cb, deg, cmax_x, cmin_x, gamma, ep, em);
          const AxisSums ay = axis_exponentials(cb + 1, deg, cmax_y, cmin_y,
                                                gamma, ep + 1, em + 1);
          total += w * (ax.sxe_p / ax.se_p - ax.sxe_m / ax.se_m);
          total += w * (ay.sxe_p / ay.se_p - ay.sxe_m / ay.se_m);
          hp += w * ((cmax_x - cmin_x) + (cmax_y - cmin_y));
          double* ndw = dw + 2 * static_cast<std::size_t>(s0);
          if (vec) {
            emit_terms<simd::VecPair>(cb, ep, em, nords, deg, ax, ay, gamma,
                                      w, ndw);
          } else {
            emit_terms<simd::ScalarPair>(cb, ep, em, nords, deg, ax, ay,
                                         gamma, w, ndw);
          }
        }
        chunk_total_[static_cast<std::size_t>(chunk)] = total;
        chunk_hpwl_[static_cast<std::size_t>(chunk)] = hp;
      },
      kMaxNetChunks);

  // Pass B: per-cell gather of the stored terms through the transposed
  // CSR. A cell's slots ascend, and slots ascend net-major, so its terms
  // arrive already grouped by net chunk (read from cell_slot_chunk, which
  // streams alongside cell_slots); folding one partial per chunk (empty
  // chunks contribute +0.0) in chunk order reproduces exactly the
  // association of the legacy per-chunk-buffer merge, bit for bit. Runs
  // of k >= 1 empty chunks collapse to a single `+= 0.0`: the first add
  // normalizes a possible -0.0 partial sum to +0.0 and every further
  // zero add is then a bitwise no-op. No shared writes: cell i is owned
  // by exactly one chunk.
  const std::int64_t* cstart = s.cell_start.data();
  const std::int64_t* cslots = s.cell_slots.data();
  const std::int32_t* cchunk = s.cell_slot_chunk.data();
  const double* dw = dw_.data();
  par::parallel_for(
      0, static_cast<std::int64_t>(n_mov), 1024,
      [&](std::int64_t b, std::int64_t e, int) {
        for (std::int64_t i = b; i < e; ++i) {
          const std::size_t ui = static_cast<std::size_t>(i);
          const std::int64_t k1 = cstart[ui + 1];
          double gx_sum = 0.0, gy_sum = 0.0;
          double part_x = 0.0, part_y = 0.0;
          int cur = 0;
          for (std::int64_t k = cstart[ui]; k < k1; ++k) {
            const std::size_t us = static_cast<std::size_t>(cslots[k]);
            const int c = cchunk[k];
            if (cur < c) {
              gx_sum += part_x;
              gy_sum += part_y;
              if (c - cur > 1) {
                gx_sum += 0.0;
                gy_sum += 0.0;
              }
              part_x = 0.0;
              part_y = 0.0;
              cur = c;
            }
            part_x += dw[2 * us];
            part_y += dw[2 * us + 1];
          }
          if (cur < nchunks) {
            gx_sum += part_x;
            gy_sum += part_y;
            if (nchunks - cur > 1) {
              gx_sum += 0.0;
              gy_sum += 0.0;
            }
          }
          grad_x[ui] = gx_sum;
          grad_y[ui] = gy_sum;
        }
      });

  double total = 0.0;
  for (double t : chunk_total_) total += t;
  // Same init + ascending-partial fold as the parallel_reduce in hpwl().
  double hp = 0.0;
  for (double t : chunk_hpwl_) hp += t;
  hpwl_last_ = hp;
  return total;
}

// --- legacy scalar kernel (bit-identity oracle, bench baseline) ---------

namespace {

// One-dimensional WA term and gradient accumulation for a single net.
// Returns the net's smoothed extent in this dimension; adds the weighted
// gradient to `grad` for movable pins.
//
// The per-pin derivative of the max-side term
//   S+ = sum x e^{x/g} / sum e^{x/g}
// is  dS+/dx_k = e^{x_k/g} * ( sum_e * (1 + x_k/g) - sum_xe/g ) / sum_e^2.
// The min side is the same with g -> -g.
double wa_dimension(const std::vector<double>& coords,
                    const std::vector<std::int32_t>& ordinals, double gamma,
                    double weight, std::vector<double>& grad) {
  const std::size_t n = coords.size();
  double cmax = -std::numeric_limits<double>::max();
  double cmin = std::numeric_limits<double>::max();
  for (double c : coords) {
    cmax = std::max(cmax, c);
    cmin = std::min(cmin, c);
  }
  double se_p = 0.0, sxe_p = 0.0;  // max side, exp shifted by cmax
  double se_m = 0.0, sxe_m = 0.0;  // min side, exp shifted by cmin
  for (double c : coords) {
    const double ep = std::exp((c - cmax) / gamma);
    const double em = std::exp((cmin - c) / gamma);
    se_p += ep;
    sxe_p += c * ep;
    se_m += em;
    sxe_m += c * em;
  }
  const double s_plus = sxe_p / se_p;
  const double s_minus = sxe_m / se_m;

  for (std::size_t k = 0; k < n; ++k) {
    const std::int32_t ord = ordinals[k];
    if (ord < 0) continue;
    const double c = coords[k];
    const double ep = std::exp((c - cmax) / gamma);
    const double em = std::exp((cmin - c) / gamma);
    const double d_plus =
        ep * (se_p * (1.0 + c / gamma) - sxe_p / gamma) / (se_p * se_p);
    // Min side: replace gamma by -gamma.
    const double d_minus =
        em * (se_m * (1.0 - c / gamma) + sxe_m / gamma) / (se_m * se_m);
    grad[static_cast<std::size_t>(ord)] += weight * (d_plus - d_minus);
  }
  return s_plus - s_minus;
}

}  // namespace

void WaWirelength::build_legacy_nets() const {
  const GpSoA& s = *soa_;
  const std::size_t n_nets = s.num_nets();
  legacy_nets_.resize(n_nets);
  for (std::size_t un = 0; un < n_nets; ++un) {
    LegacyNet& net = legacy_nets_[un];
    net.weight = s.net_weight[un];
    const std::int64_t s0 = s.net_start[un];
    const std::int64_t s1 = s.net_start[un + 1];
    net.pins.reserve(static_cast<std::size_t>(s1 - s0));
    for (std::int64_t sl = s0; sl < s1; ++sl) {
      const std::size_t us = static_cast<std::size_t>(sl);
      LegacyNetPin p;
      p.ordinal = s.pin_ord[us];
      if (p.ordinal >= 0) {
        p.ox = s.pin_ox[us];
        p.oy = s.pin_oy[us];
        p.fx = p.fy = 0.0;
      } else {
        p.ox = p.oy = 0.0;
        p.fx = s.pin_ox[us];
        p.fy = s.pin_oy[us];
      }
      net.pins.push_back(p);
    }
  }
}

double WaWirelength::evaluate_legacy(const std::vector<double>& xc,
                                     const std::vector<double>& yc,
                                     double gamma, std::vector<double>& grad_x,
                                     std::vector<double>& grad_y) const {
  const GpSoA& s = *soa_;
  const std::size_t n_mov = s.num_movable();
  grad_x.assign(n_mov, 0.0);
  grad_y.assign(n_mov, 0.0);
  const std::int64_t n_nets = static_cast<std::int64_t>(s.num_nets());
  if (n_nets == 0) return 0.0;
  if (legacy_nets_.size() != s.num_nets()) build_legacy_nets();

  // Per-chunk net walk over the AoS replica (the retired kernel's data
  // structure, pointer-chase and all); accumulates into the given
  // gradient buffers.
  const auto eval_chunk = [&](std::int64_t nb, std::int64_t ne,
                              std::vector<double>& gx,
                              std::vector<double>& gy) {
    double total = 0.0;
    std::vector<double> px, py;
    std::vector<std::int32_t> ords;
    for (std::int64_t ni = nb; ni < ne; ++ni) {
      const LegacyNet& net = legacy_nets_[static_cast<std::size_t>(ni)];
      const std::size_t n = net.pins.size();
      const double weight = net.weight;
      px.resize(n);
      py.resize(n);
      ords.resize(n);
      for (std::size_t k = 0; k < n; ++k) {
        const LegacyNetPin& p = net.pins[k];
        ords[k] = p.ordinal;
        if (p.ordinal >= 0) {
          px[k] = xc[static_cast<std::size_t>(p.ordinal)] + p.ox;
          py[k] = yc[static_cast<std::size_t>(p.ordinal)] + p.oy;
        } else {
          px[k] = p.fx;
          py[k] = p.fy;
        }
      }
      total += weight * wa_dimension(px, ords, gamma, weight, gx);
      total += weight * wa_dimension(py, ords, gamma, weight, gy);
    }
    return total;
  };

  const int nchunks = par::chunk_count(n_nets, kNetGrain, kMaxNetChunks);
  if (nchunks == 1) {
    return eval_chunk(0, n_nets, grad_x, grad_y);
  }

  scratch_gx_.resize(static_cast<std::size_t>(nchunks));
  scratch_gy_.resize(static_cast<std::size_t>(nchunks));
  chunk_total_.assign(static_cast<std::size_t>(nchunks), 0.0);
  par::parallel_for(
      0, n_nets, kNetGrain,
      [&](std::int64_t nb, std::int64_t ne, int c) {
        auto& gx = scratch_gx_[static_cast<std::size_t>(c)];
        auto& gy = scratch_gy_[static_cast<std::size_t>(c)];
        gx.assign(n_mov, 0.0);
        gy.assign(n_mov, 0.0);
        chunk_total_[static_cast<std::size_t>(c)] = eval_chunk(nb, ne, gx, gy);
      },
      kMaxNetChunks);

  // Ordered merge: cell i's gradient is the chunk partials summed in
  // chunk order, regardless of which workers produced them.
  par::parallel_for(
      0, static_cast<std::int64_t>(n_mov), 4096,
      [&](std::int64_t b, std::int64_t e, int) {
        for (std::int64_t i = b; i < e; ++i) {
          const std::size_t si = static_cast<std::size_t>(i);
          double sx = 0.0, sy = 0.0;
          for (int c = 0; c < nchunks; ++c) {
            sx += scratch_gx_[static_cast<std::size_t>(c)][si];
            sy += scratch_gy_[static_cast<std::size_t>(c)][si];
          }
          grad_x[si] = sx;
          grad_y[si] = sy;
        }
      });

  double total = 0.0;
  for (double t : chunk_total_) total += t;
  return total;
}

// --- HPWL ---------------------------------------------------------------

double WaWirelength::hpwl(const std::vector<double>& xc,
                          const std::vector<double>& yc) const {
  const std::int64_t n_nets = static_cast<std::int64_t>(soa_->num_nets());
  return par::parallel_reduce(
      0, n_nets, kNetGrain, 0.0,
      [&](std::int64_t nb, std::int64_t ne) {
        return hpwl_chunk(xc, yc, nb, ne);
      },
      kMaxNetChunks);
}

double WaWirelength::hpwl_chunk(const std::vector<double>& xc,
                                const std::vector<double>& yc,
                                std::int64_t nb, std::int64_t ne) const {
  const GpSoA& s = *soa_;
  const double* xp = xc.data();
  const double* yp = yc.data();
  double total = 0.0;
  for (std::int64_t ni = nb; ni < ne; ++ni) {
    const std::size_t un = static_cast<std::size_t>(ni);
    const std::int64_t s0 = s.net_start[un];
    const std::int64_t s1 = s.net_start[un + 1];
    double xlo = std::numeric_limits<double>::max(), xhi = -xlo;
    double ylo = xlo, yhi = xhi;
    for (std::int64_t sl = s0; sl < s1; ++sl) {
      const std::size_t us = static_cast<std::size_t>(sl);
      const std::int32_t ord = s.pin_ord[us];
      const double x = ord >= 0 ? xp[ord] + s.pin_ox[us] : s.pin_ox[us];
      const double y = ord >= 0 ? yp[ord] + s.pin_oy[us] : s.pin_oy[us];
      xlo = std::min(xlo, x);
      xhi = std::max(xhi, x);
      ylo = std::min(ylo, y);
      yhi = std::max(yhi, y);
    }
    total += s.net_weight[un] * ((xhi - xlo) + (yhi - ylo));
  }
  return total;
}

}  // namespace puffer
