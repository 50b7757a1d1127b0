#include "fft/dct_plan.h"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <stdexcept>

#include "common/parallel.h"
#include "common/simd.h"
#include "fft/fft.h"

namespace puffer {

namespace {
constexpr std::int64_t kLineGrain = 8;
constexpr int kMaxLineChunks = 64;
// Column pass: kColBlock adjacent columns (one 64-byte line of doubles
// per row) per unit of work, at most kMaxColChunks chunks.
constexpr std::size_t kColBlock = 8;
constexpr int kMaxColChunks = 16;
}  // namespace

DctPlan2D::LinePlan DctPlan2D::make_line_plan(std::size_t n) {
  if (!is_pow2(n)) {
    throw std::invalid_argument("DctPlan2D: sizes must be powers of 2");
  }
  LinePlan p;
  p.n = n;

  // Bit-reversal permutation (the fixed point of fft()'s in-place swap
  // pass: swap a[i], a[bitrev[i]] for i < bitrev[i]).
  p.bitrev.resize(n);
  std::size_t j = 0;
  p.bitrev[0] = 0;
  for (std::size_t i = 1; i < n; ++i) {
    std::size_t bit = n >> 1;
    for (; j & bit; bit >>= 1) j ^= bit;
    j ^= bit;
    p.bitrev[i] = static_cast<std::uint32_t>(j);
  }

  // Per-stage twiddles, concatenated in stage order. Built with the same
  // w *= wlen recurrence fft() runs per block, so butterfly inputs -- and
  // therefore outputs -- are bit-identical to the free functions.
  for (int dir = 0; dir < 2; ++dir) {
    const bool invert = dir == 1;
    std::vector<cd>& tw = invert ? p.tw_inv : p.tw_fwd;
    for (std::size_t len = 2; len <= n; len <<= 1) {
      const double ang = 2.0 * std::numbers::pi / static_cast<double>(len) *
                         (invert ? 1.0 : -1.0);
      const cd wlen(std::cos(ang), std::sin(ang));
      cd w(1.0, 0.0);
      for (std::size_t k = 0; k < len / 2; ++k) {
        tw.push_back(w);
        w *= wlen;
      }
    }
  }

  p.rot_fwd.resize(n);
  p.rot_inv.resize(n);
  for (std::size_t k = 0; k < n; ++k) {
    const double ang = std::numbers::pi * static_cast<double>(k) /
                       (2.0 * static_cast<double>(n));
    p.rot_fwd[k] = cd(std::cos(-ang), std::sin(-ang));
    p.rot_inv[k] = cd(std::cos(ang), std::sin(ang));
  }
  return p;
}

DctPlan2D::DctPlan2D(std::size_t nx, std::size_t ny)
    : nx_(nx), ny_(ny), px_(make_line_plan(nx)), py_(make_line_plan(ny)) {
  // Enough chunk scratch for the widest pass: fields_2d() batches two
  // grids through both the row and the column pass.
  const std::int64_t blocks =
      static_cast<std::int64_t>((nx_ + kColBlock - 1) / kColBlock);
  const int chunks = std::max(
      par::chunk_count(2 * static_cast<std::int64_t>(ny_), kLineGrain,
                       kMaxLineChunks),
      par::chunk_count(2 * blocks, 1, kMaxColChunks));
  scratch_.resize(static_cast<std::size_t>(chunks));
  const std::size_t line = std::max(nx_, ny_);
  for (Scratch& s : scratch_) {
    s.pair.resize(4 * line);
    s.flip.resize(2 * line);
    s.block.resize(kColBlock * ny_);
  }
}

template <class P>
void DctPlan2D::fft_pair(double* re, double* im, const LinePlan& p,
                         bool invert) {
  // re[2k + lane], im[2k + lane]: element k of each lane's line.
  const std::size_t n = p.n;
  if (n == 1) return;
  for (std::size_t i = 1; i < n; ++i) {
    const std::size_t j = p.bitrev[i];
    if (i < j) {
      for (double* a : {re, im}) {
        const P t = P::load(a + 2 * i);
        P::load(a + 2 * j).store(a + 2 * i);
        t.store(a + 2 * j);
      }
    }
  }
  const cd* tw = (invert ? p.tw_inv : p.tw_fwd).data();
  for (std::size_t len = 2; len <= n; len <<= 1) {
    const std::size_t half = len / 2;
    for (std::size_t i = 0; i < n; i += len) {
      for (std::size_t k = 0; k < half; ++k) {
        // Manual complex butterfly: same ac-bd / ad+bc products as the
        // std::complex operator* fast path, minus its per-multiply NaN
        // checks (bit-identical for the finite values seen here).
        const P wr = P::splat(tw[k].real()), wi = P::splat(tw[k].imag());
        double* ra = re + 2 * (i + k);
        double* ia = im + 2 * (i + k);
        double* rb = ra + 2 * half;
        double* ib = ia + 2 * half;
        const P br = P::load(rb), bi = P::load(ib);
        const P vr = br * wr - bi * wi;
        const P vi = br * wi + bi * wr;
        const P ur = P::load(ra), ui = P::load(ia);
        (ur + vr).store(ra);
        (ui + vi).store(ia);
        (ur - vr).store(rb);
        (ui - vi).store(ib);
      }
    }
    tw += half;
  }
  if (invert) {
    // Component-wise, as std::complex *= double.
    const P inv_n = P::splat(1.0 / static_cast<double>(n));
    for (std::size_t k = 0; k < 2 * n; k += 2) {
      (P::load(re + k) * inv_n).store(re + k);
      (P::load(im + k) * inv_n).store(im + k);
    }
  }
}

template <class P>
void DctPlan2D::dct2_pair(const double* x0, const double* x1, double* out0,
                          double* out1, const LinePlan& p, Scratch& s) {
  const std::size_t n = p.n;
  double* re = s.pair.data();
  double* im = re + 2 * n;
  for (std::size_t i = 0; i < n / 2; ++i) {
    P::set(x0[2 * i], x1[2 * i]).store(re + 2 * i);
    P::set(x0[2 * i + 1], x1[2 * i + 1]).store(re + 2 * (n - 1 - i));
  }
  if (n == 1) P::set(x0[0], x1[0]).store(re);
  std::fill(im, im + 2 * n, 0.0);
  fft_pair<P>(re, im, p, false);
  for (std::size_t k = 0; k < n; ++k) {
    // Real part of v[k] * rot_fwd[k], same products as operator*.
    const P rr = P::splat(p.rot_fwd[k].real());
    const P ri = P::splat(p.rot_fwd[k].imag());
    (P::load(re + 2 * k) * rr - P::load(im + 2 * k) * ri)
        .split(out0 + k, out1 + k);
  }
}

template <class P>
void DctPlan2D::dct3_pair(const double* x0, const double* x1, double* out0,
                          double* out1, const LinePlan& p, Scratch& s) {
  // dct3_raw(X) = (N/2) * idct(X'') with X''[0] = 2*X[0]; see dct.h.
  const std::size_t n = p.n;
  const double scale = static_cast<double>(n) / 2.0;
  if (n == 1) {
    const double y0 = x0[0] * 2.0 * scale, y1 = x1[0] * 2.0 * scale;
    *out0 = y0;
    *out1 = y1;
    return;
  }
  double* re = s.pair.data();
  double* im = re + 2 * n;
  P::set(x0[0] * 2.0, x1[0] * 2.0).store(re);
  P::splat(0.0).store(im);
  for (std::size_t k = 1; k < n; ++k) {
    // rot_inv[k] * (X[k] - i X[n-k]), expanded like the operator* fast
    // path (first operand's components are the a/b of ac-bd / ad+bc).
    const P rr = P::splat(p.rot_inv[k].real());
    const P ri = P::splat(p.rot_inv[k].imag());
    const P c = P::set(x0[k], x1[k]);
    const P d = P::set(-x0[n - k], -x1[n - k]);
    (rr * c - ri * d).store(re + 2 * k);
    (rr * d + ri * c).store(im + 2 * k);
  }
  fft_pair<P>(re, im, p, true);
  const P sc = P::splat(scale);
  for (std::size_t i = 0; i < n / 2; ++i) {
    (P::load(re + 2 * i) * sc).split(out0 + 2 * i, out1 + 2 * i);
    (P::load(re + 2 * (n - 1 - i)) * sc)
        .split(out0 + 2 * i + 1, out1 + 2 * i + 1);
  }
}

void DctPlan2D::run_pair(LineOp op, const double* in0, const double* in1,
                         double* out0, double* out1, const LinePlan& p,
                         Scratch& s) {
  const bool vec = simd::enabled();
  const std::size_t n = p.n;
  if (op == LineOp::kIdxst) {
    // Flipped cosine series with alternating signs; see dct.h.
    double* f0 = s.flip.data();
    double* f1 = f0 + n;
    f0[0] = f1[0] = 0.0;
    for (std::size_t k = 1; k < n; ++k) {
      f0[k] = in0[n - k];
      f1[k] = in1[n - k];
    }
    in0 = f0;
    in1 = f1;
  }
  if (op == LineOp::kDct2) {
    if (vec) {
      dct2_pair<simd::VecPair>(in0, in1, out0, out1, p, s);
    } else {
      dct2_pair<simd::ScalarPair>(in0, in1, out0, out1, p, s);
    }
    return;
  }
  if (vec) {
    dct3_pair<simd::VecPair>(in0, in1, out0, out1, p, s);
  } else {
    dct3_pair<simd::ScalarPair>(in0, in1, out0, out1, p, s);
  }
  if (op == LineOp::kIdxst) {
    for (std::size_t m = 1; m < n; m += 2) {
      out0[m] = -out0[m];
      if (out1 != out0) out1[m] = -out1[m];
    }
  }
}

void DctPlan2D::run_grids(const Grid* grids, std::size_t n) const {
  // Row pass over every grid's rows in one fan-out.
  par::parallel_for(
      0, static_cast<std::int64_t>(n * ny_), kLineGrain,
      [&](std::int64_t b, std::int64_t e, int c) {
        Scratch& s = scratch_[static_cast<std::size_t>(c)];
        for (std::int64_t li = b; li < e;) {
          // Pair this row with the next one when both are in the chunk
          // and in the same grid.
          const std::size_t l = static_cast<std::size_t>(li);
          const Grid& g = grids[l / ny_];
          const std::size_t r0 = l % ny_;
          const bool two = li + 1 < e && r0 + 1 < ny_;
          const std::size_t o0 = r0 * nx_, o1 = (two ? r0 + 1 : r0) * nx_;
          run_pair(g.op_x, g.in + o0, g.in + o1, g.out + o0, g.out + o1, px_,
                   s);
          li += two ? 2 : 1;
        }
      },
      kMaxLineChunks);

  // Column pass in place on each output: a unit gathers kColBlock
  // adjacent columns into contiguous scratch lines, transforms them
  // there and scatters them back. Units own disjoint columns.
  const std::size_t blocks = (nx_ + kColBlock - 1) / kColBlock;
  par::parallel_for(
      0, static_cast<std::int64_t>(n * blocks), 1,
      [&](std::int64_t b, std::int64_t e, int c) {
        Scratch& s = scratch_[static_cast<std::size_t>(c)];
        double* blk = s.block.data();
        for (std::int64_t ui = b; ui < e; ++ui) {
          const std::size_t u = static_cast<std::size_t>(ui);
          const Grid& g = grids[u / blocks];
          const std::size_t x0 = (u % blocks) * kColBlock;
          const std::size_t w = std::min(kColBlock, nx_ - x0);
          double* base = g.out + x0;
          for (std::size_t y = 0; y < ny_; ++y) {
            const double* row = base + y * nx_;
            for (std::size_t j = 0; j < w; ++j) blk[j * ny_ + y] = row[j];
          }
          for (std::size_t j = 0; j < w; j += 2) {
            double* l0 = blk + j * ny_;
            double* l1 = j + 1 < w ? l0 + ny_ : l0;
            run_pair(g.op_y, l0, l1, l0, l1, py_, s);
          }
          for (std::size_t y = 0; y < ny_; ++y) {
            double* row = base + y * nx_;
            for (std::size_t j = 0; j < w; ++j) row[j] = blk[j * ny_ + y];
          }
        }
      },
      kMaxColChunks);
}

void DctPlan2D::apply(const std::vector<double>& in, std::vector<double>& out,
                      LineOp op_x, LineOp op_y) const {
  if (in.size() != nx_ * ny_) {
    throw std::invalid_argument("2d transform: size mismatch");
  }
  out.resize(nx_ * ny_);  // no-op when aliased with `in`
  const Grid g{in.data(), out.data(), op_x, op_y};
  run_grids(&g, 1);
}

void DctPlan2D::dct2_2d(const std::vector<double>& in,
                        std::vector<double>& out) const {
  apply(in, out, LineOp::kDct2, LineOp::kDct2);
}

void DctPlan2D::dct3_raw_2d(const std::vector<double>& in,
                            std::vector<double>& out) const {
  apply(in, out, LineOp::kDct3, LineOp::kDct3);
}

void DctPlan2D::idxst_dct3_2d(const std::vector<double>& in,
                              std::vector<double>& out) const {
  apply(in, out, LineOp::kIdxst, LineOp::kDct3);
}

void DctPlan2D::dct3_idxst_2d(const std::vector<double>& in,
                              std::vector<double>& out) const {
  apply(in, out, LineOp::kDct3, LineOp::kIdxst);
}

void DctPlan2D::fields_2d(const std::vector<double>& in_x,
                          const std::vector<double>& in_y,
                          std::vector<double>& out_x,
                          std::vector<double>& out_y) const {
  if (in_x.size() != nx_ * ny_ || in_y.size() != nx_ * ny_) {
    throw std::invalid_argument("2d transform: size mismatch");
  }
  out_x.resize(nx_ * ny_);
  out_y.resize(nx_ * ny_);
  const Grid grids[2] = {
      {in_x.data(), out_x.data(), LineOp::kIdxst, LineOp::kDct3},
      {in_y.data(), out_y.data(), LineOp::kDct3, LineOp::kIdxst}};
  run_grids(grids, 2);
}

}  // namespace puffer
