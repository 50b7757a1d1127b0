// Spectral electrostatic system (paper Eqs. 3-6, after ePlace [14]).
//
// The placement region is divided into an M x M bin grid. The charge
// density rho (cell area per bin) is expanded in a cosine series with a
// 2D DCT-II; the Poisson equation  -lap(psi) = rho  is solved in the
// spectral domain by dividing each coefficient by (wu^2 + wv^2), and the
// potential / field are evaluated with inverse cosine/sine transforms:
//
//   psi  = sum  a_uv / (wu^2+wv^2) * cos(wu x) cos(wv y)
//   xi_x = sum  a_uv * wu / (wu^2+wv^2) * sin(wu x) cos(wv y)
//   xi_y = sum  a_uv * wv / (wu^2+wv^2) * cos(wu x) sin(wv y)
//
// with wu = pi*u/W, wv = pi*v/H (W, H the die extents) and the DC mode
// dropped. The density penalty is D = sum_i q_i psi(b_i) and its gradient
// w.r.t. a cell position is -q_i * xi(b_i).
//
// The transforms run through a preplanned DctPlan2D (precomputed twiddle
// tables, no per-solve allocation) and the spectral weights
// s*c_u*c_v/(wu^2+wv^2), s*.../(...)*wu, ... are baked into per-mode
// tables at construction. solve() computes only what the placer reads:
// the forward spectrum, three multiplies per mode, and both field maps in
// one batched inverse pass (DctPlan2D::fields_2d). The potential and the
// energy cost a third inverse transform and a reduction, so they are
// computed on first request after a solve, bit-identical to an eager
// evaluation.
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "fft/dct_plan.h"
#include "grid/map2d.h"

namespace puffer {

class ElectrostaticSystem {
 public:
  // nx, ny: bin counts (powers of two). w, h: physical die extents.
  ElectrostaticSystem(int nx, int ny, double w, double h);

  // Solves for the given density map (size nx*ny, row-major, x fastest):
  // computes the spectrum and the two field maps.
  void solve(const Map2D<double>& density);

  // Test/bench hook (one-PR lifetime): route the 2D transforms through
  // the allocating free functions in fft/dct.h instead of the preplanned
  // DctPlan2D. The plan is bit-identical to the free functions by
  // construction, so only speed changes; the hook lets the benchmark
  // baseline replicate the pre-plan pipeline faithfully.
  void use_legacy_pipeline(bool on) { legacy_ = on; }

  const Map2D<double>& field_x() const { return ex_; }
  const Map2D<double>& field_y() const { return ey_; }

  // Potential psi of the last solve; computed on the first call after it.
  const Map2D<double>& potential();
  // Total potential energy sum_b rho(b) * psi(b) of the last solve.
  double energy();

  int nx() const { return nx_; }
  int ny() const { return ny_; }

 private:
  int nx_, ny_;
  DctPlan2D plan_;
  bool legacy_ = false;
  // Per-mode spectral weights (DC entry zero): coeff = w_psi * a_uv,
  // then c_ex = coeff * wu, c_ey = coeff * wv.
  std::vector<double> w_psi_, wu_, wv_;
  // Spectra: forward, the two field coefficient arrays (preallocated),
  // and the potential's (sized on the first request, like psi_).
  std::vector<double> a_, c_ex_, c_ey_, c_psi_;
  // Copy of the last density, for energy().
  std::vector<double> rho_;
  Map2D<double> psi_, ex_, ey_;
  bool have_psi_ = false, have_energy_ = false;
  double energy_ = 0.0;
};

}  // namespace puffer
