// ePlace-style electrostatic global placement engine (paper SS II-B).
//
// Minimizes f = W(x,y) + lambda * D(x,y) with Nesterov's accelerated
// gradient method: W is the WA wirelength model, D the electrostatic
// potential energy. Key mechanics reproduced from ePlace [14]:
//
//   * filler cells occupy the whitespace so the equilibrium density is
//     the target density everywhere;
//   * fixed macros inject (target-scaled) static charge so cells flow
//     around them;
//   * per-cell preconditioning by (pin count + lambda * charge);
//   * the force on an element is its charge times the bin fields averaged
//     over its smoothed extent, so the gradient moves continuously with
//     the element;
//   * steplength prediction: each Nesterov iteration evaluates the
//     gradient once, at the extrapolated point, and predicts the next
//     step from the secant between consecutive extrapolated points
//     (retrying with the prediction when it falls below 0.95 of the
//     step); lambda grows each iteration by a factor steered by the HPWL
//     delta;
//   * the WA smoothing gamma anneals with the density overflow.
//
// Cell *padding* (the PUFFER routability mechanism) enters here: the
// engine's charge of a movable cell is its padded area, so padded cells
// claim more room and their neighbourhood spreads in subsequent
// iterations. Padding is supplied per movable ordinal via set_padding(),
// which also restarts the momentum: the objective has changed, so the
// stored gradient is dropped and the next step starts without
// extrapolation.
//
// Hot state lives in flat arrays: the engine owns the GpSoA netlist
// mirror (shared with WaWirelength) plus element arrays (movables first,
// then fillers) holding sizes, padding, and the derived rasterization /
// clamp parameters. The density scatter buckets elements into the fixed
// row bands of the parallel decomposition (a parallel counting sort) so
// each band touches only the elements overlapping it; the Nesterov
// vector updates run element-parallel through the simd:: helpers.
// Every kernel keeps the deterministic contract: results are
// bit-identical across PUFFER_THREADS and with the SIMD helpers on or
// off (simd::set_enabled), and the retired scalar kernels
// (GpConfig::legacy_kernels, one-PR lifetime) reproduce the SoA results
// bit-for-bit. Fillers are always built; their initial positions come
// from a fixed seed.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "gp/electrostatics.h"
#include "gp/soa.h"
#include "gp/wirelength.h"
#include "grid/map2d.h"
#include "netlist/design.h"

namespace puffer {

struct GpConfig {
  int bin_dim = 0;              // bins per axis (power of 2); 0 = auto
  double target_density = 0.9;  // equilibrium density in free area
  int max_iters = 1200;

  // Lambda latches (stops growing) once overflow first drops below this.
  double lambda_freeze_overflow = 0.15;

  // Test/bench hook (one-PR lifetime): route the WA gradient and the
  // density rasterization through the retired scalar kernels. Both
  // paths are bit-identical; the hook exists to prove it and to serve
  // as the benchmark baseline replica.
  bool legacy_kernels = false;
};

// Revision of the engine's numerics. PufferFlow::prefix_key hashes it
// with the GpConfig values, so a prefix checkpoint or trial journal
// written by an engine that placed differently fails the key check
// instead of being replayed. Bump it whenever a change moves placement
// results (tests/test_golden.cpp's constants are then re-recorded).
inline constexpr std::uint32_t kGpRevision = 2;

// Largest accepted GpConfig::bin_dim: the engine and its Poisson solver
// allocate about fifteen bin_dim x bin_dim maps of doubles, some 120 MiB
// at this bound.
inline constexpr int kMaxBinDim = 1024;

// Returns `config` unchanged when it is usable; throws
// std::invalid_argument for bin_dim outside 0 (auto) or [1, kMaxBinDim],
// target_density outside (0, 1], a negative or non-finite
// lambda_freeze_overflow, or a negative max_iters. EPlaceEngine and
// PufferFlow validate at construction, before allocating anything.
GpConfig validate_gp_config(GpConfig config);

// Accumulated wall time per kernel family of the Nesterov loop
// (surfaced through FlowMetrics::gp_kernels).
struct GpKernelTimes {
  double wirelength_s = 0.0;  // WA gradient + HPWL
  double density_s = 0.0;     // rasterize + overflow fold + map merge
  double poisson_s = 0.0;     // spectral solve (DCT pipeline)
  double assemble_s = 0.0;    // preconditioned gradient assembly
  double nesterov_s = 0.0;    // step updates outside gradient evals
  int gradient_evals = 0;
  int iterations = 0;

  void add(const GpKernelTimes& o) {
    wirelength_s += o.wirelength_s;
    density_s += o.density_s;
    poisson_s += o.poisson_s;
    assemble_s += o.assemble_s;
    nesterov_s += o.nesterov_s;
    gradient_evals += o.gradient_evals;
    iterations += o.iterations;
  }
};

class EPlaceEngine {
 public:
  EPlaceEngine(Design& design, GpConfig config);
  ~EPlaceEngine();

  EPlaceEngine(const EPlaceEngine&) = delete;
  EPlaceEngine& operator=(const EPlaceEngine&) = delete;

  // Extra width per movable ordinal (indexing follows movable_cells()).
  // Takes effect on the next gradient evaluation. Restarts the momentum
  // (u = v, a_k = 1) and drops the stored gradient, so the next step()
  // evaluates the gradient at v once more.
  void set_padding(const std::vector<double>& pad_width);

  // Runs Nesterov iterations until density overflow <= `overflow_target`
  // or the iteration cap; returns the final overflow. Positions are
  // written back to the design on return.
  double run_to_overflow(double overflow_target);

  // One Nesterov iteration; returns false once the iteration cap is hit
  // or the engine has converged (density overflow stopped improving).
  bool step();

  // True when the overflow has plateaued; cleared by set_padding().
  bool converged() const { return converged_; }

  // Movable-cell ordinal order shared with WaWirelength.
  const std::vector<CellId>& movable_cells() const { return soa_->cell_ids; }

  double density_overflow() const { return overflow_; }
  double last_hpwl() const { return hpwl_; }
  double lambda() const { return lambda_; }
  // Nesterov momentum parameter a_k: 1 after construction and after
  // set_padding(), growing by one half per iteration.
  double momentum() const { return ak_; }
  int iteration() const { return iter_; }
  int bin_dim() const { return bins_; }
  double bin_w() const { return bin_w_; }

  // Per-kernel wall-time breakdown accumulated since construction.
  const GpKernelTimes& kernel_times() const { return times_; }

  // Writes current solution centers back into the design (lower-left
  // coordinates; padding does not shift the stored position) via the
  // SoA mirror, which stays in sync as a side effect.
  void sync_to_design();

  // The shared netlist mirror (positions valid at commit points).
  const GpSoA& soa() const { return *soa_; }

  // --- test/bench probes ----------------------------------------------
  // Rasterizes the given element centers with the configured kernel and
  // returns the movable+filler density map.
  const Map2D<double>& rasterize_probe(const std::vector<double>& x,
                                       const std::vector<double>& y);
  // Current solver positions (element centers, movables then fillers).
  const std::vector<double>& solver_x() const { return xu_; }
  const std::vector<double>& solver_y() const { return yu_; }
  std::size_t num_elements() const { return elem_w_.size(); }

 private:
  void build_fillers();
  void rasterize_fixed();
  // Recomputes the derived per-element arrays (smoothed raster extents,
  // charge scale, clamp bounds) after sizes or padding change.
  void update_raster_params();
  void rasterize(const std::vector<double>& x, const std::vector<double>& y);
  void rasterize_soa(const std::vector<double>& x,
                     const std::vector<double>& y);
  void rasterize_legacy(const std::vector<double>& x,
                        const std::vector<double>& y);
  // Field acting on element i centered at (x, y): the bin fields of the
  // last solve averaged over the element's smoothed extent by overlap.
  void element_field(std::size_t i, double x, double y, double& fx,
                     double& fy) const;
  // Evaluates the preconditioned gradient at (x, y); updates overflow_,
  // hpwl_ and, on the first call, lambda_.
  void gradient(const std::vector<double>& x, const std::vector<double>& y,
                std::vector<double>& gx, std::vector<double>& gy);
  // Preconditioned gradient at (x, y) from the last evaluation's WA
  // gradient and fields under the current lambda.
  void assemble(const std::vector<double>& x, const std::vector<double>& y,
                std::vector<double>& gx, std::vector<double>& gy) const;
  // Clamps elements [b, b + m) into the die.
  void clamp_positions(std::vector<double>& x, std::vector<double>& y,
                       std::size_t b, std::size_t m) const;
  // Runs fn(first, count) over the element range in parallel chunks, for
  // element-wise updates (any split gives the same bits).
  template <class Fn>
  void for_elements(Fn&& fn) const;
  double gamma() const;
  double elem_area(std::size_t i) const {
    return (elem_w_[i] + elem_pad_[i]) * elem_h_[i];
  }

  Design& design_;
  GpConfig config_;
  std::shared_ptr<GpSoA> soa_;
  WaWirelength wirelength_;
  int bins_ = 0;
  double bin_w_ = 1.0, bin_h_ = 1.0;

  // Element arrays: movables (ordinal order) first, then fillers.
  std::vector<double> elem_w_, elem_h_, elem_pad_;
  std::size_t num_movable_ = 0;
  // Derived (update_raster_params): smoothed half extents, charge scale,
  // and the per-element die clamp bounds.
  std::vector<double> ras_hw_, ras_hh_, ras_scale_;
  std::vector<double> xlo_b_, xhi_b_, ylo_b_, yhi_b_;

  // Row-band buckets for the density scatter (rebuilt per rasterize):
  // band b owns the bin rows of parallel chunk b; band_elems_ lists the
  // elements overlapping each band in ascending order. band_fill_ holds
  // the per-(element chunk, band) counts, then write offsets, of the
  // parallel counting sort.
  int nbands_ = 1;
  std::vector<std::int32_t> band_of_row_;
  std::vector<std::int64_t> band_start_, band_fill_;
  std::vector<std::int32_t> band_elems_;
  std::vector<std::int32_t> ebx0_, ebx1_, eby0_, eby1_;

  std::unique_ptr<ElectrostaticSystem> es_;
  Map2D<double> rho_fixed_;     // target-scaled static macro charge
  Map2D<double> bin_free_cap_;  // target_density * free bin area
  Map2D<double> rho_move_;      // scratch: movable + filler charge
  Map2D<double> rho_real_;      // scratch: real movables only (overflow)
  Map2D<double> rho_total_;     // scratch: movable + filler + fixed

  // Nesterov state and preallocated step scratch.
  std::vector<double> xu_, yu_, xv_, yv_, gxv_, gyv_;
  std::vector<double> gwx_, gwy_;  // WA gradient (movables)
  // Trial points u', v' and the trial gradient g(v') (gxu_/gyu_).
  std::vector<double> xu_new_, yu_new_, gxu_, gyu_, xv_new_, yv_new_;
  std::vector<double> dp_term_, dg_term_;  // secant sum terms
  double ak_ = 1.0;
  double step_ = 0.0;
  int iter_ = 0;
  bool initialized_ = false;
  bool converged_ = false;
  bool lambda_frozen_ = false;
  double best_overflow_ = 2.0;
  int stall_ = 0;

  double lambda_ = 0.0;
  double overflow_ = 1.0;
  double hpwl_ = 0.0;
  double hpwl0_ = 0.0;
  double total_real_area_ = 1.0;

  GpKernelTimes times_;
};

}  // namespace puffer
