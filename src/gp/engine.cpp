#include "gp/engine.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "common/logger.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "common/simd.h"
#include "common/timer.h"
#include "fft/fft.h"

namespace puffer {

namespace {
constexpr const char* kTag = "gp";
// Element chunking of the density bucket pass (fixed decomposition).
constexpr std::int64_t kElemGrain = 1024;
constexpr int kMaxElemChunks = 64;
// Row bands of the density scatter (any count gives the same bits).
constexpr int kMaxBands = 8;
// Steplength-prediction trials per Nesterov iteration.
constexpr int kMaxStepTrials = 10;
// Lambda schedule (ePlace-style multiplicative update): lambda grows by
// up to kMuMax per iteration, less as the iteration's HPWL increase
// approaches kHpwlRefFrac of the initial HPWL.
constexpr double kMuMax = 1.10;
constexpr double kHpwlRefFrac = 0.008;
// Seed of the filler cells' initial positions.
constexpr std::uint64_t kFillerSeed = 11;

std::shared_ptr<GpSoA> make_soa(const Design& design) {
  auto soa = std::make_shared<GpSoA>();
  soa->build(design);
  return soa;
}

}  // namespace

GpConfig validate_gp_config(GpConfig config) {
  if (config.bin_dim < 0 || config.bin_dim > kMaxBinDim) {
    throw std::invalid_argument("GpConfig.bin_dim must be 0 (auto) or in [1, " +
                                std::to_string(kMaxBinDim) + "]");
  }
  if (!(config.target_density > 0.0 && config.target_density <= 1.0)) {
    throw std::invalid_argument("GpConfig.target_density must be in (0, 1]");
  }
  if (!(std::isfinite(config.lambda_freeze_overflow) &&
        config.lambda_freeze_overflow >= 0.0)) {
    throw std::invalid_argument(
        "GpConfig.lambda_freeze_overflow must be finite and non-negative");
  }
  if (config.max_iters < 0) {
    throw std::invalid_argument("GpConfig.max_iters must be non-negative");
  }
  return config;
}

EPlaceEngine::EPlaceEngine(Design& design, GpConfig config)
    : design_(design), config_(validate_gp_config(config)),
      soa_(make_soa(design)), wirelength_(soa_) {
  wirelength_.use_legacy_kernels(config_.legacy_kernels);
  const std::size_t n_mov = soa_->num_movable();
  if (config_.bin_dim <= 0) {
    // Aim for a couple of cells per bin, within [32, 128] bins per axis.
    const std::size_t want = next_pow2(static_cast<std::size_t>(
        std::sqrt(static_cast<double>(std::max<std::size_t>(n_mov, 1)) / 2.0)));
    bins_ = static_cast<int>(std::clamp<std::size_t>(want, 32, 128));
  } else {
    bins_ = static_cast<int>(next_pow2(static_cast<std::size_t>(config_.bin_dim)));
  }
  bin_w_ = design.die.width() / bins_;
  bin_h_ = design.die.height() / bins_;
  es_ = std::make_unique<ElectrostaticSystem>(bins_, bins_, design.die.width(),
                                              design.die.height());
  es_->use_legacy_pipeline(config_.legacy_kernels);
  rho_fixed_ = Map2D<double>(bins_, bins_);
  bin_free_cap_ = Map2D<double>(bins_, bins_);
  rho_move_ = Map2D<double>(bins_, bins_);
  rho_real_ = Map2D<double>(bins_, bins_);
  rho_total_ = Map2D<double>(bins_, bins_);

  // Row bands of the density scatter: one band per chunk of the same
  // fixed decomposition rasterize() fans out with.
  nbands_ = par::chunk_count(bins_, std::max(1, bins_ / kMaxBands), kMaxBands);
  band_of_row_.resize(static_cast<std::size_t>(bins_));
  for (int b = 0; b < nbands_; ++b) {
    const auto [lo, hi] = par::chunk_range(bins_, nbands_, b);
    for (std::int64_t r = lo; r < hi; ++r) {
      band_of_row_[static_cast<std::size_t>(r)] = b;
    }
  }
  band_start_.resize(static_cast<std::size_t>(nbands_) + 1);

  num_movable_ = n_mov;
  elem_w_ = soa_->cw;
  elem_h_ = soa_->chh;
  elem_pad_.assign(n_mov, 0.0);
  xu_ = soa_->cx;
  yu_ = soa_->cy;
  for (std::size_t i = 0; i < n_mov; ++i) {
    total_real_area_ += elem_w_[i] * elem_h_[i];
  }

  rasterize_fixed();
  build_fillers();
  update_raster_params();
  xv_ = xu_;
  yv_ = yu_;
  clamp_positions(xu_, yu_, 0, xu_.size());
  clamp_positions(xv_, yv_, 0, xv_.size());
}

EPlaceEngine::~EPlaceEngine() = default;

void EPlaceEngine::set_padding(const std::vector<double>& pad_width) {
  const std::size_t n = std::min(pad_width.size(), num_movable_);
  for (std::size_t i = 0; i < n; ++i) {
    elem_pad_[i] = std::max(0.0, pad_width[i]);
  }
  update_raster_params();
  // New areas change the objective: restart the momentum at v and drop
  // g(v), whose secant against the new objective would mispredict the
  // step. The next step() evaluates g(v) again.
  ak_ = 1.0;
  xu_ = xv_;
  yu_ = yv_;
  gxv_.clear();
  gyv_.clear();
  // New areas change the equilibrium; resume optimizing.
  converged_ = false;
  best_overflow_ = 2.0;
  stall_ = 0;
}

void EPlaceEngine::update_raster_params() {
  const std::size_t n = elem_w_.size();
  ras_hw_.resize(n);
  ras_hh_.resize(n);
  ras_scale_.resize(n);
  xlo_b_.resize(n);
  xhi_b_.resize(n);
  ylo_b_.resize(n);
  yhi_b_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    // ePlace local smoothing: a cell narrower than a bin is widened to
    // one bin with its charge density scaled down to preserve area.
    double w = elem_w_[i] + elem_pad_[i];
    double h = elem_h_[i];
    double scale = 1.0;
    if (w < bin_w_) {
      scale *= w / bin_w_;
      w = bin_w_;
    }
    if (h < bin_h_) {
      scale *= h / bin_h_;
      h = bin_h_;
    }
    ras_hw_[i] = w * 0.5;
    ras_hh_[i] = h * 0.5;
    ras_scale_[i] = scale;
    // Die clamp bounds use the physical (unsmoothed) padded extents.
    const double hw = (elem_w_[i] + elem_pad_[i]) * 0.5;
    const double hh = elem_h_[i] * 0.5;
    xlo_b_[i] = design_.die.xlo + hw;
    xhi_b_[i] = design_.die.xhi - hw;
    ylo_b_[i] = design_.die.ylo + hh;
    yhi_b_[i] = design_.die.yhi - hh;
  }
  ebx0_.resize(n);
  ebx1_.resize(n);
  eby0_.resize(n);
  eby1_.resize(n);
}

void EPlaceEngine::build_fillers() {
  // Whitespace to occupy: target_density * free area - movable area.
  double free_area = 0.0;
  for (const double cap : bin_free_cap_.raw()) free_area += cap;
  // bin_free_cap_ already carries the target_density factor.
  const double movable_area = total_real_area_;
  const double filler_total = std::max(0.0, free_area - movable_area);
  if (filler_total <= 0.0 || num_movable_ == 0) return;

  double avg_area = movable_area / static_cast<double>(num_movable_);
  const double side_h = design_.tech.row_height;
  const double side_w = std::max(design_.tech.site_width, avg_area / side_h);
  const double filler_area = side_w * side_h;
  std::size_t count = static_cast<std::size_t>(filler_total / filler_area);
  count = std::min(count, num_movable_ * 2);  // perf guard
  if (count == 0) return;
  const double each_area = filler_total / static_cast<double>(count);
  const double w = each_area / side_h;

  Rng rng(kFillerSeed);
  for (std::size_t i = 0; i < count; ++i) {
    elem_w_.push_back(w);
    elem_h_.push_back(side_h);
    elem_pad_.push_back(0.0);
    xu_.push_back(rng.uniform(design_.die.xlo + w, design_.die.xhi - w));
    yu_.push_back(rng.uniform(design_.die.ylo + side_h, design_.die.yhi - side_h));
  }
  PUFFER_LOG_DEBUG(kTag, "added %zu fillers (%.1f area each)", count, each_area);
}

void EPlaceEngine::rasterize_fixed() {
  // Static charge of macros, scaled by target density so that a uniform
  // target-density sea is an equilibrium; also the free-capacity map used
  // by the overflow metric.
  Map2D<double> macro_area(bins_, bins_);
  for (const Cell& c : design_.cells) {
    if (!c.is_macro()) continue;
    const Rect r = c.rect().clamped(design_.die);
    if (r.empty()) continue;
    const int x0 = std::clamp(static_cast<int>((r.xlo - design_.die.xlo) / bin_w_), 0, bins_ - 1);
    const int x1 = std::clamp(static_cast<int>((r.xhi - design_.die.xlo) / bin_w_), 0, bins_ - 1);
    const int y0 = std::clamp(static_cast<int>((r.ylo - design_.die.ylo) / bin_h_), 0, bins_ - 1);
    const int y1 = std::clamp(static_cast<int>((r.yhi - design_.die.ylo) / bin_h_), 0, bins_ - 1);
    for (int by = y0; by <= y1; ++by) {
      for (int bx = x0; bx <= x1; ++bx) {
        const Rect bin{design_.die.xlo + bx * bin_w_, design_.die.ylo + by * bin_h_,
                       design_.die.xlo + (bx + 1) * bin_w_,
                       design_.die.ylo + (by + 1) * bin_h_};
        macro_area.at(bx, by) += bin.overlap_area(r);
      }
    }
  }
  const double bin_area = bin_w_ * bin_h_;
  for (int by = 0; by < bins_; ++by) {
    for (int bx = 0; bx < bins_; ++bx) {
      const double ma = std::min(macro_area.at(bx, by), bin_area);
      rho_fixed_.at(bx, by) = config_.target_density * ma;
      bin_free_cap_.at(bx, by) = config_.target_density * (bin_area - ma);
    }
  }
}

void EPlaceEngine::rasterize(const std::vector<double>& x,
                             const std::vector<double>& y) {
  if (config_.legacy_kernels) {
    rasterize_legacy(x, y);
    simd::add(rho_move_.raw().data(), rho_fixed_.raw().data(),
              rho_total_.raw().data(), rho_total_.raw().size());
  } else {
    rasterize_soa(x, y);
  }
}

void EPlaceEngine::rasterize_soa(const std::vector<double>& x,
                                 const std::vector<double>& y) {
  const double die_x = design_.die.xlo;
  const double die_y = design_.die.ylo;
  const std::int64_t n = static_cast<std::int64_t>(elem_w_.size());
  const std::size_t nb = static_cast<std::size_t>(nbands_);

  // Bucket pass, a parallel counting sort of the elements into the row
  // bands they overlap. First each element chunk computes its elements'
  // bin-index ranges and counts them per band.
  const int echunks = par::chunk_count(n, kElemGrain, kMaxElemChunks);
  band_fill_.assign(static_cast<std::size_t>(echunks) * nb, 0);
  par::parallel_for(
      0, n, kElemGrain,
      [&](std::int64_t b, std::int64_t e, int c) {
        // Counted in a local array: chunks share cache lines of band_fill_.
        std::int64_t count[kMaxBands] = {};
        for (std::int64_t ii = b; ii < e; ++ii) {
          const std::size_t i = static_cast<std::size_t>(ii);
          const double xlo = x[i] - ras_hw_[i], xhi = x[i] + ras_hw_[i];
          const double ylo = y[i] - ras_hh_[i], yhi = y[i] + ras_hh_[i];
          const int bx0 = std::clamp(static_cast<int>((xlo - die_x) / bin_w_), 0, bins_ - 1);
          const int bx1 = std::clamp(static_cast<int>((xhi - die_x) / bin_w_), 0, bins_ - 1);
          const int by0 = std::clamp(static_cast<int>((ylo - die_y) / bin_h_), 0, bins_ - 1);
          const int by1 = std::clamp(static_cast<int>((yhi - die_y) / bin_h_), 0, bins_ - 1);
          ebx0_[i] = bx0;
          ebx1_[i] = bx1;
          eby0_[i] = by0;
          eby1_[i] = by1;
          const int b0 = band_of_row_[static_cast<std::size_t>(by0)];
          const int b1 = band_of_row_[static_cast<std::size_t>(by1)];
          for (int band = b0; band <= b1; ++band) ++count[band];
        }
        std::copy_n(count, nb, band_fill_.data() + static_cast<std::size_t>(c) * nb);
      },
      kMaxElemChunks);
  // Offsets in (band, chunk) order: band b lists chunk 0's elements, then
  // chunk 1's, ..., so every band lists its elements in ascending order
  // (the serial scatter order).
  std::int64_t total = 0;
  for (std::size_t band = 0; band < nb; ++band) {
    band_start_[band] = total;
    for (int c = 0; c < echunks; ++c) {
      std::int64_t& slot = band_fill_[static_cast<std::size_t>(c) * nb + band];
      const std::int64_t cnt = slot;
      slot = total;
      total += cnt;
    }
  }
  band_start_[nb] = total;
  band_elems_.resize(static_cast<std::size_t>(total));
  // Then each chunk writes its elements at its own offsets.
  par::parallel_for(
      0, n, kElemGrain,
      [&](std::int64_t b, std::int64_t e, int c) {
        std::int64_t fill[kMaxBands];
        std::copy_n(band_fill_.data() + static_cast<std::size_t>(c) * nb, nb, fill);
        for (std::int64_t ii = b; ii < e; ++ii) {
          const std::size_t i = static_cast<std::size_t>(ii);
          const int b0 = band_of_row_[static_cast<std::size_t>(eby0_[i])];
          const int b1 = band_of_row_[static_cast<std::size_t>(eby1_[i])];
          for (int band = b0; band <= b1; ++band) {
            band_elems_[static_cast<std::size_t>(fill[band]++)] =
                static_cast<std::int32_t>(ii);
          }
        }
      },
      kMaxElemChunks);

  // Scatter pass: band b clears its own bin rows, adds its bucket's
  // elements in ascending order -- the same per-bin addition order as a
  // serial full scan, independent of the worker count -- and then adds
  // the fixed charge to those rows.
  par::parallel_for(
      0, bins_, std::max(1, bins_ / kMaxBands),
      [&](std::int64_t band_lo, std::int64_t band_hi_excl, int c) {
        const int lo = static_cast<int>(band_lo);
        const int hi = static_cast<int>(band_hi_excl) - 1;
        const std::size_t row0 = static_cast<std::size_t>(band_lo) *
                                 static_cast<std::size_t>(bins_);
        const std::size_t cells = static_cast<std::size_t>(band_hi_excl - band_lo) *
                                  static_cast<std::size_t>(bins_);
        std::fill_n(rho_move_.raw().begin() + static_cast<std::ptrdiff_t>(row0), cells, 0.0);
        std::fill_n(rho_real_.raw().begin() + static_cast<std::ptrdiff_t>(row0), cells, 0.0);
        const std::int64_t e0 = band_start_[static_cast<std::size_t>(c)];
        const std::int64_t e1 = band_start_[static_cast<std::size_t>(c) + 1];
        for (std::int64_t k = e0; k < e1; ++k) {
          const std::size_t i =
              static_cast<std::size_t>(band_elems_[static_cast<std::size_t>(k)]);
          const double scale = ras_scale_[i];
          const double xlo = x[i] - ras_hw_[i], xhi = x[i] + ras_hw_[i];
          const double ylo = y[i] - ras_hh_[i], yhi = y[i] + ras_hh_[i];
          const int bx0 = ebx0_[i], bx1 = ebx1_[i];
          const int by0 = std::max(lo, static_cast<int>(eby0_[i]));
          const int by1 = std::min(hi, static_cast<int>(eby1_[i]));
          const bool filler = i >= num_movable_;
          for (int by = by0; by <= by1; ++by) {
            const double b_ylo = die_y + by * bin_h_;
            const double oy = std::min(yhi, b_ylo + bin_h_) - std::max(ylo, b_ylo);
            if (oy <= 0.0) continue;
            for (int bx = bx0; bx <= bx1; ++bx) {
              const double b_xlo = die_x + bx * bin_w_;
              const double ox = std::min(xhi, b_xlo + bin_w_) - std::max(xlo, b_xlo);
              if (ox <= 0.0) continue;
              const double a = ox * oy * scale;
              rho_move_.at(bx, by) += a;
              if (!filler) rho_real_.at(bx, by) += a;
            }
          }
        }
        simd::add(rho_move_.raw().data() + row0, rho_fixed_.raw().data() + row0,
                  rho_total_.raw().data() + row0, cells);
      },
      kMaxBands);
}

void EPlaceEngine::rasterize_legacy(const std::vector<double>& x,
                                    const std::vector<double>& y) {
  rho_move_.fill(0.0);
  rho_real_.fill(0.0);
  const double die_x = design_.die.xlo;
  const double die_y = design_.die.ylo;
  // Row-banded scatter: every chunk scans all elements but writes only
  // the bin rows it owns, so per-bin addition order equals the serial
  // element order and the result is worker-count independent.
  par::parallel_for(
      0, bins_, std::max(1, bins_ / 8),
      [&](std::int64_t band_lo, std::int64_t band_hi_excl, int) {
        const int lo = static_cast<int>(band_lo);
        const int hi = static_cast<int>(band_hi_excl) - 1;
        for (std::size_t i = 0; i < elem_w_.size(); ++i) {
          double w = elem_w_[i] + elem_pad_[i];
          double h = elem_h_[i];
          double scale = 1.0;
          if (w < bin_w_) {
            scale *= w / bin_w_;
            w = bin_w_;
          }
          if (h < bin_h_) {
            scale *= h / bin_h_;
            h = bin_h_;
          }
          const double xlo = x[i] - w * 0.5, xhi = x[i] + w * 0.5;
          const double ylo = y[i] - h * 0.5, yhi = y[i] + h * 0.5;
          const int bx0 = std::clamp(static_cast<int>((xlo - die_x) / bin_w_), 0, bins_ - 1);
          const int bx1 = std::clamp(static_cast<int>((xhi - die_x) / bin_w_), 0, bins_ - 1);
          const int by0 = std::max(
              lo, std::clamp(static_cast<int>((ylo - die_y) / bin_h_), 0, bins_ - 1));
          const int by1 = std::min(
              hi, std::clamp(static_cast<int>((yhi - die_y) / bin_h_), 0, bins_ - 1));
          const bool filler = i >= num_movable_;
          for (int by = by0; by <= by1; ++by) {
            const double b_ylo = die_y + by * bin_h_;
            const double oy = std::min(yhi, b_ylo + bin_h_) - std::max(ylo, b_ylo);
            if (oy <= 0.0) continue;
            for (int bx = bx0; bx <= bx1; ++bx) {
              const double b_xlo = die_x + bx * bin_w_;
              const double ox = std::min(xhi, b_xlo + bin_w_) - std::max(xlo, b_xlo);
              if (ox <= 0.0) continue;
              const double a = ox * oy * scale;
              rho_move_.at(bx, by) += a;
              if (!filler) rho_real_.at(bx, by) += a;
            }
          }
        }
      },
      8);
}

const Map2D<double>& EPlaceEngine::rasterize_probe(
    const std::vector<double>& x, const std::vector<double>& y) {
  rasterize(x, y);
  return rho_move_;
}

double EPlaceEngine::gamma() const {
  // WA smoothing annealed with overflow: wide basin early, sharp late.
  const double t = clamp(overflow_, 0.0, 1.0);
  return bin_w_ * (0.5 + 7.5 * t);
}

void EPlaceEngine::element_field(std::size_t i, double x, double y,
                                 double& fx, double& fy) const {
  // Average of the bin fields over the element's smoothed extent, each
  // bin weighted by its overlap (the transpose of the density scatter):
  // the force moves continuously with the element instead of jumping
  // when its center crosses a bin edge.
  const double die_x = design_.die.xlo;
  const double die_y = design_.die.ylo;
  const double xlo = x - ras_hw_[i], xhi = x + ras_hw_[i];
  const double ylo = y - ras_hh_[i], yhi = y + ras_hh_[i];
  const int bx0 = std::clamp(static_cast<int>((xlo - die_x) / bin_w_), 0, bins_ - 1);
  const int bx1 = std::clamp(static_cast<int>((xhi - die_x) / bin_w_), 0, bins_ - 1);
  const int by0 = std::clamp(static_cast<int>((ylo - die_y) / bin_h_), 0, bins_ - 1);
  const int by1 = std::clamp(static_cast<int>((yhi - die_y) / bin_h_), 0, bins_ - 1);
  double sx = 0.0, sy = 0.0, sw = 0.0;
  for (int by = by0; by <= by1; ++by) {
    const double b_ylo = die_y + by * bin_h_;
    const double oy = std::min(yhi, b_ylo + bin_h_) - std::max(ylo, b_ylo);
    if (oy <= 0.0) continue;
    for (int bx = bx0; bx <= bx1; ++bx) {
      const double b_xlo = die_x + bx * bin_w_;
      const double ox = std::min(xhi, b_xlo + bin_w_) - std::max(xlo, b_xlo);
      if (ox <= 0.0) continue;
      const double w = ox * oy;
      sx += w * es_->field_x().at(bx, by);
      sy += w * es_->field_y().at(bx, by);
      sw += w;
    }
  }
  fx = sw > 0.0 ? sx / sw : 0.0;
  fy = sw > 0.0 ? sy / sw : 0.0;
}

void EPlaceEngine::gradient(const std::vector<double>& x,
                            const std::vector<double>& y,
                            std::vector<double>& gx, std::vector<double>& gy) {
  Timer t;
  // Wirelength part (movables only; the SoA gradient ignores the filler
  // entries past the movable count, so x/y pass through uncopied).
  wirelength_.evaluate(x, y, gamma(), gwx_, gwy_);
  // The SoA kernel derives the exact HPWL from pass A's per-net min/max;
  // the legacy path recomputes it the way the retired engine did.
  hpwl_ = config_.legacy_kernels ? wirelength_.hpwl(x, y)
                                 : wirelength_.last_hpwl();
  times_.wirelength_s += t.elapsed_seconds();
  t.reset();

  // Density part.
  rasterize(x, y);
  // Overflow metric from real movables vs free capacity (chunk-ordered
  // fold, so the total is worker-count independent).
  const double over = par::parallel_reduce(
      0, static_cast<std::int64_t>(rho_real_.raw().size()), 4096, 0.0,
      [&](std::int64_t b, std::int64_t e) {
        double s = 0.0;
        for (std::int64_t i = b; i < e; ++i) {
          const std::size_t si = static_cast<std::size_t>(i);
          s += std::max(0.0, rho_real_.raw()[si] - bin_free_cap_.raw()[si]);
        }
        return s;
      });
  overflow_ = over / total_real_area_;
  times_.density_s += t.elapsed_seconds();
  t.reset();
  es_->solve(rho_total_);
  times_.poisson_s += t.elapsed_seconds();
  t.reset();

  if (!initialized_) {
    // lambda0 = |grad W|_1 / |q xi|_1 so both terms start balanced.
    double wl_l1 = 0.0, d_l1 = 0.0;
    for (std::size_t i = 0; i < num_movable_; ++i) {
      wl_l1 += std::abs(gwx_[i]) + std::abs(gwy_[i]);
    }
    for (std::size_t i = 0; i < elem_w_.size(); ++i) {
      double fx = 0.0, fy = 0.0;
      element_field(i, x[i], y[i], fx, fy);
      d_l1 += elem_area(i) * (std::abs(fx) + std::abs(fy));
    }
    lambda_ = d_l1 > 0.0 ? wl_l1 / d_l1 : 1.0;
    initialized_ = true;
    PUFFER_LOG_DEBUG(kTag, "lambda0 = %.4g", lambda_);
  }

  assemble(x, y, gx, gy);
  times_.assemble_s += t.elapsed_seconds();
  ++times_.gradient_evals;
}

void EPlaceEngine::assemble(const std::vector<double>& x,
                            const std::vector<double>& y,
                            std::vector<double>& gx,
                            std::vector<double>& gy) const {
  const std::size_t n_elems = elem_w_.size();
  gx.resize(n_elems);
  gy.resize(n_elems);
  // Gradient assembly: element-wise, each chunk writes its gx/gy slice.
  par::parallel_for(
      0, static_cast<std::int64_t>(n_elems), kElemGrain,
      [&](std::int64_t b, std::int64_t e, int) {
        for (std::int64_t ii = b; ii < e; ++ii) {
          const std::size_t i = static_cast<std::size_t>(ii);
          double fx = 0.0, fy = 0.0;
          element_field(i, x[i], y[i], fx, fy);
          const double q = elem_area(i);
          // dD/dx = -q * xi_x (field points away from charge
          // accumulations).
          double dx = -lambda_ * q * fx;
          double dy = -lambda_ * q * fy;
          double pins = 0.0;
          if (i < num_movable_) {
            dx += gwx_[i];
            dy += gwy_[i];
            pins = soa_->pin_count[i];
          }
          const double precond = std::max(1.0, pins + lambda_ * q);
          gx[i] = dx / precond;
          gy[i] = dy / precond;
        }
      },
      kMaxElemChunks);
}

void EPlaceEngine::clamp_positions(std::vector<double>& x,
                                   std::vector<double>& y, std::size_t b,
                                   std::size_t m) const {
  simd::clamp_to(x.data() + b, xlo_b_.data() + b, xhi_b_.data() + b, m);
  simd::clamp_to(y.data() + b, ylo_b_.data() + b, yhi_b_.data() + b, m);
}

template <class Fn>
void EPlaceEngine::for_elements(Fn&& fn) const {
  par::parallel_for(
      0, static_cast<std::int64_t>(elem_w_.size()), kElemGrain,
      [&](std::int64_t b, std::int64_t e, int) {
        fn(static_cast<std::size_t>(b), static_cast<std::size_t>(e - b));
      },
      kMaxElemChunks);
}

bool EPlaceEngine::step() {
  if (iter_ >= config_.max_iters || converged_) return false;
  Timer tstep;
  const auto grad_time = [this] {
    return times_.wirelength_s + times_.density_s + times_.poisson_s +
           times_.assemble_s;
  };
  const double grad_before = grad_time();
  const std::size_t n = elem_w_.size();

  if (gxv_.empty()) {
    // First step, or the first after set_padding() dropped g(v).
    gradient(xv_, yv_, gxv_, gyv_);
    if (step_ <= 0.0) {
      // Initial step: largest preconditioned gradient moves one bin.
      double gmax = 1e-12;
      for (std::size_t i = 0; i < n; ++i) {
        gmax = std::max(gmax, std::max(std::abs(gxv_[i]), std::abs(gyv_[i])));
      }
      step_ = bin_w_ / gmax;
    }
  }

  const double hpwl_prev = hpwl_;
  const double a_next = (1.0 + std::sqrt(4.0 * ak_ * ak_ + 1.0)) * 0.5;
  const double coef = (ak_ - 1.0) / a_next;

  // Steplength prediction: a trial takes the gradient step
  // u' = v - alpha g(v) and the extrapolation v' = u' + coef (u' - u),
  // evaluates g(v') only, and predicts the step from the secant
  // |v' - v| / |g(v') - g(v)|. A prediction above 0.95 alpha accepts the
  // trial; a smaller one retries with the predicted step.
  xu_new_.resize(n);
  yu_new_.resize(n);
  xv_new_.resize(n);
  yv_new_.resize(n);
  dp_term_.resize(n);
  dg_term_.resize(n);
  double alpha = step_;
  double predicted = alpha;
  for (int trial = 0; trial < kMaxStepTrials; ++trial) {
    for_elements([&](std::size_t b, std::size_t m) {
      simd::sub_scaled(xv_.data() + b, gxv_.data() + b, alpha,
                       xu_new_.data() + b, m);
      simd::sub_scaled(yv_.data() + b, gyv_.data() + b, alpha,
                       yu_new_.data() + b, m);
      clamp_positions(xu_new_, yu_new_, b, m);
      simd::extrapolate(xu_new_.data() + b, xu_.data() + b, coef,
                        xv_new_.data() + b, m);
      simd::extrapolate(yu_new_.data() + b, yu_.data() + b, coef,
                        yv_new_.data() + b, m);
      clamp_positions(xv_new_, yv_new_, b, m);
    });
    gradient(xv_new_, yv_new_, gxu_, gyu_);
    // Squared step and gradient-change terms in parallel; the sums fold
    // them serially in element order, the association of a serial loop.
    for_elements([&](std::size_t b, std::size_t m) {
      for (std::size_t i = b; i < b + m; ++i) {
        const double px = xv_new_[i] - xv_[i], py = yv_new_[i] - yv_[i];
        const double qx = gxu_[i] - gxv_[i], qy = gyu_[i] - gyv_[i];
        dp_term_[i] = px * px + py * py;
        dg_term_[i] = qx * qx + qy * qy;
      }
    });
    double dp = 0.0, dg = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      dp += dp_term_[i];
      dg += dg_term_[i];
    }
    predicted = std::sqrt(dp / std::max(dg, 1e-30));
    // A trial that moved nothing predicts nothing: keep the step.
    if (!(predicted > 0.0 && std::isfinite(predicted))) predicted = alpha;
    if (predicted > 0.95 * alpha) break;
    alpha = predicted;
  }
  step_ = predicted;

  // The accepted trial's v' and g(v') are the next iteration's v and
  // g(v); overflow_ and hpwl_ were measured at v'.
  xu_.swap(xu_new_);
  yu_.swap(yu_new_);
  xv_.swap(xv_new_);
  yv_.swap(yv_new_);
  gxv_.swap(gxu_);
  gyv_.swap(gyu_);
  ak_ = a_next;

  // Lambda schedule, steered by the HPWL delta over this iteration.
  // Monotone non-decreasing: a large HPWL jump pauses the growth (mu -> 1)
  // so wirelength can recover, but lambda never shrinks -- this guarantees
  // the density term eventually dominates and the placement spreads.
  if (hpwl0_ <= 0.0) hpwl0_ = std::max(hpwl_, 1.0);
  const double ref = std::max(kHpwlRefFrac * hpwl0_, 1.0);
  const double delta = hpwl_ - hpwl_prev;
  double mu = std::pow(kMuMax, 1.0 - delta / ref);
  mu = clamp(mu, 1.0, kMuMax);
  // Two-phase schedule: lambda grows monotonically while the placement
  // spreads, then latches permanently once the overflow first drops below
  // the freeze threshold. Past that point the density weight is strong
  // enough to hold the spread (and to respond to padding), and further
  // growth would only trade wirelength for nothing.
  if (overflow_ < config_.lambda_freeze_overflow) lambda_frozen_ = true;
  if (lambda_frozen_) mu = 1.0;
  lambda_ *= mu;
  if (mu != 1.0) {
    // Re-assemble g(v) under the new lambda from the WA gradient and
    // fields of its evaluation (still current), so the next secant
    // compares gradients of one objective.
    Timer ta;
    assemble(xv_, yv_, gxv_, gyv_);
    times_.assemble_s += ta.elapsed_seconds();
  }

  ++iter_;
  if (overflow_ < best_overflow_ - 1e-3) {
    best_overflow_ = overflow_;
    stall_ = 0;
  } else if (++stall_ >= 100) {
    converged_ = true;
    PUFFER_LOG_DEBUG(kTag, "converged: overflow plateau at %.4f (iter %d)",
                     overflow_, iter_);
  }
  if (iter_ % 50 == 0) {
    PUFFER_LOG_DEBUG(kTag, "iter %d overflow %.4f hpwl %.4g lambda %.3g",
                     iter_, overflow_, hpwl_, lambda_);
  }
  ++times_.iterations;
  times_.nesterov_s += tstep.elapsed_seconds() - (grad_time() - grad_before);
  return true;
}

double EPlaceEngine::run_to_overflow(double overflow_target) {
  // Keep pool workers spinning between the back-to-back kernels of the
  // Nesterov loop (see KeepWarmScope; no effect on results).
  par::KeepWarmScope warm;
  // Always take at least one step so callers make progress even when the
  // initial (clustered) state momentarily reads as low overflow. The
  // engine's converged() plateau guard stops the loop when the target is
  // unreachable at this bin granularity (continuing would only grow
  // lambda and inflate wirelength).
  do {
    if (!step()) break;
  } while (overflow_ > overflow_target);
  sync_to_design();
  return overflow_;
}

void EPlaceEngine::sync_to_design() {
  // Commit through the mirror: solver centers -> SoA -> Design.
  std::copy(xu_.begin(), xu_.begin() + static_cast<std::ptrdiff_t>(num_movable_),
            soa_->cx.begin());
  std::copy(yu_.begin(), yu_.begin() + static_cast<std::ptrdiff_t>(num_movable_),
            soa_->cy.begin());
  soa_->push_positions(design_);
}

}  // namespace puffer
