#include "gp/electrostatics.h"

#include <numbers>
#include <stdexcept>

#include "common/parallel.h"
#include "fft/dct.h"
#include "fft/fft.h"

namespace puffer {

ElectrostaticSystem::ElectrostaticSystem(int nx, int ny, double w, double h)
    : nx_(nx), ny_(ny),
      plan_(static_cast<std::size_t>(nx), static_cast<std::size_t>(ny)),
      ex_(nx, ny), ey_(nx, ny) {
  if (w <= 0.0 || h <= 0.0) {
    throw std::invalid_argument("ElectrostaticSystem: bad extents");
  }
  const std::size_t snx = static_cast<std::size_t>(nx_);
  const std::size_t sny = static_cast<std::size_t>(ny_);
  const double wx_scale = std::numbers::pi / w;
  const double wy_scale = std::numbers::pi / h;

  // Orthogonality scale for the inverse evaluation: (2/M)(2/N) c_u c_v,
  // with c_0 = 1/2, folded together with 1/(wu^2+wv^2) into one
  // per-mode weight so the raw inverse transforms apply no weights.
  const double base = 4.0 / (static_cast<double>(nx_) * static_cast<double>(ny_));
  w_psi_.assign(snx * sny, 0.0);
  wu_.resize(snx);
  wv_.resize(sny);
  for (std::size_t u = 0; u < snx; ++u) {
    wu_[u] = wx_scale * static_cast<double>(u);
  }
  for (std::size_t v = 0; v < sny; ++v) {
    wv_[v] = wy_scale * static_cast<double>(v);
  }
  for (std::size_t v = 0; v < sny; ++v) {
    for (std::size_t u = 0; u < snx; ++u) {
      if (u == 0 && v == 0) continue;  // DC mode carries no force
      const double w2 = wu_[u] * wu_[u] + wv_[v] * wv_[v];
      double s = base;
      if (u == 0) s *= 0.5;
      if (v == 0) s *= 0.5;
      w_psi_[v * snx + u] = s / w2;
    }
  }
  a_.resize(snx * sny);
  c_ex_.resize(snx * sny);
  c_ey_.resize(snx * sny);
  rho_.resize(snx * sny);
}

void ElectrostaticSystem::solve(const Map2D<double>& density) {
  if (density.nx() != nx_ || density.ny() != ny_) {
    throw std::invalid_argument("ElectrostaticSystem: density size mismatch");
  }
  const std::size_t snx = static_cast<std::size_t>(nx_);
  const std::size_t sny = static_cast<std::size_t>(ny_);
  rho_ = density.raw();
  have_psi_ = false;
  have_energy_ = false;

  // Forward spectrum of the density.
  if (legacy_) {
    a_ = puffer::dct2_2d(density.raw(), snx, sny);
  } else {
    plan_.dct2_2d(density.raw(), a_);
  }

  // Weight the spectrum for the two field evaluations. Rows are
  // independent (disjoint writes), so the loop fans out over v.
  par::parallel_for(
      0, static_cast<std::int64_t>(sny), 8,
      [&](std::int64_t vb, std::int64_t ve, int) {
        for (std::int64_t vi = vb; vi < ve; ++vi) {
          const std::size_t v = static_cast<std::size_t>(vi);
          const double wvv = wv_[v];
          const std::size_t row = v * snx;
          for (std::size_t u = 0; u < snx; ++u) {
            const double coeff = w_psi_[row + u] * a_[row + u];
            c_ex_[row + u] = coeff * wu_[u];
            c_ey_[row + u] = coeff * wvv;
          }
        }
      });

  if (legacy_) {
    ex_.raw() = puffer::idxst_dct3_2d(c_ex_, snx, sny);
    ey_.raw() = puffer::dct3_idxst_2d(c_ey_, snx, sny);
  } else {
    plan_.fields_2d(c_ex_, c_ey_, ex_.raw(), ey_.raw());
  }
}

const Map2D<double>& ElectrostaticSystem::potential() {
  if (have_psi_) return psi_;
  const std::size_t snx = static_cast<std::size_t>(nx_);
  const std::size_t sny = static_cast<std::size_t>(ny_);
  // Storage for the potential exists only once something asks for it.
  if (psi_.nx() != nx_) psi_ = Map2D<double>(nx_, ny_);
  c_psi_.resize(snx * sny);
  for (std::size_t i = 0; i < snx * sny; ++i) c_psi_[i] = w_psi_[i] * a_[i];
  if (legacy_) {
    psi_.raw() = puffer::dct3_raw_2d(c_psi_, snx, sny);
  } else {
    plan_.dct3_raw_2d(c_psi_, psi_.raw());
  }
  have_psi_ = true;
  return psi_;
}

double ElectrostaticSystem::energy() {
  if (have_energy_) return energy_;
  const std::vector<double>& psi = potential().raw();
  // Chunk-ordered fold keeps the energy worker-count independent.
  energy_ = par::parallel_reduce(
      0, static_cast<std::int64_t>(rho_.size()), 4096, 0.0,
      [&](std::int64_t b, std::int64_t e) {
        double s = 0.0;
        for (std::int64_t i = b; i < e; ++i) {
          const std::size_t si = static_cast<std::size_t>(i);
          s += rho_[si] * psi[si];
        }
        return s;
      });
  have_energy_ = true;
  return energy_;
}

}  // namespace puffer
