// Tree-structured Parzen estimator (TPE) sampler, after Bergstra et
// al. [19], used as the getParam step of the SMBO loop in Algorithm 2.
//
// Observations are split at the 0.25 quantile of loss into a "good" and
// a "bad" set. Each continuous/integer dimension is modelled by Parzen
// mixtures l(x) (good) and g(x) (bad) of Gaussians centered at the
// observed values, with per-point bandwidths from neighbour spacing;
// categorical dimensions use smoothed category frequencies. Candidates
// are drawn from l (24 per suggestion) and the one maximizing l(x)/g(x)
// -- equivalently the expected improvement -- is suggested.
#pragma once

#include <cstdint>

#include "common/rng.h"
#include "explore/param_space.h"

namespace puffer {

struct TpeConfig {
  int n_startup = 8;  // random suggestions before modelling starts
};

class TpeSampler {
 public:
  TpeSampler(std::vector<ParamSpec> specs, TpeConfig config, std::uint64_t seed);

  // Suggests the next assignment given the history (may be empty).
  Assignment suggest(const std::vector<Observation>& obs);

  const std::vector<ParamSpec>& specs() const { return specs_; }
  // Replaces the search ranges (Algorithm 2's range update between runs).
  void set_specs(std::vector<ParamSpec> specs) { specs_ = std::move(specs); }

 private:
  Assignment random_assignment();

  std::vector<ParamSpec> specs_;
  TpeConfig config_;
  Rng rng_;
};

}  // namespace puffer
