#include "orchestrate/pruner.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "io/checkpoint.h"

namespace puffer {

PruneConfig validate_prune_config(PruneConfig config) {
  if (!std::isfinite(config.quantile) || config.quantile <= 0.0 ||
      config.quantile >= 1.0) {
    throw std::invalid_argument("PruneConfig.quantile must lie in (0, 1)");
  }
  if (config.grace_rounds < 0) {
    throw std::invalid_argument("PruneConfig.grace_rounds must be >= 0");
  }
  if (config.min_history < 2) {
    throw std::invalid_argument("PruneConfig.min_history must be >= 2");
  }
  if (!std::isfinite(config.penalty) || config.penalty < 0.0) {
    throw std::invalid_argument(
        "PruneConfig.penalty must be finite and non-negative");
  }
  return config;
}

PruneThresholds::PruneThresholds(PruneConfig config)
    : config_(validate_prune_config(config)) {}

void PruneThresholds::observe(const std::vector<double>& trail) {
  if (trail.size() > rungs_.size()) rungs_.resize(trail.size());
  for (std::size_t r = 0; r < trail.size(); ++r) {
    rungs_[r].push_back(trail[r]);
  }
  ++trails_;
}

bool PruneThresholds::should_prune(int round, double value) const {
  if (!config_.enabled) return false;
  if (round < config_.grace_rounds) return false;
  if (round < 0 || static_cast<std::size_t>(round) >= rungs_.size()) {
    return false;
  }
  const std::vector<double>& rung = rungs_[static_cast<std::size_t>(round)];
  if (static_cast<int>(rung.size()) < config_.min_history) return false;
  // Deterministic quantile: sorted copy, lower-index rule
  // floor(q * (n - 1)). No interpolation, so the threshold is always an
  // observed value and equality never prunes.
  std::vector<double> sorted = rung;
  std::sort(sorted.begin(), sorted.end());
  const std::size_t idx = static_cast<std::size_t>(
      config_.quantile * static_cast<double>(sorted.size() - 1));
  return value > sorted[idx];
}

template <class IO, class T>
void PruneThresholds::fields(IO& io, T& t) {
  io.byte(t.config_.enabled, true);
  io.i32(t.config_.grace_rounds);
  io.i32(t.config_.min_history);
  io.f64(t.config_.quantile);
  io.f64(t.config_.penalty);
  io.i32(t.trails_);
  io.list(t.rungs_);
}

std::string encode_prune_thresholds(const PruneThresholds& t) {
  BinaryWriter w;
  PruneThresholds::fields(w, t);
  return w.take();
}

PruneThresholds decode_prune_thresholds(const std::string& blob) {
  PruneThresholds t{PruneConfig{}};
  BinaryReader r(blob, "pruner");
  PruneThresholds::fields(r, t);
  r.finish();
  t.config_ = validate_prune_config(t.config_);
  return t;
}

}  // namespace puffer
