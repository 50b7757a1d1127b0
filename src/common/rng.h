// Deterministic random number generation.
//
// Every stochastic component in the framework (synthetic benchmark
// generation, initial-placement jitter, TPE candidate sampling) draws from
// an explicitly seeded Rng so that experiments are exactly reproducible.
#pragma once

#include <cstdint>
#include <random>

namespace puffer {

class Rng {
 public:
  explicit Rng(std::uint64_t seed) : engine_(seed) {}

  // Uniform double in [lo, hi).
  double uniform(double lo, double hi) {
    return std::uniform_real_distribution<double>(lo, hi)(engine_);
  }

  // Uniform integer in [lo, hi] inclusive.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) {
    return std::uniform_int_distribution<std::int64_t>(lo, hi)(engine_);
  }

  // Standard normal scaled by sigma around mu.
  double normal(double mu, double sigma) {
    return std::normal_distribution<double>(mu, sigma)(engine_);
  }

  // Bernoulli trial.
  bool chance(double p) {
    return std::bernoulli_distribution(p)(engine_);
  }

  // Geometric-ish heavy-tail draw used for net degrees; returns >= lo.
  std::int64_t heavy_tail_int(std::int64_t lo, std::int64_t hi, double decay) {
    std::int64_t v = lo;
    while (v < hi && chance(decay)) ++v;
    return v;
  }

  std::mt19937_64& engine() { return engine_; }

 private:
  std::mt19937_64 engine_;
};

}  // namespace puffer
