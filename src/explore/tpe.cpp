#include "explore/tpe.h"

#include <algorithm>
#include <cmath>
#include <numbers>

namespace puffer {

TpeSampler::TpeSampler(std::vector<ParamSpec> specs, TpeConfig config,
                       std::uint64_t seed)
    : specs_(std::move(specs)), config_(config), rng_(seed) {}

Assignment TpeSampler::random_assignment() {
  Assignment a(specs_.size());
  for (std::size_t d = 0; d < specs_.size(); ++d) {
    const ParamSpec& s = specs_[d];
    a[d] = s.legalize(rng_.uniform(s.lo, s.hi + (s.kind == ParamKind::kCategorical ? 0.0 : 0.0)));
    if (s.kind == ParamKind::kCategorical) {
      a[d] = static_cast<double>(rng_.uniform_int(0, static_cast<std::int64_t>(s.hi) - 1));
    }
  }
  return a;
}

namespace {

constexpr double kGamma = 0.25;  // good-set quantile
constexpr int kCandidates = 24;  // EI candidates per suggestion

double gauss_pdf(double x, double mu, double sigma) {
  const double z = (x - mu) / sigma;
  return std::exp(-0.5 * z * z) / (sigma * std::sqrt(2.0 * std::numbers::pi));
}

// Per-dimension Parzen mixture built over a set of observed values.
struct Parzen {
  std::vector<double> mus;
  std::vector<double> sigmas;
  double lo, hi;

  Parzen(std::vector<double> values, double range_lo, double range_hi)
      : mus(std::move(values)), lo(range_lo), hi(range_hi) {
    std::sort(mus.begin(), mus.end());
    const double range = std::max(hi - lo, 1e-12);
    sigmas.resize(mus.size());
    for (std::size_t i = 0; i < mus.size(); ++i) {
      // Bandwidth: the larger gap to a neighbour, clamped to sane bounds.
      const double left = i > 0 ? mus[i] - mus[i - 1] : range;
      const double right = i + 1 < mus.size() ? mus[i + 1] - mus[i] : range;
      sigmas[i] = std::clamp(std::max(left, right), range / 50.0, range);
    }
  }

  double pdf(double x) const {
    if (mus.empty()) return 1.0 / std::max(hi - lo, 1e-12);
    double p = 0.0;
    for (std::size_t i = 0; i < mus.size(); ++i) {
      p += gauss_pdf(x, mus[i], sigmas[i]);
    }
    // Blend in a uniform floor so g(x) never vanishes.
    const double uniform = 1.0 / std::max(hi - lo, 1e-12);
    return 0.95 * p / static_cast<double>(mus.size()) + 0.05 * uniform;
  }

  double sample(Rng& rng) const {
    if (mus.empty()) return rng.uniform(lo, hi);
    const std::size_t i = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(mus.size()) - 1));
    return rng.normal(mus[i], sigmas[i]);
  }
};

// Smoothed categorical frequencies.
struct CategoricalModel {
  std::vector<double> probs;

  CategoricalModel(const std::vector<double>& values, int n_cats) {
    probs.assign(static_cast<std::size_t>(std::max(1, n_cats)), 1.0);
    for (double v : values) {
      const int idx = static_cast<int>(v);
      if (idx >= 0 && idx < n_cats) probs[static_cast<std::size_t>(idx)] += 1.0;
    }
    double sum = 0.0;
    for (double p : probs) sum += p;
    for (double& p : probs) p /= sum;
  }

  double pdf(double x) const {
    const int idx = static_cast<int>(x);
    if (idx < 0 || idx >= static_cast<int>(probs.size())) return 1e-12;
    return probs[static_cast<std::size_t>(idx)];
  }

  double sample(Rng& rng) const {
    double u = rng.uniform(0.0, 1.0);
    for (std::size_t i = 0; i < probs.size(); ++i) {
      u -= probs[i];
      if (u <= 0.0) return static_cast<double>(i);
    }
    return static_cast<double>(probs.size() - 1);
  }
};

}  // namespace

Assignment TpeSampler::suggest(const std::vector<Observation>& obs) {
  if (static_cast<int>(obs.size()) < config_.n_startup) {
    return random_assignment();
  }

  // Split at the gamma quantile of loss.
  std::vector<const Observation*> sorted;
  sorted.reserve(obs.size());
  for (const Observation& o : obs) sorted.push_back(&o);
  std::sort(sorted.begin(), sorted.end(),
            [](const Observation* a, const Observation* b) {
              return a->loss < b->loss;
            });
  const std::size_t n_good = std::max<std::size_t>(
      2, static_cast<std::size_t>(kGamma * static_cast<double>(sorted.size())));

  Assignment best;
  double best_score = -1e300;
  for (int cand = 0; cand < kCandidates; ++cand) {
    Assignment a(specs_.size());
    double score = 0.0;
    for (std::size_t d = 0; d < specs_.size(); ++d) {
      const ParamSpec& s = specs_[d];
      std::vector<double> good_v, bad_v;
      for (std::size_t i = 0; i < sorted.size(); ++i) {
        (i < n_good ? good_v : bad_v).push_back(sorted[i]->x[d]);
      }
      if (s.kind == ParamKind::kCategorical) {
        const int n_cats = static_cast<int>(s.hi);
        const CategoricalModel good(good_v, n_cats);
        const CategoricalModel bad(bad_v, n_cats);
        const double v = good.sample(rng_);
        a[d] = s.legalize(v);
        score += std::log(good.pdf(a[d])) - std::log(bad.pdf(a[d]));
      } else {
        const Parzen good(std::move(good_v), s.lo, s.hi);
        const Parzen bad(std::move(bad_v), s.lo, s.hi);
        double v = good.sample(rng_);
        v = s.legalize(v);
        a[d] = v;
        score += std::log(std::max(good.pdf(v), 1e-300)) -
                 std::log(std::max(bad.pdf(v), 1e-300));
      }
    }
    if (score > best_score) {
      best_score = score;
      best = std::move(a);
    }
  }
  return best;
}

}  // namespace puffer
