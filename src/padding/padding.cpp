#include "padding/padding.h"

#include <algorithm>
#include <cmath>

#include "common/logger.h"

namespace puffer {

namespace {
constexpr const char* kTag = "padding";
}

PaddingEngine::PaddingEngine(const Design& design, std::vector<CellId> movable,
                             PaddingParams params)
    : design_(design),
      movable_(std::move(movable)),
      params_(params),
      extractor_(design, params.feature),
      pad_(movable_.size(), 0.0),
      pt_(movable_.size(), 0) {
  double macro_area = 0.0;
  for (const Cell& c : design.cells) {
    if (c.is_macro()) macro_area += c.rect().clamped(design.die).area();
  }
  // "Available placement area A" of Algorithm 1: the die minus macros.
  avail_area_ = std::max(1.0, design.die.area() - macro_area);
}

double PaddingEngine::target_utilization(int i) const {
  if (params_.xi <= 1) return params_.pu_high;
  const double t = static_cast<double>(i - 1) / static_cast<double>(params_.xi - 1);
  return params_.pu_low + clamp(t, 0.0, 1.0) * (params_.pu_high - params_.pu_low);
}

bool PaddingEngine::should_trigger(double density_overflow) const {
  if (round_ >= params_.xi) return false;
  if (density_overflow >= params_.tau) return false;
  // First round always fires; later rounds require the previous round's
  // padding utilization to stay below eta (padding still converging).
  if (round_ > 0 && last_util_ >= params_.eta) return false;
  return true;
}

const std::vector<double>& PaddingEngine::update(
    const CongestionResult& congestion) {
  ++round_;
  const std::vector<FeatureVector> features =
      extractor_.extract(congestion, movable_);

  // Eq. 14 padding per cell, applied incrementally; Eq. 15 recycling for
  // cells that received no positive padding this round. The pad area of
  // the utilization control (Algorithm 1, lines 5-9) folds into the same
  // pass: pad_[i] is final once its iteration ends.
  int positive = 0;
  double pad_area = 0.0;
  for (std::size_t i = 0; i < movable_.size(); ++i) {
    double lin = params_.beta;
    for (int k = 0; k < FeatureVector::kCount; ++k) {
      lin += params_.alpha[k] * features[i][k];
    }
    const double pad_value = std::log(std::max(lin, 1.0)) * params_.mu;
    if (pad_value > 0.0) {
      pad_[i] += pad_value;
      pt_[i] += 1;
      ++positive;

    } else if (pad_[i] > 0.0) {
      const double r = clamp(
          static_cast<double>(round_ - pt_[i]) / (round_ + params_.zeta), 0.0,
          1.0);
      pad_[i] *= (1.0 - r);
    }
    pad_area +=
        pad_[i] * design_.cells[static_cast<std::size_t>(movable_[i])].height;
  }

  const double target = target_utilization(round_);
  const double budget = target * avail_area_;
  if (pad_area > budget && pad_area > 0.0) {
    const double sr = budget / pad_area;
    for (double& p : pad_) p *= sr;
    pad_area = budget;
  }
  // Padding utilization after this round: applied padding area relative
  // to the free placement area. While below eta the process is healthy
  // and optimization continues.
  last_util_ = pad_area / avail_area_;
  peak_area_ = std::max(peak_area_, pad_area);
  if (positive > 0) ++applied_rounds_;

  PUFFER_LOG_DEBUG(kTag,
                   "round %d: %d cells padded, pad area %.3g (%.2f%% of "
                   "whitespace, target %.2f%%)",
                   round_, positive, pad_area, 100.0 * last_util_,
                   100.0 * target);
  return pad_;
}

}  // namespace puffer
