#include "explore/strategy_explorer.h"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "common/logger.h"
#include "common/parallel.h"

namespace puffer {

namespace {
constexpr const char* kTag = "explore";
}

ExploreConfig validate_explore_config(ExploreConfig config) {
  if (config.time_limit < 1) {
    throw std::invalid_argument(
        "ExploreConfig.time_limit must be a positive trial count");
  }
  if (config.early_stop < 1) {
    throw std::invalid_argument("ExploreConfig.early_stop must be positive");
  }
  if (config.outer_rounds < 1) {
    throw std::invalid_argument("ExploreConfig.outer_rounds must be positive");
  }
  if (config.batch_size < 1) {
    throw std::invalid_argument("ExploreConfig.batch_size must be >= 1");
  }
  if (config.tpe.n_startup < 0) {
    throw std::invalid_argument(
        "ExploreConfig.tpe.n_startup must be non-negative");
  }
  return config;
}

ParamExplorationOutcome explore_parameters(const std::vector<ParamSpec>& specs,
                                           const EvalFn& eval,
                                           const ExploreConfig& raw_config) {
  const ExploreConfig config = validate_explore_config(raw_config);
  ParamExplorationOutcome out;
  out.best_loss = std::numeric_limits<double>::max();
  TpeSampler sampler(specs, config.tpe, config.seed);

  const int batch = std::max(1, config.batch_size);
  int tc = 0;   // total evaluations
  int npc = 0;  // non-improving streak
  while (tc < config.time_limit && npc < config.early_stop) {
    // Suggest the whole batch first (sequentially: the sampler's RNG
    // stream advances on this thread, so the candidate sequence is
    // deterministic), then evaluate concurrently, then fold the
    // observations in candidate order -- the loop state updates exactly
    // as if the candidates had been evaluated one by one.
    const int want = std::min(batch, config.time_limit - tc);
    std::vector<Assignment> xs(static_cast<std::size_t>(want));
    for (int i = 0; i < want; ++i) xs[static_cast<std::size_t>(i)] =
        sampler.suggest(out.observations);
    std::vector<double> losses(static_cast<std::size_t>(want), 0.0);
    if (want == 1) {
      losses[0] = eval(xs[0]);
    } else {
      par::parallel_for(
          0, want, 1,
          [&](std::int64_t b, std::int64_t e, int) {
            for (std::int64_t i = b; i < e; ++i) {
              losses[static_cast<std::size_t>(i)] =
                  eval(xs[static_cast<std::size_t>(i)]);
            }
          },
          want);
    }
    for (int i = 0; i < want && npc < config.early_stop; ++i) {
      Observation o;
      o.x = xs[static_cast<std::size_t>(i)];
      o.loss = losses[static_cast<std::size_t>(i)];
      out.observations.push_back(std::move(o));
      if (losses[static_cast<std::size_t>(i)] < out.best_loss) {
        out.best_loss = losses[static_cast<std::size_t>(i)];
        out.best = xs[static_cast<std::size_t>(i)];
        npc = 0;
      }
      ++tc;
      ++npc;
    }
  }
  out.ranges = update_param_ranges(specs, out.observations);
  out.early_stopped = npc >= config.early_stop;
  return out;
}

StrategyExplorer::StrategyExplorer(std::vector<ParamSpec> specs,
                                   std::vector<std::vector<int>> groups,
                                   EvalFn eval, ExploreConfig config)
    : specs_(std::move(specs)),
      groups_(std::move(groups)),
      eval_(std::move(eval)),
      config_(validate_explore_config(config)) {
  best_.loss = std::numeric_limits<double>::max();
  // Complete the grouping with singleton groups for uncovered indices.
  std::vector<bool> covered(specs_.size(), false);
  for (const auto& g : groups_) {
    for (int d : g) {
      if (d >= 0 && d < static_cast<int>(specs_.size())) {
        covered[static_cast<std::size_t>(d)] = true;
      }
    }
  }
  for (std::size_t d = 0; d < specs_.size(); ++d) {
    if (!covered[d]) groups_.push_back({static_cast<int>(d)});
  }
}

Assignment StrategyExplorer::run() {
  // Line 1-2: rough global exploration over all parameters at once.
  {
    auto outcome = explore_parameters(specs_, eval_, config_);
    for (auto& o : outcome.observations) {
      if (o.loss < best_.loss) best_ = o;
      history_.push_back(std::move(o));
    }
    specs_ = std::move(outcome.ranges);
    PUFFER_LOG_INFO(kTag, "global exploration done: best loss %.5g over %zu evals",
                    best_.loss, history_.size());
  }

  // Lines 4-11: grouped local exploration; other parameters are pinned to
  // the middle of their current ranges.
  ExploreConfig group_cfg = config_;
  int tc = 0;
  bool early_stop = false;
  while (!early_stop && tc < config_.outer_rounds) {
    early_stop = true;
    for (std::size_t g = 0; g < groups_.size(); ++g) {
      const std::vector<int>& group = groups_[g];
      std::vector<ParamSpec> sub;
      sub.reserve(group.size());
      for (int d : group) sub.push_back(specs_[static_cast<std::size_t>(d)]);

      const Assignment pinned = mid_assignment(specs_);
      group_cfg.seed = config_.seed + 7919 * (g + 1) + 104729 * (tc + 1);
      auto outcome = explore_parameters(
          sub,
          [&](const Assignment& sub_x) {
            Assignment full = pinned;
            for (std::size_t k = 0; k < group.size(); ++k) {
              full[static_cast<std::size_t>(group[k])] = sub_x[k];
            }
            return eval_(full);
          },
          group_cfg);

      for (std::size_t k = 0; k < group.size(); ++k) {
        specs_[static_cast<std::size_t>(group[k])] = outcome.ranges[k];
      }
      for (auto& o : outcome.observations) {
        Observation full;
        full.x = pinned;
        for (std::size_t k = 0; k < group.size(); ++k) {
          full.x[static_cast<std::size_t>(group[k])] = o.x[k];
        }
        full.loss = o.loss;
        if (full.loss < best_.loss) best_ = full;
        history_.push_back(std::move(full));
      }
      early_stop = early_stop && outcome.early_stopped;
    }
    ++tc;
    PUFFER_LOG_INFO(kTag, "group round %d: best loss %.5g, %zu evals total", tc,
                    best_.loss, history_.size());
  }

  // Final configuration: median of the final ranges.
  return mid_assignment(specs_);
}

}  // namespace puffer
