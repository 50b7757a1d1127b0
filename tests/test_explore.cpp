// Tests for the strategy-exploration machinery: parameter spaces, the TPE
// sampler, Algorithm 2 (parameter exploration with early stop and range
// update) and Algorithm 3 (grouped strategy exploration).
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <stdexcept>

#include "common/parallel.h"
#include "common/rng.h"
#include "explore/strategy_explorer.h"

namespace puffer {
namespace {

TEST(ParamSpec, MidAndLegalize) {
  const ParamSpec c{"c", ParamKind::kContinuous, 2.0, 6.0};
  EXPECT_DOUBLE_EQ(c.mid(), 4.0);
  EXPECT_DOUBLE_EQ(c.legalize(7.0), 6.0);
  EXPECT_DOUBLE_EQ(c.legalize(1.0), 2.0);

  const ParamSpec i{"i", ParamKind::kInteger, 1.0, 9.0};
  EXPECT_DOUBLE_EQ(i.mid(), 5.0);
  EXPECT_DOUBLE_EQ(i.legalize(3.7), 4.0);
  EXPECT_DOUBLE_EQ(i.legalize(99.0), 9.0);

  const ParamSpec cat{"cat", ParamKind::kCategorical, 0.0, 4.0};  // 4 cats
  EXPECT_DOUBLE_EQ(cat.mid(), 1.0);  // floor((4-1)/2)
  EXPECT_DOUBLE_EQ(cat.legalize(2.4), 2.0);
  EXPECT_DOUBLE_EQ(cat.legalize(9.0), 3.0);
  EXPECT_DOUBLE_EQ(cat.legalize(-1.0), 0.0);
}

TEST(ParamSpace, MidAssignment) {
  const std::vector<ParamSpec> specs{{"a", ParamKind::kContinuous, 0, 2},
                                     {"b", ParamKind::kInteger, 0, 10}};
  const Assignment mid = mid_assignment(specs);
  EXPECT_DOUBLE_EQ(mid[0], 1.0);
  EXPECT_DOUBLE_EQ(mid[1], 5.0);
}

TEST(ParamSpace, RangeUpdateShrinksAroundElite) {
  std::vector<ParamSpec> specs{{"x", ParamKind::kContinuous, 0.0, 10.0}};
  std::vector<Observation> obs;
  // Elite observations near x = 3, bad ones spread out.
  for (int i = 0; i < 8; ++i) {
    Observation o;
    o.x = {3.0 + 0.1 * i};
    o.loss = 0.1 * i;
    obs.push_back(o);
  }
  for (int i = 0; i < 24; ++i) {
    Observation o;
    o.x = {9.0};
    o.loss = 10.0 + i;
    obs.push_back(o);
  }
  const auto updated = update_param_ranges(specs, obs);
  EXPECT_GT(updated[0].lo, 1.0);
  EXPECT_LT(updated[0].hi, 6.0);
  EXPECT_LE(updated[0].lo, 3.0);
  EXPECT_GE(updated[0].hi, 3.5);
}

TEST(ParamSpace, RangeUpdateNoopForFewObservations) {
  std::vector<ParamSpec> specs{{"x", ParamKind::kContinuous, 0.0, 10.0}};
  std::vector<Observation> obs(2, Observation{{5.0}, 1.0});
  const auto updated = update_param_ranges(specs, obs);
  EXPECT_DOUBLE_EQ(updated[0].lo, 0.0);
  EXPECT_DOUBLE_EQ(updated[0].hi, 10.0);
}

TEST(ParamSpace, CategoricalRangeNeverShrinks) {
  std::vector<ParamSpec> specs{{"c", ParamKind::kCategorical, 0.0, 3.0}};
  std::vector<Observation> obs;
  for (int i = 0; i < 20; ++i) obs.push_back({{1.0}, static_cast<double>(i)});
  const auto updated = update_param_ranges(specs, obs);
  EXPECT_DOUBLE_EQ(updated[0].lo, 0.0);
  EXPECT_DOUBLE_EQ(updated[0].hi, 3.0);
}

TEST(Tpe, SuggestionsRespectBounds) {
  std::vector<ParamSpec> specs{{"x", ParamKind::kContinuous, -2.0, 3.0},
                               {"n", ParamKind::kInteger, 1.0, 4.0},
                               {"c", ParamKind::kCategorical, 0.0, 3.0}};
  TpeSampler sampler(specs, TpeConfig{}, 5);
  std::vector<Observation> obs;
  for (int i = 0; i < 60; ++i) {
    Observation o;
    o.x = sampler.suggest(obs);
    ASSERT_EQ(o.x.size(), 3u);
    EXPECT_GE(o.x[0], -2.0);
    EXPECT_LE(o.x[0], 3.0);
    EXPECT_DOUBLE_EQ(o.x[1], std::round(o.x[1]));
    EXPECT_GE(o.x[2], 0.0);
    EXPECT_LE(o.x[2], 2.0);
    o.loss = o.x[0] * o.x[0];
    obs.push_back(o);
  }
}

// On a smooth 1D bowl, TPE should concentrate samples near the optimum
// compared to pure random search at equal budget.
TEST(Tpe, BeatsRandomSearchOnQuadraticBowl) {
  const std::vector<ParamSpec> specs{{"x", ParamKind::kContinuous, 0.0, 10.0}};
  const auto loss = [](double x) { return (x - 7.3) * (x - 7.3); };

  TpeSampler sampler(specs, TpeConfig{}, 11);
  std::vector<Observation> obs;
  double tpe_best = 1e300;
  for (int i = 0; i < 60; ++i) {
    Observation o;
    o.x = sampler.suggest(obs);
    o.loss = loss(o.x[0]);
    tpe_best = std::min(tpe_best, o.loss);
    obs.push_back(o);
  }

  Rng rng(11);
  double rand_best = 1e300;
  for (int i = 0; i < 60; ++i) {
    rand_best = std::min(rand_best, loss(rng.uniform(0.0, 10.0)));
  }
  EXPECT_LE(tpe_best, rand_best * 1.2 + 1e-6);
  EXPECT_LT(tpe_best, 0.05);
}

TEST(Tpe, CategoricalConvergesToBestCategory) {
  const std::vector<ParamSpec> specs{{"c", ParamKind::kCategorical, 0.0, 4.0}};
  TpeSampler sampler(specs, TpeConfig{}, 3);
  std::vector<Observation> obs;
  for (int i = 0; i < 80; ++i) {
    Observation o;
    o.x = sampler.suggest(obs);
    o.loss = (o.x[0] == 2.0) ? 0.0 : 1.0;
    obs.push_back(o);
  }
  // Later suggestions should strongly favour category 2.
  int hits = 0;
  for (int i = 0; i < 20; ++i) {
    if (sampler.suggest(obs)[0] == 2.0) ++hits;
  }
  EXPECT_GE(hits, 12);
}

TEST(Algorithm2, StopsEarlyWithoutImprovement) {
  const std::vector<ParamSpec> specs{{"x", ParamKind::kContinuous, 0.0, 1.0}};
  ExploreConfig cfg;
  cfg.time_limit = 100;
  cfg.early_stop = 7;
  int evals = 0;
  const auto outcome = explore_parameters(
      specs,
      [&](const Assignment&) {
        ++evals;
        return 1.0;  // constant loss: first eval is "best", rest never improve
      },
      cfg);
  EXPECT_TRUE(outcome.early_stopped);
  // Algorithm 2 increments npc on every evaluation (improving or not), so
  // with a constant loss npc reaches EC after exactly EC evaluations.
  EXPECT_EQ(evals, 7);
  EXPECT_EQ(outcome.observations.size(), 7u);
}

TEST(Algorithm2, HitsTimeLimit) {
  const std::vector<ParamSpec> specs{{"x", ParamKind::kContinuous, 0.0, 1.0}};
  ExploreConfig cfg;
  cfg.time_limit = 5;
  cfg.early_stop = 100;
  Rng noise(9);
  const auto outcome = explore_parameters(
      specs, [&](const Assignment&) { return noise.uniform(0, 1); }, cfg);
  EXPECT_EQ(outcome.observations.size(), 5u);
}

TEST(Algorithm2, FindsGoodRegion) {
  const std::vector<ParamSpec> specs{{"x", ParamKind::kContinuous, 0.0, 10.0}};
  ExploreConfig cfg;
  cfg.time_limit = 50;
  cfg.early_stop = 50;
  cfg.seed = 21;
  const auto outcome = explore_parameters(
      specs, [](const Assignment& a) { return std::abs(a[0] - 4.0); }, cfg);
  EXPECT_LT(outcome.best_loss, 0.5);
  // Updated range concentrates near the optimum.
  EXPECT_GT(outcome.ranges[0].lo, 0.5);
  EXPECT_LT(outcome.ranges[0].hi, 8.5);
}

TEST(Algorithm3, GroupedExplorationImprovesSeparableLoss) {
  // Separable 3D loss; groups match the separation.
  const std::vector<ParamSpec> specs{
      {"a", ParamKind::kContinuous, 0.0, 10.0},
      {"b", ParamKind::kContinuous, 0.0, 10.0},
      {"c", ParamKind::kContinuous, 0.0, 10.0},
  };
  ExploreConfig cfg;
  cfg.time_limit = 30;
  cfg.early_stop = 12;
  cfg.outer_rounds = 2;
  cfg.seed = 33;
  int evals = 0;
  StrategyExplorer explorer(
      specs, {{0}, {1, 2}},
      [&](const Assignment& a) {
        ++evals;
        return std::abs(a[0] - 2.0) + std::abs(a[1] - 8.0) + std::abs(a[2] - 5.0);
      },
      cfg);
  const Assignment final = explorer.run();
  ASSERT_EQ(final.size(), 3u);
  EXPECT_GT(evals, 30);
  EXPECT_FALSE(explorer.history().empty());
  // The best observation is decent and the final (median-of-range)
  // configuration is in the right region for each coordinate.
  EXPECT_LT(explorer.best().loss, 4.0);
  EXPECT_NEAR(final[0], 2.0, 3.0);
  EXPECT_NEAR(final[1], 8.0, 3.5);
}

// Batched evaluation folds observations in candidate order, so the
// outcome (best, best_loss, every observation) is identical for any
// worker count.
TEST(Algorithm2, BatchedOutcomeIndependentOfThreadCount) {
  struct ThreadGuard {
    ~ThreadGuard() { par::set_num_threads(0); }
  } guard;
  const std::vector<ParamSpec> specs{{"x", ParamKind::kContinuous, 0.0, 10.0},
                                     {"y", ParamKind::kContinuous, 0.0, 10.0}};
  ExploreConfig cfg;
  cfg.time_limit = 24;
  cfg.early_stop = 24;
  cfg.batch_size = 4;
  cfg.seed = 77;
  const auto eval = [](const Assignment& a) {
    return (a[0] - 6.0) * (a[0] - 6.0) + std::abs(a[1] - 2.5);
  };

  par::set_num_threads(1);
  const auto serial = explore_parameters(specs, eval, cfg);
  par::set_num_threads(8);
  const auto parallel8 = explore_parameters(specs, eval, cfg);

  EXPECT_DOUBLE_EQ(serial.best_loss, parallel8.best_loss);
  EXPECT_EQ(serial.best, parallel8.best);
  ASSERT_EQ(serial.observations.size(), parallel8.observations.size());
  for (std::size_t i = 0; i < serial.observations.size(); ++i) {
    EXPECT_EQ(serial.observations[i].x, parallel8.observations[i].x);
    EXPECT_DOUBLE_EQ(serial.observations[i].loss,
                     parallel8.observations[i].loss);
  }
}

TEST(Algorithm2, BatchedRespectsTimeLimit) {
  const std::vector<ParamSpec> specs{{"x", ParamKind::kContinuous, 0.0, 1.0}};
  ExploreConfig cfg;
  cfg.time_limit = 10;
  cfg.early_stop = 100;
  cfg.batch_size = 4;  // 10 is not a multiple of 4: final batch is clamped
  // A batch's evaluations run concurrently: the evaluator shares only an
  // atomic counter.
  std::atomic<int> evals{0};
  const auto outcome = explore_parameters(
      specs,
      [&](const Assignment& a) {
        ++evals;
        return a[0];
      },
      cfg);
  EXPECT_EQ(evals.load(), 10);
  EXPECT_EQ(outcome.observations.size(), 10u);
}

TEST(Algorithm2, BatchedStopsEarlyMidBatch) {
  const std::vector<ParamSpec> specs{{"x", ParamKind::kContinuous, 0.0, 1.0}};
  ExploreConfig cfg;
  cfg.time_limit = 100;
  cfg.early_stop = 7;
  cfg.batch_size = 4;
  const auto outcome = explore_parameters(
      specs, [](const Assignment&) { return 1.0; }, cfg);
  EXPECT_TRUE(outcome.early_stopped);
  // The fold stops recording once npc hits EC, exactly as the serial
  // loop would: 4 observations from the first batch, 3 from the second.
  EXPECT_EQ(outcome.observations.size(), 7u);
}

TEST(Algorithm3, SingletonGroupsAddedForUncoveredParams) {
  const std::vector<ParamSpec> specs{
      {"a", ParamKind::kContinuous, 0.0, 1.0},
      {"b", ParamKind::kContinuous, 0.0, 1.0},
  };
  ExploreConfig cfg;
  cfg.time_limit = 4;
  cfg.early_stop = 4;
  cfg.outer_rounds = 1;
  // Only "a" grouped; "b" must still be explored (history includes
  // variation in b during its own group's runs).
  StrategyExplorer explorer(specs, {{0}},
                            [](const Assignment& a) { return a[0] + a[1]; }, cfg);
  explorer.run();
  EXPECT_GE(explorer.history().size(), 8u);
}

TEST(ValidateExploreConfig, AcceptsDefaultsAndReturnsThemUnchanged) {
  const ExploreConfig def;
  const ExploreConfig v = validate_explore_config(def);
  EXPECT_EQ(v.time_limit, def.time_limit);
  EXPECT_EQ(v.early_stop, def.early_stop);
  EXPECT_EQ(v.batch_size, def.batch_size);
  EXPECT_EQ(v.tpe.n_startup, def.tpe.n_startup);
}

TEST(ValidateExploreConfig, RejectsNonPositiveTimeLimit) {
  ExploreConfig cfg;
  cfg.time_limit = 0;
  EXPECT_THROW(validate_explore_config(cfg), std::invalid_argument);
  cfg.time_limit = -3;
  EXPECT_THROW(validate_explore_config(cfg), std::invalid_argument);
}

TEST(ValidateExploreConfig, RejectsNonPositiveEarlyStop) {
  ExploreConfig cfg;
  cfg.early_stop = 0;
  EXPECT_THROW(validate_explore_config(cfg), std::invalid_argument);
}

TEST(ValidateExploreConfig, RejectsNonPositiveOuterRounds) {
  ExploreConfig cfg;
  cfg.outer_rounds = 0;
  EXPECT_THROW(validate_explore_config(cfg), std::invalid_argument);
}

TEST(ValidateExploreConfig, RejectsBatchSizeBelowOne) {
  ExploreConfig cfg;
  cfg.batch_size = 0;
  EXPECT_THROW(validate_explore_config(cfg), std::invalid_argument);
}

TEST(ValidateExploreConfig, RejectsBadCandidateCounts) {
  ExploreConfig cfg;
  cfg.tpe.n_startup = -1;
  EXPECT_THROW(validate_explore_config(cfg), std::invalid_argument);
}

TEST(ValidateExploreConfig, ExplorerEntryPointsValidate) {
  const std::vector<ParamSpec> specs{{"a", ParamKind::kContinuous, 0.0, 1.0}};
  const EvalFn eval = [](const Assignment& a) { return a[0]; };
  ExploreConfig bad;
  bad.batch_size = -1;
  EXPECT_THROW(explore_parameters(specs, eval, bad), std::invalid_argument);
  EXPECT_THROW(StrategyExplorer(specs, {}, eval, bad), std::invalid_argument);
}

}  // namespace
}  // namespace puffer
