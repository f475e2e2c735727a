// Numerical-equivalence harness for the sharded PPO update
// (core/update_engine.hpp): num_update_shards > 1 runs one batched pass per
// shard and folds the per-shard gradients in shard order, which
// re-associates each weight gradient's row fold at shard boundaries. It
// therefore tracks the serial (num_update_shards = 1) weights only within a
// tolerance — pinned here after one update and as a documented drift bound
// over a 20-episode run — while remaining exactly reproducible run to run.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "src/core/trainer.hpp"
#include "src/scenarios/grid.hpp"

namespace tsc {
namespace {

// Same fixture as test_parallel_update.cpp / test_parallel_rollout.cpp so
// the tolerance bounds pin the identical training run.
struct GridFixture {
  scenario::GridScenario grid;
  env::TscEnv environment;

  GridFixture()
      : grid(make_grid()),
        environment(&grid.net(), make_flows(grid), make_env_config(), 1) {}

  static scenario::GridScenario make_grid() {
    scenario::GridConfig config;
    config.rows = 2;
    config.cols = 2;
    return scenario::GridScenario(config);
  }
  static std::vector<sim::FlowSpec> make_flows(const scenario::GridScenario& g) {
    std::vector<sim::FlowSpec> flows;
    for (std::size_t c = 0; c < 2; ++c) {
      sim::FlowSpec f;
      f.route = g.route(g.north_terminal(c), g.south_terminal(c));
      f.profile = {{0.0, 400.0}, {200.0, 400.0}};
      flows.push_back(f);
    }
    return flows;
  }
  static env::EnvConfig make_env_config() {
    env::EnvConfig config;
    config.episode_seconds = 100.0;
    return config;
  }

  core::PairUpConfig fast_config() {
    core::PairUpConfig config;
    config.hidden = 16;
    config.ppo.epochs = 1;
    config.ppo.minibatch = 32;
    config.seed = 7;
    return config;
  }
};

std::vector<double> all_weights(core::PairUpLightTrainer& trainer) {
  std::vector<double> values;
  for (std::size_t m = 0; m < trainer.num_models(); ++m) {
    for (nn::Parameter* p : trainer.actor(m).parameters())
      values.insert(values.end(), p->value.values().begin(),
                    p->value.values().end());
    for (nn::Parameter* p : trainer.critic(m).parameters())
      values.insert(values.end(), p->value.values().begin(),
                    p->value.values().end());
  }
  return values;
}

// max_i |a_i - b_i| / max(|a_i|, |b_i|, 1): relative where weights are
// O(1) or larger, absolute where they are tiny (a near-zero weight pair
// should not register machine noise as huge relative divergence).
double max_relative_divergence(core::PairUpLightTrainer& a,
                               core::PairUpLightTrainer& b) {
  const auto wa = all_weights(a);
  const auto wb = all_weights(b);
  EXPECT_EQ(wa.size(), wb.size());
  double worst = 0.0;
  const std::size_t n = std::min(wa.size(), wb.size());
  for (std::size_t i = 0; i < n; ++i) {
    const double scale = std::max({std::fabs(wa[i]), std::fabs(wb[i]), 1.0});
    worst = std::max(worst, std::fabs(wa[i] - wb[i]) / scale);
  }
  return worst;
}

void expect_weights_identical(core::PairUpLightTrainer& a,
                              core::PairUpLightTrainer& b) {
  const auto wa = all_weights(a);
  const auto wb = all_weights(b);
  ASSERT_EQ(wa.size(), wb.size());
  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < wa.size(); ++i)
    if (!(wa[i] == wb[i]) && ++mismatches <= 3)
      ADD_FAILURE() << "weight " << i << ": " << wa[i] << " != " << wb[i];
  EXPECT_EQ(mismatches, 0u);
}

// ---------------------------------------------------------------------------
// Batched shards: tolerance-bounded equivalence.

TEST(ShardedUpdate, BatchedMatchesSerialToFloatingPointNoiseAfterOneEpisode) {
  GridFixture serial_f, batched_f;
  core::PairUpConfig batched_config = batched_f.fast_config();
  batched_config.num_update_shards = 4;
  core::PairUpLightTrainer serial(&serial_f.environment, serial_f.fast_config());
  core::PairUpLightTrainer batched(&batched_f.environment, batched_config);

  serial.train_episode();
  batched.train_episode();

  // After one episode's updates the only difference is the re-associated
  // gradient fold: divergence must sit at accumulated-rounding scale, far
  // below anything training-visible. (Empirically ~3e-17 on this fixture —
  // machine-epsilon scale; the bound leaves generous slack for other
  // compilers/flags while staying far below training-visible drift.)
  const double divergence = max_relative_divergence(serial, batched);
  EXPECT_LT(divergence, 1e-12) << "batched shards drifted beyond FP noise";
}

TEST(ShardedUpdate, BatchedDriftStaysBoundedOverTwentyEpisodes) {
  GridFixture serial_f, batched_f;
  core::PairUpConfig batched_config = batched_f.fast_config();
  batched_config.num_update_shards = 4;
  core::PairUpLightTrainer serial(&serial_f.environment, serial_f.fast_config());
  core::PairUpLightTrainer batched(&batched_f.environment, batched_config);

  // Rounding differences compound through Adam's moments and, eventually,
  // through sampled actions, so the drift bound over a 20-episode run is
  // necessarily looser than the single-episode one. This pins the
  // DOCUMENTED bound: as long as both runs keep sampling identical
  // trajectories the divergence stays at FP-noise scale; this fixture stays
  // trajectory-identical for all 20 episodes (asserted below), with
  // end-of-run weight divergence empirically ~6e-17.
  for (int e = 0; e < 20; ++e) {
    const auto s1 = serial.train_episode();
    const auto s2 = batched.train_episode();
    EXPECT_DOUBLE_EQ(s1.avg_wait, s2.avg_wait) << "episode " << e;
    EXPECT_EQ(s1.vehicles_finished, s2.vehicles_finished) << "episode " << e;
  }
  const double divergence = max_relative_divergence(serial, batched);
  EXPECT_LT(divergence, 1e-9) << "20-episode batched drift out of bound";
}

TEST(ShardedUpdate, BatchedIsReproducibleRunToRun) {
  // Not bit-identical to serial, but exactly deterministic for a fixed
  // shard count: shards are folded in index order on the calling thread, so
  // two identical runs must agree to the bit.
  GridFixture f1, f2;
  core::PairUpConfig config1 = f1.fast_config();
  config1.num_update_shards = 3;
  core::PairUpConfig config2 = f2.fast_config();
  config2.num_update_shards = 3;
  core::PairUpLightTrainer t1(&f1.environment, config1);
  core::PairUpLightTrainer t2(&f2.environment, config2);
  for (int e = 0; e < 3; ++e) {
    const auto s1 = t1.train_episode();
    const auto s2 = t2.train_episode();
    EXPECT_DOUBLE_EQ(s1.avg_wait, s2.avg_wait) << "episode " << e;
    EXPECT_DOUBLE_EQ(s1.mean_reward, s2.mean_reward) << "episode " << e;
  }
  expect_weights_identical(t1, t2);
}

TEST(ShardedUpdate, BatchedTrainingStaysHealthy) {
  // End-to-end sanity of sharded training on its own terms (no serial twin):
  // losses finite, stats populated, uneven shard split (3 does not divide
  // 32) exercised.
  GridFixture f;
  core::PairUpConfig config = f.fast_config();
  config.num_update_shards = 3;
  core::PairUpLightTrainer trainer(&f.environment, config);
  for (int e = 0; e < 3; ++e) {
    const auto s = trainer.train_episode();
    EXPECT_TRUE(std::isfinite(s.mean_reward));
    EXPECT_TRUE(std::isfinite(s.avg_wait));
    EXPECT_GT(s.vehicles_spawned, 0u);
  }
  const auto ev = trainer.eval_episode(77);
  EXPECT_TRUE(std::isfinite(ev.travel_time));
  for (double w : all_weights(trainer)) EXPECT_TRUE(std::isfinite(w));
}

}  // namespace
}  // namespace tsc
