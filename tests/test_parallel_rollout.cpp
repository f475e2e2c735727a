// Thread pool, parallel rollout collection, and the serial-equivalence
// guarantee of the num_envs knob.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "src/core/trainer.hpp"
#include "src/rl/parallel_rollout.hpp"
#include "src/scenarios/grid.hpp"
#include "src/util/log.hpp"
#include "src/util/thread_pool.hpp"

namespace tsc {
namespace {

// ---------------------------------------------------------------------------
// ThreadPool

TEST(ThreadPool, ReturnsTaskResults) {
  util::ThreadPool pool(4);
  EXPECT_EQ(pool.num_threads(), 4u);
  std::vector<std::future<int>> futures;
  for (int i = 0; i < 32; ++i)
    futures.push_back(pool.submit([i] { return i * i; }));
  for (int i = 0; i < 32; ++i) EXPECT_EQ(futures[i].get(), i * i);
}

TEST(ThreadPool, PropagatesExceptionsAndSurvivesThem) {
  util::ThreadPool pool(2);
  auto bad = pool.submit([]() -> int { throw std::runtime_error("boom"); });
  EXPECT_THROW(bad.get(), std::runtime_error);
  // The pool must stay usable after a task threw.
  auto good = pool.submit([] { return 42; });
  EXPECT_EQ(good.get(), 42);
}

TEST(ThreadPool, DrainsQueueOnDestruction) {
  std::atomic<int> count{0};
  {
    util::ThreadPool pool(2);
    for (int i = 0; i < 64; ++i)
      pool.submit([&count] { count.fetch_add(1); });
  }  // dtor joins after running everything queued
  EXPECT_EQ(count.load(), 64);
}

TEST(ThreadPool, ConcurrentLoggingIsSafe) {
  // log_* must be callable from pool workers (single stream write per line;
  // TSan runs of this test verify there is no data race).
  util::ThreadPool pool(4);
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 16; ++i)
    futures.push_back(pool.submit(
        [i] { log_info("concurrent log line ", i, " value ", i * 0.5); }));
  for (auto& f : futures) f.get();
}

TEST(ThreadPool, AtLeastOneThread) {
  util::ThreadPool pool(0);
  EXPECT_EQ(pool.num_threads(), 1u);
  EXPECT_EQ(pool.submit([] { return 7; }).get(), 7);
}

// ---------------------------------------------------------------------------
// merge_rollouts

rl::RolloutBuffer make_buffer(std::size_t num_agents, std::size_t steps,
                              double tag) {
  rl::RolloutBuffer buffer(num_agents);
  for (std::size_t t = 0; t < steps; ++t) {
    for (std::size_t a = 0; a < num_agents; ++a) {
      rl::Sample s;
      s.obs = {tag, static_cast<double>(t)};
      s.action = a;
      s.reward = tag;
      buffer.add(a, std::move(s));
    }
  }
  return buffer;
}

TEST(MergeRollouts, ConcatenatesInWorkerOrder) {
  std::vector<rl::RolloutBuffer> parts;
  parts.push_back(make_buffer(2, 3, 1.0));
  parts.push_back(make_buffer(2, 2, 2.0));
  rl::RolloutBuffer merged = rl::merge_rollouts(std::move(parts));
  EXPECT_EQ(merged.num_agents(), 2u);
  EXPECT_EQ(merged.total_samples(), 2u * (3 + 2));
  const auto& agent0 = merged.agent_samples(0);
  ASSERT_EQ(agent0.size(), 5u);
  // Worker 0's episode first, then worker 1's.
  EXPECT_DOUBLE_EQ(agent0[0].obs[0], 1.0);
  EXPECT_DOUBLE_EQ(agent0[2].obs[0], 1.0);
  EXPECT_DOUBLE_EQ(agent0[3].obs[0], 2.0);
  EXPECT_DOUBLE_EQ(agent0[4].obs[1], 1.0);  // step index preserved
}

TEST(MergeRollouts, RejectsMismatchedRosters) {
  std::vector<rl::RolloutBuffer> parts;
  parts.push_back(make_buffer(2, 1, 1.0));
  parts.push_back(make_buffer(3, 1, 2.0));
  EXPECT_THROW(rl::merge_rollouts(std::move(parts)), std::invalid_argument);
}

TEST(MergeRollouts, EmptyInputYieldsEmptyBuffer) {
  rl::RolloutBuffer merged = rl::merge_rollouts({});
  EXPECT_EQ(merged.num_agents(), 0u);
  EXPECT_EQ(merged.total_samples(), 0u);
}

TEST(MergeRollouts, ReservesExactCapacityUpFront) {
  // merge_rollouts sizes every per-agent vector to the exact sample total
  // before moving anything in, so the moves never trigger a growth
  // reallocation and no capacity is left stranded.
  std::vector<rl::RolloutBuffer> parts;
  parts.push_back(make_buffer(3, 7, 1.0));
  parts.push_back(make_buffer(3, 2, 2.0));
  parts.push_back(make_buffer(3, 5, 3.0));
  rl::RolloutBuffer merged = rl::merge_rollouts(std::move(parts));
  for (std::size_t agent = 0; agent < merged.num_agents(); ++agent) {
    EXPECT_EQ(merged.agent_samples(agent).size(), 14u) << "agent " << agent;
    EXPECT_EQ(merged.agent_capacity(agent), merged.agent_samples(agent).size())
        << "agent " << agent;
  }
}

TEST(MergeRollouts, GaeStaysIsolatedPerEpisode) {
  // finish_agent runs GAE per part (with each episode's own bootstrap)
  // BEFORE merge_rollouts concatenates, so merged advantages must equal the
  // per-episode compute_gae outputs exactly — no recurrence across the seam.
  const double gamma = 0.99, lambda = 0.95;
  const std::vector<double> rewards_a = {1.0, 0.0, 2.0};
  const std::vector<double> values_a = {0.5, 0.2, 0.1};
  const std::vector<double> rewards_b = {-1.0, 0.5};
  const std::vector<double> values_b = {0.8, 0.4};

  auto fill = [](rl::RolloutBuffer& buffer, const std::vector<double>& rewards,
                 const std::vector<double>& values) {
    for (std::size_t t = 0; t < rewards.size(); ++t) {
      rl::Sample s;
      s.reward = rewards[t];
      s.value = values[t];
      buffer.add(0, std::move(s));
    }
  };
  std::vector<rl::RolloutBuffer> parts;
  parts.emplace_back(1);
  fill(parts[0], rewards_a, values_a);
  parts[0].finish_agent(0, /*bootstrap_value=*/0.3, gamma, lambda);
  parts.emplace_back(1);
  fill(parts[1], rewards_b, values_b);
  parts[1].finish_agent(0, /*bootstrap_value=*/0.0, gamma, lambda);
  rl::RolloutBuffer merged = rl::merge_rollouts(std::move(parts));

  const auto gae_a = rl::compute_gae(rewards_a, values_a, 0.3, gamma, lambda);
  const auto gae_b = rl::compute_gae(rewards_b, values_b, 0.0, gamma, lambda);
  const auto& samples = merged.agent_samples(0);
  ASSERT_EQ(samples.size(), 5u);
  for (std::size_t t = 0; t < 3; ++t) {
    EXPECT_EQ(samples[t].advantage, gae_a.advantages[t]) << "t=" << t;
    EXPECT_EQ(samples[t].ret, gae_a.returns[t]) << "t=" << t;
  }
  for (std::size_t t = 0; t < 2; ++t) {
    EXPECT_EQ(samples[3 + t].advantage, gae_b.advantages[t]) << "t=" << t;
    EXPECT_EQ(samples[3 + t].ret, gae_b.returns[t]) << "t=" << t;
  }
}

// ---------------------------------------------------------------------------
// TscEnv::clone

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

TEST(TscEnvClone, ReplicaIsIndependentAndFaithful) {
  GridFixture f;
  auto replica = f.environment.clone(5);
  ASSERT_NE(replica, nullptr);
  EXPECT_EQ(replica->num_agents(), f.environment.num_agents());

  // Same seed + same actions => identical trajectories.
  f.environment.reset(5);
  replica->reset(5);
  std::vector<std::size_t> actions(f.environment.num_agents(), 0);
  const auto r1 = f.environment.step(actions);
  const auto r2 = replica->step(actions);
  ASSERT_EQ(r1.size(), r2.size());
  for (std::size_t i = 0; i < r1.size(); ++i) EXPECT_DOUBLE_EQ(r1[i], r2[i]);

  // Stepping the original further must not disturb the replica.
  const double replica_now = replica->now();
  f.environment.step(actions);
  f.environment.step(actions);
  EXPECT_DOUBLE_EQ(replica->now(), replica_now);
  EXPECT_EQ(replica->steps_taken(), 1u);
}

// ---------------------------------------------------------------------------
// Serial-equivalence golden regression.
//
// These exact values were captured from the pre-refactor single-environment
// trainer (fixture above, seed 7; 3 training episodes then one stochastic
// eval at seed 77). collect_rollouts with the default num_envs = 1 must
// reproduce them bit-for-bit: any drift means the engine extraction or the
// tape/matmul changes altered serial training behavior.

TEST(ParallelRollout, SerialPathMatchesPreRefactorGolden) {
  GridFixture f;
  core::PairUpLightTrainer trainer(&f.environment, f.fast_config());

  const double golden_wait[3] = {8.0, 11.0375, 13.275};
  const double golden_travel[3] = {43.363636363636367, 54.785714285714285,
                                   65.888888888888886};
  const double golden_reward[3] = {-0.45687500000000003, -0.64749999999999985,
                                   -0.76312500000000005};
  const std::size_t golden_fin[3] = {5, 8, 1};
  const std::size_t golden_spawn[3] = {22, 28, 18};
  for (int e = 0; e < 3; ++e) {
    const auto s = trainer.train_episode();
    EXPECT_DOUBLE_EQ(s.avg_wait, golden_wait[e]) << "episode " << e;
    EXPECT_DOUBLE_EQ(s.travel_time, golden_travel[e]) << "episode " << e;
    EXPECT_DOUBLE_EQ(s.mean_reward, golden_reward[e]) << "episode " << e;
    EXPECT_EQ(s.vehicles_finished, golden_fin[e]) << "episode " << e;
    EXPECT_EQ(s.vehicles_spawned, golden_spawn[e]) << "episode " << e;
  }

  const auto ev = trainer.eval_episode(77);
  EXPECT_DOUBLE_EQ(ev.avg_wait, 9.2624999999999993);
  EXPECT_DOUBLE_EQ(ev.travel_time, 47.92307692307692);
  EXPECT_DOUBLE_EQ(ev.mean_reward, -0.54812499999999986);
}

TEST(ParallelRollout, ExplicitNumEnvs1MatchesDefault) {
  GridFixture f1, f2;
  core::PairUpConfig explicit_config = f1.fast_config();
  explicit_config.num_envs = 1;
  core::PairUpLightTrainer t1(&f1.environment, explicit_config);
  core::PairUpLightTrainer t2(&f2.environment, f2.fast_config());
  for (int e = 0; e < 2; ++e) {
    const auto s1 = t1.train_episode();
    const auto s2 = t2.train_episode();
    EXPECT_DOUBLE_EQ(s1.avg_wait, s2.avg_wait);
    EXPECT_DOUBLE_EQ(s1.travel_time, s2.travel_time);
    EXPECT_DOUBLE_EQ(s1.mean_reward, s2.mean_reward);
  }
}

// ---------------------------------------------------------------------------
// num_envs = 2 golden regression.
//
// Captured from the threaded per-agent collector (fixture above, seed 7, two
// training rounds at num_envs = 2) before the fleet engine became the only
// collector; the fleet path must reproduce the per-round stats and the final
// weights byte for byte, under both seeding modes.

std::uint64_t weights_checksum(core::PairUpLightTrainer& trainer) {
  std::uint64_t h = 14695981039346656037ULL;  // FNV-1a 64
  auto mix = [&h](nn::Module& module) {
    for (const nn::Parameter* p : module.parameters()) {
      const auto* bytes = reinterpret_cast<const unsigned char*>(p->value.data());
      for (std::size_t b = 0; b < p->value.size() * sizeof(double); ++b) {
        h ^= bytes[b];
        h *= 1099511628211ULL;
      }
    }
  };
  for (std::size_t m = 0; m < trainer.num_models(); ++m) {
    mix(trainer.actor(m));
    mix(trainer.critic(m));
  }
  return h;
}

struct TwoEnvGolden {
  double wait[2], travel[2], delay[2], reward[2];
  std::size_t finished[2], spawned[2];
  std::uint64_t checksum;
};

void expect_two_env_golden(bool invariant_seeding, const TwoEnvGolden& g) {
  GridFixture f;
  core::PairUpConfig config = f.fast_config();
  config.num_envs = 2;
  config.invariant_seeding = invariant_seeding;
  core::PairUpLightTrainer trainer(&f.environment, config);
  for (int e = 0; e < 2; ++e) {
    const auto s = trainer.train_episode();
    EXPECT_DOUBLE_EQ(s.avg_wait, g.wait[e]) << "round " << e;
    EXPECT_DOUBLE_EQ(s.travel_time, g.travel[e]) << "round " << e;
    EXPECT_DOUBLE_EQ(s.delay, g.delay[e]) << "round " << e;
    EXPECT_DOUBLE_EQ(s.mean_reward, g.reward[e]) << "round " << e;
    EXPECT_EQ(s.vehicles_finished, g.finished[e]) << "round " << e;
    EXPECT_EQ(s.vehicles_spawned, g.spawned[e]) << "round " << e;
  }
  EXPECT_EQ(weights_checksum(trainer), g.checksum);
}

TEST(ParallelRollout, TwoEnvsMatchPreFleetGolden) {
  expect_two_env_golden(
      false, {{7.4124999999999996, 4.7437500000000004},
              {43.388888888888886, 43.107505070993909},
              {43.388888888888886, 43.107505070993909},
              {-0.42781249999999993, -0.28312499999999996},
              {6, 17},
              {42, 46},
              0x23c70ca4d6842fb8ULL});
}

TEST(ParallelRollout, TwoEnvsInvariantSeedingMatchPreFleetGolden) {
  expect_two_env_golden(
      true, {{10.274999999999999, 7.6437499999999998},
             {50.930194805194802, 53.863095238095241},
             {50.930194805194802, 53.863095238095241},
             {-0.60062500000000019, -0.45468749999999997},
             {7, 11},
             {50, 46},
             0x3ae07209c5ace605ULL});
}

// ---------------------------------------------------------------------------
// Parallel collection.

TEST(ParallelRollout, CollectsOneEpisodePerWorker) {
  GridFixture serial_f, parallel_f;
  core::PairUpLightTrainer serial(&serial_f.environment, serial_f.fast_config());
  core::PairUpConfig parallel_config = parallel_f.fast_config();
  parallel_config.num_envs = 3;
  core::PairUpLightTrainer parallel(&parallel_f.environment, parallel_config);
  EXPECT_EQ(parallel.num_envs(), 3u);

  const auto serial_res = serial.collect_rollouts(123);
  const auto parallel_res = parallel.collect_rollouts(123);
  // Fixed episode length => every replica contributes the same step count.
  EXPECT_EQ(parallel_res.env_steps, 3u * serial_res.env_steps);
  EXPECT_EQ(parallel_res.buffer.total_samples(),
            3u * serial_res.buffer.total_samples());
  EXPECT_EQ(parallel_res.buffer.num_agents(), serial_res.buffer.num_agents());
  EXPECT_GT(parallel_res.stats.vehicles_spawned, 0u);
}

TEST(ParallelRollout, AdvantageNormalizationSpansTheMergedBatch) {
  // The update normalizes advantages AFTER merge_rollouts, so the statistics
  // must be batch-global over all num_envs episodes — not per episode.
  GridFixture f;
  core::PairUpConfig config = f.fast_config();
  config.num_envs = 2;
  core::PairUpLightTrainer trainer(&f.environment, config);
  auto collected = trainer.collect_rollouts(321);
  const auto flat = collected.buffer.flatten(/*normalize_advantages=*/true);
  ASSERT_GT(flat.size(), 2u);

  double mean = 0.0;
  for (const rl::Sample* s : flat) mean += s->advantage;
  mean /= static_cast<double>(flat.size());
  double var = 0.0;
  for (const rl::Sample* s : flat) var += (s->advantage - mean) * (s->advantage - mean);
  var /= static_cast<double>(flat.size());
  EXPECT_NEAR(mean, 0.0, 1e-9);
  EXPECT_NEAR(std::sqrt(var), 1.0, 1e-6);

  // Global normalization leaves the two episodes' sub-means offset from
  // zero (they only cancel in aggregate); per-episode normalization would
  // zero each half separately. Verify at least one half is visibly off 0.
  const std::size_t half = flat.size() / 2;
  double mean_a = 0.0;
  for (std::size_t i = 0; i < half; ++i) mean_a += flat[i]->advantage;
  mean_a /= static_cast<double>(half);
  EXPECT_GT(std::abs(mean_a), 1e-6);
}

TEST(ParallelRollout, CollectedGaeRecurrenceHoldsWithinEpisodesOnly) {
  // On the real num_envs=2 path, each agent's merged trajectory is two
  // episodes back to back. Inside each episode the GAE recurrence
  //   adv[t] = delta_t + gamma*lambda*adv[t+1],
  //   delta_t = r_t + gamma*V(s_{t+1}) - V(s_t)
  // must hold; across the episode seam it must NOT (episode 1 ends with its
  // own bootstrap value, not episode 2's opening state).
  GridFixture f;
  core::PairUpConfig config = f.fast_config();
  config.num_envs = 2;
  core::PairUpLightTrainer trainer(&f.environment, config);
  auto collected = trainer.collect_rollouts(654);
  const auto& buffer = collected.buffer;
  const double gamma = config.ppo.gamma, lambda = config.ppo.lambda;

  double max_seam_residual = 0.0;
  for (std::size_t agent = 0; agent < buffer.num_agents(); ++agent) {
    const auto& samples = buffer.agent_samples(agent);
    ASSERT_EQ(samples.size() % 2, 0u);
    const std::size_t episode_len = samples.size() / 2;
    ASSERT_GE(episode_len, 2u);
    for (std::size_t t = 0; t + 1 < samples.size(); ++t) {
      const double delta = samples[t].reward + gamma * samples[t + 1].value -
                           samples[t].value;
      const double residual =
          samples[t].advantage - (delta + gamma * lambda * samples[t + 1].advantage);
      if (t + 1 == episode_len) {
        // Seam between the two workers' episodes.
        max_seam_residual = std::max(max_seam_residual, std::abs(residual));
      } else {
        EXPECT_NEAR(residual, 0.0, 1e-9)
            << "agent " << agent << " step " << t << ": GAE recurrence broken "
            << "inside an episode";
      }
    }
  }
  // If bootstrapping leaked across the seam the recurrence would hold there
  // too, making every seam residual ~0.
  EXPECT_GT(max_seam_residual, 1e-9);
}

TEST(ParallelRollout, ParallelTrainingIsReproducibleRunToRun) {
  GridFixture f1, f2;
  core::PairUpConfig config1 = f1.fast_config();
  config1.num_envs = 3;
  core::PairUpConfig config2 = f2.fast_config();
  config2.num_envs = 3;
  core::PairUpLightTrainer t1(&f1.environment, config1);
  core::PairUpLightTrainer t2(&f2.environment, config2);
  for (int e = 0; e < 2; ++e) {
    const auto s1 = t1.train_episode();
    const auto s2 = t2.train_episode();
    EXPECT_DOUBLE_EQ(s1.avg_wait, s2.avg_wait) << "episode " << e;
    EXPECT_DOUBLE_EQ(s1.travel_time, s2.travel_time) << "episode " << e;
    EXPECT_DOUBLE_EQ(s1.mean_reward, s2.mean_reward) << "episode " << e;
    EXPECT_EQ(s1.vehicles_finished, s2.vehicles_finished) << "episode " << e;
    EXPECT_EQ(s1.vehicles_spawned, s2.vehicles_spawned) << "episode " << e;
  }
  // After identical updates the policies must agree at evaluation too.
  const auto e1 = t1.eval_episode(99);
  const auto e2 = t2.eval_episode(99);
  EXPECT_DOUBLE_EQ(e1.travel_time, e2.travel_time);
  EXPECT_DOUBLE_EQ(e1.mean_reward, e2.mean_reward);
}

}  // namespace
}  // namespace tsc
