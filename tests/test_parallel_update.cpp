// The PPO update (core/update_engine.hpp): serial-path golden regression,
// sharded-update reproducibility, optimizer state checkpointing, and
// resume-equals-uninterrupted training.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/core/trainer.hpp"
#include "src/nn/layers.hpp"
#include "src/nn/serialize.hpp"
#include "src/scenarios/grid.hpp"

namespace tsc {
namespace {

// Same fixture as test_parallel_rollout.cpp so the golden values pin the
// identical training run.
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

// All weight values of the trainer's networks, flattened in parameter order.
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

// Exact (bitwise, modulo zero sign) equality: EXPECT_DOUBLE_EQ would allow
// 4 ULP of drift, which is precisely the kind of divergence these tests
// exist to rule out.
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
// Serial-path golden regression: the update-engine extraction must leave
// the num_update_shards = 1 trainer bit-identical to the pre-refactor
// trainer. Golden values are the same capture pinned in
// test_parallel_rollout.cpp (they exercise rollout + update end to end).

TEST(ParallelUpdate, SerialPathMatchesPreRefactorGolden) {
  GridFixture f;
  core::PairUpConfig config = f.fast_config();
  config.num_update_shards = 1;  // explicit == default
  core::PairUpLightTrainer trainer(&f.environment, config);

  const double golden_wait[3] = {8.0, 11.0375, 13.275};
  const double golden_travel[3] = {43.363636363636367, 54.785714285714285,
                                   65.888888888888886};
  const double golden_reward[3] = {-0.45687500000000003, -0.64749999999999985,
                                   -0.76312500000000005};
  for (int e = 0; e < 3; ++e) {
    const auto s = trainer.train_episode();
    EXPECT_DOUBLE_EQ(s.avg_wait, golden_wait[e]) << "episode " << e;
    EXPECT_DOUBLE_EQ(s.travel_time, golden_travel[e]) << "episode " << e;
    EXPECT_DOUBLE_EQ(s.mean_reward, golden_reward[e]) << "episode " << e;
  }
  const auto ev = trainer.eval_episode(77);
  EXPECT_DOUBLE_EQ(ev.avg_wait, 9.2624999999999993);
  EXPECT_DOUBLE_EQ(ev.travel_time, 47.92307692307692);
  EXPECT_DOUBLE_EQ(ev.mean_reward, -0.54812499999999986);
}

// ---------------------------------------------------------------------------
// Sharded updates: deterministic for a fixed shard count, and tolerance-
// bounded against the serial fold (tests/test_sharded_update.cpp has the
// drift bounds).

TEST(ParallelUpdate, ShardedTrainingIsReproducibleRunToRun) {
  GridFixture f1, f2;
  core::PairUpConfig config1 = f1.fast_config();
  config1.num_update_shards = 3;
  core::PairUpConfig config2 = f2.fast_config();
  config2.num_update_shards = 3;
  core::PairUpLightTrainer t1(&f1.environment, config1);
  core::PairUpLightTrainer t2(&f2.environment, config2);
  for (int e = 0; e < 2; ++e) {
    const auto s1 = t1.train_episode();
    const auto s2 = t2.train_episode();
    EXPECT_DOUBLE_EQ(s1.avg_wait, s2.avg_wait) << "episode " << e;
    EXPECT_DOUBLE_EQ(s1.mean_reward, s2.mean_reward) << "episode " << e;
  }
  expect_weights_identical(t1, t2);
}

TEST(ParallelUpdate, ShardingComposesWithParallelRollouts) {
  // num_envs and num_update_shards are independent knobs: on a multi-env
  // batch, sharding the update must stay within FP noise of the serial
  // update, exactly as on a single-env batch.
  GridFixture serial_f, sharded_f;
  core::PairUpConfig serial_config = serial_f.fast_config();
  serial_config.num_envs = 2;
  core::PairUpConfig sharded_config = sharded_f.fast_config();
  sharded_config.num_envs = 2;
  sharded_config.num_update_shards = 4;
  core::PairUpLightTrainer serial(&serial_f.environment, serial_config);
  core::PairUpLightTrainer sharded(&sharded_f.environment, sharded_config);
  const auto s1 = serial.train_episode();
  const auto s2 = sharded.train_episode();
  // The first round's rollouts precede any update, so they match exactly.
  EXPECT_DOUBLE_EQ(s1.avg_wait, s2.avg_wait);
  EXPECT_DOUBLE_EQ(s1.mean_reward, s2.mean_reward);

  const auto wa = all_weights(serial);
  const auto wb = all_weights(sharded);
  ASSERT_EQ(wa.size(), wb.size());
  double worst = 0.0;
  for (std::size_t i = 0; i < wa.size(); ++i) {
    const double scale = std::max({std::fabs(wa[i]), std::fabs(wb[i]), 1.0});
    worst = std::max(worst, std::fabs(wa[i] - wb[i]) / scale);
  }
  EXPECT_LT(worst, 1e-12) << "sharded update drifted beyond FP noise";
}

// ---------------------------------------------------------------------------
// Optimizer state serialization.

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + name;
}

TEST(OptimizerCheckpoint, RoundTripContinuesIdentically) {
  Rng rng(3);
  nn::Linear net_a(4, 3, rng);
  nn::Linear net_b(4, 3, rng);
  net_b.copy_weights_from(net_a);
  nn::Adam optim_a(net_a.parameters());
  nn::Adam optim_b(net_b.parameters());

  auto fake_grads = [](nn::Module& net, double salt) {
    std::size_t i = 0;
    for (nn::Parameter* p : net.parameters())
      for (std::size_t j = 0; j < p->grad.size(); ++j)
        p->grad[j] = salt * 0.01 * static_cast<double>(++i % 7);
  };

  // Shared warmup so the moments and step count are non-trivial.
  for (int s = 0; s < 3; ++s) {
    fake_grads(net_a, 1.0 + s);
    optim_a.step();
  }
  const std::string path = temp_path("optim_roundtrip.bin");
  nn::save_optimizer_state(optim_a, path);
  nn::load_optimizer_state(optim_b, path);
  EXPECT_EQ(optim_b.steps_taken(), 3u);
  net_b.copy_weights_from(net_a);

  // Identical grads from identical state must keep the nets identical;
  // without the moments this diverges immediately (bias correction alone
  // changes the effective step size).
  for (int s = 0; s < 4; ++s) {
    fake_grads(net_a, 5.0 + s);
    fake_grads(net_b, 5.0 + s);
    optim_a.step();
    optim_b.step();
  }
  auto pa = net_a.parameters();
  auto pb = net_b.parameters();
  ASSERT_EQ(pa.size(), pb.size());
  for (std::size_t k = 0; k < pa.size(); ++k)
    for (std::size_t j = 0; j < pa[k]->value.size(); ++j)
      EXPECT_EQ(pa[k]->value[j], pb[k]->value[j]);
  std::remove(path.c_str());
}

TEST(OptimizerCheckpoint, RejectsMismatchedArchitecture) {
  Rng rng(4);
  nn::Linear small(2, 2, rng);
  nn::Linear big(5, 3, rng);
  nn::Adam optim_small(small.parameters());
  nn::Adam optim_big(big.parameters());
  const std::string path = temp_path("optim_mismatch.bin");
  nn::save_optimizer_state(optim_small, path);
  EXPECT_THROW(nn::load_optimizer_state(optim_big, path), std::runtime_error);
  std::remove(path.c_str());
}

TEST(OptimizerCheckpoint, MissingFileThrows) {
  Rng rng(5);
  nn::Linear net(2, 2, rng);
  nn::Adam optim(net.parameters());
  EXPECT_THROW(nn::load_optimizer_state(optim, "/nonexistent/optim.bin"),
               std::runtime_error);
}

// ---------------------------------------------------------------------------
// Resume-equals-uninterrupted: the original checkpoint bug. Weights-only
// checkpoints silently reset Adam's moments, the episode counter (epsilon
// schedule + episode seeds), and the shuffle stream, so a resumed run
// drifted from the uninterrupted one. With the full state restored the two
// runs must coincide step for step.

TEST(TrainerResume, MatchesUninterruptedTraining) {
  GridFixture uninterrupted_f, resumed_f;
  core::PairUpLightTrainer uninterrupted(&uninterrupted_f.environment,
                                         uninterrupted_f.fast_config());
  const std::string prefix = temp_path("resume_ckpt");
  for (int e = 0; e < 3; ++e) uninterrupted.train_episode();
  uninterrupted.save_checkpoint(prefix);

  core::PairUpLightTrainer resumed(&resumed_f.environment,
                                   resumed_f.fast_config());
  resumed.load_checkpoint(prefix);
  EXPECT_EQ(resumed.episodes_trained(), 3u);

  for (int e = 0; e < 2; ++e) {
    const auto su = uninterrupted.train_episode();
    const auto sr = resumed.train_episode();
    EXPECT_DOUBLE_EQ(su.avg_wait, sr.avg_wait) << "episode " << e;
    EXPECT_DOUBLE_EQ(su.travel_time, sr.travel_time) << "episode " << e;
    EXPECT_DOUBLE_EQ(su.mean_reward, sr.mean_reward) << "episode " << e;
    EXPECT_EQ(su.vehicles_finished, sr.vehicles_finished) << "episode " << e;
  }
  expect_weights_identical(uninterrupted, resumed);

  const auto eu = uninterrupted.eval_episode(123);
  const auto er = resumed.eval_episode(123);
  EXPECT_DOUBLE_EQ(eu.travel_time, er.travel_time);
  EXPECT_DOUBLE_EQ(eu.mean_reward, er.mean_reward);
}

// A truncated _trainer.bin must throw without touching the trainer: the
// loader used to assign the episode counter before its truncation check.
TEST(TrainerResume, TruncatedTrainerStateLeavesEpisodeUnchanged) {
  GridFixture source_f, target_f;
  core::PairUpLightTrainer source(&source_f.environment, source_f.fast_config());
  for (int e = 0; e < 3; ++e) source.train_episode();
  const std::string prefix = temp_path("truncated_trainer_ckpt");
  source.save_checkpoint(prefix);
  const std::string trainer_file = prefix + "_trainer.bin";
  {
    // Keep magic, version and the episode counter; cut the RNG state short.
    std::ifstream in(trainer_file, std::ios::binary);
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    ASSERT_GT(bytes.size(), 28u);
    std::ofstream out(trainer_file, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), 28);
  }

  core::PairUpLightTrainer target(&target_f.environment, target_f.fast_config());
  EXPECT_THROW(target.load_checkpoint(prefix), std::runtime_error);
  EXPECT_EQ(target.episodes_trained(), 0u);
  for (const char* suffix :
       {"_actor0.bin", "_critic0.bin", "_optim0.bin", "_trainer.bin"})
    std::remove((prefix + suffix).c_str());
}

std::string file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

// load_checkpoint used to load file by file, so a bad _optim0.bin or
// _trainer.bin threw after the earlier models had been overwritten. The
// target's own checkpoint, saved before and after the failed load, must be
// byte-identical: weights, Adam moments and step count, the episode counter
// and the RNG stream all unchanged.
TEST(TrainerResume, CorruptLaterFileLeavesModelsUnchanged) {
  GridFixture source_f, target_f;
  core::PairUpLightTrainer source(&source_f.environment, source_f.fast_config());
  for (int e = 0; e < 3; ++e) source.train_episode();
  core::PairUpLightTrainer target(&target_f.environment, target_f.fast_config());
  target.train_episode();  // non-initial weights, moments and counter
  const std::string prefix = temp_path("corrupt_later_ckpt");
  const std::string before = temp_path("corrupt_later_before");
  const std::string after = temp_path("corrupt_later_after");
  const char* files[] = {"_actor0.bin", "_critic0.bin", "_optim0.bin",
                         "_trainer.bin"};
  target.save_checkpoint(before);

  for (const char* bad : {"_optim0.bin", "_trainer.bin"}) {
    source.save_checkpoint(prefix);
    ASSERT_TRUE(file_bytes(prefix + "_actor0.bin") !=
                file_bytes(before + "_actor0.bin"))
        << "source and target weights must differ for the check to bite";
    const std::string bytes = file_bytes(prefix + bad);
    ASSERT_GT(bytes.size(), 40u);
    {
      std::ofstream out(prefix + bad, std::ios::binary | std::ios::trunc);
      out.write(bytes.data(), static_cast<std::streamsize>(bytes.size() / 2));
    }
    EXPECT_THROW(target.load_checkpoint(prefix), std::runtime_error) << bad;
    EXPECT_EQ(target.episodes_trained(), 1u) << bad;
    target.save_checkpoint(after);
    for (const char* file : files)
      EXPECT_TRUE(file_bytes(before + file) == file_bytes(after + file))
          << file << " changed by a load that failed on " << bad;
  }
  for (const std::string& p : {prefix, before, after})
    for (const char* file : files) std::remove((p + file).c_str());
}

}  // namespace
}  // namespace tsc
