// The serial update's second thread (core::UpdateLane) and the non-finite
// guard of every minibatch update (core::TrainingDiverged):
//   * with a lane, serial_minibatch_update leaves weights and Adam moments
//     and step counts bitwise equal to the same minibatches without one, at
//     the 6x6 grid with one shared model and at a 2x2 grid with one model
//     per agent; whole train_episode() runs match the lane-free tape path;
//   * an exception in either half reaches the caller, changes no weight or
//     Adam state, and the next minibatch on the same lane still runs;
//   * the actor's and the lane's workspaces together allocate exactly what
//     one lane-free workspace does, and update_alloc_events() counts both;
//   * only a trainer that updates on the serial fused path starts a lane;
//   * a NaN advantage throws TrainingDiverged before Adam on the serial
//     fused, serial tape and sharded paths, leaving the checkpoint
//     byte-identical.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "src/core/trainer.hpp"
#include "src/core/update_engine.hpp"
#include "src/nn/optim.hpp"
#include "src/scenarios/flow_patterns.hpp"
#include "src/scenarios/grid.hpp"

namespace tsc {
namespace {

bool host_has_second_thread() { return std::thread::hardware_concurrency() >= 2; }

// A training scenario: its grid, environment and trainer config.
struct Scenario {
  std::unique_ptr<scenario::GridScenario> grid;
  std::unique_ptr<env::TscEnv> environment;
  core::PairUpConfig config;
};

// The paper's 6x6 grid on flow pattern F1 (compressed to a 100 s episode),
// one shared model at the default network sizes and minibatch.
Scenario grid6x6_shared() {
  Scenario s;
  s.grid = std::make_unique<scenario::GridScenario>(scenario::GridConfig{});
  scenario::FlowPatternConfig flows;
  flows.time_scale = 1.0 / 6.0;
  env::EnvConfig env_config;
  env_config.episode_seconds = 100.0;
  s.environment = std::make_unique<env::TscEnv>(
      &s.grid->net(),
      scenario::make_flow_pattern(*s.grid, scenario::FlowPattern::kPattern1, flows),
      env_config, 1);
  s.config.seed = 3;
  s.config.ppo.epochs = 2;
  return s;
}

// A 2x2 grid with one actor/critic pair per agent and small minibatches, so
// every model's update runs several minibatches.
Scenario grid2x2_per_agent() {
  Scenario s;
  scenario::GridConfig grid_config;
  grid_config.rows = 2;
  grid_config.cols = 2;
  s.grid = std::make_unique<scenario::GridScenario>(grid_config);
  std::vector<sim::FlowSpec> flows;
  for (std::size_t c = 0; c < 2; ++c) {
    sim::FlowSpec f;
    f.route = s.grid->route(s.grid->north_terminal(c), s.grid->south_terminal(c));
    f.profile = {{0.0, 400.0}, {200.0, 400.0}};
    flows.push_back(f);
  }
  env::EnvConfig env_config;
  env_config.episode_seconds = 100.0;
  s.environment =
      std::make_unique<env::TscEnv>(&s.grid->net(), flows, env_config, 1);
  s.config.hidden = 16;
  s.config.ppo.epochs = 2;
  s.config.ppo.minibatch = 8;
  s.config.parameter_sharing = false;
  s.config.seed = 7;
  return s;
}

using ScenarioFactory = Scenario (*)();
const ScenarioFactory kScenarios[] = {grid6x6_shared, grid2x2_per_agent};

std::vector<nn::Parameter*> model_params(core::PairUpLightTrainer& trainer,
                                         std::size_t model) {
  std::vector<nn::Parameter*> params = trainer.actor(model).parameters();
  for (nn::Parameter* p : trainer.critic(model).parameters()) params.push_back(p);
  return params;
}

bool bitwise_equal(const nn::Tensor& a, const nn::Tensor& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

void expect_same_model(core::PairUpLightTrainer& a, core::PairUpLightTrainer& b,
                       std::size_t model, const std::string& what) {
  const auto pa = model_params(a, model);
  const auto pb = model_params(b, model);
  ASSERT_EQ(pa.size(), pb.size());
  for (std::size_t k = 0; k < pa.size(); ++k)
    EXPECT_TRUE(bitwise_equal(pa[k]->value, pb[k]->value))
        << what << ": model " << model << " parameter " << pa[k]->name;
}

void expect_same_adam(const nn::Adam& a, const nn::Adam& b, const std::string& what) {
  EXPECT_EQ(a.steps_taken(), b.steps_taken()) << what;
  ASSERT_EQ(a.num_params(), b.num_params());
  for (std::size_t k = 0; k < a.num_params(); ++k) {
    EXPECT_TRUE(bitwise_equal(a.first_moments()[k], b.first_moments()[k]))
        << what << ": Adam m of parameter " << k;
    EXPECT_TRUE(bitwise_equal(a.second_moments()[k], b.second_moments()[k]))
        << what << ": Adam v of parameter " << k;
  }
}

// One model's serial update state outside the trainer: an Adam over the
// model's parameters, the packed rows, the workspace, and the context.
struct ModelUpdate {
  ModelUpdate(core::PairUpLightTrainer& trainer, std::size_t model,
              const std::vector<const rl::Sample*>& samples, core::UpdateLane* lane)
      : params(model_params(trainer, model)) {
    nn::Adam::Config adam;
    adam.lr = trainer.config().ppo.lr;
    optim = std::make_unique<nn::Adam>(params, adam);
    block.build(samples, trainer.actor(model).input_dim(),
                trainer.critic(model).input_dim(), trainer.config().hidden);
    ctx.config = &trainer.config();
    ctx.actor = &trainer.actor(model);
    ctx.critic = &trainer.critic(model);
    ctx.params = params;
    ctx.tape = &tape;
    ctx.optim = optim.get();
    ctx.block = &block;
    ctx.backward = &ws;
    ctx.lane = lane;
  }

  std::vector<nn::Parameter*> params;
  std::unique_ptr<nn::Adam> optim;
  core::PackedSampleBlock block;
  nn::Tape tape;
  nn::Workspace ws;
  core::UpdateContext ctx;
};

// Each model's samples of a collected buffer, as update() splits them.
std::vector<std::vector<const rl::Sample*>> samples_per_model(
    core::PairUpLightTrainer& trainer, rl::RolloutBuffer& buffer) {
  std::vector<const rl::Sample*> all =
      buffer.flatten(trainer.config().ppo.normalize_advantages);
  if (trainer.config().parameter_sharing) return {all};
  std::vector<std::vector<const rl::Sample*>> per_agent;
  for (std::size_t i = 0; i < buffer.num_agents(); ++i) {
    per_agent.emplace_back();
    for (const rl::Sample& s : buffer.agent_samples(i))
      per_agent.back().push_back(&s);
  }
  return per_agent;
}

std::vector<std::size_t> shuffled_order(std::size_t n, std::uint64_t seed) {
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;
  Rng rng(seed);
  for (std::size_t i = n; i > 1; --i) std::swap(order[i - 1], order[rng.uniform_int(i)]);
  return order;
}

std::string file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

std::string temp_prefix(const std::string& name) {
  return ::testing::TempDir() + "/update_lane_" + name;
}

// The model files of a checkpoint: weights and Adam moments/step counts.
std::vector<std::string> model_files(core::PairUpLightTrainer& trainer,
                                     const std::string& prefix) {
  std::vector<std::string> files;
  for (std::size_t m = 0; m < trainer.num_models(); ++m)
    for (const char* kind : {"_actor", "_critic", "_optim"})
      files.push_back(prefix + kind + std::to_string(m) + ".bin");
  return files;
}

void remove_checkpoint(core::PairUpLightTrainer& trainer, const std::string& prefix) {
  for (const std::string& f : model_files(trainer, prefix)) std::remove(f.c_str());
  std::remove((prefix + "_trainer.bin").c_str());
}

// ---------------------------------------------------------------------------
// Bit-identity of the two schedules.

TEST(UpdateLane, MinibatchesMatchTheNullLaneBitwise) {
  for (ScenarioFactory make : kScenarios) {
    Scenario lane_s = make(), null_s = make();
    core::PairUpLightTrainer with_lane(lane_s.environment.get(), lane_s.config);
    core::PairUpLightTrainer without(null_s.environment.get(), null_s.config);
    auto collected = with_lane.collect_rollouts(11);
    const auto per_model = samples_per_model(with_lane, collected.buffer);
    ASSERT_EQ(per_model.size(), with_lane.num_models());
    const std::string what = with_lane.config().parameter_sharing
                                 ? "6x6 shared"
                                 : "2x2 per-agent";

    core::UpdateLane lane;
    std::size_t minibatches = 0;
    for (std::size_t m = 0; m < per_model.size(); ++m) {
      ModelUpdate a(with_lane, m, per_model[m], &lane);
      ModelUpdate b(without, m, per_model[m], nullptr);
      const std::size_t n = per_model[m].size();
      const std::size_t mb = with_lane.config().ppo.minibatch;
      for (std::size_t epoch = 0; epoch < 2; ++epoch) {
        const auto order = shuffled_order(n, 100 + epoch);
        for (std::size_t begin = 0; begin < n; begin += mb) {
          const std::size_t end = std::min(n, begin + mb);
          const double la = core::serial_minibatch_update(a.ctx, per_model[m],
                                                          order, begin, end);
          const double lb = core::serial_minibatch_update(b.ctx, per_model[m],
                                                          order, begin, end);
          EXPECT_EQ(std::memcmp(&la, &lb, sizeof(double)), 0)
              << what << ": loss of model " << m << " minibatch " << begin;
          ++minibatches;
        }
      }
      expect_same_model(with_lane, without, m, what);
      expect_same_adam(*a.optim, *b.optim, what);
    }
    EXPECT_GE(minibatches, 6u) << what;
  }
}

// The trainer's own update (its lane on any host with two threads) against
// the tape path, which never uses a lane and is the update's bitwise oracle.
TEST(UpdateLane, TrainEpisodesMatchTheLaneFreeTapeOracle) {
  for (ScenarioFactory make : kScenarios) {
    Scenario fused_s = make(), tape_s = make();
    tape_s.config.update_path = core::UpdatePath::kTape;
    core::PairUpLightTrainer fused(fused_s.environment.get(), fused_s.config);
    core::PairUpLightTrainer tape(tape_s.environment.get(), tape_s.config);
    for (int e = 0; e < 2; ++e) {
      fused.train_episode();
      tape.train_episode();
    }
    EXPECT_EQ(fused.update_lane() != nullptr, host_has_second_thread());
    EXPECT_EQ(tape.update_lane(), nullptr);

    const std::string fused_prefix = temp_prefix("episodes_fused");
    const std::string tape_prefix = temp_prefix("episodes_tape");
    fused.save_checkpoint(fused_prefix);
    tape.save_checkpoint(tape_prefix);
    const auto fused_files = model_files(fused, fused_prefix);
    const auto tape_files = model_files(tape, tape_prefix);
    for (std::size_t i = 0; i < fused_files.size(); ++i)
      EXPECT_TRUE(file_bytes(fused_files[i]) == file_bytes(tape_files[i]))
          << fused_files[i] << " differs from the tape path's";
    remove_checkpoint(fused, fused_prefix);
    remove_checkpoint(tape, tape_prefix);
  }
}

// ---------------------------------------------------------------------------
// Failures in either half.

TEST(UpdateLane, HalfExceptionReachesCallerAndTheLaneKeepsRunning) {
  for (const bool critic_fails : {true, false}) {
    const std::string what = critic_fails ? "critic half" : "actor half";
    Scenario lane_s = grid2x2_per_agent(), null_s = grid2x2_per_agent();
    lane_s.config.parameter_sharing = null_s.config.parameter_sharing = true;
    core::PairUpLightTrainer with_lane(lane_s.environment.get(), lane_s.config);
    core::PairUpLightTrainer without(null_s.environment.get(), null_s.config);
    auto collected = with_lane.collect_rollouts(5);
    const std::vector<const rl::Sample*> samples =
        collected.buffer.flatten(true);
    // The same rows with one stray value in the failing network's input.
    std::vector<rl::Sample> widened;
    for (const rl::Sample* s : samples) {
      widened.push_back(*s);
      (critic_fails ? widened.back().critic_obs : widened.back().obs)
          .push_back(0.0);
    }
    std::vector<const rl::Sample*> bad;
    for (const rl::Sample& s : widened) bad.push_back(&s);

    core::UpdateLane lane;
    ModelUpdate a(with_lane, 0, samples, &lane);
    ModelUpdate b(without, 0, samples, nullptr);
    core::PackedSampleBlock bad_block;
    bad_block.build(bad, bad[0]->obs.size(), bad[0]->critic_obs.size(),
                    with_lane.config().hidden);
    const auto order = shuffled_order(samples.size(), 9);
    const std::size_t end = with_lane.config().ppo.minibatch;

    // From the packed block and from the samples.
    const core::PackedSampleBlock* bad_sources[] = {&bad_block, nullptr};
    for (const core::PackedSampleBlock* block : bad_sources) {
      a.ctx.block = block;
      try {
        core::serial_minibatch_update(a.ctx, bad, order, 0, end);
        ADD_FAILURE() << what << ": a mismatched row width did not throw";
      } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string(e.what()).find(critic_fails ? "critic" : "actor"),
                  std::string::npos)
            << e.what();
      }
      EXPECT_EQ(a.optim->steps_taken(), 0u) << what;
      expect_same_model(with_lane, without, 0, what + " after the throw");
    }

    a.ctx.block = &a.block;
    for (std::size_t begin = 0; begin < 3 * end; begin += end) {
      core::serial_minibatch_update(a.ctx, samples, order, begin, begin + end);
      core::serial_minibatch_update(b.ctx, samples, order, begin, begin + end);
    }
    expect_same_model(with_lane, without, 0, what + " after recovery");
    expect_same_adam(*a.optim, *b.optim, what + " after recovery");
  }
}

// The actor's workspace and the lane's hold exactly the slots the single
// workspace of a lane-free update holds, so the trainer's
// update_alloc_events() (which sums both) reads what it would without a
// lane, and a lane workspace left out of the sum would read short.
TEST(UpdateLane, AllocEventsEqualTheSingleWorkspaceUpdate) {
  Scenario s = grid2x2_per_agent();
  s.config.parameter_sharing = true;
  core::PairUpLightTrainer trainer(s.environment.get(), s.config);
  trainer.train_episode();
  trainer.train_episode();

  Scenario replay_s = grid2x2_per_agent();
  replay_s.config.parameter_sharing = true;
  core::PairUpLightTrainer replay(replay_s.environment.get(), replay_s.config);
  auto collected = replay.collect_rollouts(13);
  const std::vector<const rl::Sample*> samples = collected.buffer.flatten(true);
  ModelUpdate single(replay, 0, samples, nullptr);
  const auto order = shuffled_order(samples.size(), 1);
  const std::size_t mb = s.config.ppo.minibatch;
  for (std::size_t begin = 0; begin < samples.size(); begin += mb)
    core::serial_minibatch_update(single.ctx, samples, order, begin,
                                  std::min(samples.size(), begin + mb));
  EXPECT_EQ(trainer.update_alloc_events(), single.ws.alloc_events());
  if (trainer.update_lane() != nullptr)
    EXPECT_GT(trainer.update_lane()->workspace().alloc_events(), 0u);
}

// ---------------------------------------------------------------------------
// Who owns a lane.

TEST(UpdateLane, OnlyTheSerialFusedUpdateStartsOne) {
  Scenario s = grid2x2_per_agent();
  core::PairUpLightTrainer trainer(s.environment.get(), s.config);
  EXPECT_EQ(trainer.update_lane(), nullptr) << "started before any update";
  auto controller = trainer.make_controller();
  env::run_episode(*s.environment, *controller, 21);
  trainer.eval_episode(22);
  EXPECT_EQ(trainer.update_lane(), nullptr) << "acting started a lane";
  trainer.train_episode();
  EXPECT_EQ(trainer.update_lane() != nullptr, host_has_second_thread());

  for (const bool sharded : {true, false}) {
    Scenario other = grid2x2_per_agent();
    if (sharded)
      other.config.num_update_shards = 2;
    else
      other.config.update_path = core::UpdatePath::kTape;
    core::PairUpLightTrainer t(other.environment.get(), other.config);
    t.train_episode();
    EXPECT_EQ(t.update_lane(), nullptr) << (sharded ? "sharded" : "tape");
  }
}

// ---------------------------------------------------------------------------
// Non-finite guard. Before it, a NaN advantage made the loss and every
// gradient NaN; clip_grad_norm's `norm > max_norm` is false for NaN, so
// Adam stepped the NaN into the weights and moments, and from there into
// the next checkpoint.

TEST(TrainingDiverged, NanAdvantageThrowsBeforeAdamOnEveryPath) {
  enum Path { kSerialFused, kSerialTape, kSharded };
  for (const Path path : {kSerialFused, kSerialTape, kSharded}) {
    const std::string what = path == kSerialFused  ? "serial fused"
                             : path == kSerialTape ? "serial tape"
                                                   : "sharded";
    Scenario s = grid2x2_per_agent();
    s.config.parameter_sharing = true;
    if (path == kSerialTape) s.config.update_path = core::UpdatePath::kTape;
    if (path == kSharded) s.config.num_update_shards = 2;
    core::PairUpLightTrainer trainer(s.environment.get(), s.config);
    trainer.train_episode();  // non-initial weights, moments and step count
    const std::string before = temp_prefix("nan_before");
    const std::string after = temp_prefix("nan_after");
    trainer.save_checkpoint(before);

    auto collected = trainer.collect_rollouts(31);
    collected.buffer.mutable_agent_samples(1)[2].advantage =
        std::numeric_limits<double>::quiet_NaN();
    try {
      trainer.update(collected.buffer);
      ADD_FAILURE() << what << ": a NaN advantage did not throw";
    } catch (const core::TrainingDiverged& e) {
      // Advantage normalization spreads the NaN to every sample, so the
      // first minibatch is the one that diverges.
      EXPECT_EQ(e.begin(), 0u) << what;
      EXPECT_EQ(e.end(), s.config.ppo.minibatch) << what;
      EXPECT_NE(std::string(e.what()).find("[0, 8)"), std::string::npos)
          << e.what();
    }

    trainer.save_checkpoint(after);
    for (const std::string& file : model_files(trainer, before)) {
      const std::string suffix = file.substr(before.size());
      EXPECT_TRUE(file_bytes(file) == file_bytes(after + suffix))
          << what << ": " << suffix << " changed by a diverged update";
    }
    remove_checkpoint(trainer, before);
    remove_checkpoint(trainer, after);
  }
}

}  // namespace
}  // namespace tsc
