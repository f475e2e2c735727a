// Golden suite for the workspace forwards (nn/inference.hpp) and the
// fleet engine that runs every PairUpLight decision (core/fleet_engine.hpp).
//
// The contract under test is BIT-IDENTITY with the autodiff tape, the
// oracle: each network's workspace forward must reproduce the tape forward's
// floating-point results exactly — logits, messages, LSTM states, and
// values. The direct tests compare the two element-for-element across
// multiple steps (LSTM state carried separately per path, heterogeneous
// phase counts); the tape-oracle tests re-run every sample the fleet engine
// recorded through a tape forward from the sample's stored inputs; the
// baseline tests pin whole episodes to goldens recorded from the tape
// forward and compare the baselines' networks against the tape at trained
// weights. Final tests pin the zero steady-state-allocation guarantee via
// alloc_events().
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <vector>

#include <memory>

#include "src/baselines/colight.hpp"
#include "src/baselines/idqn.hpp"
#include "src/baselines/ma2c.hpp"
#include "src/core/actor.hpp"
#include "src/core/critic.hpp"
#include "src/core/fleet_engine.hpp"
#include "src/core/trainer.hpp"
#include "src/nn/inference.hpp"
#include "src/nn/tape.hpp"
#include "src/rl/rollout.hpp"
#include "src/scenarios/grid.hpp"
#include "src/scenarios/monaco.hpp"
#include "src/util/rng.hpp"

namespace tsc {
namespace {

// Exact equality (modulo zero sign, like the parallel-update suite):
// EXPECT_DOUBLE_EQ would allow 4 ULP of drift, which is precisely what
// these tests exist to rule out.
void expect_tensor_identical(const nn::Tensor& a, const nn::Tensor& b,
                             const char* what, std::size_t step) {
  ASSERT_EQ(a.rows(), b.rows()) << what << " step " << step;
  ASSERT_EQ(a.cols(), b.cols()) << what << " step " << step;
  for (std::size_t r = 0; r < a.rows(); ++r)
    for (std::size_t c = 0; c < a.cols(); ++c)
      EXPECT_EQ(a.at(r, c), b.at(r, c))
          << what << " step " << step << " at (" << r << "," << c << ")";
}

// ---------------------------------------------------------------------------
// Direct network-level parity: tape forward vs workspace forward over
// several steps, each path carrying its own LSTM state.

TEST(InferencePath, ActorForwardMatchesTapeBitForBit) {
  const std::size_t obs_dim = 6, msg_dim = 2, hidden = 8, max_phases = 4;
  const std::size_t batch = 3;
  // Heterogeneous phase counts: rows 0 and 2 get masked (-1e9) logits.
  const std::vector<std::size_t> phase_counts = {2, 4, 3};
  Rng weight_rng(11);
  core::CoordinatedActor actor(obs_dim, msg_dim, hidden, max_phases, weight_rng);

  Rng input_rng(21);
  nn::Workspace ws;
  std::vector<double> tape_h(batch * hidden, 0.0), tape_c(batch * hidden, 0.0);
  std::vector<double> inf_h(batch * hidden, 0.0), inf_c(batch * hidden, 0.0);

  for (std::size_t step = 0; step < 5; ++step) {
    std::vector<double> input(batch * (obs_dim + msg_dim));
    for (double& x : input) x = input_rng.uniform(-1.0, 1.0);

    // Tape path.
    nn::Tape tape;
    const auto out = actor.forward(
        tape, tape.constant(nn::Tensor::matrix(batch, obs_dim + msg_dim, input)),
        tape.constant(nn::Tensor::matrix(batch, hidden, tape_h)),
        tape.constant(nn::Tensor::matrix(batch, hidden, tape_c)), phase_counts);

    // Workspace path (inputs copied into workspace buffers, like the fleet
    // engine does).
    ws.begin_pass();
    nn::Tensor& x_in = ws.acquire(batch, obs_dim + msg_dim);
    std::copy(input.begin(), input.end(), x_in.data());
    nn::Tensor& h_in = ws.acquire(batch, hidden);
    std::copy(inf_h.begin(), inf_h.end(), h_in.data());
    nn::Tensor& c_in = ws.acquire(batch, hidden);
    std::copy(inf_c.begin(), inf_c.end(), c_in.data());
    const auto inf = actor.forward(ws, x_in, h_in, c_in, phase_counts);

    expect_tensor_identical(tape.value(out.logits), *inf.logits, "logits", step);
    expect_tensor_identical(tape.value(out.message), *inf.message, "message", step);
    expect_tensor_identical(tape.value(out.state.h), *inf.h, "h", step);
    expect_tensor_identical(tape.value(out.state.c), *inf.c, "c", step);
    // Masked columns (raw logit + -1e9) are hugely negative on both paths;
    // their exact equality is covered by the tensor compare above.
    EXPECT_LT(tape.value(out.logits).at(0, 3), -1e8);
    EXPECT_LT(inf.logits->at(0, 3), -1e8);

    // Carry each path's recurrent state independently; workspace tensors die
    // at the next begin_pass(), so copy them out now.
    const nn::Tensor& th = tape.value(out.state.h);
    const nn::Tensor& tc = tape.value(out.state.c);
    tape_h.assign(th.data(), th.data() + batch * hidden);
    tape_c.assign(tc.data(), tc.data() + batch * hidden);
    inf_h.assign(inf.h->data(), inf.h->data() + batch * hidden);
    inf_c.assign(inf.c->data(), inf.c->data() + batch * hidden);
  }
}

TEST(InferencePath, CriticForwardMatchesTapeBitForBit) {
  const std::size_t input_dim = 10, hidden = 8, batch = 3;
  Rng weight_rng(13);
  core::CentralizedCritic critic(input_dim, hidden, weight_rng);

  Rng input_rng(23);
  nn::Workspace ws;
  std::vector<double> tape_h(batch * hidden, 0.0), tape_c(batch * hidden, 0.0);
  std::vector<double> inf_h(batch * hidden, 0.0), inf_c(batch * hidden, 0.0);

  for (std::size_t step = 0; step < 5; ++step) {
    std::vector<double> input(batch * input_dim);
    for (double& x : input) x = input_rng.uniform(-1.0, 1.0);

    nn::Tape tape;
    const auto out = critic.forward(
        tape, tape.constant(nn::Tensor::matrix(batch, input_dim, input)),
        tape.constant(nn::Tensor::matrix(batch, hidden, tape_h)),
        tape.constant(nn::Tensor::matrix(batch, hidden, tape_c)));

    ws.begin_pass();
    nn::Tensor& x_in = ws.acquire(batch, input_dim);
    std::copy(input.begin(), input.end(), x_in.data());
    nn::Tensor& h_in = ws.acquire(batch, hidden);
    std::copy(inf_h.begin(), inf_h.end(), h_in.data());
    nn::Tensor& c_in = ws.acquire(batch, hidden);
    std::copy(inf_c.begin(), inf_c.end(), c_in.data());
    const auto inf = critic.forward(ws, x_in, h_in, c_in);

    expect_tensor_identical(tape.value(out.value), *inf.value, "value", step);
    expect_tensor_identical(tape.value(out.state.h), *inf.h, "h", step);
    expect_tensor_identical(tape.value(out.state.c), *inf.c, "c", step);

    const nn::Tensor& th = tape.value(out.state.h);
    const nn::Tensor& tc = tape.value(out.state.c);
    tape_h.assign(th.data(), th.data() + batch * hidden);
    tape_c.assign(tc.data(), tc.data() + batch * hidden);
    inf_h.assign(inf.h->data(), inf.h->data() + batch * hidden);
    inf_c.assign(inf.c->data(), inf.c->data() + batch * hidden);
  }
}

// ---------------------------------------------------------------------------
// Tape oracle for collected rollouts. The 2x2 fixture is the same one whose
// seed-7 trajectory is pinned as a golden in tests/test_parallel_rollout.cpp.

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

void expect_stats_identical(const env::EpisodeStats& a,
                            const env::EpisodeStats& b, const char* what) {
  EXPECT_DOUBLE_EQ(a.avg_wait, b.avg_wait) << what;
  EXPECT_DOUBLE_EQ(a.travel_time, b.travel_time) << what;
  EXPECT_DOUBLE_EQ(a.mean_reward, b.mean_reward) << what;
  EXPECT_EQ(a.vehicles_finished, b.vehicles_finished) << what;
  EXPECT_EQ(a.vehicles_spawned, b.vehicles_spawned) << what;
}

// Re-runs every sample of `buffer` (all agents, `episodes` equal-length
// episodes per agent, back to back) through the tape forward from the
// sample's stored inputs — actor input including the partner's message,
// pre-step LSTM h/c — and requires the recorded log-prob of the taken action
// and the recorded value to match the tape bit for bit. Within an episode
// the next sample's stored h/c must also equal this sample's tape output
// state: the fleet engine's recurrent carry.
void expect_samples_match_tape_oracle(core::PairUpLightTrainer& trainer,
                                      const rl::RolloutBuffer& buffer,
                                      std::size_t episodes) {
  ASSERT_EQ(trainer.config().kernel_tier, nn::KernelTier::kReference);
  const bool shared = trainer.config().parameter_sharing;
  nn::Tape tape;
  for (std::size_t i = 0; i < buffer.num_agents(); ++i) {
    const auto& samples = buffer.agent_samples(i);
    ASSERT_FALSE(samples.empty()) << "agent " << i;
    ASSERT_EQ(samples.size() % episodes, 0u) << "agent " << i;
    const std::size_t episode_len = samples.size() / episodes;
    core::CoordinatedActor& actor = trainer.actor(shared ? 0 : i);
    core::CentralizedCritic& critic = trainer.critic(shared ? 0 : i);
    const std::size_t rows = samples.size();
    const std::size_t hidden = actor.hidden_size();

    // Rows are independent in every kernel, so one tape batch holds them all.
    tape.reset();
    auto pack = [&](std::vector<double> rl::Sample::*field, std::size_t width) {
      nn::Tensor t = nn::Tensor::zeros(rows, width);
      for (std::size_t r = 0; r < rows; ++r) {
        const std::vector<double>& v = samples[r].*field;
        EXPECT_EQ(v.size(), width) << "row " << r;
        std::copy(v.begin(), v.end(), t.data() + r * width);
      }
      return tape.constant(std::move(t));
    };
    std::vector<std::size_t> phase_counts(rows);
    for (std::size_t r = 0; r < rows; ++r) phase_counts[r] = samples[r].phase_count;

    nn::Var input = pack(&rl::Sample::obs, actor.input_dim());
    nn::Var h_a = pack(&rl::Sample::h_actor, hidden);
    nn::Var c_a = pack(&rl::Sample::c_actor, hidden);
    auto actor_out = actor.forward(tape, input, h_a, c_a, phase_counts);
    nn::Var logp = tape.log_softmax_rows(actor_out.logits);
    nn::Var v_input = pack(&rl::Sample::critic_obs, critic.input_dim());
    nn::Var h_v = pack(&rl::Sample::h_critic, hidden);
    nn::Var c_v = pack(&rl::Sample::c_critic, hidden);
    auto critic_out = critic.forward(tape, v_input, h_v, c_v);

    const nn::Tensor& logp_t = tape.value(logp);
    const nn::Tensor& value_t = tape.value(critic_out.value);
    const nn::Tensor* next_state[4] = {
        &tape.value(actor_out.state.h), &tape.value(actor_out.state.c),
        &tape.value(critic_out.state.h), &tape.value(critic_out.state.c)};
    std::size_t mismatches = 0;
    for (std::size_t r = 0; r < rows; ++r) {
      const rl::Sample& s = samples[r];
      if (!(logp_t.at(r, s.action) == s.log_prob) && ++mismatches <= 3)
        ADD_FAILURE() << "agent " << i << " sample " << r << ": log_prob "
                      << s.log_prob << " != tape " << logp_t.at(r, s.action);
      if (!(value_t.at(r, 0) == s.value) && ++mismatches <= 3)
        ADD_FAILURE() << "agent " << i << " sample " << r << ": value "
                      << s.value << " != tape " << value_t.at(r, 0);
      if ((r + 1) % episode_len == 0) continue;  // next sample starts an episode
      const rl::Sample& next = samples[r + 1];
      const std::vector<double>* stored[4] = {&next.h_actor, &next.c_actor,
                                              &next.h_critic, &next.c_critic};
      for (int k = 0; k < 4; ++k)
        for (std::size_t c = 0; c < hidden; ++c)
          if (!(next_state[k]->at(r, c) == (*stored[k])[c]) && ++mismatches <= 3)
            ADD_FAILURE() << "agent " << i << " sample " << r + 1
                          << ": stored LSTM state " << k << "[" << c
                          << "] differs from the tape's carry";
    }
    EXPECT_EQ(mismatches, 0u) << "agent " << i;
  }
}

// Trains `trained_rounds` full rounds first (so the checked weights are not
// the initialization), then collects one round and checks it against the
// tape oracle.
void run_fleet_oracle(core::PairUpLightTrainer& trainer, std::size_t num_envs,
                      int trained_rounds) {
  for (int e = 0; e < trained_rounds; ++e) trainer.train_episode();
  auto collected = trainer.collect_rollouts(12345);
  EXPECT_EQ(trainer.last_episode_seeds().size(), num_envs);
  EXPECT_EQ(collected.buffer.total_samples(),
            collected.env_steps * collected.buffer.num_agents());
  expect_samples_match_tape_oracle(trainer, collected.buffer, num_envs);
}

TEST(InferencePath, TrainerSamplesMatchTapeOracleAcrossUpdates) {
  // Collect -> oracle -> update, three times: every update changes the
  // weights the next collection's oracle checks against.
  GridFixture f;
  core::PairUpLightTrainer trainer(&f.environment, f.fast_config());
  for (int e = 0; e < 3; ++e) {
    auto collected = trainer.collect_rollouts(100 + e);
    expect_samples_match_tape_oracle(trainer, collected.buffer, 1);
    trainer.update(collected.buffer);
  }
}

TEST(InferencePath, TrainerSamplesMatchTapeOracleWithParallelEnvs) {
  GridFixture f;
  core::PairUpConfig config = f.fast_config();
  config.num_envs = 2;
  core::PairUpLightTrainer trainer(&f.environment, config);
  for (int e = 0; e < 2; ++e) {
    auto collected = trainer.collect_rollouts(200 + e);
    expect_samples_match_tape_oracle(trainer, collected.buffer, 2);
    trainer.update(collected.buffer);
  }
}

// ---------------------------------------------------------------------------
// Baseline episodes. The NN baselines act (and MA2C bootstraps its value)
// through the networks' workspace forwards. Their whole-episode stats are
// pinned to goldens recorded from the tape forward, the path these
// baselines used to be able to switch to: 2 training episodes, then 1
// evaluation episode, on the 2x2 fixture.

struct StatsGolden {
  double avg_wait, travel_time, mean_reward, delay;
  std::size_t finished, spawned;
};

void expect_stats_golden(const env::EpisodeStats& s, const StatsGolden& g,
                         const char* what) {
  EXPECT_EQ(s.avg_wait, g.avg_wait) << what;
  EXPECT_EQ(s.travel_time, g.travel_time) << what;
  EXPECT_EQ(s.mean_reward, g.mean_reward) << what;
  EXPECT_EQ(s.delay, g.delay) << what;
  EXPECT_EQ(s.vehicles_finished, g.finished) << what;
  EXPECT_EQ(s.vehicles_spawned, g.spawned) << what;
}

template <typename Trainer>
void expect_episodes_golden(Trainer& trainer, std::uint64_t eval_seed,
                            const StatsGolden (&goldens)[3]) {
  expect_stats_golden(trainer.train_episode(), goldens[0], "train episode 0");
  expect_stats_golden(trainer.train_episode(), goldens[1], "train episode 1");
  expect_stats_golden(trainer.eval_episode(eval_seed), goldens[2],
                      "eval episode");
}

TEST(InferencePath, IdqnEpisodesMatchTapePath) {
  GridFixture f;
  baselines::IdqnConfig config;
  config.hidden = 16;
  baselines::IdqnTrainer trainer(&f.environment, config);
  const StatsGolden goldens[3] = {
      {8.1125000000000007, 52.200000000000003, -0.45812500000000006,
       52.200000000000003, 4, 15},
      {12.550000000000001, 54.047619047619051, -0.71125000000000016,
       54.047619047619051, 2, 21},
      {5.8250000000000002, 46.045454545454547, -0.34062499999999996,
       46.045454545454547, 5, 22},
  };
  expect_episodes_golden(trainer, 31, goldens);
}

TEST(InferencePath, Ma2cEpisodesMatchTapePath) {
  GridFixture f;
  baselines::Ma2cConfig config;
  config.hidden = 16;
  baselines::Ma2cTrainer trainer(&f.environment, config);
  const StatsGolden goldens[3] = {
      {5.8499999999999996, 39.217391304347828, -0.33812500000000001,
       39.217391304347828, 4, 23},
      {4.4000000000000004, 47.761904761904759, -0.2599999999999999,
       47.761904761904759, 9, 21},
      {12.5375, 53, -0.74437499999999968, 53, 7, 32},
  };
  expect_episodes_golden(trainer, 32, goldens);
}

TEST(InferencePath, CoLightEpisodesMatchTapePath) {
  GridFixture f;
  baselines::CoLightConfig config;
  config.embed_dim = 16;
  baselines::CoLightTrainer trainer(&f.environment, config);
  const StatsGolden goldens[3] = {
      {6.3250000000000002, 50.647058823529413, -0.37375000000000003,
       50.647058823529413, 2, 17},
      {1.425, 37.10526315789474, -0.091874999999999998, 37.10526315789474, 3,
       19},
      {0.050000000000000003, 33.277777777777779, -0.0050000000000000001,
       33.277777777777779, 8, 18},
  };
  expect_episodes_golden(trainer, 33, goldens);
}

// Network-level parity at trained weights: the baselines' networks, after
// two training episodes, through the tape forward and the workspace
// forward. Inputs are 30% exact zeros, like padded observations, so the
// GEMMs' zero-skip is exercised.

nn::Tensor sparse_input(std::size_t rows, std::size_t cols, Rng& rng) {
  nn::Tensor t = nn::Tensor::zeros(rows, cols);
  for (double& x : t.values())
    x = rng.bernoulli(0.3) ? 0.0 : rng.uniform(-1.5, 1.5);
  return t;
}

std::size_t mlp_in_dim(nn::Mlp& mlp) { return mlp.parameters()[0]->value.rows(); }

void expect_mlp_matches_tape(nn::Mlp& mlp, nn::Workspace& ws, Rng& rng,
                             const char* what) {
  for (std::size_t batch : {std::size_t{1}, std::size_t{3}, std::size_t{9}}) {
    const nn::Tensor x = sparse_input(batch, mlp_in_dim(mlp), rng);
    nn::Tape tape;
    const nn::Tensor& want = tape.value(mlp.forward(tape, tape.constant(x)));
    ws.begin_pass();
    expect_tensor_identical(want, mlp.forward(ws, x), what, batch);
  }
}

TEST(InferencePath, MlpForwardMatchesTapeAtTrainedWeights) {
  GridFixture idqn_f, ma2c_f;
  baselines::IdqnConfig idqn_config;
  idqn_config.hidden = 16;
  baselines::IdqnTrainer idqn(&idqn_f.environment, idqn_config);
  baselines::Ma2cConfig ma2c_config;
  ma2c_config.hidden = 16;
  baselines::Ma2cTrainer ma2c(&ma2c_f.environment, ma2c_config);
  for (int e = 0; e < 2; ++e) {
    idqn.train_episode();
    ma2c.train_episode();
  }
  Rng rng(91);
  nn::Workspace ws;
  expect_mlp_matches_tape(idqn.q_network(0), ws, rng, "relu mlp (IDQN)");
  expect_mlp_matches_tape(ma2c.actor(1), ws, rng, "tanh mlp (MA2C actor)");
  expect_mlp_matches_tape(ma2c.critic(2), ws, rng, "tanh mlp (MA2C critic)");
}

TEST(InferencePath, Ma2cMaskedLogitsAndValueMatchTapeAtTrainedWeights) {
  // MA2C's action distribution: logits, the 0.0 / -1e9 mask add beyond the
  // agent's phase count, softmax and log-softmax; plus the value head. The
  // tape side is the graph the A2C update builds; the workspace side is
  // what act_all runs.
  GridFixture f;
  baselines::Ma2cConfig config;
  config.hidden = 16;
  baselines::Ma2cTrainer trainer(&f.environment, config);
  for (int e = 0; e < 2; ++e) trainer.train_episode();
  nn::Mlp& actor = trainer.actor(0);
  nn::Mlp& critic = trainer.critic(0);
  const std::size_t max_phases = actor.parameters().back()->value.size();
  ASSERT_GE(max_phases, 3u);
  const std::size_t num_phases = max_phases - 2;
  Rng rng(92);
  nn::Workspace ws;
  for (std::size_t step = 0; step < 4; ++step) {
    const nn::Tensor x = sparse_input(1, mlp_in_dim(actor), rng);

    nn::Tape tape;
    nn::Var xv = tape.constant(x);
    nn::Tensor mask = nn::Tensor::zeros(1, max_phases);
    for (std::size_t p = num_phases; p < max_phases; ++p) mask.at(0, p) = -1e9;
    nn::Var logits =
        tape.add(actor.forward(tape, xv), tape.constant(std::move(mask)));
    nn::Var probs = tape.softmax_rows(logits);
    nn::Var logp = tape.log_softmax_rows(logits);
    nn::Var value = critic.forward(tape, xv);

    ws.begin_pass();
    nn::Tensor& ws_logits = const_cast<nn::Tensor&>(actor.forward(ws, x));
    for (std::size_t p = 0; p < max_phases; ++p)
      ws_logits.at(0, p) += p < num_phases ? 0.0 : -1e9;
    nn::Tensor& ws_probs = ws.acquire(1, max_phases);
    nn::softmax_rows_into(ws_probs, ws_logits, ws.kernel_tier());
    nn::Tensor& ws_logp = ws.acquire(1, max_phases);
    nn::log_softmax_rows_into(ws_logp, ws_logits, ws.kernel_tier());
    const nn::Tensor& ws_value = critic.forward(ws, x);

    expect_tensor_identical(tape.value(logits), ws_logits, "masked logits", step);
    expect_tensor_identical(tape.value(probs), ws_probs, "probs", step);
    expect_tensor_identical(tape.value(logp), ws_logp, "log-probs", step);
    expect_tensor_identical(tape.value(value), ws_value, "value", step);
    EXPECT_EQ(ws_probs.at(0, max_phases - 1), 0.0);  // the mask really bit
  }
}

TEST(InferencePath, CoLightQNetMatchesTapeAtOneAndThreeBlocks) {
  GridFixture f;
  baselines::CoLightConfig config;
  config.embed_dim = 16;
  baselines::CoLightTrainer trainer(&f.environment, config);
  for (int e = 0; e < 2; ++e) trainer.train_episode();
  baselines::CoLightTrainer::QNet& qnet = trainer.q_network();
  const std::size_t entities = qnet.gat->max_entities();
  const std::size_t obs_dim = qnet.embed->in_features();
  ASSERT_GE(entities, 3u);

  // Block b pads slot e > 0 when (e + b) % 3 == 2: a different padding
  // pattern per block, and block 2 has every slot live.
  std::vector<std::vector<bool>> masks(3, std::vector<bool>(entities, true));
  for (std::size_t b = 0; b < 3; ++b)
    for (std::size_t e = 1; e < entities; ++e)
      masks[b][e] = (e + b) % 3 != 2;
  Rng rng(93);
  const nn::Tensor stacked = sparse_input(3 * entities, obs_dim, rng);

  // Tape oracle, one neighborhood at a time.
  std::vector<nn::Tensor> want;
  for (std::size_t b = 0; b < 3; ++b) {
    nn::Tensor block = nn::Tensor::zeros(entities, obs_dim);
    std::copy(stacked.data() + b * entities * obs_dim,
              stacked.data() + (b + 1) * entities * obs_dim, block.data());
    nn::Tape tape;
    want.push_back(
        tape.value(qnet.forward(tape, tape.constant(std::move(block)), masks[b])));
  }

  nn::Workspace ws;
  for (std::size_t b = 0; b < 3; ++b) {  // B = 1
    nn::Tensor block = nn::Tensor::zeros(entities, obs_dim);
    std::copy(stacked.data() + b * entities * obs_dim,
              stacked.data() + (b + 1) * entities * obs_dim, block.data());
    const std::vector<bool>* one[] = {&masks[b]};
    ws.begin_pass();
    expect_tensor_identical(want[b], qnet.forward(ws, block, one), "B=1 q", b);
  }
  const std::vector<bool>* all[] = {&masks[0], &masks[1], &masks[2]};
  ws.begin_pass();
  const nn::Tensor& q = qnet.forward(ws, stacked, all);  // B = 3
  ASSERT_EQ(q.rows(), 3u);
  for (std::size_t b = 0; b < 3; ++b)
    for (std::size_t c = 0; c < q.cols(); ++c)
      EXPECT_EQ(q.at(b, c), want[b].at(0, c)) << "B=3 block " << b << " col " << c;
}

// ---------------------------------------------------------------------------
// Zero steady-state allocation: after the workspace has seen every pass
// shape once (act passes during rollout, bootstrap passes at episode end,
// greedy eval passes), further episodes must not allocate at all.

TEST(InferencePath, WorkspaceStopsAllocatingAfterWarmup) {
  GridFixture f;
  core::PairUpLightTrainer trainer(&f.environment, f.fast_config());

  // Warm-up: one training episode (act + bootstrap pass shapes) and one
  // greedy evaluation (eval pass shape) grow every slot to peak capacity.
  trainer.train_episode();
  trainer.eval_episode(41);
  const std::size_t warm_events = trainer.inference_workspace().alloc_events();
  EXPECT_GT(warm_events, 0u);  // the path really ran through the workspace
  EXPECT_GT(trainer.inference_workspace().num_buffers(), 0u);

  // Steady state: whole further episodes reuse the warm buffers exactly.
  trainer.train_episode();
  trainer.eval_episode(42);
  trainer.train_episode();
  EXPECT_EQ(trainer.inference_workspace().alloc_events(), warm_events)
      << "inference workspace allocated after warmup";
}

// ---------------------------------------------------------------------------
// Fleet collection (core/fleet_engine.hpp) at every fleet size: the batched
// GEMM kernel is bit-identical to the reference kernel (pinned first), and
// every recorded sample matches the tape oracle across whole recurrent
// episodes — LSTM carry across steps and episode resets included. The
// trajectories themselves are pinned by the goldens in
// tests/test_parallel_rollout.cpp and tests/test_kernel_tiers.cpp.

TEST(FleetBatched, BatchedGemmMatchesReferenceBitForBit) {
  Rng rng(5);
  const struct Shape {
    std::size_t m, k, n;
  } shapes[] = {
      {1, 3, 5},      // single row, ragged columns
      {4, 8, 8},      // below the row blocking
      {7, 16, 8},     // row tail only
      {8, 64, 256},   // exact 8x16 tiles (the LSTM gate shape)
      {17, 33, 19},   // ragged everything
      {36, 64, 256},  // per-agent-path batch
      {144, 64, 8},   // fleet-sized batch, narrow head
      {5, 1, 1},      // degenerate inner/outer dims
  };
  for (const Shape& s : shapes) {
    nn::Tensor a = nn::Tensor::zeros(s.m, s.k);
    nn::Tensor b = nn::Tensor::zeros(s.k, s.n);
    // Sparse A exercises the reference kernel's zero-skip against the
    // branch-free SIMD tiles (the ±0.0 equivalence argument in tensor.cpp).
    for (double& x : a.values())
      x = rng.bernoulli(0.3) ? 0.0 : rng.uniform(-2.0, 2.0);
    for (double& x : b.values()) x = rng.uniform(-2.0, 2.0);
    nn::Tensor ref, bat;
    nn::matmul_into(ref, a, b);
    nn::matmul_into_batched(bat, a, b);
    ASSERT_EQ(ref.rows(), bat.rows());
    ASSERT_EQ(ref.cols(), bat.cols());
    for (std::size_t r = 0; r < ref.rows(); ++r)
      for (std::size_t c = 0; c < ref.cols(); ++c)
        ASSERT_EQ(ref.at(r, c), bat.at(r, c))
            << "[" << s.m << "x" << s.k << "x" << s.n << "] at (" << r << ","
            << c << ")";
  }
}

TEST(FleetBatched, SamplesMatchTapeOracleSingleEnv) {
  GridFixture f;
  core::PairUpLightTrainer trainer(&f.environment, f.fast_config());
  run_fleet_oracle(trainer, 1, 2);
}

TEST(FleetBatched, SamplesMatchTapeOracleTwoEnvs) {
  GridFixture f;
  core::PairUpConfig config = f.fast_config();
  config.num_envs = 2;
  core::PairUpLightTrainer trainer(&f.environment, config);
  run_fleet_oracle(trainer, 2, 2);
}

TEST(FleetBatched, SamplesMatchTapeOracleFourEnvs) {
  GridFixture f;
  core::PairUpConfig config = f.fast_config();
  config.num_envs = 4;
  core::PairUpLightTrainer trainer(&f.environment, config);
  run_fleet_oracle(trainer, 4, 2);
}

TEST(FleetBatched, SamplesMatchTapeOracleWithInvariantSeeding) {
  // The invariant-seeding derivation (episode seeds from the global episode
  // index) feeds the same engine.
  GridFixture f;
  core::PairUpConfig config = f.fast_config();
  config.num_envs = 2;
  config.invariant_seeding = true;
  core::PairUpLightTrainer trainer(&f.environment, config);
  run_fleet_oracle(trainer, 2, 2);
}

TEST(FleetBatched, HeterogeneousMonacoBucketsMatchTapeOracle) {
  // Monaco without parameter sharing: one model (= one fleet bucket) per
  // agent, heterogeneous phase counts masked inside each bucket's batch.
  struct MonacoFixture {
    scenario::MonacoScenario monaco;
    env::TscEnv environment;
    MonacoFixture()
        : monaco(make_config()),
          environment(&monaco.net(), monaco.make_flows(700.0, 0.05, 4, 13),
                      make_env_config(), 1) {}
    static scenario::MonacoConfig make_config() {
      scenario::MonacoConfig config;
      config.grid_rows = 4;
      config.grid_cols = 3;  // small for test speed, still heterogeneous
      return config;
    }
    static env::EnvConfig make_env_config() {
      env::EnvConfig config;
      config.episode_seconds = 120.0;
      return config;
    }
  };
  MonacoFixture f;
  core::PairUpConfig config;
  config.hidden = 12;
  config.ppo.epochs = 1;
  config.seed = 7;
  config.parameter_sharing = false;
  config.num_envs = 2;
  core::PairUpLightTrainer trainer(&f.environment, config);
  ASSERT_GT(trainer.num_models(), 1u);
  run_fleet_oracle(trainer, 2, 1);
}

TEST(FleetBatched, AllocEventsSteadyStateZeroAcrossFleetSizes) {
  // The fleet extension of the allocation contract: warmup (first episodes
  // at a new peak fleet size) may allocate; steady state — including across
  // episode resets and num_envs changes — is exactly zero.
  GridFixture f;
  core::PairUpLightTrainer trainer(&f.environment, f.fast_config());

  std::vector<core::CoordinatedActor*> actors;
  std::vector<core::CentralizedCritic*> critics;
  for (std::size_t m = 0; m < trainer.num_models(); ++m) {
    actors.push_back(&trainer.actor(m));
    critics.push_back(&trainer.critic(m));
  }
  core::FleetRolloutEngine engine(&trainer.config(), actors, critics,
                                  trainer.hop1_slots(), trainer.hop2_slots(),
                                  trainer.critic_input_dim());

  auto run = [&](std::size_t k) {
    std::vector<std::unique_ptr<env::TscEnv>> envs;
    std::vector<rl::RolloutBuffer> buffers;
    std::vector<Rng> rngs;
    for (std::size_t w = 0; w < k; ++w) {
      envs.push_back(f.environment.clone(100 + w));
      buffers.push_back(rl::RolloutBuffer(f.environment.num_agents()));
      rngs.push_back(Rng(200 + w));
    }
    std::vector<core::FleetSlot> slots;
    for (std::size_t w = 0; w < k; ++w)
      slots.push_back(
          core::FleetSlot{envs[w].get(), 300 + w, &rngs[w], &buffers[w]});
    engine.run_episodes(slots, /*train_mode=*/true, 0.1);
  };

  run(4);  // warmup at peak fleet size
  const std::size_t warm = engine.alloc_events();
  EXPECT_GT(warm, 0u);
  run(4);  // steady state: episode reset, same fleet
  EXPECT_EQ(engine.alloc_events(), warm) << "fleet path allocated after warmup";
  run(2);  // shrinking the fleet reuses existing capacity
  EXPECT_EQ(engine.alloc_events(), warm) << "fleet shrink allocated";
  run(4);  // back to the peak: capacities were never released
  EXPECT_EQ(engine.alloc_events(), warm) << "fleet re-grow allocated";
}

TEST(FleetBatched, TrainerFleetWorkspaceStopsAllocatingAfterWarmup) {
  GridFixture f;
  core::PairUpConfig config = f.fast_config();
  config.num_envs = 2;
  core::PairUpLightTrainer trainer(&f.environment, config);
  ASSERT_NE(trainer.fleet_engine(), nullptr);

  trainer.train_episode();
  const std::size_t warm = trainer.fleet_engine()->alloc_events();
  EXPECT_GT(warm, 0u);
  trainer.train_episode();
  trainer.train_episode();
  EXPECT_EQ(trainer.fleet_engine()->alloc_events(), warm)
      << "fleet engine allocated after warmup";
}

// ---------------------------------------------------------------------------
// Baseline fleet evaluation: eval_episodes_fleet({s0..sk})[w] must reproduce
// eval_episode(s_w) stat-for-stat — the fleet batches forwards across
// replicas but replays each replica's serial arithmetic and RNG streams.
// Each fleet call runs FIRST to prove it leaves no trainer state behind
// (clone envs, untouched member RNG) that could skew the serial replays.

TEST(FleetBatched, IdqnFleetEvalMatchesSerialEval) {
  GridFixture f;
  baselines::IdqnConfig config;
  config.hidden = 16;
  baselines::IdqnTrainer trainer(&f.environment, config);
  trainer.train_episode();  // non-trivial weights

  const std::vector<std::uint64_t> seeds = {41, 42, 43};
  const auto fleet = trainer.eval_episodes_fleet(seeds);
  ASSERT_EQ(fleet.size(), seeds.size());
  EXPECT_GT(fleet[0].vehicles_spawned, 0u);  // not vacuously equal
  for (std::size_t w = 0; w < seeds.size(); ++w)
    expect_stats_identical(fleet[w], trainer.eval_episode(seeds[w]),
                           "idqn fleet eval");
}

TEST(FleetBatched, Ma2cFleetEvalMatchesSerialEval) {
  // Default config samples at evaluation: the per-replica
  // Rng(seed ^ kEvalSampleSalt) streams must line up draw-for-draw.
  GridFixture f;
  baselines::Ma2cConfig config;
  config.hidden = 16;
  baselines::Ma2cTrainer trainer(&f.environment, config);
  trainer.train_episode();

  const std::vector<std::uint64_t> seeds = {51, 52, 53};
  const auto fleet = trainer.eval_episodes_fleet(seeds);
  ASSERT_EQ(fleet.size(), seeds.size());
  for (std::size_t w = 0; w < seeds.size(); ++w)
    expect_stats_identical(fleet[w], trainer.eval_episode(seeds[w]),
                           "ma2c fleet eval (sampling)");
}

TEST(FleetBatched, Ma2cFleetEvalMatchesSerialEvalGreedy) {
  GridFixture f;
  baselines::Ma2cConfig config;
  config.hidden = 16;
  config.greedy_eval = true;
  baselines::Ma2cTrainer trainer(&f.environment, config);
  trainer.train_episode();

  const std::vector<std::uint64_t> seeds = {61, 62};
  const auto fleet = trainer.eval_episodes_fleet(seeds);
  ASSERT_EQ(fleet.size(), seeds.size());
  for (std::size_t w = 0; w < seeds.size(); ++w)
    expect_stats_identical(fleet[w], trainer.eval_episode(seeds[w]),
                           "ma2c fleet eval (greedy)");
}

TEST(FleetBatched, CoLightFleetEvalMatchesSerialEval) {
  // Exercises the block-batched GAT: stacked embed/key/value GEMMs with
  // per-block attention must match the per-agent forward bit-for-bit.
  GridFixture f;
  baselines::CoLightConfig config;
  config.embed_dim = 16;
  baselines::CoLightTrainer trainer(&f.environment, config);
  trainer.train_episode();

  const std::vector<std::uint64_t> seeds = {71, 72, 73};
  const auto fleet = trainer.eval_episodes_fleet(seeds);
  ASSERT_EQ(fleet.size(), seeds.size());
  for (std::size_t w = 0; w < seeds.size(); ++w)
    expect_stats_identical(fleet[w], trainer.eval_episode(seeds[w]),
                           "colight fleet eval");
}

}  // namespace
}  // namespace tsc
