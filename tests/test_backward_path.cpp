// The tape-free fused backward path (nn/backward.hpp, rl::fused_ppo_loss_grad,
// core::fused_shard_loss_and_grads):
//   * central-difference checks: every analytic kernel agrees with numeric
//     gradients of its own forward;
//   * bitwise pins: the fused gradients equal Tape::backward's to the bit —
//     per layer (GAT), per loss (fused PPO vs the shard-loss graph), per
//     minibatch slice (fused vs tape with grad redirects), and end to end
//     (20-episode weight trajectories, serial and sharded);
//   * the zero-steady-state-allocation contract of the update workspace;
//   * oversubscribed shard counts are kept, not clamped.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

#include "src/core/trainer.hpp"
#include "src/core/update_engine.hpp"
#include "src/nn/backward.hpp"
#include "src/nn/gat.hpp"
#include "src/nn/inference.hpp"
#include "src/rl/ppo.hpp"
#include "src/scenarios/grid.hpp"

namespace tsc {
namespace {

nn::Tensor random_tensor(std::size_t rows, std::size_t cols, Rng& rng,
                         double scale = 1.0) {
  nn::Tensor t = nn::Tensor::zeros(rows, cols);
  for (std::size_t i = 0; i < t.size(); ++i) t[i] = scale * rng.normal();
  return t;
}

std::vector<double> random_vector(std::size_t n, Rng& rng, double scale = 1.0) {
  std::vector<double> v(n);
  for (double& x : v) x = scale * rng.normal();
  return v;
}

double weighted_sum(const nn::Tensor& coef, const nn::Tensor& y) {
  EXPECT_EQ(coef.size(), y.size());
  double s = 0.0;
  for (std::size_t i = 0; i < y.size(); ++i) s += coef[i] * y[i];
  return s;
}

// Central difference of `loss` w.r.t. one element of `storage`.
double central_diff(double& element, const std::function<double()>& loss,
                    double eps = 1e-5) {
  const double saved = element;
  element = saved + eps;
  const double up = loss();
  element = saved - eps;
  const double down = loss();
  element = saved;
  return (up - down) / (2.0 * eps);
}

void expect_tensors_bitwise(const nn::Tensor& a, const nn::Tensor& b,
                            const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (!(a[i] == b[i]) && ++mismatches <= 3)
      ADD_FAILURE() << what << " element " << i << ": " << a[i]
                    << " != " << b[i];
  EXPECT_EQ(mismatches, 0u) << what;
}

// ---------------------------------------------------------------------------
// Central-difference checks: analytic kernels vs numeric gradients.

TEST(BackwardPathGradCheck, LinearBackwardMatchesCentralDifferences) {
  Rng rng(11);
  nn::Linear lin(3, 4, rng);
  nn::Tensor x = random_tensor(2, 3, rng);
  const nn::Tensor coef = random_tensor(2, 4, rng);

  nn::Workspace ws;
  auto loss = [&]() {
    ws.begin_pass();
    return weighted_sum(coef, lin.forward(ws, x));
  };

  nn::Tensor dw = nn::Tensor::zeros_like(lin.weight.value);
  nn::Tensor db = nn::Tensor::zeros_like(lin.bias.value);
  nn::Tensor dx = nn::Tensor::zeros(2, 3);
  nn::Workspace bws;
  lin.backward_train(bws, x, coef, dw, db, &dx);

  for (std::size_t i = 0; i < x.size(); ++i)
    EXPECT_NEAR(central_diff(x[i], loss), dx[i], 1e-6) << "dx " << i;
  for (std::size_t i = 0; i < lin.weight.value.size(); ++i)
    EXPECT_NEAR(central_diff(lin.weight.value[i], loss), dw[i], 1e-6)
        << "dw " << i;
  for (std::size_t i = 0; i < lin.bias.value.size(); ++i)
    EXPECT_NEAR(central_diff(lin.bias.value[i], loss), db[i], 1e-6)
        << "db " << i;
}

TEST(BackwardPathGradCheck, LstmCellBackwardMatchesCentralDifferences) {
  Rng rng(13);
  nn::LstmCell lstm(3, 4, rng);
  nn::Tensor x = random_tensor(2, 3, rng);
  const nn::Tensor h = random_tensor(2, 4, rng, 0.5);
  const nn::Tensor c = random_tensor(2, 4, rng, 0.5);
  const nn::Tensor coef = random_tensor(2, 4, rng);

  nn::Workspace ws;
  auto loss = [&]() {
    ws.begin_pass();
    return weighted_sum(coef, *lstm.forward(ws, x, h, c).h);
  };

  ws.begin_pass();
  const nn::LstmCell::Result st = lstm.forward(ws, x, h, c);
  nn::Tensor dwx = nn::Tensor::zeros_like(lstm.w_x.value);
  nn::Tensor dwh = nn::Tensor::zeros_like(lstm.w_h.value);
  nn::Tensor dbias = nn::Tensor::zeros_like(lstm.bias.value);
  nn::Tensor dx = nn::Tensor::zeros(2, 3);
  lstm.backward_train(ws, x, h, c, st, coef, dwx, dwh, dbias, &dx);
  // Copy before FD evals rewind the workspace and recycle the slots.
  const nn::Tensor dwx_c = dwx, dwh_c = dwh, dbias_c = dbias, dx_c = dx;

  for (std::size_t i = 0; i < x.size(); ++i)
    EXPECT_NEAR(central_diff(x[i], loss), dx_c[i], 1e-6) << "dx " << i;
  for (std::size_t i = 0; i < lstm.w_x.value.size(); ++i)
    EXPECT_NEAR(central_diff(lstm.w_x.value[i], loss), dwx_c[i], 1e-6)
        << "dw_x " << i;
  for (std::size_t i = 0; i < lstm.w_h.value.size(); ++i)
    EXPECT_NEAR(central_diff(lstm.w_h.value[i], loss), dwh_c[i], 1e-6)
        << "dw_h " << i;
  for (std::size_t i = 0; i < lstm.bias.value.size(); ++i)
    EXPECT_NEAR(central_diff(lstm.bias.value[i], loss), dbias_c[i], 1e-6)
        << "dbias " << i;
}

TEST(BackwardPathGradCheck, GatBackwardMatchesCentralDifferences) {
  Rng rng(17);
  nn::GatLayer gat(3, 4, 3, rng);
  nn::Tensor entities = random_tensor(3, 3, rng);
  const std::vector<bool> mask = {true, true, false};
  const nn::Tensor coef = random_tensor(1, 4, rng);

  const std::vector<bool>* masks[] = {&mask};
  nn::Workspace ws;
  auto loss = [&]() {
    ws.begin_pass();
    nn::GatLayer::TrainTrace trace;
    return weighted_sum(coef, gat.forward(ws, entities, masks, &trace));
  };

  ws.begin_pass();
  nn::GatLayer::TrainTrace trace;
  gat.forward(ws, entities, masks, &trace);
  const std::vector<nn::Parameter*> params = gat.parameters();
  ASSERT_EQ(params.size(), 8u);
  std::vector<nn::Tensor> sink_storage;
  sink_storage.reserve(params.size());
  for (const nn::Parameter* p : params)
    sink_storage.push_back(nn::Tensor::zeros_like(p->value));
  std::vector<nn::Tensor*> sinks;
  for (nn::Tensor& t : sink_storage) sinks.push_back(&t);
  nn::Tensor dentities = nn::Tensor::zeros(3, 3);
  gat.backward_train(ws, entities, trace, coef, sinks.data(), &dentities);
  const nn::Tensor dentities_c = dentities;

  for (std::size_t i = 0; i < entities.size(); ++i)
    EXPECT_NEAR(central_diff(entities[i], loss), dentities_c[i], 5e-6)
        << "dentities " << i;
  for (std::size_t k = 0; k < params.size(); ++k)
    for (std::size_t i = 0; i < params[k]->value.size(); ++i)
      EXPECT_NEAR(central_diff(params[k]->value[i], loss), sink_storage[k][i],
                  5e-6)
          << "param " << k << " element " << i;
}

TEST(BackwardPathGradCheck, SoftmaxKernelsMatchCentralDifferences) {
  Rng rng(19);
  nn::Tensor x = random_tensor(2, 5, rng);
  const nn::Tensor coef = random_tensor(2, 5, rng);
  nn::Tensor y;

  auto softmax_loss = [&]() {
    nn::softmax_rows_into(y, x);
    return weighted_sum(coef, y);
  };
  softmax_loss();
  nn::Tensor dx = nn::Tensor::zeros(2, 5);
  nn::softmax_backward_acc(dx, coef, y);
  for (std::size_t i = 0; i < x.size(); ++i)
    EXPECT_NEAR(central_diff(x[i], softmax_loss), dx[i], 1e-6)
        << "softmax dx " << i;

  auto log_softmax_loss = [&]() {
    nn::log_softmax_rows_into(y, x);
    return weighted_sum(coef, y);
  };
  log_softmax_loss();
  dx.fill(0.0);
  nn::log_softmax_backward_acc(dx, coef, y);
  for (std::size_t i = 0; i < x.size(); ++i)
    EXPECT_NEAR(central_diff(x[i], log_softmax_loss), dx[i], 1e-6)
        << "log_softmax dx " << i;
}

TEST(BackwardPathGradCheck, SigmoidKernelMatchesCentralDifferences) {
  // Also the analytic backward of the message-squash logistic.
  Rng rng(23);
  nn::Tensor x = random_tensor(2, 4, rng);
  const nn::Tensor coef = random_tensor(2, 4, rng);

  auto loss = [&]() {
    double s = 0.0;
    for (std::size_t i = 0; i < x.size(); ++i)
      s += coef[i] / (1.0 + std::exp(-x[i]));
    return s;
  };

  nn::Tensor y = nn::Tensor::zeros(2, 4);
  for (std::size_t i = 0; i < x.size(); ++i) y[i] = 1.0 / (1.0 + std::exp(-x[i]));
  nn::Tensor dx = nn::Tensor::zeros(2, 4);
  nn::sigmoid_backward_acc(dx, coef, y);
  for (std::size_t i = 0; i < x.size(); ++i)
    EXPECT_NEAR(central_diff(x[i], loss), dx[i], 1e-6) << "sigmoid dx " << i;
}

TEST(BackwardPathGradCheck, FusedPpoLossMatchesCentralDifferences) {
  Rng rng(29);
  const std::size_t rows = 3, phases = 4, divisor = 5;
  nn::Tensor logits = random_tensor(rows, phases, rng);
  nn::Tensor values = random_tensor(rows, 1, rng);
  const std::vector<std::size_t> actions = {0, 2, 3};
  const std::vector<double> advantages = random_vector(rows, rng);
  const std::vector<double> returns = random_vector(rows, rng);
  rl::PpoConfig config;

  // old_logp just below the current log-prob keeps every ratio strictly
  // inside the clip band, away from the clamp/min kinks where central
  // differences straddle a non-differentiable point.
  nn::Tensor p, logp, dlogits, dvalues;
  std::vector<double> old_logp(rows);
  {
    nn::Tensor scratch;
    nn::log_softmax_rows_into(scratch, logits);
    for (std::size_t r = 0; r < rows; ++r)
      old_logp[r] = scratch.at(r, actions[r]) - 0.05;
  }

  auto loss = [&]() {
    return rl::fused_ppo_loss_grad(logits, values, actions, old_logp,
                                   advantages, returns, divisor, config, p,
                                   logp, dlogits, dvalues);
  };
  loss();
  const nn::Tensor dlogits_c = dlogits, dvalues_c = dvalues;

  for (std::size_t i = 0; i < logits.size(); ++i)
    EXPECT_NEAR(central_diff(logits[i], loss), dlogits_c[i], 1e-6)
        << "dlogits " << i;
  for (std::size_t i = 0; i < values.size(); ++i)
    EXPECT_NEAR(central_diff(values[i], loss), dvalues_c[i], 1e-6)
        << "dvalues " << i;
}

// ---------------------------------------------------------------------------
// Bitwise pins against the tape.

TEST(BackwardPathBitwise, FusedPpoLossMatchesTapeShardGraph) {
  Rng rng(31);
  rl::PpoConfig config;
  // rows == divisor covers the serial graph (mean == sum/divisor bitwise);
  // rows < divisor covers the shard graphs.
  const struct { std::size_t rows, divisor; } cases[] = {{4, 4}, {2, 7}};
  for (const auto& c : cases) {
    const std::size_t phases = 4;
    nn::Tensor logits = random_tensor(c.rows, phases, rng);
    nn::Tensor values = random_tensor(c.rows, 1, rng);
    std::vector<std::size_t> actions(c.rows);
    for (std::size_t r = 0; r < c.rows; ++r) actions[r] = r % phases;
    const std::vector<double> old_logp = random_vector(c.rows, rng, 0.5);
    const std::vector<double> advantages = random_vector(c.rows, rng);
    const std::vector<double> returns = random_vector(c.rows, rng);

    nn::Tape tape;
    nn::Var l_var = tape.leaf(logits);
    nn::Var v_var = tape.leaf(values);
    nn::Var logp_all = tape.log_softmax_rows(l_var);
    nn::Var new_logp = tape.gather_cols(logp_all, actions);
    nn::Var entropy = rl::policy_entropy_scaled(tape, l_var, c.divisor);
    nn::Var loss = rl::ppo_shard_loss(tape, new_logp, entropy, v_var, old_logp,
                                      advantages, returns, c.divisor, config);
    tape.backward(loss);

    nn::Tensor p, logp, dlogits, dvalues;
    const double fused_loss =
        rl::fused_ppo_loss_grad(logits, values, actions, old_logp, advantages,
                                returns, c.divisor, config, p, logp, dlogits,
                                dvalues);

    EXPECT_EQ(tape.value(loss)[0], fused_loss) << "rows=" << c.rows;
    expect_tensors_bitwise(tape.grad(l_var), dlogits, "dlogits");
    expect_tensors_bitwise(tape.grad(v_var), dvalues, "dvalues");
  }
}

TEST(BackwardPathBitwise, GatBackwardMatchesTape) {
  Rng rng(37);
  nn::GatLayer gat(3, 4, 3, rng);
  const nn::Tensor entities = random_tensor(3, 3, rng);
  const std::vector<bool> mask = {true, true, false};
  const nn::Tensor coef = random_tensor(1, 4, rng);

  gat.zero_grad();
  nn::Tape tape;
  nn::Var e_var = tape.leaf(entities);
  nn::Var out = gat.forward(tape, e_var, mask);
  nn::Var loss = tape.sum(tape.mul(out, tape.constant(coef)));
  tape.backward(loss);

  nn::Workspace ws;
  nn::GatLayer::TrainTrace trace;
  const std::vector<bool>* masks[] = {&mask};
  const nn::Tensor& fused_out = gat.forward(ws, entities, masks, &trace);
  expect_tensors_bitwise(tape.value(out), fused_out, "gat forward");
  const std::vector<nn::Parameter*> params = gat.parameters();
  std::vector<nn::Tensor> sink_storage;
  for (const nn::Parameter* p : params)
    sink_storage.push_back(nn::Tensor::zeros_like(p->value));
  std::vector<nn::Tensor*> sinks;
  for (nn::Tensor& t : sink_storage) sinks.push_back(&t);
  nn::Tensor dentities = nn::Tensor::zeros(3, 3);
  // d(sum(out * coef))/d(out) = 1.0 * coef exactly.
  gat.backward_train(ws, entities, trace, coef, sinks.data(), &dentities);

  expect_tensors_bitwise(tape.grad(e_var), dentities, "dentities");
  for (std::size_t k = 0; k < params.size(); ++k)
    expect_tensors_bitwise(params[k]->grad, sink_storage[k], "gat param grad");
}

TEST(BackwardPathBitwise, FusedShardGradsMatchTapeRedirects) {
  Rng rng(41);
  const std::size_t hidden = 8, phases = 4, critic_dim = 10;
  core::CoordinatedActor actor(/*obs_dim=*/6, /*msg_dim=*/1, hidden, phases, rng);
  core::CentralizedCritic critic(critic_dim, hidden, rng);
  core::PairUpConfig config;

  std::vector<rl::Sample> storage(6);
  for (std::size_t i = 0; i < storage.size(); ++i) {
    rl::Sample& s = storage[i];
    s.obs = random_vector(actor.input_dim(), rng);
    s.critic_obs = random_vector(critic_dim, rng);
    s.h_actor = random_vector(hidden, rng, 0.5);
    s.c_actor = random_vector(hidden, rng, 0.5);
    s.h_critic = random_vector(hidden, rng, 0.5);
    s.c_critic = random_vector(hidden, rng, 0.5);
    s.phase_count = (i % 2 == 0) ? phases : 3;  // exercise the logits mask
    s.action = i % s.phase_count;
    s.log_prob = -1.0 + 0.1 * static_cast<double>(i);
    s.advantage = rng.normal();
    s.ret = rng.normal();
  }
  std::vector<const rl::Sample*> samples;
  for (const rl::Sample& s : storage) samples.push_back(&s);
  std::vector<std::size_t> order = {3, 0, 5, 1, 4, 2};  // shuffled like an epoch

  std::vector<nn::Parameter*> params = actor.parameters();
  const std::size_t actor_count = params.size();
  for (nn::Parameter* p : critic.parameters()) params.push_back(p);

  // {begin, end}: full minibatch (serial), interior slice (shard), single
  // row.
  const struct { std::size_t begin, end; } slices[] = {{0, 6}, {2, 5}, {0, 1}};
  for (const auto& sl : slices) {
    std::vector<nn::Tensor> tape_grads, fused_grads;
    for (const nn::Parameter* p : params) {
      tape_grads.push_back(nn::Tensor::zeros_like(p->value));
      fused_grads.push_back(nn::Tensor::zeros_like(p->value));
    }

    nn::Tape tape;
    nn::Tape::GradRedirects redirects;
    for (std::size_t k = 0; k < params.size(); ++k)
      redirects.emplace_back(params[k], &tape_grads[k]);
    tape.set_grad_redirects(&redirects);
    const double tape_loss =
        core::shard_loss_and_grads(tape, actor, critic, samples, order,
                                   sl.begin, sl.end, samples.size(), config);
    tape.set_grad_redirects(nullptr);

    std::vector<nn::Tensor*> sinks;
    for (nn::Tensor& t : fused_grads) sinks.push_back(&t);
    nn::Workspace ws;
    const double fused_loss = core::fused_shard_loss_and_grads(
        ws, actor, critic, samples, order, sl.begin, sl.end, samples.size(),
        config, nullptr, sinks.data(), sinks.data() + actor_count);

    EXPECT_EQ(tape_loss, fused_loss) << "slice [" << sl.begin << "," << sl.end
                                     << ")";
    for (std::size_t k = 0; k < params.size(); ++k)
      expect_tensors_bitwise(tape_grads[k], fused_grads[k], "param grad");
  }

}

// ---------------------------------------------------------------------------
// End-to-end: fused weight trajectories equal the tape's, bit for bit.

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

TEST(BackwardPathBitwise, SerialFusedMatchesTapeOverTwentyEpisodes) {
  GridFixture tape_f, fused_f;
  core::PairUpConfig tape_config = tape_f.fast_config();
  tape_config.update_path = core::UpdatePath::kTape;
  core::PairUpConfig fused_config = fused_f.fast_config();
  fused_config.update_path = core::UpdatePath::kFused;
  core::PairUpLightTrainer tape_trainer(&tape_f.environment, tape_config);
  core::PairUpLightTrainer fused_trainer(&fused_f.environment, fused_config);
  for (int e = 0; e < 20; ++e) {
    const auto s1 = tape_trainer.train_episode();
    const auto s2 = fused_trainer.train_episode();
    ASSERT_DOUBLE_EQ(s1.avg_wait, s2.avg_wait) << "episode " << e;
  }
  expect_weights_identical(tape_trainer, fused_trainer);
}

TEST(BackwardPathBitwise, ShardedFusedMatchesShardedTape) {
  // For every shard count, the fused path must replay the tape path's exact
  // weights: the fused shard runs the same rows over the same fold order as
  // the tape shard.
  for (std::size_t shards : {2u, 3u}) {
    GridFixture tape_f, fused_f;
    core::PairUpConfig tape_config = tape_f.fast_config();
    tape_config.num_update_shards = shards;
    tape_config.update_path = core::UpdatePath::kTape;
    core::PairUpConfig fused_config = fused_f.fast_config();
    fused_config.num_update_shards = shards;
    fused_config.update_path = core::UpdatePath::kFused;
    core::PairUpLightTrainer tape_trainer(&tape_f.environment, tape_config);
    core::PairUpLightTrainer fused_trainer(&fused_f.environment, fused_config);
    for (int e = 0; e < 2; ++e) {
      tape_trainer.train_episode();
      fused_trainer.train_episode();
    }
    expect_weights_identical(tape_trainer, fused_trainer);
  }
}

// ---------------------------------------------------------------------------
// Zero steady-state allocations.

TEST(BackwardPathAlloc, SerialSteadyStateAllocEventsAreZero) {
  GridFixture f;
  core::PairUpConfig config = f.fast_config();
  config.ppo.epochs = 2;  // slot recycling across epochs, not just minibatches
  core::PairUpLightTrainer trainer(&f.environment, config);
  trainer.train_episode();
  trainer.train_episode();
  const std::size_t warm = trainer.update_alloc_events();
  EXPECT_GT(warm, 0u);  // the first update does allocate the slots
  // The critic's activations live in the update team's critic workspace,
  // which update_alloc_events() counts too.
  const core::UpdateTeam* team = trainer.update_team();
  ASSERT_NE(team, nullptr);
  const std::size_t critic_warm = team->critic_workspace().alloc_events();
  EXPECT_GT(critic_warm, 0u);
  EXPECT_GT(warm, critic_warm);  // the actor's workspace allocated as well
  trainer.train_episode();
  trainer.train_episode();
  EXPECT_EQ(trainer.update_alloc_events(), warm)
      << "fused update allocated in steady state";
  EXPECT_EQ(team->critic_workspace().alloc_events(), critic_warm)
      << "the update team's critic workspace allocated in steady state";
}

TEST(BackwardPathAlloc, ShardedSteadyStateAllocEventsAreZero) {
  GridFixture f;
  core::PairUpConfig config = f.fast_config();
  config.ppo.epochs = 2;
  config.num_update_shards = 2;
  core::PairUpLightTrainer trainer(&f.environment, config);
  trainer.train_episode();
  trainer.train_episode();
  const std::size_t warm = trainer.update_alloc_events();
  EXPECT_GT(warm, 0u);
  trainer.train_episode();
  trainer.train_episode();
  EXPECT_EQ(trainer.update_alloc_events(), warm)
      << "sharded fused update allocated in steady state";
}

TEST(BackwardPathAlloc, TapePathNeverTouchesTheWorkspace) {
  GridFixture f;
  core::PairUpConfig config = f.fast_config();
  config.update_path = core::UpdatePath::kTape;
  core::PairUpLightTrainer trainer(&f.environment, config);
  trainer.train_episode();
  EXPECT_EQ(trainer.update_alloc_events(), 0u);
}

// ---------------------------------------------------------------------------
// Oversubscribed shard counts.

TEST(BackwardPathClamp, BatchedShardsAreNotClamped) {
  // Clamping the shard count would CHANGE results (the shard-boundary fold
  // depends on it), so oversubscription only warns.
  GridFixture f;
  core::PairUpConfig config = f.fast_config();
  config.num_update_shards = 64;
  core::PairUpLightTrainer trainer(&f.environment, config);
  EXPECT_EQ(trainer.update_shards(), 64u);
  const auto stats = trainer.train_episode();  // mostly-empty shards still work
  EXPECT_TRUE(std::isfinite(stats.mean_reward));
}

}  // namespace
}  // namespace tsc
