#include "workload.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>
#include <stdexcept>

#include "src/baselines/fixed_time.hpp"
#include "src/core/trainer.hpp"
#include "src/core/update_engine.hpp"
#include "src/env/controller.hpp"
#include "src/nn/backward.hpp"
#include "src/nn/optim.hpp"
#include "src/rl/gae.hpp"
#include "src/rl/ppo.hpp"
#include "src/scenarios/flow_patterns.hpp"
#include "src/scenarios/grid.hpp"
#include "src/util/rng.hpp"

namespace perfbench {
namespace {

using tsc::core::PairUpLightTrainer;
using tsc::nn::Tensor;

// ---------------------------------------------------------------------------
// Protocol. Training runs at fixed seeds, so every run of one build trains
// the same trajectory: iteration counts to quality and the final eval wait
// are properties of the code, and the run-to-run spread of the timings is
// timing noise only. The workload seed picks the deployment traffic and the
// minibatches the traced run replays.

constexpr std::uint64_t kTrainingSeed = 1;
constexpr std::array<std::uint64_t, 3> kEvalSeeds = {424242, 424243, 424244};
constexpr double kTrainEpisodeSeconds = 600.0;
constexpr double kTrainTimeScale = 1.0 / 6.0;
constexpr double kDeployEpisodeSeconds = 3600.0;
constexpr double kDeployTimeScale = 1.0;
constexpr std::size_t kMaxControlEpisodes = 64;
constexpr std::size_t kQualityTailEvals = 3;  // evals averaged for eval_avg_wait_s
// Extra set-ups timed (and dropped) after every training iteration and
// every trailing control episode, so the setup_s median spans the whole run
// instead of the host's load in its first second.
constexpr std::size_t kSetupsPerRound = 5;
constexpr std::size_t kReplayMinibatches = 8;  // per traced iteration

using tsc::scenario::FlowPattern;

struct WorkloadSpec {
  const char* name;
  FlowPattern train_pattern;   ///< flows of the 600 s training episodes
  FlowPattern deploy_pattern;  ///< flows of the full-protocol control episodes
  std::size_t iterations;      ///< training budget
  /// Quality is reached when the mean eval avg wait over kEvalSeeds is at
  /// most quality_ratio times fixed-time's on the same seeds.
  double quality_ratio;
  /// Full-protocol control episodes (720 decisions each); at least 4, so
  /// the decide p99 has at least ten samples beyond it.
  std::size_t control_episodes;
};

// grid6x6_f1_train, the paper's setup: must beat fixed-time by 5%. When this
// benchmark was defined the eval mean first got there at iteration 17 (ratio
// 0.904; no earlier iteration was below 1.02), so a near-tie cannot decide
// time-to-quality.
// grid6x6_control, the deployment path: a short training run on light
// traffic (F5), where the policy overtakes fixed-time quickly and smoothly
// (ratio 0.624 at iteration 7 after 0.791), then 8 control episodes on the
// paper's F1 demand, so act + step dominate the run.
constexpr WorkloadSpec kWorkloads[] = {
    {"grid6x6_f1_train", FlowPattern::kPattern1, FlowPattern::kPattern1, 20, 0.95, 4},
    {"grid6x6_control", FlowPattern::kPattern5, FlowPattern::kPattern1, 10, 0.70, 8},
};

const WorkloadSpec& find_workload(const std::string& name) {
  for (const WorkloadSpec& spec : kWorkloads)
    if (name == spec.name) return spec;
  throw std::invalid_argument("unknown workload '" + name + "'");
}

// ---------------------------------------------------------------------------
// Small helpers.

double median(std::vector<double> xs) {
  if (xs.empty()) return std::nan("");
  std::sort(xs.begin(), xs.end());
  const std::size_t n = xs.size();
  return n % 2 ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
}

/// Nearest-rank percentile, p in (0, 100].
double percentile(std::vector<double> xs, double p) {
  if (xs.empty()) return std::nan("");
  std::sort(xs.begin(), xs.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(xs.size())));
  return xs[std::clamp<std::size_t>(rank, 1, xs.size()) - 1];
}

double sum(const std::vector<double>& xs) {
  double total = 0.0;
  for (double x : xs) total += x;
  return total;
}

std::vector<double> scaled(std::vector<double> xs, double factor) {
  for (double& x : xs) x *= factor;
  return xs;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Counts operations and remembers why the failed ones failed.
class Ledger {
 public:
  explicit Ledger(RunResult& result) : result_(result) {}

  void record(bool ok, const std::string& what) {
    ++result_.attempted;
    if (ok) return;
    ++result_.failed;
    result_.failures.push_back(what);
  }

 private:
  RunResult& result_;
};

bool stats_ok(const tsc::env::EpisodeStats& s) {
  return std::isfinite(s.avg_wait) && std::isfinite(s.travel_time) &&
         std::isfinite(s.delay) && std::isfinite(s.mean_reward) &&
         s.vehicles_finished <= s.vehicles_spawned;
}

std::vector<tsc::nn::Parameter*> model_parameters(PairUpLightTrainer& trainer,
                                                  std::size_t model) {
  std::vector<tsc::nn::Parameter*> params = trainer.actor(model).parameters();
  const auto critic = trainer.critic(model).parameters();
  params.insert(params.end(), critic.begin(), critic.end());
  return params;
}

bool weights_finite(PairUpLightTrainer& trainer) {
  for (std::size_t m = 0; m < trainer.num_models(); ++m)
    for (const tsc::nn::Parameter* p : model_parameters(trainer, m))
      for (std::size_t i = 0; i < p->value.size(); ++i)
        if (!std::isfinite(p->value[i])) return false;
  return true;
}

bool same_weights(PairUpLightTrainer& a, PairUpLightTrainer& b) {
  if (a.num_models() != b.num_models()) return false;
  for (std::size_t m = 0; m < a.num_models(); ++m) {
    const auto pa = model_parameters(a, m);
    const auto pb = model_parameters(b, m);
    if (pa.size() != pb.size()) return false;
    for (std::size_t k = 0; k < pa.size(); ++k)
      if (pa[k]->value.size() != pb[k]->value.size() ||
          std::memcmp(pa[k]->value.data(), pb[k]->value.data(),
                      pa[k]->value.size() * sizeof(double)) != 0)
        return false;
  }
  return true;
}

/// GEMM flop of one training row through actor + critic, from the layer
/// shapes: forward, weight gradients, and input gradients where the
/// backward needs them (the LSTM input and the heads; not the embeddings,
/// whose inputs are data, nor the recurrent weights, whose h is stored).
double update_flop_per_row(PairUpLightTrainer& trainer) {
  const auto& actor = trainer.actor();
  const auto& critic = trainer.critic();
  const double h = static_cast<double>(actor.hidden_size());
  const double a_in = static_cast<double>(actor.input_dim());
  const double c_in = static_cast<double>(critic.input_dim());
  const double phases = static_cast<double>(actor.max_phases());
  const double lstm = h * 4.0 * h;
  const double forward = a_in * h + 2.0 * lstm + h * phases +  // actor
                         c_in * h + 2.0 * lstm + h * 1.0;      // critic
  const double input_grads = lstm + h * phases + lstm + h * 1.0;
  return 2.0 * (2.0 * forward + input_grads);
}

// ---------------------------------------------------------------------------
// Scenario and set-up.

tsc::core::PairUpConfig trainer_config() {
  // Only protocol parameters; every path knob keeps its shipped default.
  tsc::core::PairUpConfig config;
  config.seed = kTrainingSeed;
  return config;
}

std::unique_ptr<tsc::env::TscEnv> make_env(const tsc::scenario::GridScenario& grid,
                                           FlowPattern pattern,
                                           double episode_seconds,
                                           double time_scale) {
  tsc::scenario::FlowPatternConfig flows;
  flows.time_scale = time_scale;
  tsc::env::EnvConfig config;
  config.episode_seconds = episode_seconds;
  return std::make_unique<tsc::env::TscEnv>(
      &grid.net(), tsc::scenario::make_flow_pattern(grid, pattern, flows), config,
      kTrainingSeed);
}

/// What the untraced run constructs: the scenario, the training env and
/// trainer, and the deployment env plus the trainer that serves its policy.
struct Setup {
  std::unique_ptr<tsc::scenario::GridScenario> grid;
  std::unique_ptr<tsc::env::TscEnv> train_env, deploy_env;
  std::unique_ptr<PairUpLightTrainer> trainer, deployed;
};

std::unique_ptr<Setup> build_setup(const WorkloadSpec& spec) {
  auto s = std::make_unique<Setup>();
  s->grid = std::make_unique<tsc::scenario::GridScenario>(tsc::scenario::GridConfig{});
  s->train_env = make_env(*s->grid, spec.train_pattern, kTrainEpisodeSeconds,
                          kTrainTimeScale);
  s->trainer =
      std::make_unique<PairUpLightTrainer>(s->train_env.get(), trainer_config());
  s->deploy_env = make_env(*s->grid, spec.deploy_pattern, kDeployEpisodeSeconds,
                           kDeployTimeScale);
  s->deployed =
      std::make_unique<PairUpLightTrainer>(s->deploy_env.get(), trainer_config());
  return s;
}

/// build_setup() with its wall time appended to `setup_s`; a copy the
/// caller drops is released after the clock stops.
std::unique_ptr<Setup> timed_setup(const WorkloadSpec& spec,
                                   std::vector<double>& setup_s) {
  const Clock::time_point begin = Clock::now();
  std::unique_ptr<Setup> s = build_setup(spec);
  setup_s.push_back(seconds_between(begin, Clock::now()));
  return s;
}

void sample_setups(const WorkloadSpec& spec, std::vector<double>& setup_s,
                   Tracer& tracer, int iteration) {
  ScopedSpan span(tracer, "setup", iteration);
  for (std::size_t k = 0; k < kSetupsPerRound; ++k) timed_setup(spec, setup_s);
}

double eval_mean_wait(tsc::env::TscEnv& env, tsc::env::Controller& controller,
                      bool& ok) {
  double total = 0.0;
  for (std::uint64_t seed : kEvalSeeds) {
    const tsc::env::EpisodeStats stats = tsc::env::run_episode(env, controller, seed);
    ok = ok && stats_ok(stats);
    total += stats.avg_wait;
  }
  return total / static_cast<double>(kEvalSeeds.size());
}

// ---------------------------------------------------------------------------
// Traced run: a second trainer built from the same seed replays every
// iteration from the timed trainer's checkpoint, so the per-layer spans
// never touch the timed run.

class Replay {
 public:
  Replay(const WorkloadSpec& spec, const tsc::scenario::GridScenario& grid,
         std::uint64_t seed)
      : env_(make_env(grid, spec.train_pattern, kTrainEpisodeSeconds,
                      kTrainTimeScale)),
        trainer_(env_.get(), trainer_config()),
        rng_(seed ^ 0x5EB1A7ULL) {
    tsc::nn::Adam::Config adam;
    adam.lr = trainer_.config().ppo.lr;
    optim_ = std::make_unique<tsc::nn::Adam>(model_parameters(trainer_, 0), adam);
  }

  PairUpLightTrainer& trainer() { return trainer_; }

  /// Collect + update of iteration `iteration` (after load_checkpoint of
  /// the state before it), checked against the timed trainer.
  void run_iteration(int iteration, std::uint64_t episode_seed,
                     PairUpLightTrainer& timed, std::size_t expected_decisions,
                     Tracer& tracer, Ledger& ledger) {
    ScopedSpan replay(tracer, "replay", iteration);
    PairUpLightTrainer::CollectResult collected;
    {
      ScopedSpan span(tracer, "core.collect", iteration);
      collected = trainer_.collect_rollouts(episode_seed);
    }
    {
      ScopedSpan span(tracer, "core.update", iteration);
      trainer_.update(collected.buffer);
    }
    const tsc::rl::RolloutBuffer& buffer = collected.buffer;
    bool rows_ok = collected.env_steps == expected_decisions &&
                   buffer.total_samples() ==
                       buffer.num_agents() * collected.env_steps;
    for (std::size_t a = 0; a < buffer.num_agents(); ++a)
      rows_ok = rows_ok && buffer.agent_samples(a).size() == collected.env_steps;
    ledger.record(rows_ok, "iteration " + std::to_string(iteration) +
                               ": samples != agents x decisions");
    ledger.record(same_weights(trainer_, timed),
                  "iteration " + std::to_string(iteration) +
                      ": replayed weights differ from the timed trainer's");

    replay_layers(iteration, collected.buffer, tracer, ledger);
  }

  std::size_t minibatches_per_iteration() const { return minibatches_; }
  double gflop_per_iteration() const { return gflop_; }

 private:
  void replay_layers(int iteration, tsc::rl::RolloutBuffer& buffer,
                     Tracer& tracer, Ledger& ledger) {
    ScopedSpan layers(tracer, "layer_replay", iteration);
    const tsc::rl::PpoConfig& ppo = trainer_.config().ppo;

    bool gae_ok = true;
    for (std::size_t a = 0; a < buffer.num_agents(); ++a) {
      const std::vector<tsc::rl::Sample>& trajectory = buffer.agent_samples(a);
      std::vector<double> rewards, values;
      for (const tsc::rl::Sample& s : trajectory) {
        rewards.push_back(s.reward);
        values.push_back(s.value);
      }
      // V(s_T) as the rollout bootstrapped it: ret_{T-1} = r_{T-1} + gamma V(s_T).
      const double bootstrap =
          (trajectory.back().ret - trajectory.back().reward) / ppo.gamma;
      tsc::rl::GaeResult gae;
      {
        ScopedSpan span(tracer, "rl.gae", iteration);
        gae = tsc::rl::compute_gae(rewards, values, bootstrap, ppo.gamma, ppo.lambda);
      }
      for (std::size_t t = 0; t < trajectory.size(); ++t)
        gae_ok = gae_ok && std::abs(gae.returns[t] - trajectory[t].ret) <=
                               1e-9 * std::max(1.0, std::abs(trajectory[t].ret));
    }
    ledger.record(gae_ok, "iteration " + std::to_string(iteration) +
                              ": compute_gae does not reproduce the rollout returns");

    std::vector<const tsc::rl::Sample*> all;
    {
      ScopedSpan span(tracer, "rl.flatten", iteration);
      all = buffer.flatten(ppo.normalize_advantages);
    }

    // The shared model (every workload keeps parameter sharing on): pack
    // the batch like update() does, then replay the first
    // kReplayMinibatches minibatches of a shuffled epoch.
    const std::size_t minibatch = std::max<std::size_t>(1, ppo.minibatch);
    minibatches_ = ppo.epochs * ((all.size() + minibatch - 1) / minibatch);
    gflop_ = 1e-9 * static_cast<double>(ppo.epochs * all.size()) *
             update_flop_per_row(trainer_);
    {
      ScopedSpan span(tracer, "core.pack", iteration);
      block_.build(all, trainer_.actor().input_dim(), trainer_.critic().input_dim(),
                   trainer_.config().hidden);
    }
    std::vector<std::size_t> order(all.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    for (std::size_t i = order.size(); i > 1; --i)
      std::swap(order[i - 1], order[rng_.uniform_int(i)]);
    bool loss_ok = true;
    for (std::size_t begin = 0;
         begin < order.size() && begin < kReplayMinibatches * minibatch;
         begin += minibatch) {
      const std::size_t end = std::min(order.size(), begin + minibatch);
      run_serial_minibatch(all, order, begin, end, iteration, tracer);
      const double loss = run_minibatch_layers(order, begin, end, iteration, tracer);
      loss_ok = loss_ok && std::isfinite(loss);
    }
    ledger.record(loss_ok && weights_finite(trainer_),
                  "iteration " + std::to_string(iteration) +
                      ": replayed minibatch loss or weights not finite");
  }

  void run_serial_minibatch(const std::vector<const tsc::rl::Sample*>& samples,
                            const std::vector<std::size_t>& order,
                            std::size_t begin, std::size_t end, int iteration,
                            Tracer& tracer) {
    tsc::core::UpdateContext ctx;
    ctx.config = &trainer_.config();
    ctx.actor = &trainer_.actor();
    ctx.critic = &trainer_.critic();
    ctx.params = model_parameters(trainer_, 0);
    ctx.tape = &tape_;
    ctx.optim = optim_.get();
    ctx.block = &block_;
    ctx.backward = &serial_ws_;
    ScopedSpan span(tracer, "core.minibatch", iteration);
    tsc::core::serial_minibatch_update(ctx, samples, order, begin, end);
  }

  /// The fused minibatch update, one public call per span: the same calls
  /// serial_minibatch_update makes on its default path.
  double run_minibatch_layers(const std::vector<std::size_t>& order,
                              std::size_t begin, std::size_t end, int iteration,
                              Tracer& tracer) {
    tsc::core::CoordinatedActor& actor = trainer_.actor();
    tsc::core::CentralizedCritic& critic = trainer_.critic();
    const tsc::rl::PpoConfig& ppo = trainer_.config().ppo;
    const std::size_t rows = end - begin;
    const std::size_t hidden = actor.hidden_size();
    const tsc::core::PackedSampleBlock& block = block_;

    ScopedSpan gather(tracer, "core.minibatch_gather", iteration);
    std::vector<std::size_t> actions(rows), phase_counts(rows);
    std::vector<double> old_logp(rows), advantages(rows), returns(rows);
    ws_.begin_pass();
    Tensor& input = ws_.acquire(rows, actor.input_dim());
    Tensor& h_a = ws_.acquire(rows, hidden);
    Tensor& c_a = ws_.acquire(rows, hidden);
    Tensor& v_input = ws_.acquire(rows, critic.input_dim());
    Tensor& h_v = ws_.acquire(rows, hidden);
    Tensor& c_v = ws_.acquire(rows, hidden);
    auto copy_row = [](const double* src, std::size_t width, Tensor& dst,
                       std::size_t r) {
      std::copy(src, src + width, dst.data() + r * width);
    };
    for (std::size_t r = 0; r < rows; ++r) {
      const std::size_t src = order[begin + r];
      copy_row(block.obs_row(src), block.obs_dim(), input, r);
      copy_row(block.h_actor_row(src), hidden, h_a, r);
      copy_row(block.c_actor_row(src), hidden, c_a, r);
      copy_row(block.critic_obs_row(src), block.critic_dim(), v_input, r);
      copy_row(block.h_critic_row(src), hidden, h_v, r);
      copy_row(block.c_critic_row(src), hidden, c_v, r);
      actions[r] = block.action(src);
      phase_counts[r] = block.phase_count(src);
      old_logp[r] = block.log_prob(src);
      advantages[r] = block.advantage(src);
      returns[r] = block.ret(src);
    }
    std::vector<tsc::nn::Parameter*> params = model_parameters(trainer_, 0);
    std::vector<Tensor*> sinks;
    for (tsc::nn::Parameter* p : params) sinks.push_back(&p->grad);
    const std::size_t actor_sinks = actor.parameters().size();
    actor.zero_grad();
    critic.zero_grad();
    gather.close();

    tsc::core::CoordinatedActor::TrainActivations a_acts;
    tsc::core::CentralizedCritic::TrainActivations c_acts;
    const Tensor* logits = nullptr;
    const Tensor* values = nullptr;
    {
      ScopedSpan span(tracer, "nn.actor_forward_train", iteration);
      logits = &actor.forward_train(ws_, input, h_a, c_a, phase_counts, a_acts);
    }
    {
      ScopedSpan span(tracer, "nn.critic_forward_train", iteration);
      values = &critic.forward_train(ws_, v_input, h_v, c_v, c_acts);
    }
    Tensor& p = ws_.acquire(rows, actor.max_phases());
    Tensor& logp = ws_.acquire(rows, actor.max_phases());
    Tensor& dlogits = ws_.acquire(rows, actor.max_phases());
    Tensor& dvalues = ws_.acquire(rows, 1);
    double loss = 0.0;
    {
      ScopedSpan span(tracer, "rl.ppo_loss_grad", iteration);
      loss = tsc::rl::fused_ppo_loss_grad(*logits, *values, actions, old_logp,
                                          advantages, returns, rows, ppo, p,
                                          logp, dlogits, dvalues);
    }
    {
      ScopedSpan span(tracer, "nn.actor_backward", iteration);
      actor.backward_train(ws_, a_acts, dlogits, sinks.data());
    }
    {
      ScopedSpan span(tracer, "nn.critic_backward", iteration);
      critic.backward_train(ws_, c_acts, dvalues, sinks.data() + actor_sinks);
    }
    {
      ScopedSpan span(tracer, "nn.clip_grad_norm", iteration);
      tsc::nn::clip_grad_norm(params, ppo.max_grad_norm);
    }
    {
      ScopedSpan span(tracer, "nn.adam_step", iteration);
      optim_->step();
    }
    return loss;
  }

  std::unique_ptr<tsc::env::TscEnv> env_;
  PairUpLightTrainer trainer_;
  std::unique_ptr<tsc::nn::Adam> optim_;
  tsc::Rng rng_;
  tsc::nn::Tape tape_;
  tsc::nn::BackwardWorkspace ws_, serial_ws_;
  tsc::core::PackedSampleBlock block_;
  std::size_t minibatches_ = 0;
  double gflop_ = 0.0;
};

// ---------------------------------------------------------------------------
// Deployment: greedy control at the full protocol, run in slices between
// training iterations. Before each slice the deployment trainer loads the
// checkpoint just written, so the controller always serves the latest
// policy; spreading the decisions over the whole run keeps a burst of
// machine noise from landing on all of them.

class ControlLoop {
 public:
  ControlLoop(PairUpLightTrainer& deployed, std::uint64_t seed,
              std::size_t expected_decisions)
      : controller_(deployed.make_controller()),
        seed_(seed),
        expected_decisions_(expected_decisions) {}

  /// Takes `decisions` act + step pairs, starting episodes as needed.
  void run(tsc::env::TscEnv& env, std::size_t decisions, Tracer& tracer,
           Ledger& ledger) {
    for (std::size_t d = 0; d < decisions; ++d) {
      if (!in_episode_) begin_episode(env);
      const Clock::time_point t0 = Clock::now();
      std::vector<std::size_t> actions;
      {
        ScopedSpan span(tracer, "core.decide", -1);
        actions = controller_->act(env);
      }
      const Clock::time_point t1 = Clock::now();
      {
        ScopedSpan span(tracer, "env.step", -1);
        env.step(actions);
      }
      const Clock::time_point t2 = Clock::now();
      decide_s.push_back(seconds_between(t0, t1));
      loop_s += seconds_between(t0, t2);
      actions_ok_ = actions_ok_ && actions.size() == env.num_agents();
      ++episode_decisions_;
      if (env.done()) end_episode(env, ledger);
    }
  }

  /// Runs the open episode, if any, to its end.
  void finish_episode(tsc::env::TscEnv& env, Tracer& tracer, Ledger& ledger) {
    while (in_episode_) run(env, 1, tracer, ledger);
  }

  std::vector<double> decide_s;
  std::vector<double> decisions_per_episode, refreshes_per_episode;
  double loop_s = 0.0;

 private:
  void begin_episode(tsc::env::TscEnv& env) {
    episode_seed_ = seed_ * 0x9E3779B97F4A7C15ULL + 0x1000 + episodes_++;
    env.reset(episode_seed_);
    controller_->begin_episode(env);
    refreshes_before_ = env.simulator().obs_refresh_events();
    episode_decisions_ = 0;
    actions_ok_ = true;
    in_episode_ = true;
  }

  void end_episode(tsc::env::TscEnv& env, Ledger& ledger) {
    in_episode_ = false;
    decisions_per_episode.push_back(static_cast<double>(episode_decisions_));
    refreshes_per_episode.push_back(static_cast<double>(
        env.simulator().obs_refresh_events() - refreshes_before_));
    const auto& sim = env.simulator();
    ledger.record(actions_ok_ && episode_decisions_ == expected_decisions_ &&
                      std::isfinite(env.episode_avg_wait()) &&
                      sim.vehicles_finished() <= sim.vehicles_spawned(),
                  "control episode " + std::to_string(episode_seed_) +
                      ": wrong decision count or invalid episode stats");
  }

  std::unique_ptr<tsc::env::Controller> controller_;
  std::uint64_t seed_;
  std::size_t expected_decisions_;
  std::size_t episodes_ = 0, episode_decisions_ = 0, refreshes_before_ = 0;
  std::uint64_t episode_seed_ = 0;
  bool in_episode_ = false, actions_ok_ = true;
};

}  // namespace

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::vector<std::string> workload_names() {
  std::vector<std::string> names;
  for (const WorkloadSpec& spec : kWorkloads) names.push_back(spec.name);
  return names;
}

RunResult run_workload(const RunOptions& options, Tracer& tracer) {
  const WorkloadSpec& spec = find_workload(options.workload);
  RunResult result;
  Ledger ledger(result);
  std::filesystem::create_directories(options.work_dir);
  const std::string prefix = options.work_dir + "/ckpt";

  // ---- set-up: this copy is kept; sample_setups() times more through the run.
  std::vector<double> setup_s;
  const std::unique_ptr<Setup> setup = timed_setup(spec, setup_s);
  tsc::env::TscEnv& env = *setup->train_env;
  PairUpLightTrainer& trainer = *setup->trainer;
  PairUpLightTrainer& deployed = *setup->deployed;
  const std::size_t agents = env.num_agents();
  const auto decisions_per = [&env](double episode_seconds) {
    return static_cast<std::size_t>(
        std::llround(episode_seconds / env.config().action_duration));
  };
  const std::size_t train_decisions = decisions_per(kTrainEpisodeSeconds);
  const std::size_t deploy_decisions = decisions_per(kDeployEpisodeSeconds);
  const std::size_t planned_control = spec.control_episodes * deploy_decisions;
  const std::size_t control_slice =
      (planned_control + spec.iterations - 1) / spec.iterations;

  std::unique_ptr<Replay> replay;
  if (options.trace)
    replay = std::make_unique<Replay>(spec, *setup->grid, options.seed);

  // ---- fixed-time reference on the eval seeds, computed in the run.
  bool reference_ok = true;
  tsc::baselines::FixedTimeController fixed_time;
  const double fixed_wait = eval_mean_wait(env, fixed_time, reference_ok);
  ledger.record(reference_ok && fixed_wait > 0.0,
                "fixed-time reference episodes invalid");

  // ---- training: one iteration is train_episode() + save_checkpoint(),
  // like the tsc_fleet worker loop; a greedy eval and a control slice
  // follow each iteration.
  const Clock::time_point measure_begin = Clock::now();
  std::unique_ptr<tsc::env::Controller> eval_controller = trainer.make_controller();
  ControlLoop control(deployed, options.seed, deploy_decisions);
  std::vector<double> iter_s, eval_waits, load_s;
  std::size_t samples_trained = 0;
  std::size_t quality_iteration = 0;  // 1-based; 0 = not reached
  double time_to_quality_s = 0.0;
  std::size_t update_allocs_base = 0, inference_allocs_base = 0;
  if (replay) trainer.save_checkpoint(prefix);  // the state replay 0 loads
  for (std::size_t i = 0; i < spec.iterations; ++i) {
    const int it = static_cast<int>(i);
    if (replay) {
      ScopedSpan span(tracer, "nn.checkpoint_load", it);
      replay->trainer().load_checkpoint(prefix);
    }
    tsc::env::EpisodeStats train_stats;
    std::size_t decisions = 0;
    const Clock::time_point begin = Clock::now();
    {
      ScopedSpan iteration(tracer, "iteration", it);
      {
        ScopedSpan span(tracer, "core.train_episode", it);
        train_stats = trainer.train_episode();
      }
      decisions = env.steps_taken();
      ScopedSpan span(tracer, "nn.checkpoint_save", it);
      trainer.save_checkpoint(prefix);
    }
    iter_s.push_back(seconds_between(begin, Clock::now()));
    samples_trained += agents * decisions;

    bool eval_ok = true;
    double eval_wait = 0.0;
    {
      ScopedSpan span(tracer, "eval", it);
      eval_wait = eval_mean_wait(env, *eval_controller, eval_ok);
    }
    eval_waits.push_back(eval_wait);
    if (quality_iteration == 0 && eval_wait <= spec.quality_ratio * fixed_wait) {
      quality_iteration = i + 1;
      time_to_quality_s = sum(iter_s);
    }
    ledger.record(decisions == train_decisions && stats_ok(train_stats) &&
                      eval_ok && std::isfinite(eval_wait) && weights_finite(trainer),
                  "iteration " + std::to_string(i) +
                      ": wrong decision count, or non-finite weights or stats");
    if (i == 0) {
      update_allocs_base = trainer.update_alloc_events();
      inference_allocs_base = trainer.inference_workspace().alloc_events();
    }

    {
      ScopedSpan slice(tracer, "control", it);
      {
        ScopedSpan span(tracer, "nn.checkpoint_load", it);
        const Clock::time_point load_begin = Clock::now();
        deployed.load_checkpoint(prefix);
        load_s.push_back(seconds_between(load_begin, Clock::now()));
      }
      ledger.record(same_weights(deployed, trainer),
                    "iteration " + std::to_string(i) +
                        ": deployed policy differs from the trained one after "
                        "load_checkpoint");
      control.run(*setup->deploy_env, control_slice, tracer, ledger);
    }

    if (replay)
      replay->run_iteration(it, trainer.last_episode_seeds().at(0), trainer,
                            train_decisions, tracer, ledger);
    sample_setups(spec, setup_s, tracer, it);
  }
  const std::size_t update_allocs = trainer.update_alloc_events() - update_allocs_base;
  const std::size_t inference_allocs =
      trainer.inference_workspace().alloc_events() - inference_allocs_base;
  ledger.record(quality_iteration != 0,
                "eval avg wait never reached " + json_number(spec.quality_ratio) +
                    " x fixed-time within " + std::to_string(spec.iterations) +
                    " iterations");
  const std::size_t tail = std::min(kQualityTailEvals, eval_waits.size());
  const double eval_avg_wait =
      sum(std::vector<double>(eval_waits.end() - static_cast<std::ptrdiff_t>(tail),
                              eval_waits.end())) /
      static_cast<double>(tail);

  // ---- finish the open control episode; keep controlling the final policy
  // until the run has measured --seconds.
  {
    ScopedSpan slice(tracer, "control", -1);
    control.finish_episode(*setup->deploy_env, tracer, ledger);
    while (seconds_between(measure_begin, Clock::now()) < options.seconds &&
           control.decisions_per_episode.size() < kMaxControlEpisodes) {
      control.run(*setup->deploy_env, 1, tracer, ledger);
      control.finish_episode(*setup->deploy_env, tracer, ledger);
      sample_setups(spec, setup_s, tracer, -1);
    }
  }

  // ---- end-to-end metrics (untraced run).
  const double iter_total = sum(iter_s);
  const std::size_t control_decisions = control.decide_s.size();
  result.end_to_end = {
      {"iter_s", median(iter_s), "s", iter_s.size()},
      {"train_samples_per_s", static_cast<double>(samples_trained) / iter_total,
       "samples/s", iter_s.size()},
      {"time_to_quality_s", time_to_quality_s, "s", quality_iteration},
      {"iters_to_quality", static_cast<double>(quality_iteration), "count", 1},
      {"eval_avg_wait_s", eval_avg_wait, "sim_s", tail * kEvalSeeds.size()},
      {"decide_ms_p50", 1e3 * median(control.decide_s), "ms", control_decisions},
      {"decide_ms_p99", 1e3 * percentile(control.decide_s, 99.0), "ms",
       control_decisions},
      {"control_steps_per_s", static_cast<double>(control_decisions) / control.loop_s,
       "steps/s", control_decisions},
      {"setup_s", median(setup_s), "s", setup_s.size()},
      {"peak_rss_mb", peak_rss_mb(), "MB", 1},
  };

  // ---- per-layer metrics (traced run).
  if (replay) {
    const auto ms = [&tracer](const char* name) {
      return scaled(tracer.durations(name), 1e3);
    };
    const std::vector<double> iteration_s = tracer.durations("iteration");
    const std::vector<double> collect_s = tracer.durations("core.collect");
    const std::vector<double> update_s = tracer.durations("core.update");
    const std::vector<double> save_s = tracer.durations("nn.checkpoint_save");
    const std::vector<double> load_all_s = tracer.durations("nn.checkpoint_load");
    const double accounted = median(collect_s) + median(update_s) + median(save_s);
    const std::vector<double> pack_ms =
        scaled(tracer.per_iteration_totals("core.pack"), 1e3);
    const double gflop = replay->gflop_per_iteration();
    auto layer = [&result](const char* name, const std::vector<double>& xs,
                           const char* unit) {
      result.per_layer.push_back({name, median(xs), unit, xs.size()});
    };
    layer("core.collect_s", collect_s, "s");
    layer("core.update_s", update_s, "s");
    layer("nn.checkpoint_save_s", save_s, "s");
    layer("nn.checkpoint_load_s", load_all_s, "s");
    result.per_layer.push_back({"core.iter_unaccounted_frac",
                                1.0 - accounted / median(iteration_s), "fraction",
                                iteration_s.size()});
    layer("core.decide_ms", ms("core.decide"), "ms");
    layer("env.step_ms", ms("env.step"), "ms");
    layer("env.decisions", control.decisions_per_episode, "count");
    layer("sim.obs_refresh_events", control.refreshes_per_episode, "count");
    layer("rl.flatten_ms", ms("rl.flatten"), "ms");
    layer("core.pack_ms", pack_ms, "ms");
    layer("core.minibatch_ms", ms("core.minibatch"), "ms");
    result.per_layer.push_back(
        {"core.minibatches",
         static_cast<double>(replay->minibatches_per_iteration()), "count", 1});
    layer("nn.actor_forward_train_ms", ms("nn.actor_forward_train"), "ms");
    layer("nn.critic_forward_train_ms", ms("nn.critic_forward_train"), "ms");
    layer("nn.actor_backward_ms", ms("nn.actor_backward"), "ms");
    layer("nn.critic_backward_ms", ms("nn.critic_backward"), "ms");
    layer("rl.ppo_loss_grad_ms", ms("rl.ppo_loss_grad"), "ms");
    layer("nn.clip_grad_norm_ms", ms("nn.clip_grad_norm"), "ms");
    layer("nn.adam_step_ms", ms("nn.adam_step"), "ms");
    layer("rl.gae_ms", ms("rl.gae"), "ms");
    result.per_layer.push_back({"nn.update_gflop", gflop, "GFLOP", 1});
    result.per_layer.push_back({"nn.update_gflops", gflop / median(update_s),
                                "GFLOP/s", update_s.size()});
    result.per_layer.push_back({"nn.update_alloc_events",
                                static_cast<double>(update_allocs), "count", 1});
    result.per_layer.push_back({"nn.inference_alloc_events",
                                static_cast<double>(inference_allocs), "count", 1});
  }

  for (const auto* metrics : {&result.end_to_end, &result.per_layer})
    for (const Metric& m : *metrics)
      ledger.record(std::isfinite(m.value), "metric " + m.name + " is not finite");

  result.facts = {
      {"training_seed", std::to_string(kTrainingSeed)},
      {"training_iterations", std::to_string(spec.iterations)},
      {"agents", std::to_string(agents)},
      {"fixed_time_avg_wait", json_number(fixed_wait)},
      {"quality_ratio", json_number(spec.quality_ratio)},
      {"eval_avg_wait_s", json_number(eval_avg_wait)},
      {"iter_s", json_number(median(iter_s))},
      {"checkpoint_load_s", json_number(median(load_s))},
      {"control_episodes", std::to_string(control.decisions_per_episode.size())},
      {"update_alloc_events", std::to_string(update_allocs)},
      {"inference_alloc_events", std::to_string(inference_allocs)},
  };
  const auto json_list = [](const std::vector<double>& xs) {
    std::string out = "[";
    for (std::size_t i = 0; i < xs.size(); ++i)
      out += (i ? "," : "") + json_number(xs[i]);
    return out + "]";
  };
  result.facts.push_back({"iter_s_per_iteration", json_list(iter_s)});
  result.facts.push_back({"eval_avg_wait_per_iteration", json_list(eval_waits)});
  return result;
}

}  // namespace perfbench
