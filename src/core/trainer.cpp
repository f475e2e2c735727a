#include "src/core/trainer.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <stdexcept>
#include <thread>

#include "src/nn/serialize.hpp"
#include "src/rl/parallel_rollout.hpp"
#include "src/util/fs.hpp"
#include "src/util/log.hpp"

namespace tsc::core {

namespace {

// Trainer-state checkpoint (episode counter + RNG stream): magic "TSCT",
// u64 version, u64 episode, the Rng::State words. Weights/optimizer state
// live in their own files (nn/serialize.hpp).
constexpr char kTrainerMagic[4] = {'T', 'S', 'C', 'T'};
constexpr std::uint64_t kTrainerVersion = 1;

// Written atomically (util::atomic_write_file: temp + rename), so a worker
// killed mid-save leaves the previous trainer-state file intact — the fleet
// orchestrator resumes crashed jobs from exactly that file.
void save_trainer_state(const std::string& path, std::size_t episode,
                        const Rng::State& rng) {
  util::atomic_write_file(path, [&](std::ostream& out) {
    auto write_u64 = [&out](std::uint64_t v) {
      out.write(reinterpret_cast<const char*>(&v), sizeof(v));
    };
    out.write(kTrainerMagic, sizeof(kTrainerMagic));
    write_u64(kTrainerVersion);
    write_u64(episode);
    for (std::uint64_t word : rng.s) write_u64(word);
    out.write(reinterpret_cast<const char*>(&rng.cached_normal),
              sizeof(rng.cached_normal));
    write_u64(rng.has_cached_normal ? 1 : 0);
    if (!out)
      throw std::runtime_error("save_checkpoint: write failed for " + path);
  });
}

struct TrainerState {
  std::size_t episode = 0;
  Rng::State rng;
};

// Parses a trainer-state file without touching the trainer.
TrainerState read_trainer_state(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("load_checkpoint: cannot open " + path);
  auto read_u64 = [&in]() {
    std::uint64_t v = 0;
    in.read(reinterpret_cast<char*>(&v), sizeof(v));
    return v;
  };
  char magic[4];
  in.read(magic, sizeof(magic));
  if (!in || std::string(magic, 4) != std::string(kTrainerMagic, 4))
    throw std::runtime_error("load_checkpoint: bad magic in " + path);
  if (read_u64() != kTrainerVersion)
    throw std::runtime_error("load_checkpoint: unsupported version in " + path);
  TrainerState state;
  state.episode = static_cast<std::size_t>(read_u64());
  for (std::uint64_t& word : state.rng.s) word = read_u64();
  in.read(reinterpret_cast<char*>(&state.rng.cached_normal),
          sizeof(state.rng.cached_normal));
  state.rng.has_cached_normal = read_u64() != 0;
  if (!in) throw std::runtime_error("load_checkpoint: truncated file " + path);
  return state;
}

}  // namespace

PairUpLightTrainer::PairUpLightTrainer(env::TscEnv* env, PairUpConfig config)
    : env_(env), config_(config), rng_(config.seed), episode_seed_(config.seed * 7919) {
  const std::size_t n = env_->num_agents();
  for (std::size_t i = 0; i < n; ++i) {
    hop1_slots_ = std::max(hop1_slots_, env_->agent(i).hop1.size());
    hop2_slots_ = std::max(hop2_slots_, env_->agent(i).hop2.size());
  }
  if (config_.critic_hops < 1) hop1_slots_ = 0;
  if (config_.critic_hops < 2) hop2_slots_ = 0;
  critic_input_dim_ = env_->obs_dim() +
                      (hop1_slots_ + hop2_slots_) * env::TscEnv::kNeighborFeatDim;

  const std::size_t num_models = config_.parameter_sharing ? 1 : n;
  const std::size_t max_phases = env_->config().max_phases;
  for (std::size_t m = 0; m < num_models; ++m) {
    actors_.push_back(std::make_unique<CoordinatedActor>(
        env_->obs_dim(), config_.msg_dim, config_.hidden, max_phases, rng_));
    critics_.push_back(
        std::make_unique<CentralizedCritic>(critic_input_dim_, config_.hidden, rng_));
    auto params = actors_.back()->parameters();
    auto critic_params = critics_.back()->parameters();
    params.insert(params.end(), critic_params.begin(), critic_params.end());
    nn::Adam::Config adam_config;
    adam_config.lr = config_.ppo.lr;
    optims_.push_back(std::make_unique<nn::Adam>(std::move(params), adam_config));
  }

  // With num_envs = K > 1 the fleet steps K clones of the environment,
  // seeded per slot, against the LIVE models on this thread.
  for (std::size_t w = 0; config_.num_envs > 1 && w < config_.num_envs; ++w)
    fleet_envs_.push_back(env_->clone(config_.seed + w));
  fleet_ = make_engine();

  if (config_.num_update_shards > 1) {
    const std::size_t hw =
        std::max<std::size_t>(1, std::thread::hardware_concurrency());
    if (config_.num_update_shards > hw)
      log_warn("num_update_shards=", config_.num_update_shards,
               " exceeds hardware_concurrency=", hw, "; sharded results depend "
               "on the shard count, so it is not clamped — expect "
               "oversubscribed, slower updates");
    updater_ = std::make_unique<ParallelUpdateEngine>(config_.num_update_shards);
  }
}

std::unique_ptr<FleetRolloutEngine> PairUpLightTrainer::make_engine() {
  std::vector<CoordinatedActor*> actors;
  std::vector<CentralizedCritic*> critics;
  for (auto& a : actors_) actors.push_back(a.get());
  for (auto& c : critics_) critics.push_back(c.get());
  return std::make_unique<FleetRolloutEngine>(
      &config_, std::move(actors), std::move(critics), hop1_slots_,
      hop2_slots_, critic_input_dim_);
}

double PairUpLightTrainer::current_epsilon() const {
  return rl::epsilon_at(episode_, config_.ppo);
}

void PairUpLightTrainer::save_checkpoint(const std::string& prefix) {
  for (std::size_t m = 0; m < actors_.size(); ++m) {
    nn::save_weights(*actors_[m], prefix + "_actor" + std::to_string(m) + ".bin");
    nn::save_weights(*critics_[m], prefix + "_critic" + std::to_string(m) + ".bin");
    nn::save_optimizer_state(*optims_[m],
                             prefix + "_optim" + std::to_string(m) + ".bin");
  }
  save_trainer_state(prefix + "_trainer.bin", episode_, rng_.state());
}

void PairUpLightTrainer::load_checkpoint(const std::string& prefix) {
  // Parse every file before committing any, so a missing, truncated or
  // mismatched file throws with every model, optimizer and counter intact.
  std::vector<nn::StagedWeights> actors, critics;
  std::vector<nn::StagedOptimizerState> optims;
  for (std::size_t m = 0; m < actors_.size(); ++m) {
    const std::string id = std::to_string(m) + ".bin";
    actors.push_back(nn::read_weights(*actors_[m], prefix + "_actor" + id));
    critics.push_back(nn::read_weights(*critics_[m], prefix + "_critic" + id));
    optims.push_back(nn::read_optimizer_state(*optims_[m], prefix + "_optim" + id));
  }
  const TrainerState state = read_trainer_state(prefix + "_trainer.bin");
  for (std::size_t m = 0; m < actors_.size(); ++m) {
    nn::commit_weights(*actors_[m], actors[m]);
    nn::commit_weights(*critics_[m], critics[m]);
    nn::commit_optimizer_state(*optims_[m], std::move(optims[m]));
  }
  episode_ = state.episode;
  rng_.set_state(state.rng);
}

PairUpLightTrainer::CollectResult PairUpLightTrainer::collect_rollouts(
    std::uint64_t base_seed) {
  CollectResult result;
  const std::size_t k = std::max<std::size_t>(1, config_.num_envs);
  std::vector<Rng> rngs;
  std::vector<rl::RolloutBuffer> parts(k, rl::RolloutBuffer(env_->num_agents()));
  std::vector<FleetSlot> slots(k);
  if (k == 1) {
    // The trainer's own environment and exploration stream: the historical
    // single-env trajectory, including how far rng_ advances. (base_seed =
    // seed + round is also what invariant_seeding prescribes for one
    // replica, so the flag is a no-op here.)
    last_episode_seeds_.assign(1, base_seed);
    slots[0] = FleetSlot{env_, base_seed, &rng_, &parts[0]};
  } else {
    if (config_.invariant_seeding) {
      // Episode seeds from the GLOBAL episode index: round r, slot w runs
      // episode r*k + w with env seed episode_seed_ + r*k + w — the same
      // sequence any other num_envs (including 1) walks through.
      last_episode_seeds_.resize(k);
      for (std::size_t w = 0; w < k; ++w)
        last_episode_seeds_[w] = episode_seed_ + episode_ * k + w;
      rl::derive_seeded_streams(last_episode_seeds_, rngs);
    } else {
      rl::derive_round_streams(base_seed, k, last_episode_seeds_, rngs);
    }
    for (std::size_t w = 0; w < k; ++w)
      slots[w] = FleetSlot{fleet_envs_[w].get(), last_episode_seeds_[w],
                           &rngs[w], &parts[w]};
  }
  const std::vector<env::EpisodeStats> episode_stats =
      fleet_->run_episodes(slots, /*train_mode=*/true, current_epsilon());

  // Fold in slot order: quality metrics are averaged, vehicle counts summed.
  env::EpisodeStats& stats = result.stats;
  for (std::size_t w = 0; w < k; ++w) {
    const env::EpisodeStats& s = episode_stats[w];
    stats.avg_wait += s.avg_wait;
    stats.travel_time += s.travel_time;
    stats.delay += s.delay;
    stats.mean_reward += s.mean_reward;
    stats.vehicles_finished += s.vehicles_finished;
    stats.vehicles_spawned += s.vehicles_spawned;
    result.env_steps += slots[w].env->steps_taken();
  }
  const double inv_k = 1.0 / static_cast<double>(k);
  stats.avg_wait *= inv_k;
  stats.travel_time *= inv_k;
  stats.delay *= inv_k;
  stats.mean_reward *= inv_k;
  result.buffer =
      k == 1 ? std::move(parts[0]) : rl::merge_rollouts(std::move(parts));

  last_messages_ = fleet_->last_messages(0);
  last_partners_ = fleet_->last_partners(0);
  return result;
}

env::EpisodeStats PairUpLightTrainer::train_episode() {
  CollectResult collected = collect_rollouts(episode_seed_ + episode_);
  update(collected.buffer);
  ++episode_;
  return collected.stats;
}

env::EpisodeStats PairUpLightTrainer::eval_episode(std::uint64_t seed) {
  // rng_ stays bound: kRandomNeighbor pairing draws from it at evaluation
  // time too.
  std::vector<FleetSlot> slots{FleetSlot{env_, seed, &rng_, nullptr}};
  const env::EpisodeStats stats =
      fleet_->run_episodes(slots, /*train_mode=*/false, /*epsilon=*/0.0)[0];
  last_messages_ = fleet_->last_messages(0);
  last_partners_ = fleet_->last_partners(0);
  return stats;
}

void PairUpLightTrainer::update(rl::RolloutBuffer& buffer) {
  auto all = buffer.flatten(config_.ppo.normalize_advantages);
  if (config_.parameter_sharing) {
    update_model(0, all);
  } else {
    for (std::size_t i = 0; i < env_->num_agents(); ++i) {
      std::vector<const rl::Sample*> mine;
      for (const rl::Sample& s : buffer.agent_samples(i)) mine.push_back(&s);
      update_model(i, mine);
    }
  }
}

void PairUpLightTrainer::update_model(std::size_t model,
                                      const std::vector<const rl::Sample*>& samples) {
  if (samples.empty()) return;
  UpdateContext ctx;
  ctx.config = &config_;
  ctx.actor = actors_[model].get();
  ctx.critic = critics_[model].get();
  ctx.params = ctx.actor->parameters();
  auto critic_params = ctx.critic->parameters();
  ctx.params.insert(ctx.params.end(), critic_params.begin(), critic_params.end());
  // One tape for the whole update: reset() keeps node storage reserved, so
  // only the first minibatch of a training run pays the allocation.
  ctx.tape = &scratch_tape_;
  // One backward workspace likewise (fused serial path; slots recycled
  // across minibatches, epochs, and updates).
  ctx.backward = &update_workspace_;
  // The fused serial path runs on a team of all hardware threads; created
  // on the first update, so trainers that only act (deployment,
  // evaluation) never start it, and parked when this update returns (or
  // throws), so it never spins outside an update.
  if (!updater_ && config_.update_path == UpdatePath::kFused) {
    if (!update_team_)
      update_team_ = std::make_unique<UpdateTeam>(
          std::max(1u, std::thread::hardware_concurrency()));
    ctx.team = update_team_.get();
  }
  struct ParkOnExit {
    UpdateTeam* team;
    ~ParkOnExit() {
      if (team != nullptr) team->threads().park();
    }
  } park_on_exit{ctx.team};
  ctx.optim = optims_[model].get();
  // Pack the samples' rows once; every epoch's minibatches gather from this
  // pinned block instead of re-walking the per-sample vectors.
  sample_block_.build(samples, ctx.actor->input_dim(), ctx.critic->input_dim(),
                      config_.hidden);
  ctx.block = &sample_block_;

  std::vector<std::size_t> order(samples.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;

  const std::size_t minibatch = std::max<std::size_t>(1, config_.ppo.minibatch);
  for (std::size_t epoch = 0; epoch < config_.ppo.epochs; ++epoch) {
    // Fisher-Yates shuffle with the trainer's deterministic stream.
    for (std::size_t i = order.size(); i > 1; --i)
      std::swap(order[i - 1], order[rng_.uniform_int(i)]);

    for (std::size_t start = 0; start < order.size(); start += minibatch) {
      const std::size_t end = std::min(order.size(), start + minibatch);
      if (updater_) {
        updater_->run_minibatch(ctx, samples, order, start, end);
      } else {
        serial_minibatch_update(ctx, samples, order, start, end);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Deployment controller: a one-slot fleet engine of its own over the live
// models, so its recurrent state never collides with training or
// evaluation runs on the trainer's engine.

class PairUpController : public env::Controller {
 public:
  explicit PairUpController(PairUpLightTrainer* trainer)
      : trainer_(trainer), engine_(trainer->make_engine()) {}

  void begin_episode(const env::TscEnv& env) override {
    // The trainer's environment and rng_ (kRandomNeighbor partners), like
    // eval_episode; the sample stream is the episode's own.
    slots_.assign(1, FleetSlot{trainer_->env_, env.episode_seed(),
                               &trainer_->rng_, nullptr});
    engine_->begin(slots_, /*epsilon=*/0.0);
    sample_rngs_.assign(1, Rng(env.episode_seed() ^ env::kEvalSampleSalt));
  }

  std::vector<std::size_t> act(const env::TscEnv& env) override {
    (void)env;  // the trainer references the same environment
    engine_->decide(slots_, kSlot, /*explore=*/false, /*record=*/false,
                    trainer_->config().greedy_eval ? nullptr : &sample_rngs_);
    return engine_->actions(0);
  }

  std::string name() const override {
    return trainer_->config().comm_enabled ? "PairUpLight" : "PairUpLight-NoComm";
  }

 private:
  inline static const std::vector<std::size_t> kSlot{0};
  PairUpLightTrainer* trainer_;
  std::unique_ptr<FleetRolloutEngine> engine_;
  std::vector<FleetSlot> slots_;
  std::vector<Rng> sample_rngs_;
};

std::unique_ptr<env::Controller> PairUpLightTrainer::make_controller() {
  return std::make_unique<PairUpController>(this);
}

}  // namespace tsc::core
