// The default update's thread team (util::ThreadTeam, core::UpdateTeam),
// the non-finite guard of every minibatch update (core::TrainingDiverged)
// and the packed sample block's row checks:
//   * a team phase runs every rank on its own thread, joins, hands the
//     lowest rank's exception to the leader, keeps working after a throw,
//     and allocates nothing once running; park() puts every helper to
//     sleep;
//   * with a team of 1, 2, 3 or 4 threads, serial_minibatch_update leaves
//     losses, weights and Adam moments and step counts bitwise equal to the
//     team-free update, at the 6x6 grid with one shared model and at a 2x2
//     grid with one model per agent, over full, 96-row and 37-row
//     minibatches; whole train_episode() runs match the team-free tape path;
//   * an exception in the critic crew's leader (a helper thread) reaches
//     the caller, changes no weight or Adam state, and the team keeps
//     running;
//   * the actor's and the critic crew's workspaces together allocate
//     exactly what one team-free workspace does, update_alloc_events()
//     counts both and stays flat once warm, and the team is parked after
//     every update;
//   * only a trainer that updates on the serial fused path starts a team;
//   * a NaN advantage throws TrainingDiverged before Adam on the serial
//     fused, serial tape and sharded paths, leaving the checkpoint
//     byte-identical;
//   * PackedSampleBlock::build rejects a row of the wrong width, naming the
//     field, before it copies anything.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iterator>
#include <limits>
#include <memory>
#include <new>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "src/core/trainer.hpp"
#include "src/core/update_engine.hpp"
#include "src/nn/backward.hpp"
#include "src/nn/optim.hpp"
#include "src/scenarios/flow_patterns.hpp"
#include "src/scenarios/grid.hpp"
#include "src/util/thread_team.hpp"

// Every heap allocation of the process, counted, so the tests can show that
// team phases allocate nothing. (GCC flags free() on operator new's result
// once these replacements are inlined; here both sides are malloc/free.)
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
namespace {
std::atomic<std::size_t> g_heap_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_heap_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t size, std::align_val_t align) {
  g_heap_allocations.fetch_add(1, std::memory_order_relaxed);
  const std::size_t a = static_cast<std::size_t>(align);
  if (void* p = std::aligned_alloc(a, (size + a - 1) / a * a)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace tsc {
namespace {

std::size_t hardware_threads() {
  return std::max(1u, std::thread::hardware_concurrency());
}

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
              const std::vector<const rl::Sample*>& samples, core::UpdateTeam* team)
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
    ctx.team = team;
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
  return ::testing::TempDir() + "/update_team_" + name;
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

// Minibatch boundaries over n shuffled samples: the configured minibatch,
// then a 96-row one (the 6x6 workload's epoch tail) and a 37-row one (odd,
// with a ragged 5-row tile tail), repeating; the last is whatever remains.
std::vector<std::size_t> minibatch_ends(std::size_t n, std::size_t minibatch) {
  const std::size_t sizes[] = {minibatch, 96, 37};
  std::vector<std::size_t> ends;
  for (std::size_t begin = 0, i = 0; begin < n; ++i) {
    begin = std::min(n, begin + sizes[i % 3]);
    ends.push_back(begin);
  }
  return ends;
}

// ---------------------------------------------------------------------------
// The team itself.

TEST(ThreadTeam, CrewsPartitionTheTeamAndEveryRankRunsOnItsOwnThread) {
  for (std::size_t n = 1; n <= 4; ++n) {
    util::ThreadTeam team(n);
    ASSERT_EQ(team.size(), n);
    EXPECT_EQ(team.all().size(), n);
    EXPECT_EQ(team.first().size() + team.second().size(), n);
    EXPECT_EQ(team.first().size(), (n + 1) / 2);

    std::vector<std::thread::id> ids(n);
    team.all().run([&](std::size_t rank) { ids[rank] = std::this_thread::get_id(); });
    EXPECT_EQ(ids[0], std::this_thread::get_id());
    EXPECT_EQ(std::set<std::thread::id>(ids.begin(), ids.end()).size(), n);

    // The two crews run side by side, each on its own threads.
    std::vector<std::thread::id> a_ids(team.first().size());
    std::vector<std::thread::id> b_ids(n == 1 ? 1 : team.second().size());
    team.run_split(
        [&](util::Crew& crew) {
          crew.run([&](std::size_t r) { a_ids[r] = std::this_thread::get_id(); });
        },
        [&](util::Crew& crew) {
          crew.run([&](std::size_t r) { b_ids[r] = std::this_thread::get_id(); });
        });
    std::set<std::thread::id> all(a_ids.begin(), a_ids.end());
    all.insert(b_ids.begin(), b_ids.end());
    EXPECT_EQ(all.size(), n) << n << " threads";
    EXPECT_EQ(a_ids[0], std::this_thread::get_id());
  }
}

TEST(ThreadTeam, HelperExceptionReachesTheLeaderAndTheTeamKeepsRunning) {
  util::ThreadTeam team(4);
  // The lowest throwing rank wins, and every rank has finished by then.
  std::atomic<int> finished{0};
  try {
    team.all().run([&](std::size_t rank) {
      finished.fetch_add(1);
      if (rank >= 2) throw std::runtime_error("rank " + std::to_string(rank));
    });
    ADD_FAILURE() << "no exception reached the leader";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "rank 2");
  }
  EXPECT_EQ(finished.load(), 4);
  // From the second crew's leader and from its member.
  for (const std::size_t thrower : {0u, 1u}) {
    try {
      team.run_split([](util::Crew&) {},
                     [&](util::Crew& crew) {
                       crew.run([&](std::size_t r) {
                         if (r == thrower) throw std::invalid_argument("critic");
                       });
                     });
      ADD_FAILURE() << "no exception from second-crew rank " << thrower;
    } catch (const std::invalid_argument& e) {
      EXPECT_STREQ(e.what(), "critic");
    }
  }
  // Nothing stale is rethrown later, and every rank still runs.
  std::atomic<int> ran{0};
  team.all().run([&](std::size_t) { ran.fetch_add(1); });
  team.run_split([&](util::Crew& c) { c.run([&](std::size_t) { ran.fetch_add(1); }); },
                 [&](util::Crew& c) { c.run([&](std::size_t) { ran.fetch_add(1); }); });
  EXPECT_EQ(ran.load(), 8);
}

TEST(ThreadTeam, PhasesAllocateNothingAndParkPutsEveryHelperToSleep) {
  for (std::size_t n = 2; n <= 4; ++n) {
    util::ThreadTeam team(n);
    std::vector<double> out(4 * 64, 0.0);
    auto phase = [&](std::size_t rank) {
      for (std::size_t i = rank; i < out.size(); i += n) out[i] += 1.0;
    };
    team.all().run(phase);  // warm: the helpers' first wake-up
    const std::size_t before = g_heap_allocations.load();
    for (int i = 0; i < 500; ++i) {
      team.all().run(phase);
      team.run_split([&](util::Crew& c) { c.run([](std::size_t) {}); },
                     [&](util::Crew& c) { c.run([](std::size_t) {}); });
    }
    EXPECT_EQ(g_heap_allocations.load() - before, 0u) << n << " threads";
    EXPECT_EQ(out[0], 501.0);

    team.park();
    EXPECT_TRUE(team.parked());
    EXPECT_EQ(team.sleeping_helpers(), n - 1);
    team.all().run(phase);  // a parked team wakes for the next phase
    EXPECT_FALSE(team.parked());
    EXPECT_EQ(out[0], 502.0);
  }
}

// ---------------------------------------------------------------------------
// The split kernels: every part computes its rows (or columns) exactly as
// the whole call does, including ragged tiles and the 1-7 row tails, and
// parts past the last 8-row block are empty.

nn::Tensor random_matrix(std::size_t rows, std::size_t cols, Rng& rng) {
  nn::Tensor t = nn::Tensor::zeros(rows, cols);
  for (std::size_t i = 0; i < t.size(); ++i)
    t[i] = (i % 7 == 0) ? 0.0 : rng.uniform() * 2.0 - 1.0;  // some zeros
  return t;
}

TEST(SplitKernels, RowAndColumnPartsMatchTheWholeCallBitwise) {
  Rng rng(17);
  for (const std::size_t m : {1u, 5u, 8u, 13u, 37u, 96u, 128u}) {
    const std::size_t k = 19, n = 24;  // n: one 16-wide tile + an 8-wide one
    const nn::Tensor x = random_matrix(m, k, rng);
    const nn::Tensor w = random_matrix(k, n, rng);
    const nn::Tensor dy = random_matrix(m, n, rng);
    nn::Tensor whole_y;
    nn::matmul_into_batched(whole_y, x, w);
    nn::Tensor whole_dw = random_matrix(k, n, rng);
    nn::Tensor whole_db = random_matrix(1, n, rng);
    nn::Tensor whole_dx = random_matrix(m, k, rng);
    const nn::Tensor dw0 = whole_dw, db0 = whole_db, dx0 = whole_dx;
    nn::Workspace ws;
    nn::backward_matmul_tn_acc(whole_dw, x, dy);
    nn::backward_bias_acc(whole_db, dy);
    nn::backward_matmul_nt_acc(ws, whole_dx, dy, w);

    for (std::size_t parts = 1; parts <= 4; ++parts) {
      nn::Tensor y = nn::Tensor::zeros(m, n);
      nn::Tensor dw = dw0, db = db0, dx = dx0;
      nn::Tensor wt = nn::Tensor::zeros(n, k);
      std::size_t covered = 0;
      for (std::size_t part = 0; part < parts; ++part) {
        const nn::IndexRange rows = nn::tile_rows(m, part, parts);
        if (rows.begin < rows.end) {  // contiguous, on 8-row boundaries
          EXPECT_EQ(rows.begin, covered);
          EXPECT_EQ(rows.begin % 8, 0u);
          covered = rows.end;
        }
        nn::matmul_into_batched(y, x, w, rows);
        nn::backward_matmul_tn_acc(dw, x, dy, nn::tile_rows(k, part, parts));
        nn::backward_bias_acc(db, dy, nn::even_range(n, part, parts));
        nn::transpose_rows(wt, w, nn::even_range(n, part, parts));
      }
      EXPECT_EQ(covered, m);
      for (std::size_t part = 0; part < parts; ++part)
        nn::matmul_nt_acc_rows(dx, dy, wt, nn::tile_rows(m, part, parts));
      const std::string what =
          std::to_string(m) + " rows in " + std::to_string(parts) + " parts";
      EXPECT_TRUE(bitwise_equal(y, whole_y)) << what << ": forward";
      EXPECT_TRUE(bitwise_equal(dw, whole_dw)) << what << ": dW";
      EXPECT_TRUE(bitwise_equal(db, whole_db)) << what << ": db";
      EXPECT_TRUE(bitwise_equal(dx, whole_dx)) << what << ": dX";
    }
  }
}

// ---------------------------------------------------------------------------
// Bit-identity at every team size.

TEST(UpdateTeam, MinibatchesMatchTheTeamFreeUpdateBitwiseAtEveryTeamSize) {
  for (ScenarioFactory make : kScenarios) {
    for (std::size_t threads = 1; threads <= 4; ++threads) {
      Scenario team_s = make(), null_s = make();
      core::PairUpLightTrainer with_team(team_s.environment.get(), team_s.config);
      core::PairUpLightTrainer without(null_s.environment.get(), null_s.config);
      auto collected = with_team.collect_rollouts(11);
      const auto per_model = samples_per_model(with_team, collected.buffer);
      ASSERT_EQ(per_model.size(), with_team.num_models());
      const std::string what =
          std::string(with_team.config().parameter_sharing ? "6x6 shared"
                                                           : "2x2 per-agent") +
          ", team of " + std::to_string(threads);

      core::UpdateTeam team(threads);
      std::size_t minibatches = 0;
      for (std::size_t m = 0; m < per_model.size(); ++m) {
        ModelUpdate a(with_team, m, per_model[m], &team);
        ModelUpdate b(without, m, per_model[m], nullptr);
        const std::size_t n = per_model[m].size();
        for (std::size_t epoch = 0; epoch < 2; ++epoch) {
          const auto order = shuffled_order(n, 100 + epoch);
          std::size_t begin = 0;
          for (const std::size_t end :
               minibatch_ends(n, with_team.config().ppo.minibatch)) {
            const double la = core::serial_minibatch_update(a.ctx, per_model[m],
                                                            order, begin, end);
            const double lb = core::serial_minibatch_update(b.ctx, per_model[m],
                                                            order, begin, end);
            EXPECT_EQ(std::memcmp(&la, &lb, sizeof(double)), 0)
                << what << ": loss of model " << m << " minibatch [" << begin
                << ", " << end << ")";
            begin = end;
            ++minibatches;
          }
        }
        expect_same_model(with_team, without, m, what);
        expect_same_adam(*a.optim, *b.optim, what);
      }
      EXPECT_GE(minibatches, 6u) << what;
    }
  }
}

// The trainer's own update (its team of hardware_concurrency threads)
// against the tape path, which never uses a team and is the update's
// bitwise oracle.
TEST(UpdateTeam, TrainEpisodesMatchTheTeamFreeTapeOracle) {
  for (ScenarioFactory make : kScenarios) {
    Scenario fused_s = make(), tape_s = make();
    tape_s.config.update_path = core::UpdatePath::kTape;
    core::PairUpLightTrainer fused(fused_s.environment.get(), fused_s.config);
    core::PairUpLightTrainer tape(tape_s.environment.get(), tape_s.config);
    for (int e = 0; e < 2; ++e) {
      fused.train_episode();
      tape.train_episode();
    }
    ASSERT_NE(fused.update_team(), nullptr);
    EXPECT_EQ(fused.update_team()->size(), hardware_threads());
    EXPECT_EQ(tape.update_team(), nullptr);

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

TEST(UpdateTeam, HelperExceptionReachesCallerAndTheTeamKeepsRunning) {
  for (const bool critic_fails : {true, false}) {
    const std::string what = critic_fails ? "critic half" : "actor half";
    Scenario team_s = grid2x2_per_agent(), null_s = grid2x2_per_agent();
    team_s.config.parameter_sharing = null_s.config.parameter_sharing = true;
    core::PairUpLightTrainer with_team(team_s.environment.get(), team_s.config);
    core::PairUpLightTrainer without(null_s.environment.get(), null_s.config);
    auto collected = with_team.collect_rollouts(5);
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

    // Four threads: the critic half's leader is a helper thread.
    core::UpdateTeam team(4);
    ModelUpdate a(with_team, 0, samples, &team);
    ModelUpdate b(without, 0, samples, nullptr);
    core::PackedSampleBlock bad_block;
    bad_block.build(bad, bad[0]->obs.size(), bad[0]->critic_obs.size(),
                    with_team.config().hidden);
    const auto order = shuffled_order(samples.size(), 9);
    const std::size_t end = with_team.config().ppo.minibatch;

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
      expect_same_model(with_team, without, 0, what + " after the throw");
      expect_same_adam(*a.optim, *b.optim, what + " after the throw");
    }

    a.ctx.block = &a.block;
    for (std::size_t begin = 0; begin < 3 * end; begin += end) {
      core::serial_minibatch_update(a.ctx, samples, order, begin, begin + end);
      core::serial_minibatch_update(b.ctx, samples, order, begin, begin + end);
    }
    expect_same_model(with_team, without, 0, what + " after recovery");
    expect_same_adam(*a.optim, *b.optim, what + " after recovery");
  }
}

// ---------------------------------------------------------------------------
// Allocations and parking.

// The actor's workspace and the critic crew's hold exactly the slots the
// single workspace of a team-free update holds, so the trainer's
// update_alloc_events() (which sums both) reads what it would without a
// team, and a critic workspace left out of the sum would read short.
TEST(UpdateTeam, AllocEventsEqualTheSingleWorkspaceUpdate) {
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
  ASSERT_NE(trainer.update_team(), nullptr);
  EXPECT_GT(trainer.update_team()->critic_workspace().alloc_events(), 0u);
}

TEST(UpdateTeam, SteadyStateAllocEventsStayFrozenAndTheTeamParksAfterEachUpdate) {
  for (ScenarioFactory make : kScenarios) {
    Scenario s = make();
    core::PairUpLightTrainer trainer(s.environment.get(), s.config);
    trainer.train_episode();
    trainer.train_episode();
    const std::size_t warm = trainer.update_alloc_events();
    EXPECT_GT(warm, 0u);
    for (int e = 0; e < 2; ++e) {
      trainer.train_episode();
      const core::UpdateTeam* team = trainer.update_team();
      ASSERT_NE(team, nullptr);
      EXPECT_TRUE(team->threads().parked());
      EXPECT_EQ(team->threads().sleeping_helpers(), team->size() - 1);
    }
    EXPECT_EQ(trainer.update_alloc_events(), warm)
        << "the update allocated in steady state";
  }
}

// ---------------------------------------------------------------------------
// Who owns a team.

TEST(UpdateTeam, OnlyTheSerialFusedUpdateStartsOne) {
  Scenario s = grid2x2_per_agent();
  core::PairUpLightTrainer trainer(s.environment.get(), s.config);
  EXPECT_EQ(trainer.update_team(), nullptr) << "started before any update";
  auto controller = trainer.make_controller();
  env::run_episode(*s.environment, *controller, 21);
  trainer.eval_episode(22);
  EXPECT_EQ(trainer.update_team(), nullptr) << "acting started a team";
  trainer.train_episode();
  ASSERT_NE(trainer.update_team(), nullptr);
  EXPECT_EQ(trainer.update_team()->size(), hardware_threads());

  for (const bool sharded : {true, false}) {
    Scenario other = grid2x2_per_agent();
    if (sharded)
      other.config.num_update_shards = 2;
    else
      other.config.update_path = core::UpdatePath::kTape;
    core::PairUpLightTrainer t(other.environment.get(), other.config);
    t.train_episode();
    EXPECT_EQ(t.update_team(), nullptr) << (sharded ? "sharded" : "tape");
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

// ---------------------------------------------------------------------------
// Packed sample rows. Before the check, only three widths were asserted (a
// no-op in release builds) and a c_actor, h_critic or c_critic row of the
// wrong width was copied unchecked: a long one overran the block.

TEST(PackedSampleBlock, RejectsARowOfTheWrongWidthNamingTheFieldBeforeCopying) {
  Scenario s = grid2x2_per_agent();
  core::PairUpLightTrainer trainer(s.environment.get(), s.config);
  auto collected = trainer.collect_rollouts(3);
  const std::vector<const rl::Sample*> samples = collected.buffer.flatten(true);
  ASSERT_GE(samples.size(), 3u);
  const std::size_t obs_dim = trainer.actor().input_dim();
  const std::size_t critic_dim = trainer.critic().input_dim();
  const std::size_t hidden = s.config.hidden;

  core::PackedSampleBlock block;
  block.build(samples, obs_dim, critic_dim, hidden);
  const std::vector<double> first_c_critic(block.c_critic_row(0),
                                           block.c_critic_row(0) + hidden);

  struct Field {
    const char* name;
    std::vector<double> rl::Sample::*values;
  };
  const Field fields[] = {
      {"obs", &rl::Sample::obs},         {"critic_obs", &rl::Sample::critic_obs},
      {"h_actor", &rl::Sample::h_actor}, {"c_actor", &rl::Sample::c_actor},
      {"h_critic", &rl::Sample::h_critic}, {"c_critic", &rl::Sample::c_critic},
  };
  for (const Field& f : fields) {
    for (const bool longer : {true, false}) {
      // The last row is the odd one, so earlier rows would be copied first
      // if the check ran row by row.
      std::vector<rl::Sample> rows;
      for (const rl::Sample* p : samples) {
        rows.push_back(*p);
        rows.back().c_critic.assign(hidden, 7.0);
      }
      std::vector<double>& odd = rows.back().*f.values;
      if (longer) {
        odd.resize(odd.size() + 64, 7.0);
      } else {
        odd.pop_back();
      }
      std::vector<const rl::Sample*> ptrs;
      for (const rl::Sample& r : rows) ptrs.push_back(&r);
      try {
        block.build(ptrs, obs_dim, critic_dim, hidden);
        ADD_FAILURE() << f.name << (longer ? " (long)" : " (short)")
                      << ": a row of the wrong width did not throw";
      } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string(e.what()).find(std::string(" ") + f.name + " "),
                  std::string::npos)
            << e.what();
      }
      // Nothing was copied: the previous block is intact.
      EXPECT_EQ(block.rows(), samples.size());
      EXPECT_TRUE(std::equal(first_c_critic.begin(), first_c_critic.end(),
                             block.c_critic_row(0)))
          << f.name;
    }
  }
}

}  // namespace
}  // namespace tsc
