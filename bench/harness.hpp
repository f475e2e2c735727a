// Shared experiment harness for the per-table / per-figure benchmarks.
//
// Every bench binary reproduces one table or figure from the paper. Because
// the full paper schedule (1000 episodes x 3600 s) is a multi-day CPU-only
// run, the default harness compresses time (time_scale) and episode counts
// while keeping every code path identical. Scale knobs (environment
// variables, all optional):
//   PAIRUP_EPISODES     training episodes per RL method (default per bench)
//   PAIRUP_TIME_SCALE   flow-schedule compression (default 1/6)
//   PAIRUP_EPISODE_SECONDS  simulated seconds per episode (default 600)
//   PAIRUP_SEED         base seed (default 1)
//   PAIRUP_NUM_ENVS     environment replicas collected per training step
//                       (default 1; stepped in lockstep by
//                       core/fleet_engine.hpp)
//   PAIRUP_NUM_UPDATE_SHARDS  PPO-update worker threads per minibatch
//                       (default 1 = serial; K > 1 runs one batched pass
//                       per shard, tolerance-bounded against serial; see
//                       core/update_engine.hpp)
//   PAIRUP_UPDATE_PATH  PPO backward implementation: "fused" (default;
//                       tape-free analytic backward, nn/backward.hpp) or
//                       "tape" (autodiff oracle). Bit-identical either way
//                       for every shard count (tests/test_backward_path.cpp).
//   PAIRUP_KERNEL_TIER  math-kernel tier for rollout/evaluation forwards:
//                       "reference" (default; bit-exact) or "fast"
//                       (SIMD/FMA, tolerance-bounded; see nn/kernels.hpp
//                       and the README determinism matrix).
// A malformed value (e.g. PAIRUP_EPISODES=1O or PAIRUP_SEED=-1) makes
// load_config throw std::invalid_argument naming the variable.
// Set PAIRUP_TIME_SCALE=1 PAIRUP_EPISODE_SECONDS=3600 PAIRUP_EPISODES=1000
// to replicate the paper's full protocol.
#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "src/core/trainer.hpp"
#include "src/env/controller.hpp"
#include "src/env/env.hpp"
#include "src/scenarios/flow_patterns.hpp"
#include "src/scenarios/grid.hpp"

namespace tsc::bench {

struct HarnessConfig {
  std::size_t episodes = 12;       ///< training episodes per method
  double time_scale = 1.0 / 6.0;   ///< flow schedule compression
  double episode_seconds = 600.0;
  std::uint64_t seed = 1;
  std::size_t grid_rows = 6;
  std::size_t grid_cols = 6;
  std::size_t num_envs = 1;        ///< env replicas collected per train step
  std::size_t num_update_shards = 1;  ///< PPO-update shards per minibatch
  core::UpdatePath update_path = core::UpdatePath::kFused;  ///< PPO backward
  nn::KernelTier kernel_tier = nn::KernelTier::kReference;  ///< math kernels
};

/// Human-readable name of an UpdatePath ("tape" / "fused"), matching what
/// PAIRUP_UPDATE_PATH accepts.
const char* update_path_name(core::UpdatePath path);

/// Reads the PAIRUP_* environment overrides on top of `defaults`. Throws
/// std::invalid_argument, naming the variable, when a set value does not
/// parse in full (util/parse.hpp).
HarnessConfig load_config(HarnessConfig defaults);

/// PairUpLight trainer config wired to the harness knobs.
/// Benches tweak the returned struct further as each experiment needs.
core::PairUpConfig make_pairup_config(const HarnessConfig& config);

/// The paper's evaluation grid (6x6 by default).
std::unique_ptr<scenario::GridScenario> make_grid(const HarnessConfig& config);

/// Environment for one flow pattern on `grid`.
std::unique_ptr<env::TscEnv> make_env(const scenario::GridScenario& grid,
                                      scenario::FlowPattern pattern,
                                      const HarnessConfig& config);

/// Pretty-prints one table row: name column then fixed-width numbers.
void print_row(const std::string& name, const std::vector<double>& values);
void print_header(const std::string& name_col,
                  const std::vector<std::string>& columns);

/// Writes a CSV (swallow-errors convenience for bench output artifacts).
void write_csv(const std::string& path, const std::vector<std::string>& header,
               const std::vector<std::vector<double>>& rows,
               const std::vector<std::string>& row_names);

/// Smoothed copy of a training curve (moving average, window w).
std::vector<double> smooth(const std::vector<double>& xs, std::size_t w);

}  // namespace tsc::bench
