// Rollout-collection throughput: environment steps per second for
// num_envs in {1, 2, 4, 8} on the paper's 6x6 grid, at both kernel tiers.
// Collection runs through the fleet engine (core/fleet_engine.hpp): all
// replicas stepped in lockstep on one thread, one GEMM per layer across
// num_envs x num_agents rows.
//
// Measures collect_rollouts() only (the PPO update is covered by
// bench_ppo_update), reporting steps/sec, wall time per episode, and speedup
// over the reference-tier num_envs = 1 row. Every JSON row records the
// hardware thread count and the fleet configuration. Results land on stdout
// and in BENCH_rollout.json.
//
// Knobs: PAIRUP_EPISODES (collection rounds per configuration, default 3),
// PAIRUP_EPISODE_SECONDS (default 600), PAIRUP_TIME_SCALE, PAIRUP_SEED.
// `--smoke` shrinks the run (1 round, 60 s episodes, num_envs <= 2) for CI
// wiring checks.
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "harness.hpp"
#include "src/core/trainer.hpp"
#include "src/util/log.hpp"

namespace {

using namespace tsc;

struct Row {
  std::size_t num_envs = 0;
  tsc::nn::KernelTier kernel_tier = tsc::nn::KernelTier::kReference;
  std::size_t env_steps = 0;
  double wall_seconds = 0.0;
  double steps_per_sec = 0.0;
  double wall_per_episode = 0.0;
  double speedup = 1.0;  ///< vs the reference-tier num_envs = 1 row
};

std::string row_name(const Row& r) {
  return std::string("fleet ") + nn::kernel_tier_name(r.kernel_tier) +
         " num_envs=" + std::to_string(r.num_envs);
}

void write_json(const std::string& path, const bench::HarnessConfig& config,
                const std::vector<Row>& rows) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    log_warn("bench_rollout_throughput: cannot write ", path);
    return;
  }
  const unsigned hw = std::thread::hardware_concurrency();
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"bench\": \"rollout_throughput\",\n");
  std::fprintf(f, "  \"hardware_threads\": %u,\n", hw);
  std::fprintf(f, "  \"grid\": [%zu, %zu],\n", config.grid_rows, config.grid_cols);
  std::fprintf(f, "  \"episode_seconds\": %g,\n", config.episode_seconds);
  std::fprintf(f, "  \"rounds\": %zu,\n", config.episodes);
  std::fprintf(f, "  \"results\": [\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    std::fprintf(f,
                 "    {\"num_envs\": %zu, \"kernel_tier\": \"%s\", "
                 "\"hardware_threads\": %u, \"env_steps\": %zu, "
                 "\"wall_seconds\": %.6f, \"env_steps_per_sec\": %.2f, "
                 "\"wall_seconds_per_episode\": %.6f, "
                 "\"speedup_vs_single_env\": %.3f}%s\n",
                 r.num_envs, nn::kernel_tier_name(r.kernel_tier), hw,
                 r.env_steps, r.wall_seconds, r.steps_per_sec,
                 r.wall_per_episode, r.speedup, i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("\nwrote %s\n", path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  bench::HarnessConfig defaults;
  defaults.episodes = 3;  // collection rounds per configuration
  bool smoke = false;
  for (int i = 1; i < argc; ++i)
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  if (smoke) {
    defaults.episodes = 1;
    defaults.episode_seconds = 60.0;
  }
  const bench::HarnessConfig config = bench::load_config(defaults);
  auto grid = bench::make_grid(config);

  std::printf(
      "Rollout collection throughput, %zux%zu grid, %g s episodes, "
      "%zu rounds per configuration%s\n"
      "hardware_threads: %u\n\n",
      config.grid_rows, config.grid_cols, config.episode_seconds,
      config.episodes, smoke ? " (smoke)" : "",
      std::thread::hardware_concurrency());
  bench::print_header("collector", {"steps/sec", "s/episode", "speedup"});

  std::vector<std::size_t> env_counts = {1, 2, 4, 8};
  if (smoke) env_counts = {1, 2};

  std::vector<Row> rows;
  for (nn::KernelTier tier :
       {nn::KernelTier::kReference, nn::KernelTier::kFast}) {
    for (std::size_t num_envs : env_counts) {
      // Fresh env + trainer per configuration: identical initial weights, so
      // rounds differ only in the fleet size and the kernel tier.
      auto environment =
          bench::make_env(*grid, scenario::FlowPattern::kPattern1, config);
      core::PairUpConfig pairup_config = bench::make_pairup_config(config);
      pairup_config.num_envs = num_envs;
      pairup_config.kernel_tier = tier;
      core::PairUpLightTrainer trainer(environment.get(), pairup_config);

      Row row;
      row.num_envs = num_envs;
      row.kernel_tier = tier;
      std::size_t episodes = 0;
      const auto t0 = std::chrono::steady_clock::now();
      for (std::size_t r = 0; r < config.episodes; ++r) {
        const auto collected = trainer.collect_rollouts(config.seed + 1000 + r);
        row.env_steps += collected.env_steps;
        episodes += num_envs;
      }
      row.wall_seconds =
          std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
              .count();
      row.steps_per_sec = static_cast<double>(row.env_steps) / row.wall_seconds;
      row.wall_per_episode = row.wall_seconds / static_cast<double>(episodes);
      row.speedup =
          rows.empty() ? 1.0 : row.steps_per_sec / rows.front().steps_per_sec;
      rows.push_back(row);

      bench::print_row(row_name(row),
                       {row.steps_per_sec, row.wall_per_episode, row.speedup});
    }
  }

  write_json("BENCH_rollout.json", config, rows);
  return 0;
}
