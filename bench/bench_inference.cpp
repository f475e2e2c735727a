// Inference-path throughput: rollout collection steps per second through
// the fleet engine (core/fleet_engine.hpp) at both kernel tiers and several
// fleet sizes, on the paper's 6x6 grid.
//
// The reference tier is bit-exact: every recorded log-prob and value equals
// a tape forward from the sample's stored inputs (the tape-oracle tests in
// tests/test_inference.cpp). The fast tier swaps in the SIMD/FMA
// kernels (nn/kernels.hpp; tolerance-bounded, same rollout protocol but not
// bit-identical). num_envs = 1 isolates the batching-across-agents win;
// larger fleets add batching across replicas. Alongside throughput the bench
// reports the engine's allocation counter before and after the timed
// rounds: a steady-state delta of 0 is the zero-allocation guarantee,
// printed here so regressions show up in BENCH_inference.json as well as in
// the tests.
//
// Knobs: PAIRUP_EPISODES (collection rounds per row, default 3),
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
  nn::KernelTier kernel_tier = nn::KernelTier::kReference;
  std::size_t num_envs = 1;
  std::size_t env_steps = 0;
  double wall_seconds = 0.0;
  double steps_per_sec = 0.0;
  double wall_per_episode = 0.0;
  double speedup = 1.0;                   ///< vs the first (reference x1) row
  std::size_t warm_alloc_events = 0;      ///< engine events after warmup
  std::size_t steady_alloc_events = 0;    ///< events during the timed rounds
};

std::string row_name(const Row& r) {
  return std::string("fleet[") + nn::kernel_tier_name(r.kernel_tier) +
         "] num_envs=" + std::to_string(r.num_envs);
}

void write_json(const std::string& path, const bench::HarnessConfig& config,
                const std::vector<Row>& rows) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    log_warn("bench_inference: cannot write ", path);
    return;
  }
  const unsigned hw = std::thread::hardware_concurrency();
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"bench\": \"inference\",\n");
  std::fprintf(f, "  \"hardware_threads\": %u,\n", hw);
  std::fprintf(f, "  \"grid\": [%zu, %zu],\n", config.grid_rows, config.grid_cols);
  std::fprintf(f, "  \"episode_seconds\": %g,\n", config.episode_seconds);
  std::fprintf(f, "  \"rounds\": %zu,\n", config.episodes);
  std::fprintf(f, "  \"results\": [\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    std::fprintf(f,
                 "    {\"path\": \"fleet\", \"kernel_tier\": \"%s\", "
                 "\"num_envs\": %zu, \"hardware_threads\": %u, "
                 "\"env_steps\": %zu, "
                 "\"wall_seconds\": %.6f, \"env_steps_per_sec\": %.2f, "
                 "\"wall_seconds_per_episode\": %.6f, "
                 "\"speedup_vs_single_env\": %.3f, "
                 "\"alloc_events_warmup\": %zu, "
                 "\"alloc_events_steady_state\": %zu}%s\n",
                 nn::kernel_tier_name(r.kernel_tier), r.num_envs, hw, r.env_steps, r.wall_seconds, r.steps_per_sec,
                 r.wall_per_episode, r.speedup, r.warm_alloc_events,
                 r.steady_alloc_events, i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("\nwrote %s\n", path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  bench::HarnessConfig defaults;
  defaults.episodes = 3;  // collection rounds per path
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
      "Rollout forward path (fleet engine), %zux%zu grid, %g s episodes, "
      "%zu rounds per row%s\n"
      "hardware_threads: %u\n\n",
      config.grid_rows, config.grid_cols, config.episode_seconds,
      config.episodes, smoke ? " (smoke)" : "",
      std::thread::hardware_concurrency());
  bench::print_header("path", {"steps/sec", "s/episode", "speedup"});

  std::vector<std::size_t> env_counts = {1, 2, 4};
  if (smoke) env_counts = {1, 2};

  std::vector<Row> rows;
  for (nn::KernelTier tier :
       {nn::KernelTier::kReference, nn::KernelTier::kFast}) {
    for (std::size_t num_envs : env_counts) {
      // Fresh env + trainer per row: identical initial weights and seeds, so
      // the rounds differ only in kernel tier and fleet size.
      auto environment =
          bench::make_env(*grid, scenario::FlowPattern::kPattern1, config);
      core::PairUpConfig pairup_config = bench::make_pairup_config(config);
      pairup_config.num_envs = num_envs;
      pairup_config.kernel_tier = tier;
      core::PairUpLightTrainer trainer(environment.get(), pairup_config);
      const core::FleetRolloutEngine& engine = *trainer.fleet_engine();

      Row row;
      row.kernel_tier = tier;
      row.num_envs = num_envs;
      // Warm-up round (untimed): grows the workspace buffers and fleet slabs
      // to peak capacity, so the timed rounds measure the steady state.
      trainer.collect_rollouts(config.seed + 500);
      row.warm_alloc_events = engine.alloc_events();

      const auto t0 = std::chrono::steady_clock::now();
      for (std::size_t r = 0; r < config.episodes; ++r) {
        const auto collected = trainer.collect_rollouts(config.seed + 1000 + r);
        row.env_steps += collected.env_steps;
      }
      row.wall_seconds =
          std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
              .count();
      row.steady_alloc_events = engine.alloc_events() - row.warm_alloc_events;
      row.steps_per_sec = static_cast<double>(row.env_steps) / row.wall_seconds;
      row.wall_per_episode =
          row.wall_seconds / static_cast<double>(config.episodes * num_envs);
      row.speedup =
          rows.empty() ? 1.0 : row.steps_per_sec / rows.front().steps_per_sec;
      rows.push_back(row);

      bench::print_row(row_name(row),
                       {row.steps_per_sec, row.wall_per_episode, row.speedup});
      if (row.steady_alloc_events != 0)
        log_warn("bench_inference: ", row_name(row), " allocated ",
                 row.steady_alloc_events, " times after warmup (expected 0)");
    }
  }

  write_json("BENCH_inference.json", config, rows);
  return 0;
}
