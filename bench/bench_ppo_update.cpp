// PPO-update throughput: samples processed per second across the update
// configuration matrix — {tape, fused} backward paths x {serial, batched
// shards for num_update_shards in {2, 4, 8}} — on the paper's 6x6 grid.
//
// Measures trainer.update() only (rollout collection is covered by
// bench_rollout_throughput). Every configuration starts from identical
// initial weights and consumes the same seeded batch (collected once up
// front — the collection path does not depend on the update
// configuration), so rounds differ only in shard count and backward path.
// Batched shards track the serial weight trajectory within FP noise
// (tests/test_sharded_update.cpp); the fused path is bit-identical to the
// tape at every shard count (tests/test_backward_path.cpp).
//
// Two distinct speedup sources, worth separating when reading results:
//   * threads - batched shards only win via parallelism, so rows that
//     request more shards than the box has hardware threads are flagged
//     thread_limited (hardware_threads is printed alongside); the fused
//     serial row runs on the update's thread team of hardware_threads
//     threads (bit-identical to one thread, tests/test_update_team.cpp);
//   * the fused path - drops tape-graph construction entirely (no per-node
//     allocation/bookkeeping, analytic backward kernels into preallocated
//     workspace slots; nn/backward.hpp). Wins on any core count; expect
//     >= 2x over the tape at the same shard count.
// The minibatch is raised to 256 here (vs the training default) so shard
// slices stay wide.
//
// Results land on stdout and in BENCH_ppo_update.json for machine
// consumption, stamped like perfbench's records: git sha (`git describe
// --always --dirty` in the working directory, so a record made from
// uncommitted sources says so; "unknown" outside a checkout), build type,
// compiler, kernel tier and hardware threads. The speedup column is
// relative to the first row (tape, serial), so the fused serial row reads
// directly as the headline fused-vs-tape gain.
//
// `--smoke` runs a tiny wiring check instead (4x4 grid): it asserts the
// fused path's backward workspace reaches a zero-allocation steady state
// after warmup, in both the serial and sharded engines. Wired into ctest
// as bench_ppo_update_smoke.
//
// Knobs: PAIRUP_EPISODES (update rounds per configuration, default 3),
// PAIRUP_EPISODE_SECONDS (default 600), PAIRUP_TIME_SCALE, PAIRUP_SEED.
#include <array>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "harness.hpp"
#include "src/core/trainer.hpp"
#include "src/util/log.hpp"

namespace {

using namespace tsc;

struct Row {
  core::UpdatePath path = core::UpdatePath::kTape;
  std::size_t num_update_shards = 0;
  bool thread_limited = false;  ///< shards > hardware threads
  std::size_t batch_samples = 0;
  double wall_seconds = 0.0;
  double samples_per_sec = 0.0;
  double wall_per_update = 0.0;
  double speedup = 1.0;
};

std::string row_name(const Row& r) {
  return std::string(bench::update_path_name(r.path)) +
         (r.num_update_shards == 1 ? " serial x1"
                                   : " batched x" +
                                         std::to_string(r.num_update_shards));
}

// HEAD of the git checkout around the working directory, suffixed
// "-dirty" when tracked files differ from it, or "unknown".
std::string git_sha() {
  std::string sha;
  if (std::FILE* p =
          popen("git describe --always --dirty --abbrev=40 2>/dev/null", "r")) {
    std::array<char, 80> buf{};
    if (std::fgets(buf.data(), static_cast<int>(buf.size()), p) != nullptr)
      sha = buf.data();
    pclose(p);
  }
  while (!sha.empty() && (sha.back() == '\n' || sha.back() == '\r')) sha.pop_back();
  return sha.empty() ? "unknown" : sha;
}

void write_json(const std::string& path, const bench::HarnessConfig& config,
                const core::PairUpConfig& pairup, const std::vector<Row>& rows) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    log_warn("bench_ppo_update: cannot write ", path);
    return;
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"bench\": \"ppo_update\",\n");
  std::fprintf(f, "  \"git_sha\": \"%s\",\n", git_sha().c_str());
  std::fprintf(f, "  \"build_type\": \"%s\",\n", TSC_BUILD_TYPE);
  std::fprintf(f, "  \"compiler\": \"%s\",\n", TSC_COMPILER);
  std::fprintf(f, "  \"kernel_tier\": \"%s\",\n",
               nn::kernel_tier_name(config.kernel_tier));
  std::fprintf(f, "  \"hardware_threads\": %u,\n",
               std::thread::hardware_concurrency());
  std::fprintf(f, "  \"grid\": [%zu, %zu],\n", config.grid_rows, config.grid_cols);
  std::fprintf(f, "  \"episode_seconds\": %g,\n", config.episode_seconds);
  std::fprintf(f, "  \"rounds\": %zu,\n", config.episodes);
  std::fprintf(f, "  \"ppo_epochs\": %zu,\n", pairup.ppo.epochs);
  std::fprintf(f, "  \"minibatch\": %zu,\n", pairup.ppo.minibatch);
  std::fprintf(f, "  \"baseline\": \"tape serial x1\",\n");
  std::fprintf(f, "  \"results\": [\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    std::fprintf(f,
                 "    {\"update_path\": \"%s\", \"layout\": \"%s\", "
                 "\"num_update_shards\": %zu, "
                 "\"thread_limited\": %s, \"batch_samples\": %zu, "
                 "\"wall_seconds\": %.6f, \"samples_per_sec\": %.2f, "
                 "\"wall_seconds_per_update\": %.6f, "
                 "\"speedup_vs_serial\": %.3f}%s\n",
                 bench::update_path_name(r.path),
                 r.num_update_shards == 1 ? "serial" : "batched",
                 r.num_update_shards,
                 r.thread_limited ? "true" : "false", r.batch_samples,
                 r.wall_seconds, r.samples_per_sec, r.wall_per_update, r.speedup,
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("\nwrote %s\n", path.c_str());
}

// Wiring check for ctest: the fused backward workspace must stop allocating
// once warm (every slot preallocated and reused), in both the serial path
// and the sharded engine. Returns 0 on success, 1 on failure.
int run_smoke() {
  struct Case {
    const char* name;
    std::size_t num_shards;
  };
  const Case cases[] = {{"serial", 1}, {"batched x2", 2}};
  for (const Case& c : cases) {
    bench::HarnessConfig config;
    config.grid_rows = 4;  // smallest grid the flow patterns accept
    config.grid_cols = 4;
    config.episode_seconds = 60.0;
    auto grid = bench::make_grid(config);
    auto environment =
        bench::make_env(*grid, scenario::FlowPattern::kPattern1, config);
    core::PairUpConfig pairup = bench::make_pairup_config(config);
    pairup.ppo.minibatch = 32;
    pairup.num_update_shards = c.num_shards;
    pairup.update_path = core::UpdatePath::kFused;
    core::PairUpLightTrainer trainer(environment.get(), pairup);

    const auto collected = trainer.collect_rollouts(config.seed + 1000);
    for (int warm = 0; warm < 2; ++warm) {
      rl::RolloutBuffer batch = collected.buffer;
      trainer.update(batch);
    }
    const std::size_t steady = trainer.update_alloc_events();
    if (steady == 0) {
      std::fprintf(stderr,
                   "bench_ppo_update --smoke [%s]: fused path never touched "
                   "the backward workspace\n",
                   c.name);
      return 1;
    }
    for (int round = 0; round < 2; ++round) {
      rl::RolloutBuffer batch = collected.buffer;
      trainer.update(batch);
    }
    const std::size_t after = trainer.update_alloc_events();
    if (after != steady) {
      std::fprintf(stderr,
                   "bench_ppo_update --smoke [%s]: backward workspace kept "
                   "allocating after warmup (%zu -> %zu events)\n",
                   c.name, steady, after);
      return 1;
    }
    std::printf("bench_ppo_update --smoke [%s]: ok (%zu warm alloc events, "
                "0 steady-state)\n",
                c.name, steady);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1 && std::string(argv[1]) == "--smoke") return run_smoke();

  bench::HarnessConfig defaults;
  defaults.episodes = 3;  // update rounds per configuration
  const bench::HarnessConfig config = bench::load_config(defaults);
  auto grid = bench::make_grid(config);
  core::PairUpConfig pairup_template = bench::make_pairup_config(config);
  pairup_template.ppo.minibatch = 256;  // wide shard slices (see file comment)

  const unsigned hw = std::thread::hardware_concurrency();
  std::printf(
      "PPO update throughput, %zux%zu grid, %g s episodes, "
      "%zu update rounds per configuration, minibatch %zu\n"
      "hardware_threads: %u\n\n",
      config.grid_rows, config.grid_cols, config.episode_seconds,
      config.episodes, pairup_template.ppo.minibatch, hw);
  bench::print_header("updater", {"samples/sec", "s/update", "speedup"});

  struct Config {
    core::UpdatePath path;
    std::size_t num_shards;
  };
  std::vector<Config> configs;
  for (core::UpdatePath path : {core::UpdatePath::kTape, core::UpdatePath::kFused})
    for (std::size_t shards : {1, 2, 4, 8}) configs.push_back({path, shards});

  // Collect the seeded batch once: all trainers share identical initial
  // weights (same seed) and the collection path does not depend on the
  // update configuration, so every configuration would collect this exact
  // buffer anyway.
  auto collect_env =
      bench::make_env(*grid, scenario::FlowPattern::kPattern1, config);
  core::PairUpLightTrainer collector(collect_env.get(), pairup_template);
  const auto collected = collector.collect_rollouts(config.seed + 1000);

  std::vector<Row> rows;
  for (const Config& c : configs) {
    // Fresh env + trainer per configuration: identical initial weights, so
    // rounds differ only in shard count and backward path.
    auto environment =
        bench::make_env(*grid, scenario::FlowPattern::kPattern1, config);
    core::PairUpConfig pairup_config = pairup_template;
    pairup_config.num_update_shards = c.num_shards;
    pairup_config.update_path = c.path;
    core::PairUpLightTrainer trainer(environment.get(), pairup_config);

    Row row;
    row.path = c.path;
    row.num_update_shards = c.num_shards;
    row.thread_limited = hw != 0 && c.num_shards > hw;
    row.batch_samples = collected.buffer.total_samples();
    {
      // Untimed warmup round: lets every one-time cost (workspace slot
      // allocation, thread-pool spin-up, page faults on fresh weights)
      // land outside the measurement, for both paths alike.
      rl::RolloutBuffer warmup = collected.buffer;
      trainer.update(warmup);
    }
    for (std::size_t r = 0; r < config.episodes; ++r) {
      // Each round updates a fresh copy: update() normalizes advantages in
      // place, and the copy keeps it outside the timed region.
      rl::RolloutBuffer batch = collected.buffer;
      const auto t0 = std::chrono::steady_clock::now();
      trainer.update(batch);
      row.wall_seconds +=
          std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
              .count();
    }
    const double samples_processed =
        static_cast<double>(row.batch_samples * pairup_config.ppo.epochs *
                            config.episodes);
    row.samples_per_sec = samples_processed / row.wall_seconds;
    row.wall_per_update = row.wall_seconds / static_cast<double>(config.episodes);
    row.speedup =
        rows.empty() ? 1.0 : row.samples_per_sec / rows.front().samples_per_sec;
    rows.push_back(row);

    bench::print_row(row_name(row),
                     {row.samples_per_sec, row.wall_per_update, row.speedup});
  }

  write_json("BENCH_ppo_update.json", config, pairup_template, rows);
  return 0;
}
