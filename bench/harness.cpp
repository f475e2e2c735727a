#include "harness.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>

#include "src/util/csv.hpp"
#include "src/util/log.hpp"
#include "src/util/parse.hpp"

namespace tsc::bench {
namespace {

// Value of environment variable `name` as parsed by `parse`, or `fallback`
// when unset. A value that does not parse in full is an error, never a
// silent 0 or a wrapped negative.
template <typename T, typename Parse>
T env_value(const char* name, T fallback, Parse parse, const char* expected) {
  const char* v = std::getenv(name);
  if (v == nullptr) return fallback;
  const auto parsed = parse(std::string(v));
  if (!parsed)
    throw std::invalid_argument(std::string(name) + ": expected " + expected +
                                ", got \"" + v + "\"");
  return static_cast<T>(*parsed);
}

double env_double(const char* name, double fallback) {
  return env_value(name, fallback, util::parse_double, "a finite number");
}

std::uint64_t env_u64(const char* name, std::uint64_t fallback) {
  return env_value(name, fallback, util::parse_u64, "a non-negative integer");
}

std::size_t env_size(const char* name, std::size_t fallback) {
  return static_cast<std::size_t>(env_u64(name, fallback));
}

core::UpdatePath env_update_path(const char* name, core::UpdatePath fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr) return fallback;
  const std::string s(v);
  if (s == "tape") return core::UpdatePath::kTape;
  if (s == "fused") return core::UpdatePath::kFused;
  throw std::invalid_argument(std::string(name) +
                              ": expected tape or fused, got \"" + s + "\"");
}

}  // namespace

const char* update_path_name(core::UpdatePath path) {
  switch (path) {
    case core::UpdatePath::kTape: return "tape";
    case core::UpdatePath::kFused: return "fused";
  }
  return "unknown";
}

HarnessConfig load_config(HarnessConfig defaults) {
  HarnessConfig config = defaults;
  config.episodes = env_size("PAIRUP_EPISODES", config.episodes);
  config.time_scale = env_double("PAIRUP_TIME_SCALE", config.time_scale);
  config.episode_seconds =
      env_double("PAIRUP_EPISODE_SECONDS", config.episode_seconds);
  config.seed = env_u64("PAIRUP_SEED", config.seed);
  config.num_envs = std::max<std::size_t>(1, env_size("PAIRUP_NUM_ENVS", config.num_envs));
  config.num_update_shards = std::max<std::size_t>(
      1, env_size("PAIRUP_NUM_UPDATE_SHARDS", config.num_update_shards));
  config.update_path = env_update_path("PAIRUP_UPDATE_PATH", config.update_path);
  config.kernel_tier = nn::kernel_tier_from_env(config.kernel_tier);
  return config;
}

core::PairUpConfig make_pairup_config(const HarnessConfig& config) {
  core::PairUpConfig pairup;
  pairup.seed = config.seed;
  pairup.num_envs = config.num_envs;
  pairup.num_update_shards = config.num_update_shards;
  pairup.update_path = config.update_path;
  pairup.kernel_tier = config.kernel_tier;
  return pairup;
}

std::unique_ptr<scenario::GridScenario> make_grid(const HarnessConfig& config) {
  scenario::GridConfig grid_config;
  grid_config.rows = config.grid_rows;
  grid_config.cols = config.grid_cols;
  return std::make_unique<scenario::GridScenario>(grid_config);
}

std::unique_ptr<env::TscEnv> make_env(const scenario::GridScenario& grid,
                                      scenario::FlowPattern pattern,
                                      const HarnessConfig& config) {
  scenario::FlowPatternConfig flow_config;
  flow_config.time_scale = config.time_scale;
  auto flows = scenario::make_flow_pattern(grid, pattern, flow_config);
  env::EnvConfig env_config;
  env_config.episode_seconds = config.episode_seconds;
  return std::make_unique<env::TscEnv>(&grid.net(), std::move(flows), env_config,
                                       config.seed);
}

void print_header(const std::string& name_col,
                  const std::vector<std::string>& columns) {
  std::printf("%-22s", name_col.c_str());
  for (const auto& c : columns) std::printf("%14s", c.c_str());
  std::printf("\n");
  std::printf("%-22s", "----------------------");
  for (std::size_t i = 0; i < columns.size(); ++i) std::printf("%14s", "------------");
  std::printf("\n");
}

void print_row(const std::string& name, const std::vector<double>& values) {
  std::printf("%-22s", name.c_str());
  for (double v : values) std::printf("%14.2f", v);
  std::printf("\n");
  std::fflush(stdout);
}

void write_csv(const std::string& path, const std::vector<std::string>& header,
               const std::vector<std::vector<double>>& rows,
               const std::vector<std::string>& row_names) {
  try {
    CsvWriter csv(path);
    csv.write_header(header);
    for (std::size_t r = 0; r < rows.size(); ++r) {
      std::vector<std::string> cells;
      if (r < row_names.size()) cells.push_back(row_names[r]);
      for (double v : rows[r]) cells.push_back(std::to_string(v));
      csv.write_raw_row(cells);
    }
  } catch (const std::exception& e) {
    log_warn("write_csv failed: ", e.what());
  }
}

std::vector<double> smooth(const std::vector<double>& xs, std::size_t w) {
  if (w <= 1 || xs.empty()) return xs;
  std::vector<double> out(xs.size());
  for (std::size_t i = 0; i < xs.size(); ++i) {
    const std::size_t lo = i >= w - 1 ? i - (w - 1) : 0;
    double total = 0.0;
    for (std::size_t j = lo; j <= i; ++j) total += xs[j];
    out[i] = total / static_cast<double>(i - lo + 1);
  }
  return out;
}

}  // namespace tsc::bench
