// The benchmark's workloads: end-to-end PairUpLight training on a fixed
// scenario, then greedy deployment control of the trained policy, driven
// only through the libraries' public functions.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "trace.hpp"

namespace perfbench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;  ///< workload seed: deployment traffic, replay draws
  double seconds = 30.0;   ///< minimum measured wall time of the run
  bool trace = false;      ///< traced run: per-layer spans and replays
  std::string work_dir;    ///< scratch directory for checkpoints
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::size_t samples = 0;  ///< measurements the value summarizes
};

struct RunResult {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> failures;  ///< one line per failed operation
  std::vector<Metric> end_to_end;     ///< reported by the untraced run
  std::vector<Metric> per_layer;      ///< reported by the traced run
  /// Scenario and protocol facts for the result record, as (key, JSON value).
  std::vector<std::pair<std::string, std::string>> facts;
};

std::vector<std::string> workload_names();

/// `v` with all 17 significant digits, or null when not finite.
std::string json_number(double v);

/// Runs one workload. Checks on the program's outputs count as operations:
/// a failed check increments `failed` and is described in `failures`.
/// Throws only on an error that makes the run meaningless (bad workload
/// name, unwritable work directory).
RunResult run_workload(const RunOptions& options, Tracer& tracer);

}  // namespace perfbench
