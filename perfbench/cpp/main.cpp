// pairup_perfbench: runs one benchmark workload and prints its result.
//
//   pairup_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                    --work-dir DIR [--spans PATH]
//                    [--git-sha SHA] [--source-sha SHA]
//
// Prints a result record line ({"perfbench_record": {...}}: the stamp,
// every metric with its sample count, per-layer self times, failures) and
// then, as the last line, {"correct", "attempted", "failed", "metrics"} with
// the end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1).
// The traced run writes its spans as JSON lines to --spans.
#include <cstdio>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <thread>

#include "src/core/rollout_engine.hpp"
#include "src/nn/kernels.hpp"
#include "src/util/parse.hpp"
#include "trace.hpp"
#include "workload.hpp"

namespace {

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out + "\"";
}

std::string metrics_object(const std::vector<perfbench::Metric>& metrics,
                           bool with_samples) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const perfbench::Metric& m = metrics[i];
    out += (i ? "," : "") + json_string(m.name) +
           ":{\"value\":" + perfbench::json_number(m.value) +
           ",\"unit\":" + json_string(m.unit);
    if (with_samples) out += ",\"samples\":" + std::to_string(m.samples);
    out += "}";
  }
  return out + "}";
}

struct Args {
  perfbench::RunOptions run;
  std::string spans_path, git_sha = "unknown", source_sha = "unknown";
};

Args parse_args(int argc, char** argv) {
  Args args;
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.run.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      const auto seed = tsc::util::parse_u64(value);
      if (!seed) throw std::invalid_argument("--seed wants an unsigned integer");
      args.run.seed = *seed;
      have_seed = true;
    } else if (flag == "--seconds") {
      const auto seconds = tsc::util::parse_double(value);
      if (!seconds || *seconds <= 0.0)
        throw std::invalid_argument("--seconds wants a positive number");
      args.run.seconds = *seconds;
      have_seconds = true;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1")
        throw std::invalid_argument("--trace wants 0 or 1");
      args.run.trace = value == "1";
      have_trace = true;
    } else if (flag == "--work-dir") {
      args.run.work_dir = value;
    } else if (flag == "--spans") {
      args.spans_path = value;
    } else if (flag == "--git-sha") {
      args.git_sha = value;
    } else if (flag == "--source-sha") {
      args.source_sha = value;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace ||
      args.run.work_dir.empty())
    throw std::invalid_argument(
        "required: --workload --seed --seconds --trace --work-dir");
  return args;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  try {
    args = parse_args(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pairup_perfbench: %s\nworkloads:", e.what());
    for (const std::string& name : perfbench::workload_names())
      std::fprintf(stderr, " %s", name.c_str());
    std::fprintf(stderr, "\n");
    return 2;
  }

  perfbench::Tracer tracer(args.run.trace);
  perfbench::RunResult result;
  try {
    result = perfbench::run_workload(args.run, tracer);
    if (tracer.enabled() && !args.spans_path.empty())
      tracer.write_jsonl(args.spans_path);
    std::filesystem::remove_all(args.run.work_dir);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pairup_perfbench: %s\n", e.what());
    return 1;
  }

  const tsc::core::PairUpConfig defaults;
  std::string record = "{\"perfbench_record\":{";
  record += "\"workload\":" + json_string(args.run.workload);
  record += ",\"seed\":" + std::to_string(args.run.seed);
  record += ",\"trace\":" + std::to_string(args.run.trace ? 1 : 0);
  record += ",\"git_sha\":" + json_string(args.git_sha);
  record += ",\"source_sha256\":" + json_string(args.source_sha);
  record += ",\"build_type\":" + json_string(PERFBENCH_BUILD_TYPE);
  record += ",\"compiler\":" + json_string(PERFBENCH_COMPILER);
  record += ",\"kernel_tier\":" +
            json_string(tsc::nn::kernel_tier_name(defaults.kernel_tier));
  record += ",\"hardware_threads\":" +
            std::to_string(std::thread::hardware_concurrency());
  for (const auto& [key, value] : result.facts)
    record += "," + json_string(key) + ":" + value;
  record += ",\"end_to_end\":" + metrics_object(result.end_to_end, true);
  record += ",\"per_layer\":" + metrics_object(result.per_layer, true);
  if (tracer.enabled()) {
    record += ",\"self_time_s\":{";
    const auto self = tracer.self_seconds();
    for (std::size_t i = 0; i < self.size(); ++i)
      record += (i ? "," : "") + json_string(self[i].first) + ":" +
                perfbench::json_number(self[i].second);
    record += "}";
    const double span_cost = perfbench::Tracer::calibrate_span_cost_seconds();
    record += ",\"spans\":" + std::to_string(tracer.spans().size());
    record += ",\"span_cost_s\":" + perfbench::json_number(span_cost);
    record += ",\"span_recording_s\":" +
              perfbench::json_number(span_cost *
                                     static_cast<double>(tracer.spans().size()));
  }
  record += ",\"failures\":[";
  for (std::size_t i = 0; i < result.failures.size(); ++i)
    record += (i ? "," : "") + json_string(result.failures[i]);
  record += "]}}";
  std::printf("%s\n", record.c_str());

  const auto& metrics = args.run.trace ? result.per_layer : result.end_to_end;
  std::printf("{\"correct\":%s,\"attempted\":%zu,\"failed\":%zu,\"metrics\":%s}\n",
              result.failed == 0 ? "true" : "false", result.attempted,
              result.failed, metrics_object(metrics, false).c_str());
  return 0;
}
