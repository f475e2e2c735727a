#!/usr/bin/env bash
# Builds and runs the concurrency-sensitive test suites under ThreadSanitizer
# and then AddressSanitizer+UBSan. The sanitizer build configuration lives in
# CMakePresets.json (presets `tsan` and `asan-ubsan`, both setting the
# TSC_SANITIZE cache knob from the root CMakeLists), so this script and
# manual `cmake --preset ...` invocations share one source of truth. Each
# preset keeps its own build tree (build-san-<preset>) so incremental
# rebuilds stay cheap; only the parallel test binaries are built, and ctest
# is filtered to the suites that exercise threads or raw-pointer hot paths
# (ctest --no-tests=error makes a filter that matches nothing fail):
#
#   ThreadPool / MergeRollouts / ParallelRollout / TscEnvClone   (rollouts)
#   ParallelUpdate / UpdateModes / OptimizerCheckpoint / TrainerResume
#                          (updates: sharded minibatches on the thread pool)
#   InferencePath          (inference workspaces and the tape oracle over
#                           collected rollouts)
#   FleetBatched           (lockstep fleet engine: batched GEMM kernels, slab
#                           state, baseline fleet eval — single-threaded but
#                           heavy on raw-pointer row packing)
#   InvariantSeeding       (replica-count-invariant seeding of the fleet)
#   SimHotPath             (single-threaded, but the lazy-wait/active-set
#                           pointer bookkeeping is what ASan/UBSan are for)
#   SensorSnapshot         (head-epoch/pressure snapshot invalidation and the
#                           CSR dependency walk — raw index arithmetic)
#   SensorModel            (env observation cache, obs_into_row raw-pointer
#                           row packing, compat-flag semantics)
#   KernelTiers            (SIMD fast-tier kernels: intrinsic lane loops,
#                           raw-pointer tails, the force-scalar dispatch
#                           atomic, and fast-tier end-to-end episodes)
#   BackwardPath           (fused tape-free backward: per-shard workspace
#                           slot reuse, raw-pointer gradient sinks shared
#                           with the sharded-update worker threads)
#   RunStore / FlatJson / Proc / AtomicCheckpoint / SweepExpansion /
#   FleetEndToEnd          (fleet orchestrator: fork/exec + waitpid process
#                           lifecycle, journal replay, atomic-rename
#                           checkpoint durability — the end-to-end suites
#                           spawn real SIGKILL'd worker processes)
#
# Usage: tools/run_sanitized_tests.sh [source-dir]
# Exits non-zero on the first sanitizer failure.
set -euo pipefail

SRC_DIR="${1:-$(cd "$(dirname "$0")/.." && pwd)}"
FILTER='ThreadPool|MergeRollouts|ParallelRollout|TscEnvClone|ParallelUpdate|UpdateModes|OptimizerCheckpoint|TrainerResume|InferencePath|FleetBatched|InvariantSeeding|SimHotPath|SensorSnapshot|SensorModel|KernelTiers|RunStore|FlatJson|Proc|AtomicCheckpoint|SweepExpansion|FleetEndToEnd|BackwardPath'
TARGETS=(test_parallel_rollout test_parallel_update test_update_modes test_backward_path test_inference test_kernel_tiers test_invariant_seeding test_sim_hotpath test_sensor_model test_fleet_orchestrator tsc_fleet)

run_one() {
  local preset="$1"
  local build_dir="$SRC_DIR/build-san-$preset"
  echo "=== sanitizer preset: $preset (build dir: $build_dir) ==="
  (cd "$SRC_DIR" && cmake --preset "$preset")
  cmake --build "$build_dir" -j --target "${TARGETS[@]}"
  (cd "$build_dir" && ctest -R "$FILTER" --no-tests=error --output-on-failure)
  echo "=== sanitizer preset: $preset OK ==="
}

run_one tsan
run_one asan-ubsan

echo "All sanitized test runs passed."
