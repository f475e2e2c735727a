#!/usr/bin/env bash
# Builds and runs the concurrency-sensitive test suites under ThreadSanitizer
# and then AddressSanitizer+UBSan, and the kernel suites once more in a
# portable build. The build configurations live in CMakePresets.json
# (presets `tsan` and `asan-ubsan`, both setting the TSC_SANITIZE cache knob
# from the root CMakeLists, and `portable`), so this script and manual
# `cmake --preset ...` invocations share one source of truth. Each preset
# keeps its own build tree (build-san-<preset>, build-portable) so
# incremental rebuilds stay cheap; only the listed test binaries are built,
# and ctest is filtered to the suites below (ctest --no-tests=error makes a
# filter that matches nothing fail).
#
# Sanitizer presets — suites that exercise threads or raw-pointer hot paths:
#
#   ThreadPool / MergeRollouts / ParallelRollout / TscEnvClone   (rollouts)
#   ParallelUpdate / ShardedUpdate / OptimizerCheckpoint / TrainerResume
#                          (updates: sharded minibatches on the thread pool)
#   ThreadTeam / UpdateTeam / SplitKernels / TrainingDiverged /
#   PackedSampleBlock      (the default update's thread team: spin-then-futex
#                           mailboxes and joins, parking, exception hand-off;
#                           actor and critic crews splitting every layer by
#                           rows and output tiles at team sizes 1-4; the
#                           non-finite guard; packed-row width checks)
#   InferencePath          (workspace forwards against the tape oracle,
#                           over collected rollouts and at trained weights)
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
#   BackwardKernels / BackwardPath
#                          (fused tape-free backward: strided GEMM tiles and
#                           their ragged tails, per-shard workspace slot
#                           reuse, raw-pointer gradient sinks shared with the
#                           sharded-update worker threads)
#   RunStore / FlatJson / Proc / AtomicCheckpoint / SweepExpansion /
#   FleetEndToEnd          (fleet orchestrator: fork/exec + waitpid process
#                           lifecycle, journal replay, atomic-rename
#                           checkpoint durability — the end-to-end suites
#                           spawn real SIGKILL'd worker processes)
#
# Portable preset (TSC_NATIVE_TENSOR_KERNELS=OFF, TSC_FAST_TIER=OFF): the
# default build compiles the AVX-512 GEMM tiles and SIMD fast tier on hosts
# that have them, so only this build compiles and runs the portable 4-row
# GEMM tile and the scalar fast tier against the same tape oracles, and the
# team's row-range splits of the portable tile and its ragged tails:
#
#   BackwardKernels / BackwardPath / InferencePath / KernelTiers /
#   SplitKernels / UpdateTeam
#
# Usage: tools/run_sanitized_tests.sh [source-dir]
# Exits non-zero on the first sanitizer failure.
set -euo pipefail

SRC_DIR="${1:-$(cd "$(dirname "$0")/.." && pwd)}"
FILTER='ThreadPool|MergeRollouts|ParallelRollout|TscEnvClone|ParallelUpdate|ShardedUpdate|OptimizerCheckpoint|TrainerResume|InferencePath|FleetBatched|InvariantSeeding|SimHotPath|SensorSnapshot|SensorModel|KernelTiers|RunStore|FlatJson|Proc|AtomicCheckpoint|SweepExpansion|FleetEndToEnd|BackwardKernels|BackwardPath|ThreadTeam|UpdateTeam|SplitKernels|TrainingDiverged|PackedSampleBlock'
TARGETS=(test_parallel_rollout test_parallel_update test_sharded_update test_update_team test_backward_kernels test_backward_path test_inference test_kernel_tiers test_invariant_seeding test_sim_hotpath test_sensor_model test_fleet_orchestrator tsc_fleet)
PORTABLE_FILTER='BackwardKernels|BackwardPath|InferencePath|KernelTiers|SplitKernels|UpdateTeam'
PORTABLE_TARGETS=(test_backward_kernels test_backward_path test_inference test_kernel_tiers test_update_team)

# run_one <preset> <build-dir> <ctest-filter> <target>...
run_one() {
  local preset="$1" build_dir="$2" filter="$3"
  shift 3
  echo "=== preset: $preset (build dir: $build_dir) ==="
  (cd "$SRC_DIR" && cmake --preset "$preset")
  cmake --build "$build_dir" -j "$(nproc)" --target "$@"
  (cd "$build_dir" && ctest -R "$filter" --no-tests=error --output-on-failure)
  echo "=== preset: $preset OK ==="
}

run_one tsan "$SRC_DIR/build-san-tsan" "$FILTER" "${TARGETS[@]}"
run_one asan-ubsan "$SRC_DIR/build-san-asan-ubsan" "$FILTER" "${TARGETS[@]}"
run_one portable "$SRC_DIR/build-portable" "$PORTABLE_FILTER" "${PORTABLE_TARGETS[@]}"

echo "All sanitized and portable test runs passed."
