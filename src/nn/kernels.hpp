// Kernel tiers: runtime-selectable math-kernel implementations for the
// workspace forwards (nn/inference.hpp).
//
//   kReference — the bit-exact kernels the repo has always run: libm
//     exp/tanh, separate multiply+add GEMM accumulation (no FMA, no
//     reassociation). Default everywhere; the training tape ONLY ever uses
//     this tier, so learning dynamics and checkpoints are untouched by the
//     tier knob.
//   kFast — SIMD-vectorized exp/tanh/sigmoid/softmax (polynomial range
//     reduction, AVX2/FMA when the CPU has them, scalar fallback otherwise)
//     and an FMA GEMM. NOT bit-identical to reference: results are
//     tolerance-bounded by the error budgets below, pinned by
//     tests/test_kernel_tiers.cpp and the bench_micro accuracy sweep, and
//     documented in the README determinism matrix.
//
// Dispatch is runtime: the SIMD translation unit (kernels_simd.cpp) is
// compiled with explicit ISA flags behind the TSC_FAST_TIER CMake knob, and
// is only entered when __builtin_cpu_supports agrees at runtime — on other
// CPUs (or with TSC_FAST_TIER=OFF, or under the force-scalar override) the
// fast tier runs the portable scalar fallback, which is written
// fma-for-fma identical to the SIMD lanes and therefore produces
// bit-identical fast-tier results on every box.
#pragma once

#include <cstddef>
#include <string_view>

namespace tsc::nn {

class Tensor;

enum class KernelTier {
  kReference,  // bit-exact legacy kernels (default)
  kFast,       // tolerance-bounded SIMD/FMA kernels
};

// Human-readable name ("reference" / "fast").
const char* kernel_tier_name(KernelTier tier);

// Parses "reference"/"ref"/"0" and "fast"/"1" (case-sensitive). Returns
// false (leaving *out untouched) on anything else.
bool parse_kernel_tier(std::string_view text, KernelTier* out);

// Reads PAIRUP_KERNEL_TIER; returns `fallback` when unset, and warns +
// returns `fallback` when set to an unparsable value.
KernelTier kernel_tier_from_env(KernelTier fallback);

// True when the binary contains the SIMD fast-tier kernels at all
// (TSC_FAST_TIER=ON and the compiler accepted the ISA flags).
bool fast_tier_simd_compiled();
// True when fast-tier calls will actually take the SIMD path right now:
// compiled in, CPU supports the required features, and the force-scalar
// override is off.
bool fast_tier_simd_active();

// Force the fast tier onto the portable scalar fallback (also settable via
// the environment knob PAIRUP_KERNEL_FORCE_SCALAR=1, read once at startup).
// Used by tests/bench to pin scalar-vs-SIMD bit-identity; safe to flip from
// one thread while no kernel is mid-flight.
void set_fast_tier_force_scalar(bool force);
bool fast_tier_force_scalar();

// ---- fast-tier error budgets (pinned by test_kernel_tiers + bench_micro) --
// Transcendentals: max ULP distance vs the libm result over the live input
// domains (gate pre-activations, softmax-shifted logits, message
// pre-squash; measured worst cases are exp 1, tanh 2, sigmoid 4 — budgets
// leave ~2x headroom for other libm implementations). GEMM: per-element
// |fast - reference| normalized by k * max|a| * max|b| — a condition-free
// scale, because element-relative error is unbounded under cancellation
// while the absolute error of both kernels is bounded by the accumulated
// magnitude (measured worst ~9e-17, i.e. below one eps of the scale).
inline constexpr double kFastExpMaxUlp = 2.0;
inline constexpr double kFastSigmoidMaxUlp = 6.0;
inline constexpr double kFastTanhMaxUlp = 4.0;
inline constexpr double kFastGemmMaxNormErr = 1e-15;

// ---- element-wise kernels, tier-dispatched ----
// Reference tier: std::exp / std::tanh / 1/(1+std::exp(-x)) loops, bitwise
// identical to the hand-written loops they replaced. Fast tier: vectorized.
void exp_inplace_tier(double* x, std::size_t n, KernelTier tier);
void tanh_inplace_tier(double* x, std::size_t n, KernelTier tier);
void sigmoid_inplace_tier(double* x, std::size_t n, KernelTier tier);

// Shared message-squash entry point: the logistic 1/(1+e^{-x}).
// Deduplicates the hand-rolled squash in core/fleet_engine.cpp and
// core/rollout_engine.cpp; reference tier reproduces their exact expression
// bit for bit.
double logistic(double x, KernelTier tier);

// FMA GEMM: out [m,n] = a [m,k] @ b [k,n], ascending-k fused multiply-add
// accumulation per output element (tile-shape independent, so scalar and
// SIMD agree bitwise). Fast-tier sibling of tensor.cpp's
// matmul_into_batched; requires out/a/b preshaped, out disjoint from a/b.
void matmul_into_fast(Tensor& out, const Tensor& a, const Tensor& b);
/// Rows [row_begin, row_end) of matmul_into_fast, into an `out` already
/// shaped [m,n] (per-element chains, so any row split is bit-identical).
void matmul_into_fast(Tensor& out, const Tensor& a, const Tensor& b,
                      std::size_t row_begin, std::size_t row_end);

}  // namespace tsc::nn
