#include "src/nn/kernels.hpp"

#include <atomic>
#include <cassert>
#include <cmath>
#include <cstdlib>

#include "src/nn/kernels_scalar.hpp"
#include "src/nn/tensor.hpp"
#include "src/util/log.hpp"

namespace tsc::nn {

// ---- SIMD translation-unit hooks --------------------------------------
// kernels_simd.cpp is only in the build when CMake's TSC_FAST_TIER knob is
// ON and the compiler accepted the ISA flags; it defines TSC_FAST_TIER_SIMD
// for THIS translation unit via a CMake compile definition so the two can
// never disagree about whether the symbols exist.
#if defined(TSC_FAST_TIER_SIMD)
namespace simd_detail {
bool runtime_supported();  // __builtin_cpu_supports for the compiled ISA
void exp_inplace(double* x, std::size_t n);
void tanh_inplace(double* x, std::size_t n);
void sigmoid_inplace(double* x, std::size_t n);
void gemm_fma(double* out, const double* a, const double* b, std::size_t m,
              std::size_t k, std::size_t n);
}  // namespace simd_detail
#endif

namespace {

bool force_scalar_from_env() {
  const char* raw = std::getenv("PAIRUP_KERNEL_FORCE_SCALAR");
  return raw != nullptr && raw[0] == '1' && raw[1] == '\0';
}

std::atomic<bool>& force_scalar_flag() {
  static std::atomic<bool> flag{force_scalar_from_env()};
  return flag;
}

}  // namespace

const char* kernel_tier_name(KernelTier tier) {
  return tier == KernelTier::kFast ? "fast" : "reference";
}

bool parse_kernel_tier(std::string_view text, KernelTier* out) {
  if (text == "reference" || text == "ref" || text == "0") {
    *out = KernelTier::kReference;
    return true;
  }
  if (text == "fast" || text == "1") {
    *out = KernelTier::kFast;
    return true;
  }
  return false;
}

KernelTier kernel_tier_from_env(KernelTier fallback) {
  const char* raw = std::getenv("PAIRUP_KERNEL_TIER");
  if (raw == nullptr) return fallback;
  KernelTier tier = fallback;
  if (!parse_kernel_tier(raw, &tier)) {
    log_warn("PAIRUP_KERNEL_TIER: unknown value '", raw, "', keeping '",
             kernel_tier_name(fallback), "'");
    return fallback;
  }
  return tier;
}

bool fast_tier_simd_compiled() {
#if defined(TSC_FAST_TIER_SIMD)
  return true;
#else
  return false;
#endif
}

bool fast_tier_simd_active() {
#if defined(TSC_FAST_TIER_SIMD)
  static const bool cpu_ok = simd_detail::runtime_supported();
  return cpu_ok && !force_scalar_flag().load(std::memory_order_relaxed);
#else
  return false;
#endif
}

void set_fast_tier_force_scalar(bool force) {
  force_scalar_flag().store(force, std::memory_order_relaxed);
}

bool fast_tier_force_scalar() {
  return force_scalar_flag().load(std::memory_order_relaxed);
}

// ---- element-wise kernels ---------------------------------------------

void exp_inplace_tier(double* x, std::size_t n, KernelTier tier) {
  if (tier == KernelTier::kReference) {
    for (std::size_t i = 0; i < n; ++i) x[i] = std::exp(x[i]);
    return;
  }
#if defined(TSC_FAST_TIER_SIMD)
  if (fast_tier_simd_active()) {
    simd_detail::exp_inplace(x, n);
    return;
  }
#endif
  for (std::size_t i = 0; i < n; ++i) x[i] = fast_detail::exp_scalar(x[i]);
}

void tanh_inplace_tier(double* x, std::size_t n, KernelTier tier) {
  if (tier == KernelTier::kReference) {
    for (std::size_t i = 0; i < n; ++i) x[i] = std::tanh(x[i]);
    return;
  }
#if defined(TSC_FAST_TIER_SIMD)
  if (fast_tier_simd_active()) {
    simd_detail::tanh_inplace(x, n);
    return;
  }
#endif
  for (std::size_t i = 0; i < n; ++i) x[i] = fast_detail::tanh_scalar(x[i]);
}

void sigmoid_inplace_tier(double* x, std::size_t n, KernelTier tier) {
  if (tier == KernelTier::kReference) {
    for (std::size_t i = 0; i < n; ++i) x[i] = 1.0 / (1.0 + std::exp(-x[i]));
    return;
  }
#if defined(TSC_FAST_TIER_SIMD)
  if (fast_tier_simd_active()) {
    simd_detail::sigmoid_inplace(x, n);
    return;
  }
#endif
  for (std::size_t i = 0; i < n; ++i) x[i] = fast_detail::sigmoid_scalar(x[i]);
}

double logistic(double x, KernelTier tier) {
  // Reference: the exact expression the message-squash sites historically
  // inlined — 1.0 / (1.0 + std::exp(-x)) — so the dedup is bit-identical.
  if (tier == KernelTier::kReference) return 1.0 / (1.0 + std::exp(-x));
  return fast_detail::sigmoid_scalar(x);
}

void matmul_into_fast(Tensor& out, const Tensor& a, const Tensor& b) {
  assert(a.rank() == 2 && b.rank() == 2);
  assert(a.shape()[1] == b.shape()[0]);
  out.reshape(a.shape()[0], b.shape()[1]);
  matmul_into_fast(out, a, b, 0, a.shape()[0]);
}

void matmul_into_fast(Tensor& out, const Tensor& a, const Tensor& b,
                      std::size_t row_begin, std::size_t row_end) {
  assert(a.rank() == 2 && b.rank() == 2);
  assert(a.shape()[1] == b.shape()[0]);
  assert(&out != &a && &out != &b);
  const std::size_t k = a.shape()[1], n = b.shape()[1];
  assert(out.rows() == a.shape()[0] && out.cols() == n);
  assert(row_begin <= row_end && row_end <= a.shape()[0]);
  double* po = out.data() + row_begin * n;
  const double* pa = a.data() + row_begin * k;
  const std::size_t m = row_end - row_begin;
#if defined(TSC_FAST_TIER_SIMD)
  if (fast_tier_simd_active()) {
    simd_detail::gemm_fma(po, pa, b.data(), m, k, n);
    return;
  }
#endif
  fast_detail::gemm_fma_rows(po, pa, b.data(), m, k, n);
}

}  // namespace tsc::nn
