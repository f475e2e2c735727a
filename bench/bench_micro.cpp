// Microbenchmarks for the substrates (google-benchmark): simulator step
// throughput, tensor/tape costs, the fused update's backward GEMMs,
// actor/critic forward passes, PPO update minibatches, scenario
// construction, the kernel-tier math kernels, and the fork/join cost of the
// update's thread team against a ThreadPool round trip (with heap
// allocations per join, counted by the operator new replacement below).
// These guard the design decisions in DESIGN.md section 4 (tape autodiff
// overhead, link-queue step cost) and section 10 (fast-tier error budgets).
//
// `bench_micro --smoke` skips google-benchmark and runs the fast-tier
// accuracy sweep instead: max ULP vs libm per transcendental (plus the
// normalized GEMM bound) against the budgets in nn/kernels.hpp, exiting
// nonzero on any violation. Registered as a ctest so the budgets are
// enforced by the default test run.
#include <benchmark/benchmark.h>

#include <atomic>
#include <bit>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <new>
#include <string_view>
#include <vector>

#include "src/core/actor.hpp"
#include "src/core/critic.hpp"
#include "src/nn/backward.hpp"
#include "src/nn/gat.hpp"
#include "src/nn/kernels.hpp"
#include "src/nn/layers.hpp"
#include "src/nn/optim.hpp"
#include "src/rl/ppo.hpp"
#include "src/scenarios/flow_patterns.hpp"
#include "src/scenarios/grid.hpp"
#include "src/scenarios/monaco.hpp"
#include "src/sim/simulator.hpp"
#include "src/util/thread_pool.hpp"
#include "src/util/thread_team.hpp"

// Every heap allocation of the process, counted for the join-cost rows.
// (GCC flags free() on operator new's result once these replacements are
// inlined; here both sides are malloc/free.)
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
namespace {
std::atomic<std::size_t> g_heap_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_heap_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t size, std::align_val_t align) {
  g_heap_allocations.fetch_add(1, std::memory_order_relaxed);
  const std::size_t a = static_cast<std::size_t>(align);
  if (void* p = std::aligned_alloc(a, (size + a - 1) / a * a)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace {

using namespace tsc;

void BM_TensorMatmul(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(1);
  nn::Tensor a = nn::Tensor::zeros(n, n), b = nn::Tensor::zeros(n, n);
  for (std::size_t i = 0; i < a.size(); ++i) a[i] = rng.normal();
  for (std::size_t i = 0; i < b.size(); ++i) b[i] = rng.normal();
  for (auto _ : state) {
    auto c = nn::matmul(a, b);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * n * n * n);
}
BENCHMARK(BM_TensorMatmul)->Arg(16)->Arg(64)->Arg(128);

// The three matmul variants at the shapes the RL stack actually runs:
// [batch, in] x [in, hidden] forwards (36 agents on the 6x6 grid, 128-row
// PPO minibatches) and their backward-pass transposes. Args: {m, k, n} for
// an [m,k] x [k,n] product (the _tn/_nt variants transpose their stored
// operand to match).
void BM_TensorMatmulRect(benchmark::State& state) {
  const auto m = static_cast<std::size_t>(state.range(0));
  const auto k = static_cast<std::size_t>(state.range(1));
  const auto n = static_cast<std::size_t>(state.range(2));
  Rng rng(1);
  nn::Tensor a = nn::Tensor::zeros(m, k), b = nn::Tensor::zeros(k, n);
  for (std::size_t i = 0; i < a.size(); ++i) a[i] = rng.normal();
  for (std::size_t i = 0; i < b.size(); ++i) b[i] = rng.normal();
  for (auto _ : state) {
    auto c = nn::matmul(a, b);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * m * k * n);
}
BENCHMARK(BM_TensorMatmulRect)->Args({36, 18, 64})->Args({128, 64, 64});

void BM_TensorMatmulNt(benchmark::State& state) {
  const auto m = static_cast<std::size_t>(state.range(0));
  const auto k = static_cast<std::size_t>(state.range(1));
  const auto n = static_cast<std::size_t>(state.range(2));
  Rng rng(1);
  nn::Tensor a = nn::Tensor::zeros(m, k), b = nn::Tensor::zeros(n, k);
  for (std::size_t i = 0; i < a.size(); ++i) a[i] = rng.normal();
  for (std::size_t i = 0; i < b.size(); ++i) b[i] = rng.normal();
  for (auto _ : state) {
    auto c = nn::matmul_nt(a, b);  // a * b^T: grad wrt layer input
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * m * k * n);
}
BENCHMARK(BM_TensorMatmulNt)->Args({36, 64, 18})->Args({128, 64, 64});

void BM_TensorMatmulTn(benchmark::State& state) {
  const auto m = static_cast<std::size_t>(state.range(0));
  const auto k = static_cast<std::size_t>(state.range(1));
  const auto n = static_cast<std::size_t>(state.range(2));
  Rng rng(1);
  nn::Tensor a = nn::Tensor::zeros(k, m), b = nn::Tensor::zeros(k, n);
  for (std::size_t i = 0; i < a.size(); ++i) a[i] = rng.normal();
  for (std::size_t i = 0; i < b.size(); ++i) b[i] = rng.normal();
  for (auto _ : state) {
    auto c = nn::matmul_tn(a, b);  // a^T * b: grad wrt layer weights
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * m * k * n);
}
BENCHMARK(BM_TensorMatmulTn)->Args({18, 36, 64})->Args({64, 128, 64});

// The fused PPO update's two backward GEMMs (nn/backward.hpp), on the tiled
// accumulate kernel, at the shapes one 128-row minibatch runs on the 6x6
// grid (hidden 64, 4 * hidden = 256 LSTM gate columns, 8 policy logits,
// 18 actor inputs). Args {m, k, n}: nt is dx [m,k] += dy [m,n] @ w [k,n]^T,
// tn is dw [k,n] += x [m,k]^T @ dy [m,n]. Reported in ms per call and
// GFLOP/s (2*m*k*n flops per call).
void set_gemm_counters(benchmark::State& state, std::size_t m, std::size_t k,
                       std::size_t n) {
  state.counters["GFLOP/s"] = benchmark::Counter(
      2e-9 * static_cast<double>(m * k * n),
      benchmark::Counter::kIsIterationInvariantRate);
}

void BM_BackwardMatmulNt(benchmark::State& state) {
  const auto m = static_cast<std::size_t>(state.range(0));
  const auto k = static_cast<std::size_t>(state.range(1));
  const auto n = static_cast<std::size_t>(state.range(2));
  Rng rng(1);
  nn::Tensor dy = nn::Tensor::zeros(m, n), w = nn::Tensor::zeros(k, n);
  for (double& v : dy.values()) v = rng.normal();
  for (double& v : w.values()) v = rng.normal();
  nn::Tensor dx = nn::Tensor::zeros(m, k);
  nn::Workspace ws;
  for (auto _ : state) {
    ws.begin_pass();  // reuse the W^T slot, as the update does
    nn::backward_matmul_nt_acc(ws, dx, dy, w);
    benchmark::DoNotOptimize(dx.data());
    benchmark::ClobberMemory();
  }
  set_gemm_counters(state, m, k, n);
}
BENCHMARK(BM_BackwardMatmulNt)
    ->Args({128, 64, 256})  // LSTM input gradient: dgates @ w_x^T
    ->Args({128, 64, 8})    // policy head: dlogits @ w^T
    ->Unit(benchmark::kMillisecond);

void BM_BackwardMatmulTn(benchmark::State& state) {
  const auto m = static_cast<std::size_t>(state.range(0));
  const auto k = static_cast<std::size_t>(state.range(1));
  const auto n = static_cast<std::size_t>(state.range(2));
  Rng rng(1);
  nn::Tensor x = nn::Tensor::zeros(m, k), dy = nn::Tensor::zeros(m, n);
  for (double& v : x.values()) v = rng.normal();
  for (double& v : dy.values()) v = rng.normal();
  nn::Tensor dw = nn::Tensor::zeros(k, n);
  for (auto _ : state) {
    nn::backward_matmul_tn_acc(dw, x, dy);
    benchmark::DoNotOptimize(dw.data());
    benchmark::ClobberMemory();
  }
  set_gemm_counters(state, m, k, n);
}
BENCHMARK(BM_BackwardMatmulTn)
    ->Args({128, 64, 256})  // LSTM weight gradients: x^T @ dgates
    ->Args({128, 18, 64})   // actor embed weight gradient: input^T @ dembed
    ->Unit(benchmark::kMillisecond);

void BM_MlpForwardBackward(benchmark::State& state) {
  const auto batch = static_cast<std::size_t>(state.range(0));
  Rng rng(2);
  nn::Mlp mlp({32, 64, 64, 4}, rng);
  nn::Tensor x = nn::Tensor::zeros(batch, 32);
  for (std::size_t i = 0; i < x.size(); ++i) x[i] = rng.normal();
  for (auto _ : state) {
    mlp.zero_grad();
    nn::Tape tape;
    nn::Var xv = tape.constant(x);
    nn::Var loss = tape.mean(tape.square(mlp.forward(tape, xv)));
    tape.backward(loss);
    benchmark::DoNotOptimize(tape.value(loss)[0]);
  }
}
BENCHMARK(BM_MlpForwardBackward)->Arg(1)->Arg(36)->Arg(128);

void BM_LstmStep(benchmark::State& state) {
  Rng rng(3);
  nn::LstmCell cell(32, 64, rng);
  nn::Tensor x = nn::Tensor::zeros(36, 32);
  for (auto _ : state) {
    nn::Tape tape;
    auto s = cell.zero_state(tape, 36);
    auto next = cell.forward(tape, tape.constant(x), s.h, s.c);
    benchmark::DoNotOptimize(tape.value(next.h).data());
  }
}
BENCHMARK(BM_LstmStep);

void BM_GatForward(benchmark::State& state) {
  Rng rng(4);
  nn::GatLayer gat(32, 32, 5, rng);
  nn::Tensor entities = nn::Tensor::zeros(5, 32);
  for (std::size_t i = 0; i < entities.size(); ++i) entities[i] = rng.normal();
  const std::vector<bool> mask = {true, true, true, true, false};
  for (auto _ : state) {
    nn::Tape tape;
    auto out = gat.forward(tape, tape.constant(entities), mask);
    benchmark::DoNotOptimize(tape.value(out).data());
  }
}
BENCHMARK(BM_GatForward);

void BM_CoordinatedActorForward36(benchmark::State& state) {
  Rng rng(5);
  core::CoordinatedActor actor(17, 1, 64, 8, rng);
  nn::Tensor input = nn::Tensor::zeros(36, 18);
  nn::Tensor h = nn::Tensor::zeros(36, 64), c = nn::Tensor::zeros(36, 64);
  const std::vector<std::size_t> phases(36, 4);
  for (auto _ : state) {
    nn::Tape tape;
    auto out = actor.forward(tape, tape.constant(input), tape.constant(h),
                             tape.constant(c), phases);
    benchmark::DoNotOptimize(tape.value(out.logits).data());
  }
}
BENCHMARK(BM_CoordinatedActorForward36);

void BM_PpoMinibatchUpdate(benchmark::State& state) {
  const std::size_t batch = 128;
  Rng rng(6);
  core::CoordinatedActor actor(17, 1, 64, 8, rng);
  core::CentralizedCritic critic(41, 64, rng);
  nn::Tensor input = nn::Tensor::zeros(batch, 18);
  nn::Tensor vinput = nn::Tensor::zeros(batch, 41);
  nn::Tensor h = nn::Tensor::zeros(batch, 64), c = nn::Tensor::zeros(batch, 64);
  std::vector<std::size_t> phases(batch, 4), actions(batch, 1);
  std::vector<double> old_logp(batch, -1.4), adv(batch, 0.3), ret(batch, 1.0);
  rl::PpoConfig config;
  auto params = actor.parameters();
  auto cp = critic.parameters();
  params.insert(params.end(), cp.begin(), cp.end());
  nn::Adam adam(params);
  for (auto _ : state) {
    actor.zero_grad();
    critic.zero_grad();
    nn::Tape tape;
    auto aout = actor.forward(tape, tape.constant(input), tape.constant(h),
                              tape.constant(c), phases);
    nn::Var logp = tape.gather_cols(tape.log_softmax_rows(aout.logits), actions);
    nn::Var entropy = rl::policy_entropy(tape, aout.logits);
    auto cout_ = critic.forward(tape, tape.constant(vinput), tape.constant(h),
                                tape.constant(c));
    nn::Var loss = rl::ppo_total_loss(tape, logp, entropy, cout_.value, old_logp,
                                      adv, ret, config);
    tape.backward(loss);
    nn::clip_grad_norm(params, 0.5);
    adam.step();
    benchmark::DoNotOptimize(tape.value(loss)[0]);
  }
}
BENCHMARK(BM_PpoMinibatchUpdate);

// ---------------------------------------------------------------------------
// Fork/join cost of the update's threads. ThreadPoolRoundTrip is one
// util::ThreadPool(1) submit + future.get() of an empty task: the round
// trip the update's one extra thread (the former UpdateLane) paid twice per
// minibatch. TeamPhase/N is one empty phase over all N threads of a
// util::ThreadTeam, the join the update now pays per layer kernel.
// allocs_per_join counts heap allocations per join, on every thread.

void BM_JoinThreadPoolRoundTrip(benchmark::State& state) {
  util::ThreadPool pool(1);
  pool.submit([] {}).get();
  const std::size_t before = g_heap_allocations.load();
  for (auto _ : state) pool.submit([] {}).get();
  state.counters["allocs_per_join"] = benchmark::Counter(
      static_cast<double>(g_heap_allocations.load() - before) /
      static_cast<double>(state.iterations()));
}
BENCHMARK(BM_JoinThreadPoolRoundTrip)->UseRealTime();

void BM_JoinTeamPhase(benchmark::State& state) {
  util::ThreadTeam team(static_cast<std::size_t>(state.range(0)));
  team.all().run([](std::size_t) {});
  const std::size_t before = g_heap_allocations.load();
  for (auto _ : state) team.all().run([](std::size_t) {});
  state.counters["allocs_per_join"] = benchmark::Counter(
      static_cast<double>(g_heap_allocations.load() - before) /
      static_cast<double>(state.iterations()));
  team.park();
}
BENCHMARK(BM_JoinTeamPhase)->Arg(2)->Arg(4)->UseRealTime();

// ---------------------------------------------------------------------------
// Kernel tiers (nn/kernels.hpp): reference vs fast transcendentals over the
// LSTM gate-row layout (36 agents x 4x64 gate pre-activations, the 6x6
// fleet's hot shape) and the fleet GEMM. items/s in the reports is
// elements/s, so `1 / items_per_second` is the ns/element column the
// determinism matrix quotes. Arg: 0 = reference tier, 1 = fast tier.

nn::KernelTier tier_arg(const benchmark::State& state) {
  return state.range(0) == 0 ? nn::KernelTier::kReference
                             : nn::KernelTier::kFast;
}

std::vector<double> gate_rows(std::size_t n, double lo, double hi) {
  Rng rng(7);
  std::vector<double> xs(n);
  for (double& x : xs) x = rng.uniform(lo, hi);
  return xs;
}

void BM_KernelExp(benchmark::State& state) {
  const nn::KernelTier tier = tier_arg(state);
  const auto src = gate_rows(36 * 4 * 64, -20.0, 0.0);  // softmax-shifted
  std::vector<double> buf(src.size());
  for (auto _ : state) {
    std::memcpy(buf.data(), src.data(), src.size() * sizeof(double));
    nn::exp_inplace_tier(buf.data(), buf.size(), tier);
    benchmark::DoNotOptimize(buf.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(src.size()));
  state.SetLabel(nn::kernel_tier_name(tier));
}
BENCHMARK(BM_KernelExp)->Arg(0)->Arg(1);

void BM_KernelTanh(benchmark::State& state) {
  const nn::KernelTier tier = tier_arg(state);
  const auto src = gate_rows(36 * 4 * 64, -8.0, 8.0);
  std::vector<double> buf(src.size());
  for (auto _ : state) {
    std::memcpy(buf.data(), src.data(), src.size() * sizeof(double));
    nn::tanh_inplace_tier(buf.data(), buf.size(), tier);
    benchmark::DoNotOptimize(buf.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(src.size()));
  state.SetLabel(nn::kernel_tier_name(tier));
}
BENCHMARK(BM_KernelTanh)->Arg(0)->Arg(1);

void BM_KernelSigmoid(benchmark::State& state) {
  const nn::KernelTier tier = tier_arg(state);
  const auto src = gate_rows(36 * 4 * 64, -8.0, 8.0);
  std::vector<double> buf(src.size());
  for (auto _ : state) {
    std::memcpy(buf.data(), src.data(), src.size() * sizeof(double));
    nn::sigmoid_inplace_tier(buf.data(), buf.size(), tier);
    benchmark::DoNotOptimize(buf.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(src.size()));
  state.SetLabel(nn::kernel_tier_name(tier));
}
BENCHMARK(BM_KernelSigmoid)->Arg(0)->Arg(1);

void BM_KernelGemm(benchmark::State& state) {
  // The fleet LSTM gate GEMM on the 6x6 grid at num_envs = 4:
  // [144, 64] x [64, 256]. Arg 0 = reference batched kernel, 1 = fast FMA.
  const nn::KernelTier tier = tier_arg(state);
  Rng rng(8);
  nn::Tensor a = nn::Tensor::zeros(144, 64), b = nn::Tensor::zeros(64, 256);
  for (double& x : a.values()) x = rng.normal();
  for (double& x : b.values()) x = rng.normal();
  nn::Tensor c;
  for (auto _ : state) {
    if (tier == nn::KernelTier::kFast)
      nn::matmul_into_fast(c, a, b);
    else
      nn::matmul_into_batched(c, a, b);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          144 * 64 * 256);
  state.SetLabel(nn::kernel_tier_name(tier));
}
BENCHMARK(BM_KernelGemm)->Arg(0)->Arg(1);

void BM_SimulatorStepGrid(benchmark::State& state) {
  const auto rows = static_cast<std::size_t>(state.range(0));
  scenario::GridConfig grid_config;
  grid_config.rows = rows;
  grid_config.cols = rows;
  scenario::GridScenario grid(grid_config);
  scenario::FlowPatternConfig flow_config;
  flow_config.time_scale = 0.1;
  auto flows =
      scenario::make_flow_pattern(grid, scenario::FlowPattern::kPattern1,
                                  flow_config);
  sim::Simulator sim(&grid.net(), flows, sim::SimConfig{}, 1);
  sim.step_seconds(120.0);  // warm up into the loaded regime
  for (auto _ : state) {
    sim.step();
    benchmark::DoNotOptimize(sim.network_halting());
  }
}
BENCHMARK(BM_SimulatorStepGrid)->Arg(4)->Arg(6);

void BM_GridBuild6x6(benchmark::State& state) {
  for (auto _ : state) {
    scenario::GridScenario grid(scenario::GridConfig{});
    benchmark::DoNotOptimize(grid.net().num_movements());
  }
}
BENCHMARK(BM_GridBuild6x6);

void BM_MonacoBuild(benchmark::State& state) {
  for (auto _ : state) {
    scenario::MonacoScenario monaco;
    benchmark::DoNotOptimize(monaco.net().num_movements());
  }
}
BENCHMARK(BM_MonacoBuild);

void BM_ShortestRoute(benchmark::State& state) {
  scenario::GridScenario grid(scenario::GridConfig{});
  for (auto _ : state) {
    auto route = grid.route(grid.west_terminal(0), grid.east_terminal(5));
    benchmark::DoNotOptimize(route.size());
  }
}
BENCHMARK(BM_ShortestRoute);

// ---------------------------------------------------------------------------
// --smoke: fast-tier accuracy sweep vs libm, gated on the budgets in
// nn/kernels.hpp. One row per kernel: worst ULP (or normalized error for the
// GEMM), the budget, a rough ns/element, and PASS/FAIL.

std::int64_t ordered_bits(double x) {
  const std::int64_t i = std::bit_cast<std::int64_t>(x);
  return i >= 0 ? i : std::numeric_limits<std::int64_t>::min() - i;
}

double ulp_distance(double a, double b) {
  if (a == b) return 0.0;
  if (std::isnan(a) || std::isnan(b)) return std::numeric_limits<double>::infinity();
  return std::abs(static_cast<double>(ordered_bits(a) - ordered_bits(b)));
}

struct SmokeRow {
  const char* kernel;
  double worst;    // max ULP (transcendentals) or normalized error (GEMM)
  double budget;
  double ns_per_element;
};

template <typename Oracle>
SmokeRow sweep_kernel(const char* name,
                      void (*kernel)(double*, std::size_t, nn::KernelTier),
                      double lo, double hi, double budget, Oracle oracle) {
  Rng rng(11);
  const std::size_t n = 200000;
  std::vector<double> xs(n);
  for (double& x : xs) x = rng.uniform(lo, hi);
  std::vector<double> ys = xs;
  kernel(ys.data(), n, nn::KernelTier::kFast);
  double worst = 0.0;
  for (std::size_t i = 0; i < n; ++i)
    worst = std::max(worst, ulp_distance(ys[i], oracle(xs[i])));

  std::vector<double> buf = xs;
  const auto t0 = std::chrono::steady_clock::now();
  for (int rep = 0; rep < 10; ++rep) {
    std::memcpy(buf.data(), xs.data(), n * sizeof(double));
    kernel(buf.data(), n, nn::KernelTier::kFast);
  }
  const auto t1 = std::chrono::steady_clock::now();
  const double ns =
      std::chrono::duration<double, std::nano>(t1 - t0).count() / (10.0 * n);
  return {name, worst, budget, ns};
}

SmokeRow sweep_gemm() {
  Rng rng(12);
  const std::size_t m = 144, k = 64, n = 256;
  nn::Tensor a = nn::Tensor::zeros(m, k), b = nn::Tensor::zeros(k, n);
  for (double& x : a.values()) x = rng.normal();
  for (double& x : b.values()) x = rng.normal();
  double amax = 0.0, bmax = 0.0;
  for (double x : a.values()) amax = std::max(amax, std::abs(x));
  for (double x : b.values()) bmax = std::max(bmax, std::abs(x));

  nn::Tensor ref, fast;
  nn::matmul_into(ref, a, b);
  nn::matmul_into_fast(fast, a, b);
  double worst = 0.0;
  for (std::size_t i = 0; i < ref.size(); ++i)
    worst = std::max(worst, std::abs(fast.data()[i] - ref.data()[i]));
  worst /= static_cast<double>(k) * amax * bmax;

  const auto t0 = std::chrono::steady_clock::now();
  for (int rep = 0; rep < 50; ++rep) nn::matmul_into_fast(fast, a, b);
  const auto t1 = std::chrono::steady_clock::now();
  const double ns = std::chrono::duration<double, std::nano>(t1 - t0).count() /
                    (50.0 * static_cast<double>(m * n));
  return {"gemm_fma[144x64x256]", worst, nn::kFastGemmMaxNormErr, ns};
}

int run_smoke() {
  std::printf("fast-tier accuracy sweep (simd %s)\n",
              nn::fast_tier_simd_active() ? "active" : "inactive: scalar fallback");
  std::printf("%-22s %12s %12s %14s  %s\n", "kernel", "worst", "budget",
              "ns/element", "status");
  const SmokeRow rows[] = {
      sweep_kernel("exp", nn::exp_inplace_tier, -745.0, 709.0,
                   nn::kFastExpMaxUlp, [](double x) { return std::exp(x); }),
      sweep_kernel("tanh", nn::tanh_inplace_tier, -30.0, 30.0,
                   nn::kFastTanhMaxUlp, [](double x) { return std::tanh(x); }),
      sweep_kernel("sigmoid", nn::sigmoid_inplace_tier, -60.0, 60.0,
                   nn::kFastSigmoidMaxUlp,
                   [](double x) { return 1.0 / (1.0 + std::exp(-x)); }),
      sweep_gemm(),
  };
  int failures = 0;
  for (const SmokeRow& r : rows) {
    const bool ok = r.worst <= r.budget;
    failures += ok ? 0 : 1;
    std::printf("%-22s %12.3g %12.3g %14.2f  %s\n", r.kernel, r.worst,
                r.budget, r.ns_per_element, ok ? "PASS" : "FAIL");
  }
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i)
    if (std::string_view(argv[i]) == "--smoke") return run_smoke();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
