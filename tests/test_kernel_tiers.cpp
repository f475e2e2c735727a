// Golden suite for the kernel tier system (nn/kernels.hpp).
//
// Two contracts are pinned here. (1) kReference is the bit-exact status quo:
// the tier plumbing must not move a single bit anywhere while the default is
// in effect — the legacy logistic expression, the pre-PR end-to-end training
// goldens, and tier-overload delegation are all compared exactly. (2) kFast
// is tolerance-bounded: every fast kernel stays within the error budgets
// declared next to its implementation (max ULP vs libm for the
// transcendentals, a condition-free normalized bound for the FMA GEMM), the
// scalar fallback is bit-identical to the SIMD lanes (so fast-tier results
// are reproducible across machines), and end-to-end greedy evaluation picks
// the same actions as the reference tier on the 6x6 grid and the
// heterogeneous Monaco network.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <vector>

#include "src/baselines/ma2c.hpp"
#include "src/core/actor.hpp"
#include "src/core/fleet_engine.hpp"
#include "src/core/trainer.hpp"
#include "src/env/env.hpp"
#include "src/nn/inference.hpp"
#include "src/nn/kernels.hpp"
#include "src/nn/tensor.hpp"
#include "src/rl/parallel_rollout.hpp"
#include "src/rl/ppo.hpp"
#include "src/rl/rollout.hpp"
#include "src/scenarios/grid.hpp"
#include "src/scenarios/monaco.hpp"
#include "src/util/rng.hpp"

namespace tsc {
namespace {

// ---------------------------------------------------------------------------
// Tier selection plumbing.

TEST(KernelTiers, ParseAndName) {
  nn::KernelTier tier = nn::KernelTier::kFast;
  EXPECT_TRUE(nn::parse_kernel_tier("reference", &tier));
  EXPECT_EQ(tier, nn::KernelTier::kReference);
  EXPECT_TRUE(nn::parse_kernel_tier("fast", &tier));
  EXPECT_EQ(tier, nn::KernelTier::kFast);
  EXPECT_TRUE(nn::parse_kernel_tier("ref", &tier));
  EXPECT_EQ(tier, nn::KernelTier::kReference);
  EXPECT_TRUE(nn::parse_kernel_tier("1", &tier));
  EXPECT_EQ(tier, nn::KernelTier::kFast);
  EXPECT_TRUE(nn::parse_kernel_tier("0", &tier));
  EXPECT_EQ(tier, nn::KernelTier::kReference);

  tier = nn::KernelTier::kFast;
  EXPECT_FALSE(nn::parse_kernel_tier("turbo", &tier));
  EXPECT_EQ(tier, nn::KernelTier::kFast);  // untouched on failure
  EXPECT_FALSE(nn::parse_kernel_tier("", &tier));

  EXPECT_STREQ(nn::kernel_tier_name(nn::KernelTier::kReference), "reference");
  EXPECT_STREQ(nn::kernel_tier_name(nn::KernelTier::kFast), "fast");
}

TEST(KernelTiers, EnvOverride) {
  ::unsetenv("PAIRUP_KERNEL_TIER");
  EXPECT_EQ(nn::kernel_tier_from_env(nn::KernelTier::kReference),
            nn::KernelTier::kReference);
  ::setenv("PAIRUP_KERNEL_TIER", "fast", 1);
  EXPECT_EQ(nn::kernel_tier_from_env(nn::KernelTier::kReference),
            nn::KernelTier::kFast);
  ::setenv("PAIRUP_KERNEL_TIER", "nonsense", 1);
  EXPECT_EQ(nn::kernel_tier_from_env(nn::KernelTier::kReference),
            nn::KernelTier::kReference);  // warn + keep fallback
  ::unsetenv("PAIRUP_KERNEL_TIER");
}

TEST(KernelTiers, DefaultConfigsAreReferenceTier) {
  EXPECT_EQ(core::PairUpConfig{}.kernel_tier, nn::KernelTier::kReference);
  EXPECT_EQ(baselines::Ma2cConfig{}.kernel_tier, nn::KernelTier::kReference);
  nn::Workspace ws;
  EXPECT_EQ(ws.kernel_tier(), nn::KernelTier::kReference);
}

// ---------------------------------------------------------------------------
// Fast-tier accuracy budgets. ULP distance via the ordered-integer mapping
// (sign-magnitude floats to a monotonic int64 line; +-0 both map to 0).

std::int64_t ordered(double x) {
  const std::int64_t i = std::bit_cast<std::int64_t>(x);
  return i >= 0 ? i : std::numeric_limits<std::int64_t>::min() - i;
}

double ulp_distance(double a, double b) {
  if (a == b) return 0.0;                      // covers +0 vs -0
  if (std::isnan(a) || std::isnan(b)) return std::numeric_limits<double>::infinity();
  return std::abs(static_cast<double>(ordered(a) - ordered(b)));
}

// Applies the fast kernel to `xs` and returns the worst ULP distance vs the
// per-element libm oracle.
template <typename Oracle>
double worst_ulp(void (*kernel)(double*, std::size_t, nn::KernelTier),
                 const std::vector<double>& xs, Oracle oracle) {
  std::vector<double> ys = xs;
  kernel(ys.data(), ys.size(), nn::KernelTier::kFast);
  double worst = 0.0;
  for (std::size_t i = 0; i < xs.size(); ++i)
    worst = std::max(worst, ulp_distance(ys[i], oracle(xs[i])));
  return worst;
}

std::vector<double> sweep(double lo, double hi, std::size_t n, std::uint64_t seed) {
  std::vector<double> xs;
  xs.reserve(n + 2);
  Rng rng(seed);
  for (std::size_t i = 0; i < n; ++i) xs.push_back(rng.uniform(lo, hi));
  xs.push_back(lo);
  xs.push_back(hi);
  return xs;
}

TEST(KernelTiers, FastExpWithinUlpBudget) {
  // Live domains: softmax-shifted logits (<= 0, down to the -1e9 mask),
  // tanh's internal exp(2|x|), and the logistic's exp(-x).
  auto xs = sweep(-745.0, 709.0, 40000, 101);
  const auto near_zero = sweep(-1.0, 1.0, 10000, 102);
  xs.insert(xs.end(), near_zero.begin(), near_zero.end());
  EXPECT_LE(worst_ulp(nn::exp_inplace_tier, xs,
                      [](double x) { return std::exp(x); }),
            nn::kFastExpMaxUlp);
}

TEST(KernelTiers, FastTanhWithinUlpBudget) {
  // Gate pre-activations live in a few tens at most; sweep well past the
  // saturation threshold on both sides plus the rational-kernel region.
  auto xs = sweep(-30.0, 30.0, 40000, 103);
  const auto small = sweep(-0.625, 0.625, 10000, 104);
  xs.insert(xs.end(), small.begin(), small.end());
  EXPECT_LE(worst_ulp(nn::tanh_inplace_tier, xs,
                      [](double x) { return std::tanh(x); }),
            nn::kFastTanhMaxUlp);
}

TEST(KernelTiers, FastSigmoidWithinUlpBudget) {
  auto xs = sweep(-60.0, 60.0, 40000, 105);
  const auto wide = sweep(-745.0, 745.0, 10000, 106);
  xs.insert(xs.end(), wide.begin(), wide.end());
  EXPECT_LE(worst_ulp(nn::sigmoid_inplace_tier, xs,
                      [](double x) { return 1.0 / (1.0 + std::exp(-x)); }),
            nn::kFastSigmoidMaxUlp);
}

TEST(KernelTiers, FastSpecialValuesAreExact) {
  // The identities the fast-tier forwards actually lean on: a masked logit
  // (-1e9 after the max shift) must produce EXACTLY zero probability, and
  // the fixed points of each squash must stay fixed points.
  double e[] = {0.0, -1e9, 1e4, -745.0, 709.0};
  nn::exp_inplace_tier(e, 5, nn::KernelTier::kFast);
  EXPECT_EQ(e[0], 1.0);
  EXPECT_EQ(e[1], 0.0);
  EXPECT_EQ(e[2], std::numeric_limits<double>::infinity());
  EXPECT_GT(e[3], 0.0);  // deep underflow stays positive (denormal range)
  EXPECT_LT(e[4], std::numeric_limits<double>::infinity());

  double t[] = {0.0, -0.0, 40.0, -40.0};
  nn::tanh_inplace_tier(t, 4, nn::KernelTier::kFast);
  EXPECT_EQ(t[0], 0.0);
  EXPECT_EQ(t[1], 0.0);  // -0 comes back as +0 (0 ULP; sign of zero unused)
  EXPECT_EQ(t[2], 1.0);
  EXPECT_EQ(t[3], -1.0);

  double s[] = {0.0, 60.0, -800.0};
  nn::sigmoid_inplace_tier(s, 3, nn::KernelTier::kFast);
  EXPECT_EQ(s[0], 0.5);
  EXPECT_EQ(s[1], 1.0);
  EXPECT_EQ(s[2], 0.0);
}

TEST(KernelTiers, FastSoftmaxMaskedColumnsAreExactlyZero) {
  // Heterogeneous phase counts mask trailing logits with -1e9; the fast
  // softmax must put probability EXACTLY 0 there (so log-probs and sampled
  // actions can never land on a phase the controller does not have).
  nn::Tensor logits = nn::Tensor::matrix(
      2, 4, {0.3, -0.7, -1e9, -1e9, 1.2, 0.0, -0.4, -1e9});
  nn::Tensor probs;
  nn::softmax_rows_into(probs, logits, nn::KernelTier::kFast);
  EXPECT_EQ(probs.at(0, 2), 0.0);
  EXPECT_EQ(probs.at(0, 3), 0.0);
  EXPECT_EQ(probs.at(1, 3), 0.0);
  for (std::size_t r = 0; r < 2; ++r) {
    double total = 0.0;
    for (std::size_t c = 0; c < 4; ++c) total += probs.at(r, c);
    EXPECT_NEAR(total, 1.0, 1e-12) << "row " << r;
  }
}

TEST(KernelTiers, FastGemmWithinNormalizedErrorBudget) {
  // Same shape zoo as the fleet GEMM suite: single rows, exact tiles, and
  // ragged everything. The bound is |fast - reference| normalized by
  // k * max|a| * max|b| (condition-free; see kernels.hpp).
  Rng rng(9);
  const struct Shape {
    std::size_t m, k, n;
  } shapes[] = {
      {1, 3, 5}, {4, 8, 8}, {7, 16, 8}, {8, 64, 256},
      {17, 33, 19}, {36, 64, 256}, {144, 64, 8}, {5, 1, 1},
  };
  for (const Shape& s : shapes) {
    nn::Tensor a = nn::Tensor::zeros(s.m, s.k);
    nn::Tensor b = nn::Tensor::zeros(s.k, s.n);
    for (double& x : a.values())
      x = rng.bernoulli(0.3) ? 0.0 : rng.uniform(-2.0, 2.0);
    for (double& x : b.values()) x = rng.uniform(-2.0, 2.0);
    double amax = 0.0, bmax = 0.0;
    for (double x : a.values()) amax = std::max(amax, std::abs(x));
    for (double x : b.values()) bmax = std::max(bmax, std::abs(x));
    const double scale = static_cast<double>(s.k) * amax * bmax;

    nn::Tensor ref, fast;
    nn::matmul_into(ref, a, b);
    nn::matmul_into_fast(fast, a, b);
    ASSERT_EQ(ref.rows(), fast.rows());
    ASSERT_EQ(ref.cols(), fast.cols());
    double worst = 0.0;
    for (std::size_t i = 0; i < ref.size(); ++i)
      worst = std::max(worst, std::abs(fast.data()[i] - ref.data()[i]));
    EXPECT_LE(worst / scale, nn::kFastGemmMaxNormErr)
        << s.m << "x" << s.k << "x" << s.n;
  }
}

// ---------------------------------------------------------------------------
// Runtime dispatch: the portable scalar fallback must be bit-identical to
// the SIMD lanes, so fast-tier results do not depend on the host CPU.

struct ForceScalarGuard {
  bool saved = nn::fast_tier_force_scalar();
  ~ForceScalarGuard() { nn::set_fast_tier_force_scalar(saved); }
};

TEST(KernelTiers, ForceScalarFallbackBitIdenticalToSimd) {
  ForceScalarGuard guard;
  nn::set_fast_tier_force_scalar(false);
  if (!nn::fast_tier_simd_active())
    GTEST_SKIP() << "SIMD fast tier not compiled in or not supported by this "
                    "CPU; the fast tier already runs the scalar fallback";

  const auto xs = sweep(-50.0, 50.0, 20000, 107);
  auto run_all = [&] {
    std::vector<double> out;
    std::vector<double> buf = xs;
    nn::exp_inplace_tier(buf.data(), buf.size(), nn::KernelTier::kFast);
    out.insert(out.end(), buf.begin(), buf.end());
    buf = xs;
    nn::tanh_inplace_tier(buf.data(), buf.size(), nn::KernelTier::kFast);
    out.insert(out.end(), buf.begin(), buf.end());
    buf = xs;
    nn::sigmoid_inplace_tier(buf.data(), buf.size(), nn::KernelTier::kFast);
    out.insert(out.end(), buf.begin(), buf.end());
    Rng rng(31);
    nn::Tensor a = nn::Tensor::zeros(17, 33);
    nn::Tensor b = nn::Tensor::zeros(33, 19);
    for (double& x : a.values()) x = rng.uniform(-2.0, 2.0);
    for (double& x : b.values()) x = rng.uniform(-2.0, 2.0);
    nn::Tensor c;
    nn::matmul_into_fast(c, a, b);
    out.insert(out.end(), c.data(), c.data() + c.size());
    return out;
  };

  const auto simd = run_all();
  nn::set_fast_tier_force_scalar(true);
  EXPECT_FALSE(nn::fast_tier_simd_active());
  const auto scalar = run_all();
  ASSERT_EQ(simd.size(), scalar.size());
  EXPECT_EQ(0, std::memcmp(simd.data(), scalar.data(),
                           simd.size() * sizeof(double)))
      << "scalar fallback diverged from the SIMD lanes";
}

// ---------------------------------------------------------------------------
// Reference tier: bit-exact legacy behavior.

TEST(KernelTiers, ReferenceLogisticMatchesLegacySquashBitForBit) {
  // nn::logistic deduplicates the hand-rolled 1/(1+exp(-x)) message squash
  // from rollout_engine.cpp and fleet_engine.cpp; in the reference tier it
  // must reproduce that exact expression, bit for bit.
  Rng rng(17);
  for (int i = 0; i < 20000; ++i) {
    const double x = rng.uniform(-30.0, 30.0);
    EXPECT_EQ(nn::logistic(x, nn::KernelTier::kReference),
              1.0 / (1.0 + std::exp(-x)))
        << "x = " << x;
  }
  EXPECT_EQ(nn::logistic(0.0, nn::KernelTier::kReference), 0.5);
}

TEST(KernelTiers, ReferenceTierOverloadsDelegateBitForBit) {
  Rng rng(19);
  nn::Tensor logits = nn::Tensor::zeros(5, 7);
  for (double& x : logits.values()) x = rng.uniform(-4.0, 4.0);
  nn::Tensor legacy, tiered;
  nn::softmax_rows_into(legacy, logits);
  nn::softmax_rows_into(tiered, logits, nn::KernelTier::kReference);
  for (std::size_t i = 0; i < legacy.size(); ++i)
    ASSERT_EQ(legacy.data()[i], tiered.data()[i]) << "softmax elem " << i;

  nn::log_softmax_rows_into(legacy, logits);
  nn::log_softmax_rows_into(tiered, logits, nn::KernelTier::kReference);
  for (std::size_t i = 0; i < legacy.size(); ++i)
    ASSERT_EQ(legacy.data()[i], tiered.data()[i]) << "log_softmax elem " << i;

  nn::Tensor ta = logits, tb = logits;
  nn::tanh_inplace(ta);
  nn::tanh_inplace(tb, nn::KernelTier::kReference);
  for (std::size_t i = 0; i < ta.size(); ++i)
    ASSERT_EQ(ta.data()[i], tb.data()[i]) << "tanh elem " << i;
}

// The 2x2 end-to-end fixture shared with the inference-path suite.
struct GridFixture {
  scenario::GridScenario grid;
  env::TscEnv environment;

  GridFixture()
      : grid(make_grid()),
        environment(&grid.net(), make_flows(grid), make_env_config(), 1) {}

  static scenario::GridScenario make_grid() {
    scenario::GridConfig config;
    config.rows = 2;
    config.cols = 2;
    return scenario::GridScenario(config);
  }
  static std::vector<sim::FlowSpec> make_flows(const scenario::GridScenario& g) {
    std::vector<sim::FlowSpec> flows;
    for (std::size_t c = 0; c < 2; ++c) {
      sim::FlowSpec f;
      f.route = g.route(g.north_terminal(c), g.south_terminal(c));
      f.profile = {{0.0, 400.0}, {200.0, 400.0}};
      flows.push_back(f);
    }
    return flows;
  }
  static env::EnvConfig make_env_config() {
    env::EnvConfig config;
    config.episode_seconds = 100.0;
    return config;
  }

  core::PairUpConfig fast_config() {
    core::PairUpConfig config;
    config.hidden = 16;
    config.ppo.epochs = 1;
    config.ppo.minibatch = 32;
    config.seed = 7;
    return config;
  }
};

void expect_stats_identical(const env::EpisodeStats& a,
                            const env::EpisodeStats& b, const char* what) {
  EXPECT_EQ(a.avg_wait, b.avg_wait) << what;
  EXPECT_EQ(a.travel_time, b.travel_time) << what;
  EXPECT_EQ(a.mean_reward, b.mean_reward) << what;
  EXPECT_EQ(a.vehicles_finished, b.vehicles_finished) << what;
  EXPECT_EQ(a.vehicles_spawned, b.vehicles_spawned) << what;
}

TEST(KernelTiers, DefaultTierReproducesPrePrGoldens) {
  // Trajectory + trained-weight goldens captured on this fixture BEFORE the
  // tier system existed. The default (reference) tier must keep reproducing
  // them exactly: any drift means the tier plumbing perturbed the legacy
  // path, which is the one thing it must never do.
  GridFixture f;
  core::PairUpLightTrainer trainer(&f.environment, f.fast_config());

  const auto t0 = trainer.train_episode();
  EXPECT_EQ(t0.avg_wait, 8.0);
  EXPECT_EQ(t0.mean_reward, -0.45687500000000003);
  EXPECT_EQ(t0.travel_time, 43.363636363636367);

  const auto t1 = trainer.train_episode();
  EXPECT_EQ(t1.avg_wait, 11.0375);
  EXPECT_EQ(t1.mean_reward, -0.64749999999999985);
  EXPECT_EQ(t1.travel_time, 54.785714285714285);

  const auto e = trainer.eval_episode(77);
  EXPECT_EQ(e.avg_wait, 9.2624999999999993);
  EXPECT_EQ(e.mean_reward, -0.54812499999999986);
  EXPECT_EQ(e.travel_time, 47.92307692307692);
  EXPECT_EQ(e.vehicles_finished, 2u);

  std::size_t count = 0;
  double sum = 0.0, sumsq = 0.0;
  for (std::size_t m = 0; m < trainer.num_models(); ++m) {
    for (nn::Parameter* p : trainer.actor(m).parameters())
      for (double v : p->value.values()) { ++count; sum += v; sumsq += v * v; }
    for (nn::Parameter* p : trainer.critic(m).parameters())
      for (double v : p->value.values()) { ++count; sum += v; sumsq += v * v; }
  }
  EXPECT_EQ(count, 5082u);
  EXPECT_EQ(sum, 26.508848675424137);
  EXPECT_EQ(sumsq, 160.95480015356355);
}

// The kernel tier is a rollout/evaluation knob: the PPO update's workspaces
// stay at the reference tier whatever config.kernel_tier says, so training
// is bit-exact on both tiers. Two trainers, one per tier, update on copies
// of one rollout buffer (collected by a third, so both start from the same
// RNG state) and must end with identical weights.
TEST(KernelTiers, UpdateRunsReferenceTierUnderFastConfig) {
  for (std::size_t shards : {std::size_t{1}, std::size_t{2}}) {
    GridFixture source_f, ref_f, fast_f;
    core::PairUpConfig config = source_f.fast_config();
    config.num_update_shards = shards;
    core::PairUpConfig fast_config = config;
    fast_config.kernel_tier = nn::KernelTier::kFast;

    core::PairUpLightTrainer source(&source_f.environment, config);
    const rl::RolloutBuffer buffer = source.collect_rollouts(500).buffer;
    core::PairUpLightTrainer ref(&ref_f.environment, config);
    core::PairUpLightTrainer fast(&fast_f.environment, fast_config);
    rl::RolloutBuffer ref_buffer = buffer;
    rl::RolloutBuffer fast_buffer = buffer;
    ref.update(ref_buffer);
    fast.update(fast_buffer);

    std::size_t moved = 0, mismatches = 0;
    for (std::size_t m = 0; m < ref.num_models(); ++m) {
      std::vector<nn::Parameter*> a = ref.actor(m).parameters();
      std::vector<nn::Parameter*> b = fast.actor(m).parameters();
      std::vector<nn::Parameter*> init = source.actor(m).parameters();
      for (nn::Parameter* p : ref.critic(m).parameters()) a.push_back(p);
      for (nn::Parameter* p : fast.critic(m).parameters()) b.push_back(p);
      for (nn::Parameter* p : source.critic(m).parameters()) init.push_back(p);
      ASSERT_EQ(a.size(), b.size());
      for (std::size_t k = 0; k < a.size(); ++k)
        for (std::size_t i = 0; i < a[k]->value.size(); ++i) {
          if (a[k]->value[i] != b[k]->value[i]) ++mismatches;
          if (a[k]->value[i] != init[k]->value[i]) ++moved;
        }
    }
    EXPECT_EQ(mismatches, 0u) << "shards " << shards;
    EXPECT_GT(moved, 0u) << "shards " << shards << ": the update changed nothing";
  }
}

// ---------------------------------------------------------------------------
// Fast tier end-to-end: tolerance at the logits, parity at the actions.

TEST(KernelTiers, ActorForwardAcrossTiersStaysWithinTolerance) {
  // Direct network-level divergence bound: recurrent actor forwards with
  // per-tier LSTM state carried over 5 steps. A few-ULP kernel error can
  // compound through the recurrence, but must stay far below the logit gaps
  // that decide actions.
  const std::size_t obs_dim = 6, msg_dim = 2, hidden = 8, max_phases = 4;
  const std::size_t batch = 3;
  const std::vector<std::size_t> phase_counts = {2, 4, 3};
  Rng weight_rng(11);
  core::CoordinatedActor actor(obs_dim, msg_dim, hidden, max_phases, weight_rng);

  Rng input_rng(21);
  nn::Workspace ref_ws, fast_ws;
  fast_ws.set_kernel_tier(nn::KernelTier::kFast);
  std::vector<double> ref_h(batch * hidden, 0.0), ref_c(batch * hidden, 0.0);
  std::vector<double> fast_h(batch * hidden, 0.0), fast_c(batch * hidden, 0.0);

  for (std::size_t step = 0; step < 5; ++step) {
    std::vector<double> input(batch * (obs_dim + msg_dim));
    for (double& x : input) x = input_rng.uniform(-1.0, 1.0);

    auto forward = [&](nn::Workspace& ws, std::vector<double>& h,
                       std::vector<double>& c) {
      ws.begin_pass();
      nn::Tensor& x_in = ws.acquire(batch, obs_dim + msg_dim);
      std::copy(input.begin(), input.end(), x_in.data());
      nn::Tensor& h_in = ws.acquire(batch, hidden);
      std::copy(h.begin(), h.end(), h_in.data());
      nn::Tensor& c_in = ws.acquire(batch, hidden);
      std::copy(c.begin(), c.end(), c_in.data());
      const auto out = actor.forward(ws, x_in, h_in, c_in, phase_counts);
      h.assign(out.h->data(), out.h->data() + batch * hidden);
      c.assign(out.c->data(), out.c->data() + batch * hidden);
      return out;
    };

    const auto ref = forward(ref_ws, ref_h, ref_c);
    const auto fast = forward(fast_ws, fast_h, fast_c);
    for (std::size_t r = 0; r < batch; ++r)
      for (std::size_t cc = 0; cc < phase_counts[r]; ++cc)
        EXPECT_NEAR(ref.logits->at(r, cc), fast.logits->at(r, cc), 1e-9)
            << "step " << step << " logit (" << r << "," << cc << ")";
    for (std::size_t i = 0; i < batch * msg_dim; ++i)
      EXPECT_NEAR(ref.message->data()[i], fast.message->data()[i], 1e-9)
          << "step " << step << " message " << i;
    // Masked logits are identical huge negatives on both tiers.
    EXPECT_LT(fast.logits->at(0, 3), -1e8);
  }
}

void run_greedy_eval_parity(env::TscEnv* ref_env, env::TscEnv* fast_env,
                            core::PairUpConfig config) {
  config.greedy_eval = true;
  core::PairUpConfig fast_config = config;
  fast_config.kernel_tier = nn::KernelTier::kFast;
  core::PairUpLightTrainer ref_trainer(ref_env, config);
  core::PairUpLightTrainer fast_trainer(fast_env, fast_config);

  // Same seed, no training: both trainers hold bit-identical weights, so any
  // stat difference can only come from a kernel-induced argmax flip.
  for (std::uint64_t seed : {77u, 78u, 79u}) {
    const auto ref = ref_trainer.eval_episode(seed);
    const auto fast = fast_trainer.eval_episode(seed);
    EXPECT_GT(ref.vehicles_spawned, 0u);  // not vacuously equal
    expect_stats_identical(ref, fast, "greedy eval across tiers");
  }
}

TEST(KernelTiers, FastGreedyEvalMatchesReferenceOnGrid) {
  GridFixture ref_f, fast_f;
  run_greedy_eval_parity(&ref_f.environment, &fast_f.environment,
                         ref_f.fast_config());
}

TEST(KernelTiers, FastGreedyEvalMatchesReferenceOnMonaco) {
  // Heterogeneous Monaco network without parameter sharing: every model
  // bucket and phase-count mask shape goes through the fast kernels.
  struct MonacoFixture {
    scenario::MonacoScenario monaco;
    env::TscEnv environment;
    MonacoFixture()
        : monaco(make_config()),
          environment(&monaco.net(), monaco.make_flows(700.0, 0.05, 4, 13),
                      make_env_config(), 1) {}
    static scenario::MonacoConfig make_config() {
      scenario::MonacoConfig config;
      config.grid_rows = 4;
      config.grid_cols = 3;
      return config;
    }
    static env::EnvConfig make_env_config() {
      env::EnvConfig config;
      config.episode_seconds = 120.0;
      return config;
    }
  };
  MonacoFixture ref_f, fast_f;
  core::PairUpConfig config;
  config.hidden = 12;
  config.ppo.epochs = 1;
  config.seed = 7;
  config.parameter_sharing = false;
  run_greedy_eval_parity(&ref_f.environment, &fast_f.environment, config);
}

TEST(KernelTiers, FleetMatchesPerAgentWithinFastTier) {
  // Within the fast tier every GEMM routes to the FMA kernel and the
  // squash/softmax go through the same tier dispatch, so no row's result
  // depends on how many rows share its batch: a two-replica fleet reproduces
  // each replica's episode run on its own (one env's agents per batch, like
  // the per-agent decision loop) bit for bit.
  GridFixture f;
  core::PairUpConfig config = f.fast_config();
  config.num_envs = 2;
  config.kernel_tier = nn::KernelTier::kFast;
  core::PairUpLightTrainer trainer(&f.environment, config);
  const auto fleet = trainer.collect_rollouts(12345);

  std::vector<std::uint64_t> seeds;
  std::vector<Rng> rngs;
  rl::derive_round_streams(12345, 2, seeds, rngs);
  ASSERT_EQ(seeds, trainer.last_episode_seeds());
  core::FleetRolloutEngine engine(&trainer.config(), {&trainer.actor()},
                                  {&trainer.critic()}, trainer.hop1_slots(),
                                  trainer.hop2_slots(),
                                  trainer.critic_input_dim());
  std::vector<rl::RolloutBuffer> parts;
  std::size_t env_steps = 0;
  for (std::size_t w = 0; w < 2; ++w) {
    auto replica = f.environment.clone(w);
    parts.emplace_back(f.environment.num_agents());
    std::vector<core::FleetSlot> slots{
        core::FleetSlot{replica.get(), seeds[w], &rngs[w], &parts.back()}};
    engine.run_episodes(slots, /*train_mode=*/true,
                        rl::epsilon_at(0, config.ppo));
    env_steps += replica->steps_taken();
  }
  EXPECT_EQ(fleet.env_steps, env_steps);
  const rl::RolloutBuffer single = rl::merge_rollouts(std::move(parts));
  ASSERT_EQ(fleet.buffer.num_agents(), single.num_agents());
  for (std::size_t i = 0; i < single.num_agents(); ++i) {
    const auto& sa = fleet.buffer.agent_samples(i);
    const auto& sb = single.agent_samples(i);
    ASSERT_EQ(sa.size(), sb.size()) << "agent " << i;
    for (std::size_t t = 0; t < sa.size(); ++t) {
      EXPECT_EQ(sa[t].obs, sb[t].obs) << "agent " << i << " step " << t;
      EXPECT_EQ(sa[t].h_actor, sb[t].h_actor) << "agent " << i << " step " << t;
      EXPECT_EQ(sa[t].c_actor, sb[t].c_actor) << "agent " << i << " step " << t;
      EXPECT_EQ(sa[t].action, sb[t].action) << "agent " << i << " step " << t;
      EXPECT_EQ(sa[t].log_prob, sb[t].log_prob) << "agent " << i << " step " << t;
      EXPECT_EQ(sa[t].value, sb[t].value) << "agent " << i << " step " << t;
      EXPECT_EQ(sa[t].ret, sb[t].ret) << "agent " << i << " step " << t;
    }
  }
}

}  // namespace
}  // namespace tsc
