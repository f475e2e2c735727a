// Deterministic pseudo-random number generation for simulation and training.
//
// A single seeded Rng instance is threaded through every stochastic component
// (flow arrivals, policy sampling, weight init) so whole experiments replay
// bit-for-bit given the same seed.
#pragma once

#include <cstdint>
#include <vector>

namespace tsc {

/// xoshiro256++ generator with distribution helpers.
///
/// NOT thread-safe and never to be shared across threads: every draw
/// mutates the 4-word state, so concurrent use is a data race AND silently
/// destroys reproducibility. Parallel components must hand each worker its
/// own instance BY VALUE, derived via split() on the owning thread before
/// dispatch (rl::derive_round_streams derives one stream per rollout
/// replica this way).
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Seeds the four-word state via SplitMix64 expansion of `seed`.
  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ULL);

  /// Raw 64-bit draw (satisfies UniformRandomBitGenerator).
  std::uint64_t operator()();

  static constexpr std::uint64_t min() { return 0; }
  static constexpr std::uint64_t max() { return ~0ULL; }

  /// Uniform double in [0, 1).
  double uniform();

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);

  /// Uniform integer in [0, n). Requires n > 0.
  std::uint64_t uniform_int(std::uint64_t n);

  /// Standard normal via Box-Muller (cached second value).
  double normal();

  /// Normal with the given mean and standard deviation.
  double normal(double mean, double stddev);

  /// Standard logistic distribution sample (mean 0, scale 1).
  double logistic();

  /// Bernoulli trial with success probability p.
  bool bernoulli(double p);

  /// Samples an index from an (unnormalized, non-negative) weight vector.
  /// Returns weights.size()-1 if rounding pushes past the end.
  /// Throws std::invalid_argument (in every build mode) if the vector is
  /// empty, any weight is negative or NaN, or no weight is strictly
  /// positive — each of those would otherwise silently return a biased or
  /// out-of-range index.
  std::size_t categorical(const std::vector<double>& weights);

  /// Exponential inter-arrival sample with the given rate (events/unit time).
  double exponential(double rate);

  /// Derives an independent generator (for per-agent / per-worker streams).
  Rng split();

  /// Full generator state, including the Box-Muller cache, so a restored
  /// generator continues the exact draw sequence (checkpoint/resume).
  struct State {
    std::uint64_t s[4] = {0, 0, 0, 0};
    double cached_normal = 0.0;
    bool has_cached_normal = false;
  };
  State state() const;
  void set_state(const State& state);

 private:
  std::uint64_t s_[4];
  double cached_normal_ = 0.0;
  bool has_cached_normal_ = false;
};

}  // namespace tsc
