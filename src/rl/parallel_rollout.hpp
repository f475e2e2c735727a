// Multi-episode rollout batches: merging per-replica episode buffers into
// one PPO batch, and the deterministic per-round seed and exploration-stream
// derivations for num_envs > 1 collection (core/trainer.hpp runs the
// replicas in lockstep through core/fleet_engine.hpp). Seeds derive on the
// calling thread from the round's base seed alone, so a run is
// bit-reproducible for a fixed replica count.
#pragma once

#include <cstdint>
#include <vector>

#include "src/rl/rollout.hpp"
#include "src/util/rng.hpp"

namespace tsc::rl {

/// Concatenates per-replica episode buffers (identical agent rosters) into
/// one batch, preserving replica order. Each part must already be finished
/// (GAE run per episode) - advantages are per-trajectory quantities and
/// cannot be computed across the merge boundary.
RolloutBuffer merge_rollouts(std::vector<RolloutBuffer> parts);

/// Derives one round's env seeds and exploration streams from the round's
/// base seed: seed draw and split() interleaved per slot (the historical
/// thread-pool collector's derivation, which the num_envs > 1 golden in
/// tests/test_parallel_rollout.cpp pins).
inline void derive_round_streams(std::uint64_t base_seed, std::size_t k,
                                 std::vector<std::uint64_t>& env_seeds,
                                 std::vector<Rng>& rngs) {
  Rng seeder(base_seed);
  env_seeds.clear();
  rngs.clear();
  env_seeds.reserve(k);
  rngs.reserve(k);
  for (std::size_t w = 0; w < k; ++w) {
    env_seeds.push_back(seeder());
    rngs.push_back(seeder.split());
  }
}

/// Replica-count-invariant variant: each slot's exploration stream derives
/// from its caller-chosen env seed alone (split() of a fresh Rng(seed)
/// decorrelates the exploration draws from the env's own Rng(seed) stream
/// while staying a pure function of the episode's seed).
inline void derive_seeded_streams(const std::vector<std::uint64_t>& env_seeds,
                                  std::vector<Rng>& rngs) {
  rngs.clear();
  rngs.reserve(env_seeds.size());
  for (std::uint64_t seed : env_seeds) {
    Rng derive(seed);
    rngs.push_back(derive.split());
  }
}

}  // namespace tsc::rl
