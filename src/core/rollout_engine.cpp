#include "src/core/rollout_engine.hpp"

namespace tsc::core {

std::size_t pick_partner(const env::TscEnv& env, const PairUpConfig& config,
                         Rng* rng, std::size_t agent) {
  const auto& upstream = env.agent(agent).upstream;
  switch (config.pairing) {
    case PairingStrategy::kMostCongestedUpstream:
      return env.most_congested_upstream(agent);
    case PairingStrategy::kSelf:
      return agent;
    case PairingStrategy::kRandomNeighbor:
      if (upstream.empty()) return agent;
      return upstream[rng->uniform_int(upstream.size())];
    case PairingStrategy::kFixedUpstream:
      return upstream.empty() ? agent : upstream.front();
  }
  return agent;
}

}  // namespace tsc::core
