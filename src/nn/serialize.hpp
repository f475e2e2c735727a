// Checkpointing: save/load a Module's parameters and an optimizer's state
// to simple binary formats.
//
// Weights:   magic "TSCW", u64 parameter count, then per parameter:
//              u64 rank, u64 dims..., f64 values...
// Optimizer: magic "TSCO", u64 format version, u64 step count, u64
//            parameter count, then per parameter:
//              u64 rank, u64 dims..., f64 first moments..., f64 second
//              moments...
// Both match positionally (same module/optimizer architecture required).
//
// Every loader is split into a parse step (read_*: reads the whole file and
// checks it against the target's shapes, touching nothing) and a commit
// step (commit_*: cannot fail). load_* is the two in sequence; a caller
// restoring several files at once parses them all before committing any.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "src/nn/module.hpp"
#include "src/nn/optim.hpp"

namespace tsc::nn {

/// Writes all parameters of `module` to `path`. Throws on I/O failure.
void save_weights(Module& module, const std::string& path);

/// A TSCW file parsed and shape-checked against a module, not yet applied:
/// one tensor per parameter, in parameters() order.
using StagedWeights = std::vector<Tensor>;

/// Parses weights saved by save_weights for `module`. Throws on I/O
/// failure, a truncated file, or stored shapes that do not match the
/// module's parameters. Leaves the module untouched.
StagedWeights read_weights(Module& module, const std::string& path);

/// Copies staged weights into the module's parameters.
void commit_weights(Module& module, const StagedWeights& staged);

/// read_weights then commit_weights: a throw leaves the weights unchanged.
void load_weights(Module& module, const std::string& path);

/// Writes `optim`'s full state (Adam step count + per-parameter first and
/// second moments) to `path`. Without this a resumed run silently restarts
/// the moments and bias correction, so its training curve diverges from the
/// uninterrupted one. Throws on I/O failure.
void save_optimizer_state(const Adam& optim, const std::string& path);

/// A TSCO file parsed and shape-checked against an optimizer, not yet
/// applied.
struct StagedOptimizerState {
  std::vector<Tensor> m, v;  ///< first / second moments per parameter
  std::size_t steps = 0;     ///< Adam step count
};

/// Parses state saved by save_optimizer_state for `optim`. Throws on I/O
/// failure, an unknown format version, or if the stored shapes do not match
/// the optimizer's parameters (same checks as read_weights). Leaves the
/// optimizer untouched.
StagedOptimizerState read_optimizer_state(const Adam& optim,
                                          const std::string& path);

/// Installs staged state into the optimizer.
void commit_optimizer_state(Adam& optim, StagedOptimizerState staged);

/// read_optimizer_state then commit_optimizer_state: a throw leaves the
/// optimizer unchanged.
void load_optimizer_state(Adam& optim, const std::string& path);

}  // namespace tsc::nn
