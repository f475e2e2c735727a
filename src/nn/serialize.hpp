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
#pragma once

#include <string>

#include "src/nn/module.hpp"
#include "src/nn/optim.hpp"

namespace tsc::nn {

/// Writes all parameters of `module` to `path`. Throws on I/O failure.
void save_weights(Module& module, const std::string& path);

/// Loads parameters saved by save_weights. Throws on I/O failure, a
/// truncated file, or stored shapes that do not match the module's
/// parameters; the module's weights are only written once the whole file
/// has been read, so a throw leaves them unchanged.
void load_weights(Module& module, const std::string& path);

/// Writes `optim`'s full state (Adam step count + per-parameter first and
/// second moments) to `path`. Without this a resumed run silently restarts
/// the moments and bias correction, so its training curve diverges from the
/// uninterrupted one. Throws on I/O failure.
void save_optimizer_state(const Adam& optim, const std::string& path);

/// Restores state saved by save_optimizer_state. Throws on I/O failure, an
/// unknown format version, or if the stored shapes do not match the
/// optimizer's parameters (same checks as load_weights).
void load_optimizer_state(Adam& optim, const std::string& path);

}  // namespace tsc::nn
