// Graph attention over an agent's local neighborhood (self + K neighbor
// slots), as used by CoLight: scaled dot-product attention where the query
// is the agent itself and keys/values are the neighborhood entities.
#pragma once

#include <cstddef>
#include <memory>
#include <span>
#include <vector>

#include "src/nn/layers.hpp"
#include "src/nn/module.hpp"

namespace tsc::nn {

class GatLayer : public Module {
 public:
  /// `entity_dim`: embedding width of each entity row; `out_dim`: output
  /// width; `max_entities`: fixed neighborhood size (self + padded slots).
  GatLayer(std::size_t entity_dim, std::size_t out_dim, std::size_t max_entities,
           Rng& rng);

  /// entities: [max_entities, entity_dim] where row 0 is the agent itself;
  /// mask[k] == false marks a padded slot (excluded from attention).
  /// Returns [1, out_dim].
  Var forward(Tape& tape, Var entities, const std::vector<bool>& mask);

  /// Activations a traced forward keeps for backward_train(); all tensors
  /// are workspace slots (valid until the next begin_pass()).
  struct TrainTrace {
    const Tensor* self_row = nullptr;  ///< [1, entity_dim]
    const Tensor* query = nullptr;     ///< [1, out_dim]
    const Tensor* keys = nullptr;      ///< [max_entities, out_dim]
    const Tensor* vals = nullptr;      ///< [max_entities, out_dim]
    const Tensor* alpha = nullptr;     ///< [1, max_entities]
    const Tensor* mixed = nullptr;     ///< [1, out_dim]
    const Tensor* out = nullptr;       ///< [1, out_dim] post-relu
    const std::vector<bool>* mask = nullptr;
  };

  /// Block-batched workspace forward: `entities` stacks B = masks.size()
  /// independent neighborhoods as [B * max_entities, entity_dim] (block b's
  /// first row is that block's self) and masks[b] is block b's entity mask.
  /// Returns [B, out_dim]; a single neighborhood is B = 1. Row b is
  /// bit-identical to the tape forward on block b alone at the reference
  /// tier: the query / key / value projections batch into single
  /// row-independent GEMMs, and the score chain (mul -> sum -> scale ->
  /// mask), the softmax loops and the per-block alpha @ vals product replay
  /// the tape's single-block arithmetic (nn::matmul_rows_into on the
  /// stacked buffers). last_attention() afterwards holds the LAST block's
  /// weights. A non-null `trace` (B = 1 only) keeps the activations
  /// backward_train() reads.
  const Tensor& forward(Workspace& ws, const Tensor& entities,
                        std::span<const std::vector<bool>* const> masks,
                        TrainTrace* trace = nullptr);

  /// Analytic backward: `dout` is the [1, out_dim] output gradient;
  /// parameter gradients accumulate into `sinks` in parameters() order
  /// ([wq.w, wq.b, wk.w, wk.b, wv.w, wv.b, wo.w, wo.b]); when
  /// dentities != nullptr, dentities += gradient w.r.t.
  /// the entity rows. Bit-identical to the tape's backward, including the
  /// accumulation order of the three entity-gradient contributions
  /// (values term, keys term, then the self-row scatter) and the exactly
  /// skippable masked-slot score chains.
  void backward_train(Workspace& ws, const Tensor& entities,
                      const TrainTrace& trace, const Tensor& dout,
                      Tensor* const* sinks, Tensor* dentities) const;

  /// Attention weights of the last forward() call (for tests/inspection).
  const std::vector<double>& last_attention() const { return last_attention_; }

  std::size_t max_entities() const { return max_entities_; }

 private:
  std::size_t entity_dim_, out_dim_, max_entities_;
  std::unique_ptr<Linear> w_query_;
  std::unique_ptr<Linear> w_key_;
  std::unique_ptr<Linear> w_value_;
  std::unique_ptr<Linear> w_out_;
  std::vector<double> last_attention_;
};

}  // namespace tsc::nn
