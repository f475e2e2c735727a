#include "src/nn/gat.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "src/nn/backward.hpp"
#include "src/nn/inference.hpp"

namespace tsc::nn {

GatLayer::GatLayer(std::size_t entity_dim, std::size_t out_dim,
                   std::size_t max_entities, Rng& rng)
    : entity_dim_(entity_dim), out_dim_(out_dim), max_entities_(max_entities) {
  w_query_ = std::make_unique<Linear>(entity_dim, out_dim, rng, 1.0);
  w_key_ = std::make_unique<Linear>(entity_dim, out_dim, rng, 1.0);
  w_value_ = std::make_unique<Linear>(entity_dim, out_dim, rng, 1.0);
  w_out_ = std::make_unique<Linear>(out_dim, out_dim, rng, 1.0);
  register_module(w_query_.get());
  register_module(w_key_.get());
  register_module(w_value_.get());
  register_module(w_out_.get());
}

Var GatLayer::forward(Tape& tape, Var entities, const std::vector<bool>& mask) {
  assert(tape.value(entities).rows() == max_entities_);
  assert(tape.value(entities).cols() == entity_dim_);
  assert(mask.size() == max_entities_);
  assert(mask[0] && "row 0 (self) must be a live entity");

  Var query = w_query_->forward(tape, tape.select_row(entities, 0));  // [1, d]
  Var keys = w_key_->forward(tape, entities);                         // [E, d]
  Var vals = w_value_->forward(tape, entities);                       // [E, d]

  // scores[1, E] = query @ keys^T / sqrt(d), with -inf on padded slots.
  // keys^T is realized by per-row dot products via matmul with transposed
  // layout: we compute query [1,d] @ keys_r [d,E] where keys_r is built from
  // slices. Cheaper: scores_e = sum(query * key_e) using mul+sum per entity.
  std::vector<Var> score_parts;
  score_parts.reserve(max_entities_);
  const double inv_sqrt_d = 1.0 / std::sqrt(static_cast<double>(out_dim_));
  for (std::size_t e = 0; e < max_entities_; ++e) {
    Var key_e = tape.select_row(keys, e);  // [1, d]
    Var dot = tape.sum(tape.mul(query, key_e));
    dot = tape.scale(dot, inv_sqrt_d);
    if (!mask[e]) dot = tape.add_scalar(tape.scale(dot, 0.0), -1e9);
    score_parts.push_back(dot);  // [1]
  }
  Var scores = tape.concat_cols(score_parts);  // [1, E]
  Var alpha = tape.softmax_rows(scores);       // [1, E]

  last_attention_.assign(tape.value(alpha).data(),
                         tape.value(alpha).data() + max_entities_);

  Var mixed = tape.matmul(alpha, vals);  // [1, d]
  return tape.relu(w_out_->forward(tape, mixed));
}

void GatLayer::backward_train(Workspace& ws, const Tensor& entities,
                              const TrainTrace& trace, const Tensor& dout,
                              Tensor* const* sinks, Tensor* dentities) const {
  const std::vector<bool>& mask = *trace.mask;
  // relu -> output Linear.
  Tensor& dz = ws.acquire_zeroed(1, out_dim_);
  relu_backward_acc(dz, dout, *trace.out);
  Tensor& dmixed = ws.acquire_zeroed(1, out_dim_);
  w_out_->backward_train(ws, *trace.mixed, dz, *sinks[6], *sinks[7], &dmixed);
  // mixed = alpha @ vals.
  Tensor& dalpha = ws.acquire_zeroed(1, max_entities_);
  backward_matmul_nt_acc(ws, dalpha, dmixed, *trace.vals);
  Tensor& dvals = ws.acquire_zeroed(max_entities_, out_dim_);
  backward_matmul_tn_acc(dvals, *trace.alpha, dmixed);
  // softmax, then the per-entity score chains in descending creation order.
  Tensor& dscores = ws.acquire_zeroed(1, max_entities_);
  softmax_backward_acc(dscores, dalpha, *trace.alpha);
  Tensor& dquery = ws.acquire_zeroed(1, out_dim_);
  Tensor& dkeys = ws.acquire_zeroed(max_entities_, out_dim_);
  const double inv_sqrt_d = 1.0 / std::sqrt(static_cast<double>(out_dim_));
  const double* pq = trace.query->data();
  for (std::size_t e = max_entities_; e-- > 0;) {
    // A masked slot's chain ends in scale-by-0.0: every contribution it
    // feeds back is an exact ±0.0 onto +0.0-seeded sinks — skippable.
    if (!mask[e]) continue;
    const double gs = 0.0 + dscores[e];            // concat_cols backward
    const double gdot = 0.0 + inv_sqrt_d * gs;     // scale backward
    const double* krow = trace.keys->data() + e * out_dim_;
    double* dkrow = dkeys.data() + e * out_dim_;
    for (std::size_t j = 0; j < out_dim_; ++j) {
      // sum backward broadcasts gdot; mul backward splits it to query/key.
      dquery[j] += gdot * krow[j];
      dkrow[j] = 0.0 + gdot * pq[j];
    }
  }
  // Linear backwards in descending node order: values, keys, query. The
  // entity gradient accumulates values-term first, then keys-term, then the
  // select_row scatter of the self-row gradient — the tape's exact order.
  Tensor* dself = nullptr;
  w_value_->backward_train(ws, entities, dvals, *sinks[4], *sinks[5], dentities);
  w_key_->backward_train(ws, entities, dkeys, *sinks[2], *sinks[3], dentities);
  if (dentities != nullptr) {
    dself = &ws.acquire_zeroed(1, entity_dim_);
  }
  w_query_->backward_train(ws, *trace.self_row, dquery, *sinks[0], *sinks[1],
                           dself);
  if (dentities != nullptr) {
    double* drow0 = dentities->data();
    const double* ds = dself->data();
    for (std::size_t c = 0; c < entity_dim_; ++c) drow0[c] += ds[c];
  }
}

const Tensor& GatLayer::forward(Workspace& ws, const Tensor& entities,
                                std::span<const std::vector<bool>* const> masks,
                                TrainTrace* trace) {
  const std::size_t blocks = masks.size();
  assert(blocks > 0);
  assert(trace == nullptr || blocks == 1);
  assert(entities.rows() == blocks * max_entities_);
  assert(entities.cols() == entity_dim_);

  Tensor& selfs = ws.acquire(blocks, entity_dim_);  // each block's row 0
  for (std::size_t b = 0; b < blocks; ++b)
    std::copy(entities.data() + b * max_entities_ * entity_dim_,
              entities.data() + (b * max_entities_ + 1) * entity_dim_,
              selfs.data() + b * entity_dim_);
  const Tensor& query = w_query_->forward(ws, selfs);    // [B, d]
  const Tensor& keys = w_key_->forward(ws, entities);    // [B*E, d]
  const Tensor& vals = w_value_->forward(ws, entities);  // [B*E, d]

  // Per-entity scores replay the tape's mul -> sum -> scale -> mask chain:
  // each product is rounded before the running sum, the scale by 1/sqrt(d)
  // rounds once, and a masked slot becomes exactly dot*0.0 + (-1e9).
  Tensor& scores = ws.acquire(blocks, max_entities_);
  const double inv_sqrt_d = 1.0 / std::sqrt(static_cast<double>(out_dim_));
  for (std::size_t b = 0; b < blocks; ++b) {
    const std::vector<bool>& mask = *masks[b];
    assert(mask.size() == max_entities_);
    assert(mask[0] && "row 0 (self) must be a live entity");
    const double* pq = query.data() + b * out_dim_;
    double* srow = scores.data() + b * max_entities_;
    for (std::size_t e = 0; e < max_entities_; ++e) {
      const double* krow = keys.data() + (b * max_entities_ + e) * out_dim_;
      double dot = 0.0;
      for (std::size_t j = 0; j < out_dim_; ++j) {
        const double p = pq[j] * krow[j];
        dot += p;
      }
      double score = dot * inv_sqrt_d;
      if (!mask[e]) score = score * 0.0 + (-1e9);
      srow[e] = score;
    }
  }
  Tensor& alpha = ws.acquire(blocks, max_entities_);
  softmax_rows_into(alpha, scores, ws.kernel_tier());

  last_attention_.assign(alpha.data() + (blocks - 1) * max_entities_,
                         alpha.data() + blocks * max_entities_);

  // Per-block [1, E] @ [E, d] products on the stacked buffers.
  Tensor& mixed = ws.acquire(blocks, out_dim_);
  for (std::size_t b = 0; b < blocks; ++b)
    matmul_rows_into(mixed.data() + b * out_dim_,
                     alpha.data() + b * max_entities_,
                     vals.data() + b * max_entities_ * out_dim_,
                     /*m=*/1, max_entities_, out_dim_);
  Tensor& out = const_cast<Tensor&>(w_out_->forward(ws, mixed));
  relu_inplace(out);
  if (trace != nullptr)
    *trace = {&selfs, &query, &keys, &vals, &alpha, &mixed, &out, masks[0]};
  return out;
}

}  // namespace tsc::nn
