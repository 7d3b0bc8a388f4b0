#include "nn/gnn.h"

#include <stdexcept>

namespace tpuperf::nn {

GraphStructure BuildGraphStructure(
    const std::vector<std::vector<int>>& operand_lists, bool build_sym_norm) {
  const int n = static_cast<int>(operand_lists.size());
  GraphStructure gs;
  gs.in_agg = Matrix(n, n);
  gs.out_agg = Matrix(n, n);
  gs.sym_mask = Matrix(n, n);

  std::vector<int> out_degree(static_cast<size_t>(n), 0);
  for (int i = 0; i < n; ++i) {
    for (const int j : operand_lists[static_cast<size_t>(i)]) {
      ++out_degree[static_cast<size_t>(j)];
    }
  }
  for (int i = 0; i < n; ++i) {
    const auto& ops = operand_lists[static_cast<size_t>(i)];
    const float in_w = ops.empty() ? 0.0f : 1.0f / static_cast<float>(ops.size());
    for (const int j : ops) {
      gs.in_agg.at(i, j) += in_w;
      gs.sym_mask.at(i, j) = 1.0f;
      gs.sym_mask.at(j, i) = 1.0f;
    }
    gs.sym_mask.at(i, i) = 1.0f;
  }
  // out_agg[j][i] = 1/out_degree(j) for each edge j -> i (j used by i).
  for (int i = 0; i < n; ++i) {
    for (const int j : operand_lists[static_cast<size_t>(i)]) {
      gs.out_agg.at(j, i) +=
          1.0f / static_cast<float>(out_degree[static_cast<size_t>(j)]);
    }
  }
  if (build_sym_norm) {
    // Renormalize rows of in_agg + out_agg so the mean aggregator stays a
    // mean (used by the undirected ablation).
    gs.sym_norm = Add(gs.in_agg, gs.out_agg);
    for (int i = 0; i < n; ++i) {
      float total = 0;
      for (int j = 0; j < n; ++j) total += gs.sym_norm.at(i, j);
      if (total > 0) {
        for (int j = 0; j < n; ++j) gs.sym_norm.at(i, j) /= total;
      }
    }
  }
  return gs;
}

BatchedGraphStructure PackGraphStructures(
    std::span<const GraphStructure* const> structures) {
  BatchedGraphStructure batch;
  batch.blocks.reserve(structures.size());
  batch.offsets.reserve(structures.size() + 1);
  batch.offsets.push_back(0);
  for (const GraphStructure* gs : structures) {
    if (gs == nullptr) {
      throw std::invalid_argument("PackGraphStructures: null structure");
    }
    batch.blocks.push_back(gs);
    batch.offsets.push_back(batch.offsets.back() + gs->in_agg.rows());
  }
  return batch;
}

GraphSageLayer::GraphSageLayer(ParamStore& store, const std::string& name,
                               int dim, bool directed, bool l2_normalize,
                               std::mt19937_64& rng)
    : directed_(directed), l2_normalize_(l2_normalize) {
  f2_in_ = Linear(store, name + ".f2_in", dim, dim, rng);
  if (directed) {
    f2_out_ = Linear(store, name + ".f2_out", dim, dim, rng);
    f3_ = Linear(store, name + ".f3", 3 * dim, dim, rng);
  } else {
    f3_ = Linear(store, name + ".f3", 2 * dim, dim, rng);
  }
}

Tensor GraphSageLayer::Forward(Tape& tape, Tensor h,
                               const BatchedGraphStructure& gs) const {
  std::vector<const Matrix*> blocks(gs.blocks.size());
  Tensor out;
  if (directed_) {
    for (size_t b = 0; b < gs.blocks.size(); ++b) {
      blocks[b] = &gs.blocks[b]->in_agg;
    }
    Tensor msg_in =
        BlockDiagMatMulConstA(tape, blocks, gs.offsets,
                              ReluOp(tape, f2_in_.Forward(tape, h)));
    for (size_t b = 0; b < gs.blocks.size(); ++b) {
      blocks[b] = &gs.blocks[b]->out_agg;
    }
    Tensor msg_out =
        BlockDiagMatMulConstA(tape, blocks, gs.offsets,
                              ReluOp(tape, f2_out_.Forward(tape, h)));
    const Tensor parts[] = {h, msg_in, msg_out};
    out = f3_.Forward(tape, ConcatColsOp(tape, parts));
  } else {
    // Undirected ablation: same feedforward for both directions, aggregated
    // over the symmetric neighborhood (sym_norm, precomputed at build time).
    for (size_t b = 0; b < gs.blocks.size(); ++b) {
      blocks[b] = &gs.blocks[b]->sym_norm;
    }
    Tensor msg =
        BlockDiagMatMulConstA(tape, blocks, gs.offsets,
                              ReluOp(tape, f2_in_.Forward(tape, h)));
    const Tensor parts[] = {h, msg};
    out = f3_.Forward(tape, ConcatColsOp(tape, parts));
  }
  out = ReluOp(tape, out);
  if (l2_normalize_) out = RowL2NormalizeOp(tape, out);
  return out;
}

GatLayer::GatLayer(ParamStore& store, const std::string& name, int dim,
                   int num_heads, std::mt19937_64& rng) {
  if (num_heads <= 0 || dim % num_heads != 0) {
    throw std::invalid_argument("GatLayer: dim must be divisible by heads");
  }
  head_dim_ = dim / num_heads;
  for (int h = 0; h < num_heads; ++h) {
    const std::string prefix = name + ".h" + std::to_string(h);
    Head head;
    head.w = Linear(store, prefix + ".w", dim, head_dim_, rng);
    head.a_src = store.Create(prefix + ".a_src", head_dim_, 1,
                              Init::kXavierUniform, rng);
    head.a_dst = store.Create(prefix + ".a_dst", head_dim_, 1,
                              Init::kXavierUniform, rng);
    heads_.push_back(std::move(head));
  }
  merge_ = Linear(store, name + ".merge", dim, dim, rng);
}

Tensor GatLayer::Forward(Tape& tape, Tensor h,
                         const BatchedGraphStructure& gs) const {
  if (heads_.empty()) throw std::logic_error("GatLayer: uninitialized");
  std::vector<const Matrix*> masks;
  masks.reserve(gs.blocks.size());
  for (const GraphStructure* block : gs.blocks) {
    masks.push_back(&block->sym_mask);
  }
  std::vector<Tensor> head_outputs;
  head_outputs.reserve(heads_.size());
  for (const Head& head : heads_) {
    // Dense projections over the whole packed batch (single GEMMs).
    Tensor wh = head.w.Forward(tape, h);  // [N, head_dim]
    Tensor s = MatMulOp(tape, wh, tape.ParamLeaf(*head.a_src));  // [N, 1]
    Tensor d = MatMulOp(tape, wh, tape.ParamLeaf(*head.a_dst));  // [N, 1]
    // Attention stays per segment (nodes never attend across kernels): one
    // fused op per head holds every segment's masked attention in one tape
    // node whose forward and backward shard segments across the pool.
    head_outputs.push_back(
        BlockDiagGatAttentionOp(tape, s, d, wh, masks, gs.offsets, 0.2f));
  }
  Tensor merged = ConcatColsOp(tape, head_outputs);
  return ReluOp(tape, merge_.Forward(tape, merged));
}

}  // namespace tpuperf::nn
